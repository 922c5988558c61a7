//! The one binary codec behind every file the pipeline writes.
//!
//! Two layers, both deterministic and both total on hostile input:
//!
//! * **Fields** — big-endian primitives appended with the `put_*`
//!   functions and read back through the bounds-checked [`Cur`]; byte
//!   strings carry a `u64` length prefix. There is no self-description,
//!   so each state blob leads with its own `u32` format version and a
//!   schema change is a clean [`CodecError::BadVersion`], not a
//!   misinterpretation. Hash maps are written in sorted key order, so the
//!   same state always serializes to the same bytes and `save → restore
//!   → save` is the identity.
//! * **The sealed frame** — [`seal`] / [`open`] wrap a payload as
//!
//!   ```text
//!   +--------+---------+-------------+---------+----------+
//!   | magic  | version | payload len | payload | checksum |
//!   | 8 B    | u32 BE  | u64 BE      | ...     | u64 BE   |
//!   +--------+---------+-------------+---------+----------+
//!   ```
//!
//!   where the checksum is FNV-1a-64 over every byte before it. Three
//!   files share the frame and differ only in magic and version: the
//!   supervisor checkpoint ([`CHECKPOINT_MAGIC`]), the flight record
//!   ([`FLIGHT_MAGIC`]) and the transport side file
//!   ([`TRANSPORT_MAGIC`]). A file handed to the wrong reader fails on
//!   its magic before anything else is looked at.
//!
//! Everything read here comes back off disk, possibly truncated or
//! corrupted by the very crash it recovers from, so every failure is a
//! typed [`CodecError`] — never a panic, never a partial restore.

use std::fmt;

/// Magic of a sealed supervisor checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"IXPCKPT1";

/// Magic of a sealed flight record.
pub const FLIGHT_MAGIC: &[u8; 8] = b"IXPFLGT1";

/// Magic of a sealed transport-intake state file.
pub const TRANSPORT_MAGIC: &[u8; 8] = b"IXPTRNS1";

/// Bytes the frame adds around a payload: magic, version, length, checksum.
const FRAME_BYTES: usize = 8 + 4 + 8 + 8;

/// A typed failure while opening a sealed file or decoding its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended before the announced content did.
    Truncated,
    /// The file does not start with the expected magic.
    BadMagic,
    /// The frame or a state blob declares an unsupported format version.
    BadVersion(u32),
    /// The trailing checksum does not match the framed bytes.
    ChecksumMismatch,
    /// Bytes remain after the announced content.
    TrailingBytes,
    /// A tag byte (such as a flight-record event kind) is undefined.
    BadKind(u8),
    /// The bytes decoded but describe an impossible state (unsorted keys,
    /// out-of-range references, accounting that does not balance).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated"),
            CodecError::BadMagic => write!(f, "wrong magic (not this kind of file)"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after the content"),
            CodecError::BadKind(b) => write!(f, "undefined kind byte {b}"),
            CodecError::Invalid(what) => write!(f, "invalid state: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit, the frame checksum. The per-byte state evolution is
/// bijective, so any single-bit flip at unchanged length is detected.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Wrap `payload` in the sealed frame under `magic` and `version`.
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len().saturating_add(FRAME_BYTES));
    out.extend_from_slice(magic);
    put_u32(&mut out, version);
    put_bytes(&mut out, payload);
    let sum = fnv64(&out);
    put_u64(&mut out, sum);
    out
}

/// Open a sealed frame, returning the verified payload. Checks run in
/// frame order: magic, version, extent, checksum, then trailing bytes.
pub fn open<'a>(magic: &[u8; 8], version: u32, bytes: &'a [u8]) -> Result<&'a [u8], CodecError> {
    let mut cur = Cur::new(bytes);
    if cur.take(8)? != magic {
        return Err(CodecError::BadMagic);
    }
    let found = cur.u32()?;
    if found != version {
        return Err(CodecError::BadVersion(found));
    }
    let payload = cur.bytes()?;
    let content = bytes.get(..cur.pos).ok_or(CodecError::Truncated)?;
    if fnv64(content) != cur.u64()? {
        return Err(CodecError::ChecksumMismatch);
    }
    cur.finish()?;
    Ok(payload)
}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a big-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u128`.
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a length-prefixed byte string (`u64` length, then the bytes).
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked read cursor. Every accessor returns a typed error
/// instead of panicking: the bytes are treated as hostile input.
#[derive(Debug, Clone, Copy)]
pub struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Cur<'a> {
        Cur { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Succeeds only if the cursor consumed the input exactly.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }

    /// Consume the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Consume the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| CodecError::Truncated)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(u8::from_be_bytes)
    }

    /// Read one byte as a strict `bool` (0 or 1).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("boolean byte out of range")),
        }
    }

    /// Read a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_be_bytes)
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_be_bytes)
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Read a big-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        self.array().map(u128::from_be_bytes)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = usize::try_from(self.u64()?).map_err(|_| CodecError::Truncated)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| CodecError::Invalid("non-UTF-8 string in state"))
    }

    /// Read an element count and cap it against the remaining bytes,
    /// assuming each element needs at least `min_element_size` bytes. A
    /// corrupted count then fails fast instead of driving a giant loop
    /// or allocation.
    pub fn count(&mut self, min_element_size: usize) -> Result<usize, CodecError> {
        let n = usize::try_from(self.u64()?).map_err(|_| CodecError::Truncated)?;
        let need = n
            .checked_mul(min_element_size.max(1))
            .ok_or(CodecError::Truncated)?;
        if need > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGICS: [&[u8; 8]; 3] = [CHECKPOINT_MAGIC, FLIGHT_MAGIC, TRANSPORT_MAGIC];
    const VERSION: u32 = 7;

    #[test]
    fn seal_open_round_trips() {
        for magic in MAGICS {
            let payload = b"sealed state";
            let sealed = seal(magic, VERSION, payload);
            assert_eq!(sealed.len(), payload.len() + FRAME_BYTES);
            assert_eq!(open(magic, VERSION, &sealed), Ok(&payload[..]));
            assert_eq!(
                open(magic, VERSION, &seal(magic, VERSION, &[])),
                Ok(&[][..])
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for magic in MAGICS {
            let sealed = seal(magic, VERSION, b"some payload bytes");
            for cut in 0..sealed.len() {
                assert_eq!(
                    open(magic, VERSION, &sealed[..cut]),
                    Err(CodecError::Truncated),
                    "cut at {cut} opened"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        for magic in MAGICS {
            let sealed = seal(magic, VERSION, b"bit flip target");
            for i in 0..sealed.len() {
                for bit in 0..8 {
                    let mut bad = sealed.clone();
                    bad[i] ^= 1 << bit;
                    assert!(
                        open(magic, VERSION, &bad).is_err(),
                        "flip at byte {i} bit {bit} opened"
                    );
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for magic in MAGICS {
            let mut sealed = seal(magic, VERSION, b"payload");
            sealed.push(0);
            assert_eq!(
                open(magic, VERSION, &sealed),
                Err(CodecError::TrailingBytes)
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        for magic in MAGICS {
            let sealed = seal(magic, VERSION, b"x");
            for other in MAGICS.into_iter().filter(|m| *m != magic) {
                assert_eq!(open(other, VERSION, &sealed), Err(CodecError::BadMagic));
            }
            let mut bad = sealed.clone();
            bad[0] = b'Z';
            assert_eq!(open(magic, VERSION, &bad), Err(CodecError::BadMagic));
            assert_eq!(
                open(magic, VERSION + 1, &sealed),
                Err(CodecError::BadVersion(VERSION))
            );
            let mut bad = sealed;
            bad[11] = 9; // version low byte
            assert_eq!(open(magic, VERSION, &bad), Err(CodecError::BadVersion(9)));
        }
    }

    #[test]
    fn frame_layout_is_magic_version_length_payload_checksum() {
        let sealed = seal(CHECKPOINT_MAGIC, 1, b"ab");
        let mut expected = b"IXPCKPT1".to_vec();
        expected.extend_from_slice(&1u32.to_be_bytes());
        expected.extend_from_slice(&2u64.to_be_bytes());
        expected.extend_from_slice(b"ab");
        let sum = fnv64(&expected);
        expected.extend_from_slice(&sum.to_be_bytes());
        assert_eq!(sealed, expected);
    }

    #[test]
    fn round_trips_primitives() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_bool(&mut out, true);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_u128(&mut out, u128::MAX / 3);
        put_bytes(&mut out, b"abc");
        put_str(&mut out, "über");
        let mut cur = Cur::new(&out);
        assert_eq!(cur.u8(), Ok(7));
        assert_eq!(cur.bool(), Ok(true));
        assert_eq!(cur.u16(), Ok(0xBEEF));
        assert_eq!(cur.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(cur.u64(), Ok(u64::MAX - 1));
        assert_eq!(cur.u128(), Ok(u128::MAX / 3));
        assert_eq!(cur.bytes(), Ok(&b"abc"[..]));
        assert_eq!(cur.str(), Ok("über"));
        assert_eq!(cur.finish(), Ok(()));
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_cut() {
        let mut out = Vec::new();
        put_u32(&mut out, 1);
        put_bytes(&mut out, b"payload");
        put_u64(&mut out, 42);
        for cut in 0..out.len() {
            let mut cur = Cur::new(&out[..cut]);
            let r = cur
                .u32()
                .and_then(|_| cur.bytes().map(<[u8]>::len))
                .and_then(|_| cur.u64());
            assert_eq!(r, Err(CodecError::Truncated), "cut at {cut} decoded");
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate_or_panic() {
        // A length prefix claiming u64::MAX bytes.
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        assert_eq!(Cur::new(&out).bytes(), Err(CodecError::Truncated));
        // A count prefix claiming more elements than bytes remain.
        let mut out = Vec::new();
        put_u64(&mut out, 1 << 40);
        assert_eq!(Cur::new(&out).count(8), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_bool_bad_utf8_and_leftovers_are_typed() {
        assert!(matches!(
            Cur::new(&[2u8]).bool(),
            Err(CodecError::Invalid(_))
        ));
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xFF, 0xFE]);
        assert!(matches!(Cur::new(&out).str(), Err(CodecError::Invalid(_))));
        assert_eq!(Cur::new(&[0u8]).finish(), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn errors_render_and_implement_error() {
        let errors: [Box<dyn std::error::Error>; 7] = [
            Box::new(CodecError::Truncated),
            Box::new(CodecError::BadMagic),
            Box::new(CodecError::BadVersion(9)),
            Box::new(CodecError::ChecksumMismatch),
            Box::new(CodecError::TrailingBytes),
            Box::new(CodecError::BadKind(200)),
            Box::new(CodecError::Invalid("x")),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
