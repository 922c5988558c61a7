//! The checkpoint *file* format: a self-identifying envelope around an
//! opaque state payload.
//!
//! ```text
//! +--------+---------+-------------+---------+----------+
//! | magic  | version | payload len | payload | checksum |
//! | 8 B    | u32 BE  | u64 BE      | ...     | u64 BE   |
//! +--------+---------+-------------+---------+----------+
//! ```
//!
//! The trailing checksum is FNV-1a-64 over every byte before it (magic,
//! version, length, payload), so truncation, bit flips, and extensions are
//! all detected before the payload codec ever runs. A checkpoint that
//! fails any of these checks is rejected with a typed
//! [`CheckpointError`] — never a panic, and never a partial restore.

use std::fmt;

use ixp_obs::journal::fnv64;
use ixp_sflow::checkpoint::{self, Cur, StateError};

/// File magic: "IXPCKPT1".
pub const MAGIC: [u8; 8] = *b"IXPCKPT1";

/// Envelope format version (independent of the payload's own versions).
pub const FORMAT_VERSION: u32 = 1;

/// A typed failure while opening or decoding a checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The envelope was written by an unknown format version.
    BadVersion(u32),
    /// The file ended before the announced content did.
    Truncated,
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// Bytes remain after the envelope's announced extent.
    TrailingBytes,
    /// The envelope was intact but the state payload was not.
    State(StateError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint envelope version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::TrailingBytes => write!(f, "trailing bytes after checkpoint"),
            CheckpointError::State(e) => write!(f, "checkpoint payload invalid: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StateError> for CheckpointError {
    fn from(e: StateError) -> CheckpointError {
        CheckpointError::State(e)
    }
}

/// Wrap a state payload in the checkpoint envelope.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&MAGIC);
    checkpoint::put_u32(&mut out, FORMAT_VERSION);
    checkpoint::put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    let sum = fnv64(&out);
    checkpoint::put_u64(&mut out, sum);
    out
}

/// Open an envelope, returning the verified payload slice.
pub fn open(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    let mut cur = Cur::new(bytes);
    let mut magic = [0u8; 8];
    for m in &mut magic {
        *m = cur.u8().map_err(|_| CheckpointError::Truncated)?;
    }
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = cur.u32().map_err(|_| CheckpointError::Truncated)?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let len = cur.u64().map_err(|_| CheckpointError::Truncated)?;
    let n = usize::try_from(len).map_err(|_| CheckpointError::Truncated)?;
    let header: usize = 8 + 4 + 8;
    let payload_end = header.checked_add(n).ok_or(CheckpointError::Truncated)?;
    let payload = bytes.get(header..payload_end).ok_or(CheckpointError::Truncated)?;
    let trailer_end = payload_end.checked_add(8).ok_or(CheckpointError::Truncated)?;
    let trailer = bytes.get(payload_end..trailer_end).ok_or(CheckpointError::Truncated)?;
    let stored = match *trailer {
        [a, b, c, d, e, f, g, h] => u64::from_be_bytes([a, b, c, d, e, f, g, h]),
        _ => return Err(CheckpointError::Truncated),
    };
    let content = bytes.get(..payload_end).ok_or(CheckpointError::Truncated)?;
    if fnv64(content) != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }
    if bytes.len() != trailer_end {
        return Err(CheckpointError::TrailingBytes);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trips() {
        let payload = b"supervised state";
        let sealed = seal(payload);
        assert_eq!(open(&sealed), Ok(&payload[..]));
        assert_eq!(open(&seal(&[])), Ok(&[][..]));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let sealed = seal(b"some payload bytes");
        for cut in 0..sealed.len() {
            let prefix: Vec<u8> = sealed.iter().copied().take(cut).collect();
            assert!(open(&prefix).is_err(), "cut at {cut} opened");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let sealed = seal(b"bit flip target");
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                if let Some(b) = bad.get_mut(i) {
                    *b ^= 1 << bit;
                }
                assert!(open(&bad).is_err(), "flip at byte {i} bit {bit} opened");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut sealed = seal(b"payload");
        sealed.push(0);
        assert_eq!(open(&sealed), Err(CheckpointError::TrailingBytes));
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let mut sealed = seal(b"x");
        sealed[0] = b'Z';
        assert_eq!(open(&sealed), Err(CheckpointError::BadMagic));
        let mut sealed = seal(b"x");
        sealed[11] = 9; // version low byte
        // The checksum covers the version, so either error is acceptable —
        // but it must be an error.
        assert!(open(&sealed).is_err());
    }

    #[test]
    fn errors_render_and_chain() {
        let e = CheckpointError::State(StateError::Truncated);
        assert!(e.to_string().contains("payload"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
