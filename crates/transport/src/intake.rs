//! The transport intake: a bounded packet front-end with full-packet
//! accounting and checkpointable state.
//!
//! [`TransportIntake`] sits between a [`Link`](crate::link::Link) and the
//! existing sFlow collector/supervisor pipeline. Every datagram offered
//! to it ends up in **exactly one** bucket, extending the pipeline's
//! conservation invariant to the wire:
//!
//! ```text
//! offered       = received + shed + inbox           (front door)
//! received      = sflow_datagrams + decode_errors   (version gate)
//! decode_errors = truncated + bad_version
//! ```
//!
//! The version gate reads the leading 16 bits: an sFlow v5 datagram
//! leads with a u32 version, so those bits are zero and the datagram
//! passes through whole to the collector, which owns its decode,
//! sequence accounting and duplicate detection. Anything else is counted
//! as a decode error. Packets shed at the inbox bound are counted the
//! moment they are dropped — load shedding is always visible in the
//! accounting, never silent.
//!
//! The whole intake — bound, stats and inbox — serializes through
//! [`save_state`] / [`restore_from`] with the same fail-closed codec and
//! sealed frame as the supervisor checkpoint (under its own magic), so a
//! supervisor kill-and-resume loses nothing and stays byte-identical.
//!
//! [`save_state`]: TransportIntake::save_state
//! [`restore_from`]: TransportIntake::restore_from

use std::collections::VecDeque;

use ixp_obs::codec::{self, put_bytes, put_u32, put_u64, CodecError, Cur, TRANSPORT_MAGIC};
use ixp_obs::journal::{EventKind, Journal};

use crate::link::{Link, LinkError, MAX_PACKET};
use crate::metrics::TransportMetrics;

/// Serialization format version of [`TransportIntake`] state, used both
/// as the sealed frame's version and as the payload's leading word.
pub const TRANSPORT_STATE_VERSION: u32 = 3;

/// Size bound of the intake.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Most packets queued between `offer` and `drain` before shedding.
    pub inbox_capacity: usize,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig { inbox_capacity: 4096 }
    }
}

/// Lifetime packet accounting. Every field is monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Packets presented at the front door (`offer`).
    pub offered: u64,
    /// Packets that reached the version gate (`drain`).
    pub received: u64,
    /// Packets dropped at the inbox bound, oversized, or flushed
    /// undrained by `finish`.
    pub shed: u64,
    /// sFlow datagrams passed through downstream.
    pub sflow_datagrams: u64,
    /// Packets rejected at the version gate (sum of the two kinds below).
    pub decode_errors: u64,
    /// Decode errors: shorter than the 2-byte version field.
    pub truncated: u64,
    /// Decode errors: a version field other than sFlow's.
    pub bad_version: u64,
}

/// One unit of work handed downstream by [`TransportIntake::drain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drained {
    /// An sFlow datagram, passed through verbatim for the collector
    /// (which owns sFlow sequence accounting and duplicate detection).
    Sflow {
        /// Stable identity of the sending exporter.
        peer: u64,
        /// The raw datagram bytes.
        datagram: Vec<u8>,
    },
}

/// The bounded, checkpointable packet intake.
#[derive(Debug, Default)]
pub struct TransportIntake {
    config: TransportConfig,
    stats: TransportStats,
    inbox: VecDeque<(u64, Vec<u8>)>,
    metrics: TransportMetrics,
    journal: Journal,
}

impl TransportIntake {
    /// An empty intake with the given bound.
    pub fn new(config: TransportConfig) -> TransportIntake {
        TransportIntake { config, ..TransportIntake::default() }
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Packets waiting between `offer` and `drain`.
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// The conservation invariant, checked at every stage boundary.
    pub fn fully_accounted(&self) -> bool {
        let s = &self.stats;
        let front = s.offered
            == s.received.saturating_add(s.shed).saturating_add(self.inbox.len() as u64);
        let gate = s.received == s.sflow_datagrams.saturating_add(s.decode_errors);
        let kinds = s.decode_errors == s.truncated.saturating_add(s.bad_version);
        front && gate && kinds
    }

    /// Attach live metrics, replaying the current stats into them so a
    /// restored intake's registry matches an uninterrupted run's.
    pub fn bind_metrics(&mut self, metrics: TransportMetrics) {
        self.metrics = metrics;
        self.metrics.sync(&self.stats);
    }

    /// Attach an event journal; sheds emit events into it from here on.
    pub fn bind_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Offer one packet at the front door. Returns `false` when it was
    /// shed (inbox full or oversized) — shed packets are counted, so the
    /// caller may drop the return value without losing accounting.
    pub fn offer(&mut self, peer: u64, packet: &[u8]) -> bool {
        self.stats.offered += 1;
        if packet.len() > MAX_PACKET || self.inbox.len() >= self.config.inbox_capacity {
            self.stats.shed += 1;
            self.journal.record(EventKind::Shed, peer, 0, 1, self.stats.shed);
            return false;
        }
        self.inbox.push_back((peer, packet.to_vec()));
        true
    }

    /// Pull up to `max_packets` packets out of `link` into the inbox.
    /// Returns how many arrived (0 means the link was idle).
    pub fn pump(&mut self, link: &mut dyn Link, max_packets: usize) -> Result<usize, LinkError> {
        let mut n = 0usize;
        while n < max_packets {
            let Some((peer, packet)) = link.recv()? else { break };
            self.offer(peer, &packet);
            n = n.saturating_add(1);
        }
        Ok(n)
    }

    /// Gate up to `budget` inbox packets, returning the sFlow datagrams
    /// among them in arrival order.
    pub fn drain(&mut self, budget: usize) -> Vec<Drained> {
        let mut out = Vec::new();
        for _ in 0..budget {
            let Some((peer, packet)) = self.inbox.pop_front() else { break };
            self.gate(peer, packet, &mut out);
        }
        self.metrics.sync(&self.stats);
        out
    }

    /// End of stream: everything still queued is shed, so the final
    /// balance has no transient terms.
    pub fn finish(&mut self) -> TransportStats {
        let mut flushed = 0u64;
        while self.inbox.pop_front().is_some() {
            self.stats.shed += 1;
            flushed += 1;
        }
        if flushed > 0 {
            self.journal.record(EventKind::Shed, 0, 0, flushed, self.stats.shed);
        }
        self.metrics.sync(&self.stats);
        self.stats
    }

    /// The 2-byte version gate: sFlow v5 passes through whole, anything
    /// else is a counted decode error.
    fn gate(&mut self, peer: u64, packet: Vec<u8>, out: &mut Vec<Drained>) {
        self.stats.received += 1;
        match packet.get(..2) {
            Some(&[0, 0]) => {
                self.stats.sflow_datagrams += 1;
                out.push(Drained::Sflow { peer, datagram: packet });
            }
            Some(_) => {
                self.stats.decode_errors += 1;
                self.stats.bad_version += 1;
            }
            None => {
                self.stats.decode_errors += 1;
                self.stats.truncated += 1;
            }
        }
    }

    /// Serialize the intake — bound, stats and inbox — deterministically,
    /// sealed under [`TRANSPORT_MAGIC`] so storage damage (bit flips,
    /// truncation, extension) is detected before the field codec runs.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, TRANSPORT_STATE_VERSION);
        // The bound first: restore rebuilds the same shedding behaviour.
        put_u64(&mut out, self.config.inbox_capacity as u64);
        // Stats, in declaration order, mirroring `restore_from` exactly.
        let s = &self.stats;
        put_u64(&mut out, s.offered);
        put_u64(&mut out, s.received);
        put_u64(&mut out, s.shed);
        put_u64(&mut out, s.sflow_datagrams);
        put_u64(&mut out, s.decode_errors);
        put_u64(&mut out, s.truncated);
        put_u64(&mut out, s.bad_version);
        // The inbox, verbatim and in order.
        put_u64(&mut out, self.inbox.len() as u64);
        for (peer, packet) in &self.inbox {
            put_u64(&mut out, *peer);
            put_bytes(&mut out, packet);
        }
        codec::seal(TRANSPORT_MAGIC, TRANSPORT_STATE_VERSION, &out)
    }

    /// Rebuild an intake from [`save_state`](Self::save_state) bytes.
    /// The blob is wire-grade input: the frame must open, every read is
    /// bounds-checked, and the restored accounting must balance, or the
    /// restore fails.
    pub fn restore_from(data: &[u8]) -> Result<TransportIntake, CodecError> {
        let mut cur = Cur::new(codec::open(TRANSPORT_MAGIC, TRANSPORT_STATE_VERSION, data)?);
        let version = cur.u32()?;
        if version != TRANSPORT_STATE_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let inbox_capacity = usize::try_from(cur.u64()?)
            .map_err(|_| CodecError::Invalid("bound overflows usize"))?;
        let stats = TransportStats {
            offered: cur.u64()?,
            received: cur.u64()?,
            shed: cur.u64()?,
            sflow_datagrams: cur.u64()?,
            decode_errors: cur.u64()?,
            truncated: cur.u64()?,
            bad_version: cur.u64()?,
        };
        let mut inbox = VecDeque::new();
        for _ in 0..cur.count(16)? {
            let peer = cur.u64()?;
            let packet = cur.bytes()?.to_vec();
            inbox.push_back((peer, packet));
        }
        cur.finish()?;

        let intake = TransportIntake {
            config: TransportConfig { inbox_capacity },
            stats,
            inbox,
            metrics: TransportMetrics::detached(),
            journal: Journal::disabled(),
        };
        if !intake.fully_accounted() {
            return Err(CodecError::Invalid("restored accounting does not balance"));
        }
        Ok(intake)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SFLOW: &[u8] = b"\x00\x00\x00\x05sflowish";

    fn intake() -> TransportIntake {
        TransportIntake::new(TransportConfig::default())
    }

    #[test]
    fn version_gate_passes_sflow_and_counts_the_rest() {
        let mut t = intake();
        assert!(t.offer(1, SFLOW));
        assert!(t.offer(2, &[0xBE, 0xEF, 0, 0]));
        assert!(t.offer(3, &[0x00]));
        assert!(t.offer(4, &[]));
        let work = t.drain(16);
        assert_eq!(work, vec![Drained::Sflow { peer: 1, datagram: SFLOW.to_vec() }]);
        let s = t.finish();
        assert_eq!(s.offered, 4);
        assert_eq!(s.sflow_datagrams, 1);
        assert_eq!((s.decode_errors, s.bad_version, s.truncated), (3, 1, 2));
        assert!(t.fully_accounted());
    }

    #[test]
    fn inbox_bound_sheds_with_accounting() {
        let mut t = TransportIntake::new(TransportConfig { inbox_capacity: 2 });
        for _ in 0..5 {
            t.offer(1, SFLOW);
        }
        let s = t.stats();
        assert_eq!(s.offered, 5);
        assert_eq!(s.shed, 3);
        assert!(t.fully_accounted());
        t.drain(16);
        assert!(t.fully_accounted());
        assert_eq!(t.stats().sflow_datagrams, 2);
    }

    #[test]
    fn journal_sees_front_door_and_finish_sheds() {
        let mut t = TransportIntake::new(TransportConfig { inbox_capacity: 1 });
        let journal = Journal::deterministic();
        t.bind_journal(journal.clone());
        t.offer(1, SFLOW);
        t.offer(7, SFLOW); // front-door shed (inbox full)
        t.finish(); // flushes the undrained packet
        let sheds: Vec<_> =
            journal.events().iter().filter(|e| e.kind == EventKind::Shed).copied().collect();
        assert_eq!(sheds.len(), 2, "{sheds:?}");
        assert_eq!((sheds[0].agent, sheds[0].a, sheds[0].b), (7, 1, 1));
        assert_eq!((sheds[1].a, sheds[1].b), (1, 2));
    }

    #[test]
    fn finish_sheds_the_undrained_inbox() {
        let mut t = intake();
        t.offer(1, SFLOW);
        t.offer(1, SFLOW); // left in the inbox: shed by finish
        t.drain(1);
        let s = t.finish();
        assert_eq!((s.sflow_datagrams, s.shed), (1, 1));
        assert!(t.fully_accounted());
    }

    #[test]
    fn checkpoint_roundtrips_byte_identically() {
        let mut t = intake();
        t.offer(1, SFLOW);
        t.offer(2, &[0xFF; 9]);
        t.offer(3, SFLOW);
        t.drain(2); // leave one packet in the inbox
        let blob = t.save_state();
        let restored = TransportIntake::restore_from(&blob).unwrap();
        assert_eq!(restored.save_state(), blob, "save → restore → save drifted");
        assert_eq!(restored.stats(), t.stats());
        assert_eq!(restored.inbox_len(), 1);
    }

    #[test]
    fn restore_is_fail_closed() {
        let mut t = intake();
        t.offer(1, SFLOW);
        t.drain(16);
        let blob = t.save_state();
        for cut in 0..blob.len() {
            assert!(
                TransportIntake::restore_from(&blob[..cut]).is_err(),
                "cut {cut} restored"
            );
        }
        // Tamper with the payload and re-seal it, so the typed checks
        // behind the frame are exercised, not just the checksum itself.
        let payload = codec::open(TRANSPORT_MAGIC, TRANSPORT_STATE_VERSION, &blob).unwrap();
        let reseal = |bytes: Vec<u8>| codec::seal(TRANSPORT_MAGIC, TRANSPORT_STATE_VERSION, &bytes);
        let mut wrong = payload.to_vec();
        wrong[3] = 99; // the payload's own version word
        assert_eq!(
            TransportIntake::restore_from(&reseal(wrong)).err(),
            Some(CodecError::BadVersion(99))
        );
        // Tamper with a stats field: the balance check must catch it.
        let mut unbalanced = payload.to_vec();
        let offered_at = 4 + 8 + 7; // version + bound, low byte of `offered`
        unbalanced[offered_at] = unbalanced[offered_at].wrapping_add(1);
        assert!(TransportIntake::restore_from(&reseal(unbalanced)).is_err());
        // Without a reseal, EVERY single-bit flip is caught by the frame.
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    TransportIntake::restore_from(&bad).is_err(),
                    "flip at byte {i} bit {bit} restored"
                );
            }
        }
    }

    #[test]
    fn previous_format_fails_closed_on_its_magic() {
        // Version 2 wrote the payload bare, version word first, and
        // appended an 8-byte FNV-1a-64 trailer; it carried no magic.
        let mut t = intake();
        t.offer(1, SFLOW);
        t.offer(2, SFLOW);
        t.drain(1);
        let blob = t.save_state();
        let mut old = codec::open(TRANSPORT_MAGIC, TRANSPORT_STATE_VERSION, &blob)
            .unwrap()
            .to_vec();
        old[..4].copy_from_slice(&2u32.to_be_bytes());
        let sum = codec::fnv64(&old);
        put_u64(&mut old, sum);
        assert_eq!(TransportIntake::restore_from(&old).err(), Some(CodecError::BadMagic));
    }

    #[test]
    fn resume_with_a_queued_inbox_loses_nothing() {
        let mut t = intake();
        t.offer(1, SFLOW);
        t.offer(1, SFLOW);
        t.drain(1);
        let blob = t.save_state();
        drop(t);
        // New process: restore, then drain what was still queued.
        let mut t2 = TransportIntake::restore_from(&blob).unwrap();
        assert_eq!(t2.drain(16).len(), 1, "queued datagram lost across the checkpoint");
        let s = t2.finish();
        assert_eq!((s.sflow_datagrams, s.shed), (2, 0));
        assert!(t2.fully_accounted());
    }
}
