//! Property tests: the intake must survive arbitrary packets with exact
//! conservation accounting, and its sealed state must round-trip
//! byte-identically and fail closed on any damage.

use proptest::prelude::*;

use ixp_obs::CodecError;
use ixp_transport::{TransportConfig, TransportIntake};

/// A packet that is either sFlow-tagged (leading 16 bits zero) or
/// arbitrary bytes, so both sides of the version gate stay hot.
fn arb_packet() -> impl Strategy<Value = Vec<u8>> {
    (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..96)).prop_map(|(sflow, mut p)| {
        if sflow {
            p.splice(0..p.len().min(2), [0, 0]);
        }
        p
    })
}

/// An intake driven through `packets` with a small inbox and a drain
/// cadence that leaves some packets shed and some still queued.
fn driven(packets: &[Vec<u8>], capacity: usize, budget: usize) -> TransportIntake {
    let mut intake = TransportIntake::new(TransportConfig { inbox_capacity: capacity });
    for (i, packet) in packets.iter().enumerate() {
        intake.offer(i as u64 % 4, packet);
        if i % 3 == 2 {
            intake.drain(budget);
        }
    }
    intake
}

proptest! {
    /// Arbitrary packets through the intake: never a panic, and every
    /// packet lands in exactly one bucket at every step and after finish.
    #[test]
    fn arbitrary_packets_never_panic_and_always_account(
        packets in proptest::collection::vec(arb_packet(), 0..64),
        capacity in 1usize..16,
        budget in 0usize..8,
    ) {
        let mut intake = TransportIntake::new(TransportConfig { inbox_capacity: capacity });
        for (i, packet) in packets.iter().enumerate() {
            intake.offer(i as u64 % 4, packet);
            prop_assert!(intake.fully_accounted(), "{:?}", intake.stats());
            let work = intake.drain(budget);
            prop_assert!(work.len() <= budget);
            prop_assert!(intake.fully_accounted(), "{:?}", intake.stats());
        }
        let s = intake.finish();
        prop_assert!(intake.fully_accounted(), "{s:?}");
        prop_assert_eq!(s.offered, packets.len() as u64);
        prop_assert_eq!(s.offered, s.received + s.shed);
    }

    /// `save_state` → `restore_from` → `save_state` is byte-identical.
    #[test]
    fn state_round_trips_byte_identically(
        packets in proptest::collection::vec(arb_packet(), 0..32),
        capacity in 1usize..16,
        budget in 0usize..4,
    ) {
        let intake = driven(&packets, capacity, budget);
        let blob = intake.save_state();
        let restored = TransportIntake::restore_from(&blob).expect("own state must restore");
        prop_assert_eq!(restored.save_state(), blob);
        prop_assert_eq!(restored.stats(), intake.stats());
        prop_assert_eq!(restored.inbox_len(), intake.inbox_len());
    }

    /// Every truncation of the state is rejected as truncated, and every
    /// single-bit flip is rejected by the sealed frame before the field
    /// codec runs.
    #[test]
    fn damaged_state_is_rejected_with_a_typed_error(
        packets in proptest::collection::vec(arb_packet(), 0..8),
        budget in 0usize..4,
    ) {
        let blob = driven(&packets, 4, budget).save_state();
        for cut in 0..blob.len() {
            let err = TransportIntake::restore_from(&blob[..cut]).err();
            prop_assert!(
                err == Some(CodecError::Truncated),
                "cut {cut}: {err:?}"
            );
        }
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[i] ^= 1 << bit;
                let err = TransportIntake::restore_from(&bad).err();
                prop_assert!(
                    matches!(
                        err,
                        Some(
                            CodecError::BadMagic
                                | CodecError::BadVersion(_)
                                | CodecError::Truncated
                                | CodecError::ChecksumMismatch
                        )
                    ),
                    "flip at byte {i} bit {bit}: {err:?}"
                );
            }
        }
    }
}
