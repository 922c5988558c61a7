//! ixp-obs — the deterministic observability layer of ixp-vantage.
//!
//! The pipeline processes (simulated) weeks of sFlow at line rate; this
//! crate makes that processing visible without making it irreproducible.
//! Its pieces (DESIGN.md §10):
//!
//! * a lock-free-on-the-hot-path metrics [`Registry`] — monotonic
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s with
//!   integer p50/p90/p99 extraction;
//! * span timing ([`Stopwatch`], [`span::time`]) over an injectable
//!   [`Clock`]: [`RealClock`] in production, [`TestClock`] in tests and
//!   reproducibility-checked runs, so instrumentation never reads ambient
//!   wall-clock time (the ixp-lint L7 / `obs-clock-boundary` contract);
//! * two exporters over the same deterministic [`Snapshot`]:
//!   [`prometheus::render`] (text exposition) and [`json::render`]
//!   (schema-versioned document, `target/metrics-snapshot.json` in
//!   `repro`);
//! * the live observability plane (DESIGN.md §13): a bounded
//!   deterministic event [`Journal`] with an `ixp-trace/1` export and a
//!   sealed binary flight record for post-mortems, and the runtime
//!   conservation [`Auditor`] re-checking the L9 ledger identities
//!   against live metric families;
//! * the [`codec`] every written file shares: big-endian field
//!   primitives, the bounds-checked [`codec::Cur`] reader, and the one
//!   sealed frame ([`codec::seal`] / [`codec::open`]) behind the
//!   checkpoint, the flight record and the transport side file.
//!
//! The crate is dependency-free and panic-free: it is linked into the
//! decoders' hot loops, which the workspace lint holds to a transitive
//! no-panic contract.

pub mod audit;
pub mod clock;
pub mod codec;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod span;

use std::sync::Arc;

pub use audit::{AuditError, AuditScope, Auditor, Invariant};
pub use clock::{real_clock, test_clock, Clock, RealClock, TestClock};
pub use codec::CodecError;
pub use journal::{Event, EventKind, Journal, TraceError};
pub use metrics::{
    split_name, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry,
    Snapshot, DURATION_BOUNDS_NS,
};
pub use prometheus::RenderError;
pub use span::Stopwatch;

/// The observability bundle instrumented components carry: a shared
/// metric registry plus the clock every span reads. Cloning is cheap and
/// all clones observe the same state.
#[derive(Debug, Clone)]
pub struct Obs {
    /// The shared metric registry.
    pub registry: Registry,
    /// The injected time source for span measurements.
    pub clock: Arc<dyn Clock>,
}

impl Obs {
    /// Production bundle: fresh registry, monotonic wall clock.
    pub fn real() -> Obs {
        Obs { registry: Registry::new(), clock: real_clock() }
    }

    /// Deterministic bundle: fresh registry, frozen [`TestClock`]. Two
    /// runs over the same input yield byte-identical snapshots.
    pub fn deterministic() -> Obs {
        Obs { registry: Registry::new(), clock: test_clock() }
    }

    /// Bundle an existing registry with an explicit clock.
    pub fn with_clock(registry: Registry, clock: Arc<dyn Clock>) -> Obs {
        Obs { registry, clock }
    }

    /// Snapshot the registry (sorted, integer-only; see
    /// [`Registry::snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Time a closure into the duration histogram `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let histogram = self.registry.duration_histogram(name);
        span::time(self.clock.as_ref(), &histogram, f)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::deterministic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let obs = Obs::deterministic();
        let other = obs.clone();
        obs.registry.counter("x_total").add(3);
        assert_eq!(other.registry.counter("x_total").get(), 3);
    }

    #[test]
    fn time_records_into_named_histogram() {
        let obs = Obs::deterministic();
        let clock = obs.clock.clone();
        let got = obs.time("stage_ns{stage=\"demo\"}", || {
            // The frozen clock makes the duration exactly zero.
            let _ = clock.now_ns();
            7
        });
        assert_eq!(got, 7);
        let snap = obs.snapshot();
        match snap.get("stage_ns{stage=\"demo\"}") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum, 0);
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn deterministic_bundles_snapshot_identically() {
        let build = || {
            let obs = Obs::deterministic();
            obs.registry.counter("a_total").add(5);
            obs.time("b_ns", || ());
            json::render(&obs.snapshot())
        };
        assert_eq!(build(), build());
    }
}
