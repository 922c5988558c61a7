//! Live transport metrics (ixp-obs instrumentation).
//!
//! [`TransportMetrics`] mirrors [`TransportStats`](crate::intake::TransportStats)
//! as registry metrics under the `transport_*` families, the same shape
//! the collector uses for `sflow_*`. The intake synchronizes the bundle
//! after every `drain`/`finish` by *topping counters up to* the stats
//! values (counters only move forward), which makes the bundle safe to
//! bind late: a restored intake replays its whole history into a fresh
//! registry and the snapshot comes out byte-identical to an
//! uninterrupted run's — the property the supervised resume gate checks.
//!
//! A default-constructed (detached) bundle counts into thin air, so the
//! uninstrumented path stays cheap.

use ixp_obs::{Counter, Registry};

use crate::intake::TransportStats;

/// Counter bundle for transport intake accounting.
#[derive(Debug, Clone, Default)]
pub struct TransportMetrics {
    /// Packets offered at the front door (`transport_offered_total`).
    pub offered: Counter,
    /// Packets that reached the version gate.
    pub received: Counter,
    /// sFlow datagrams passed through downstream.
    pub accepted: Counter,
    /// Decode errors: shorter than the version field.
    pub truncated: Counter,
    /// Decode errors: a version field other than sFlow's.
    pub bad_version: Counter,
    /// Packets shed at the inbox bound.
    pub shed: Counter,
}

impl TransportMetrics {
    /// A metrics bundle counting into thin air (no registry).
    pub fn detached() -> TransportMetrics {
        TransportMetrics::default()
    }

    /// Register the bundle in `registry` under the `transport_*` families.
    pub fn register(registry: &Registry) -> TransportMetrics {
        let kind =
            |k: &str| registry.counter(&format!("transport_decode_errors_total{{kind=\"{k}\"}}"));
        TransportMetrics {
            offered: registry.counter("transport_offered_total"),
            received: registry.counter("transport_received_total"),
            accepted: registry.counter("transport_accepted_total"),
            truncated: kind("truncated"),
            bad_version: kind("bad_version"),
            shed: registry.counter("transport_shed_total"),
        }
    }

    /// Top every counter up to the stats' current value (counters are
    /// monotonic, so syncing is an `add` of the shortfall).
    pub fn sync(&self, s: &TransportStats) {
        let top_up = |c: &Counter, target: u64| {
            let have = c.get();
            if target > have {
                c.add(target - have);
            }
        };
        top_up(&self.offered, s.offered);
        top_up(&self.received, s.received);
        top_up(&self.accepted, s.sflow_datagrams);
        top_up(&self.truncated, s.truncated);
        top_up(&self.bad_version, s.bad_version);
        top_up(&self.shed, s.shed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_tops_up_monotonically() {
        let registry = Registry::new();
        let m = TransportMetrics::register(&registry);
        let mut s = TransportStats { offered: 5, received: 4, sflow_datagrams: 3, ..Default::default() };
        m.sync(&s);
        // Re-syncing the same stats is idempotent.
        m.sync(&s);
        assert_eq!(m.offered.get(), 5);
        assert_eq!(m.accepted.get(), 3);
        s.offered = 9;
        m.sync(&s);
        assert_eq!(m.offered.get(), 9);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("transport_offered_total"), Some(9));
        assert_eq!(snap.counter("transport_accepted_total"), Some(3));
    }
}
