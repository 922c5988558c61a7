//! # ixp-faults
//!
//! Deterministic fault injection and failure-handling primitives for the
//! ixp-vantage pipeline.
//!
//! A real IXP vantage point never sees a pristine feed: sFlow rides UDP, so
//! datagrams are dropped, duplicated, reordered, and truncated; switch
//! agents restart and reset their sequence numbers; interface counters wrap;
//! crawled HTTPS hosts flap; open resolvers die. The paper's headline
//! statistics are only credible if the pipeline degrades gracefully under
//! all of that — which is exactly what this crate lets the test suite and
//! the `repro --exp faults` sweep demonstrate, bit-for-bit reproducibly:
//!
//! * [`FaultPlan`] — a seeded iterator adaptor that perturbs an encoded
//!   datagram stream between `ixp-traffic` and the analyzer (drop,
//!   duplicate, reorder, truncate, bit-corrupt, agent restart, counter
//!   wrap, whole-agent outage windows), keeping exact [`FaultStats`] of
//!   what it injected;
//! * [`retry_with_backoff`] — capped exponential backoff under a simulated
//!   deadline budget, for the active-measurement paths (HTTPS crawl, open
//!   resolvers) — no real clock, no real sleeping, fully deterministic;
//! * [`Quarantine`] — consecutive-failure quarantine for persistently dead
//!   targets, shared across threads;
//! * [`chaos`] — process-level scenarios for the supervised pipeline
//!   (seeded kill offsets for checkpoint/resume, overload bursts,
//!   and checkpoint-image corruption), driving the `tests/chaos_soak.rs`
//!   gate and `repro --exp chaos`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod plan;
pub mod quarantine;
pub mod retry;

pub use chaos::{kill_offsets, overload_bursts, BurstWindow};
pub use plan::{FaultConfig, FaultPlan, FaultStats, OutageWindow};
pub use quarantine::Quarantine;
pub use retry::{retry_with_backoff, AttemptLog, RetryPolicy};
