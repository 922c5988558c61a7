//! # ixp-transport — the sFlow-over-UDP front door of the collector
//!
//! The front-end that turns raw datagrams (loopback UDP or a
//! deterministic in-memory link) into work for the sFlow
//! collector/supervisor pipeline, with the same contracts the rest of
//! the workspace holds decoders to:
//!
//! * **bounded intake** — the intake ([`intake`]) queues at most
//!   `inbox_capacity` packets and counts every packet it sheds;
//! * **version gate** — a packet whose leading 16 bits are zero is an
//!   sFlow v5 datagram and passes through whole to the collector;
//!   anything else is a counted decode error, never a panic;
//! * **conservation accounting** — every offered packet lands in exactly
//!   one bucket, extending the pipeline invariant to the wire, and the
//!   buckets are exported as `transport_*` metrics ([`metrics`]);
//! * **checkpointable** — intake state serializes through the shared
//!   `ixp_obs::codec`, sealed under its own magic and fail-closed, so a
//!   supervisor kill-and-resume loses nothing;
//! * **deterministic replay** — [`link::MemLink`] carries packets
//!   reproducibly, so CI gates never depend on socket permissions
//!   ([`link::UdpLink`] is the same packets over a real loopback socket).

pub mod intake;
pub mod link;
pub mod metrics;

pub use intake::{
    Drained, TransportConfig, TransportIntake, TransportStats, TRANSPORT_STATE_VERSION,
};
pub use link::{peer_id, Link, LinkError, MemLink, UdpLink, MAX_PACKET};
pub use metrics::TransportMetrics;
