//! The supervisor proper: deterministic ticks, backpressure, watchdog,
//! and whole-pipeline checkpoint/restore.
//!
//! Time is *counted, not measured*: a tick fires every
//! `arrivals_per_tick` offered datagrams, and each tick grants the drain
//! stage a budget of `drain_budget` datagrams — its deadline. This keeps
//! the whole supervised pipeline a pure function of the input stream, so
//! a run can be killed at **any** datagram boundary, checkpointed,
//! restored, and continued to a byte-identical result; wall-clock
//! supervision would make every run unique. Sustained overload is modeled
//! explicitly (a stalled drain stage misses its deadlines and the ring
//! sheds), not by racing threads.

use std::collections::BTreeMap;

use ixp_core::WeekScan;
use ixp_netmodel::Week;
use ixp_obs::codec::{self, CodecError, Cur, CHECKPOINT_MAGIC};
use ixp_obs::journal::{EventKind, Journal};
use ixp_obs::Obs;

use crate::health::{AgentHealth, HealthPolicy, HealthState, TickDelta};
use crate::metrics::SupervisorMetrics;
use crate::ring::IntakeRing;

/// Serialization format version of [`Supervisor`] state.
pub const SUPERVISOR_STATE_VERSION: u32 = 1;

/// Version of the checkpoint file's sealed frame, independent of the
/// payload's own state versions.
pub const FORMAT_VERSION: u32 = 1;

/// Configuration of the supervised ingest loop. Configuration is not part
/// of a checkpoint: the restoring side supplies it, and the restore
/// validates the saved state against it where they interact (ring depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Capacity of the bounded intake ring (datagrams).
    pub ring_capacity: usize,
    /// Offered datagrams between watchdog ticks.
    pub arrivals_per_tick: u64,
    /// Drain-stage deadline budget: datagrams the collector may ingest per
    /// tick. A tick that leaves the ring non-empty is a deadline miss.
    pub drain_budget: usize,
    /// Health-state thresholds.
    pub policy: HealthPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            ring_capacity: 4096,
            arrivals_per_tick: 256,
            drain_budget: 512,
            policy: HealthPolicy::default(),
        }
    }
}

impl SupervisorConfig {
    fn normalized(mut self) -> SupervisorConfig {
        self.ring_capacity = self.ring_capacity.max(1);
        self.arrivals_per_tick = self.arrivals_per_tick.max(1);
        self.drain_budget = self.drain_budget.max(1);
        self
    }
}

/// Bump one per-state slot. [`HealthState::index`] is below 4 by
/// construction; `.get_mut` keeps the hot path lexically panic-free.
fn bump(slots: &mut [u64; 4], i: usize) {
    if let Some(slot) = slots.get_mut(i) {
        *slot += 1;
    }
}

/// Last-seen per-source collector stats, for tick deltas.
#[derive(Debug, Clone, Copy, Default)]
struct PrevStats {
    received: u64,
    lost: u64,
    decode_errors: u64,
    quarantined: bool,
}

/// Aggregate supervisor counters, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Datagrams offered to the intake ring (including shed ones).
    pub offered: u64,
    /// Datagrams shed by the full ring.
    pub shed: u64,
    /// Watchdog ticks run.
    pub ticks: u64,
    /// Ticks that missed their drain deadline.
    pub deadline_misses: u64,
    /// Datagrams currently queued.
    pub ring_depth: usize,
    /// Deepest the ring has ever been.
    pub high_water: usize,
    /// Health transitions by destination state ([`HealthState::index`]).
    pub transitions: [u64; 4],
    /// Agents per health state ([`HealthState::index`]).
    pub agents: [u64; 4],
}

/// The supervised ingest loop around one week's [`WeekScan`].
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    scan: WeekScan,
    ring: IntakeRing,
    offered: u64,
    ticks: u64,
    deadline_misses: u64,
    stalled: bool,
    transitions: [u64; 4],
    prev: BTreeMap<(u32, u32), PrevStats>,
    health: BTreeMap<(u32, u32), AgentHealth>,
    metrics: SupervisorMetrics,
    // Disabled unless attached via [`Supervisor::bind_journal`]. Not
    // part of a checkpoint: the journal is live evidence of *this*
    // process's run, exactly what a flight record must show.
    journal: Journal,
}

impl Supervisor {
    /// Supervise an existing scan (detached supervisor metrics).
    pub fn new(scan: WeekScan, config: SupervisorConfig) -> Supervisor {
        let config = config.normalized();
        Supervisor {
            ring: IntakeRing::new(config.ring_capacity),
            config,
            scan,
            offered: 0,
            ticks: 0,
            deadline_misses: 0,
            stalled: false,
            transitions: [0; 4],
            prev: BTreeMap::new(),
            health: BTreeMap::new(),
            metrics: SupervisorMetrics::detached(),
            journal: Journal::disabled(),
        }
    }

    /// Supervise an existing scan, publishing live `supervisor_*` metrics.
    pub fn with_obs(scan: WeekScan, config: SupervisorConfig, obs: &Obs) -> Supervisor {
        Supervisor {
            metrics: SupervisorMetrics::register(&obs.registry),
            ..Supervisor::new(scan, config)
        }
    }

    /// The week being supervised.
    pub fn week(&self) -> Week {
        self.scan.week
    }

    /// Datagrams offered so far (the resume cursor into the feed).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The supervised scan, for inspection mid-run.
    pub fn scan(&self) -> &WeekScan {
        &self.scan
    }

    /// Finish supervision and hand the scan to the analysis pipeline.
    pub fn into_scan(self) -> WeekScan {
        self.scan
    }

    /// Current health state of one `(agent, sub_agent)` source.
    pub fn health_of(&self, agent: u32, sub_agent: u32) -> Option<HealthState> {
        self.health.get(&(agent, sub_agent)).map(AgentHealth::state)
    }

    /// Every source's current health state, in ascending key order (the
    /// `/healthz` endpoint's rows).
    pub fn health_states(&self) -> Vec<((u32, u32), HealthState)> {
        self.health.iter().map(|(k, h)| (*k, h.state())).collect()
    }

    /// Attach an event journal: tick boundaries, shed decisions, and
    /// health transitions are recorded from here on, and the nested
    /// scan's collector journals its restart/quarantine detections into
    /// the same ring. Call after construction or restore; past events
    /// are not replayed (the journal is live-run evidence, not state).
    pub fn bind_journal(&mut self, journal: Journal) {
        self.scan.bind_journal(journal.clone());
        journal.set_tick(self.ticks);
        self.journal = journal;
    }

    /// The attached journal (disabled unless [`Supervisor::bind_journal`]
    /// was called), for flight dumps at fault points.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Aggregate supervisor counters.
    pub fn stats(&self) -> SupervisorStats {
        let mut agents = [0u64; 4];
        for h in self.health.values() {
            bump(&mut agents, h.state().index());
        }
        SupervisorStats {
            offered: self.offered,
            shed: self.ring.shed(),
            ticks: self.ticks,
            deadline_misses: self.deadline_misses,
            ring_depth: self.ring.len(),
            high_water: self.ring.high_water(),
            transitions: self.transitions,
            agents,
        }
    }

    /// Model a stalled drain stage: while set, ticks drain nothing and
    /// every tick is a deadline miss, so arrivals pile into the ring and
    /// eventually shed. This is how the chaos harness applies sustained
    /// overload deterministically.
    pub fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Offer one datagram to the intake ring. Sheds (and counts the shed
    /// into the scan's ingest health) if the ring is full; runs a tick
    /// every `arrivals_per_tick` offers.
    pub fn offer(&mut self, datagram: Vec<u8>) {
        self.offered += 1;
        self.metrics.offered.inc();
        if self.ring.offer(datagram) {
            self.metrics.ring_depth.set_max(self.ring.len() as u64);
        } else {
            self.scan.record_shed(1);
            self.metrics.shed.inc();
            self.journal.record(EventKind::Shed, 0, 0, 1, self.ring.shed());
        }
        if self.offered.is_multiple_of(self.config.arrivals_per_tick) {
            self.tick();
        }
    }

    /// Drive the supervisor from a datagram feed, skipping the first
    /// [`Supervisor::offered`] items (zero on a fresh supervisor; the
    /// already-consumed prefix after a restore — the feed is regenerated
    /// from its seed, so skipping by count realigns it exactly).
    ///
    /// Returns `true` if the feed completed (and the run was finished);
    /// `false` if `kill_at` was reached first — the crash point. A killed
    /// supervisor is left exactly at the datagram boundary, ready to be
    /// checkpointed.
    pub fn run_feed<I>(&mut self, feed: I, kill_at: Option<u64>) -> bool
    where
        I: Iterator<Item = Vec<u8>>,
    {
        let skip = usize::try_from(self.offered).unwrap_or(usize::MAX);
        for datagram in feed.skip(skip) {
            if kill_at.is_some_and(|k| self.offered >= k) {
                return false;
            }
            self.offer(datagram);
        }
        self.finish();
        true
    }

    /// End of stream: drain everything still queued (the final partial
    /// tick has no deadline — nothing more is arriving) and run a last
    /// watchdog pass so health states settle.
    pub fn finish(&mut self) {
        while let Some(datagram) = self.ring.pop() {
            self.scan.ingest(&datagram);
        }
        self.watchdog();
    }

    fn tick(&mut self) {
        self.ticks += 1;
        self.metrics.ticks.inc();
        self.journal.set_tick(self.ticks);
        self.journal.record(EventKind::TickStart, 0, 0, self.offered, 0);
        let mut drained = 0u64;
        let mut missed = false;
        if self.stalled {
            // The drain stage is wedged: it consumes none of its budget,
            // which by definition misses the deadline.
            self.deadline_misses += 1;
            self.metrics.deadline_misses.inc();
            missed = true;
        } else {
            let mut budget = self.config.drain_budget;
            while budget > 0 {
                match self.ring.pop() {
                    Some(datagram) => {
                        self.scan.ingest(&datagram);
                        budget -= 1;
                        drained += 1;
                    }
                    None => break,
                }
            }
            if !self.ring.is_empty() {
                self.deadline_misses += 1;
                self.metrics.deadline_misses.inc();
                missed = true;
            }
        }
        self.watchdog();
        self.journal.record(EventKind::TickEnd, 0, 0, drained, u64::from(missed));
    }

    /// One watchdog pass: diff every source's collector stats against the
    /// previous tick and advance its health state machine. Sources are
    /// visited in sorted key order so the pass is deterministic.
    fn watchdog(&mut self) {
        let mut current: Vec<((u32, u32), ixp_sflow::SourceStats)> = self
            .scan
            .collector()
            .sources()
            .map(|(k, s)| ((u32::from(k.agent), k.sub_agent), s))
            .collect();
        current.sort_by_key(|(k, _)| *k);
        for (key, s) in current {
            let prev = self.prev.get(&key).copied().unwrap_or_default();
            let delta = TickDelta {
                received: s.received.saturating_sub(prev.received),
                lost: s.lost.saturating_sub(prev.lost),
                decode_errors: s.decode_errors.saturating_sub(prev.decode_errors),
                // Severe only on the tick the collector's quarantine fires;
                // afterwards stickiness is the state machine's business.
                quarantined: s.quarantined && !prev.quarantined,
            };
            self.prev.insert(
                key,
                PrevStats {
                    received: s.received,
                    lost: s.lost,
                    decode_errors: s.decode_errors,
                    quarantined: s.quarantined,
                },
            );
            let agent = self.health.entry(key).or_default();
            let before = agent.state();
            if let Some(next) = agent.observe(&delta, &self.config.policy) {
                bump(&mut self.transitions, next.index());
                if let Some(counter) = self.metrics.transitions.get(next.index()) {
                    counter.inc();
                }
                self.journal.record(
                    EventKind::Transition,
                    u64::from(key.0),
                    u64::from(key.1),
                    before.index() as u64,
                    next.index() as u64,
                );
            }
        }
        let mut counts = [0u64; 4];
        for h in self.health.values() {
            bump(&mut counts, h.state().index());
        }
        for (gauge, count) in self.metrics.agents.iter().zip(counts) {
            gauge.set(count);
        }
    }

    /// Serialize the whole supervised pipeline — supervisor counters, ring
    /// contents, per-agent health, and the nested scan/collector state —
    /// into a checkpoint file image sealed under [`CHECKPOINT_MAGIC`] and
    /// [`FORMAT_VERSION`] (see [`ixp_obs::codec`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        codec::put_u32(&mut payload, SUPERVISOR_STATE_VERSION);
        codec::put_u64(&mut payload, self.offered);
        codec::put_u64(&mut payload, self.ticks);
        codec::put_u64(&mut payload, self.deadline_misses);
        codec::put_bool(&mut payload, self.stalled);
        for t in self.transitions {
            codec::put_u64(&mut payload, t);
        }
        self.ring.save(&mut payload);
        codec::put_u64(&mut payload, self.prev.len() as u64);
        for (key, p) in &self.prev {
            codec::put_u32(&mut payload, key.0);
            codec::put_u32(&mut payload, key.1);
            codec::put_u64(&mut payload, p.received);
            codec::put_u64(&mut payload, p.lost);
            codec::put_u64(&mut payload, p.decode_errors);
            codec::put_bool(&mut payload, p.quarantined);
        }
        codec::put_u64(&mut payload, self.health.len() as u64);
        for (key, h) in &self.health {
            codec::put_u32(&mut payload, key.0);
            codec::put_u32(&mut payload, key.1);
            h.save(&mut payload);
        }
        codec::put_bytes(&mut payload, &self.scan.save_state());
        codec::seal(CHECKPOINT_MAGIC, FORMAT_VERSION, &payload)
    }

    /// Restore a supervised pipeline from a [`Supervisor::checkpoint`]
    /// image under the same configuration. The image is hostile input:
    /// frame and payload are fully validated with typed errors, never
    /// panics. The restored supervisor has detached metrics; use
    /// [`Supervisor::bind_obs`] to re-attach instrumentation.
    pub fn restore(bytes: &[u8], config: SupervisorConfig) -> Result<Supervisor, CodecError> {
        let config = config.normalized();
        let mut cur = Cur::new(codec::open(CHECKPOINT_MAGIC, FORMAT_VERSION, bytes)?);
        let version = cur.u32()?;
        if version != SUPERVISOR_STATE_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let offered = cur.u64()?;
        let ticks = cur.u64()?;
        let deadline_misses = cur.u64()?;
        let stalled = cur.bool()?;
        let mut transitions = [0u64; 4];
        for t in &mut transitions {
            *t = cur.u64()?;
        }
        let ring = IntakeRing::restore(&mut cur, config.ring_capacity)?;
        // Per-prev entry: 2×u32 key + 3×u64 + bool.
        let n_prev = cur.count(33)?;
        let mut prev = BTreeMap::new();
        let mut last: Option<(u32, u32)> = None;
        for _ in 0..n_prev {
            let key = (cur.u32()?, cur.u32()?);
            if last.is_some_and(|l| l >= key) {
                return Err(CodecError::Invalid("prev keys not strictly increasing"));
            }
            last = Some(key);
            let p = PrevStats {
                received: cur.u64()?,
                lost: cur.u64()?,
                decode_errors: cur.u64()?,
                quarantined: cur.bool()?,
            };
            prev.insert(key, p);
        }
        // Per-health entry: 2×u32 key + u8 state + u32 counter.
        let n_health = cur.count(13)?;
        let mut health = BTreeMap::new();
        let mut last: Option<(u32, u32)> = None;
        for _ in 0..n_health {
            let key = (cur.u32()?, cur.u32()?);
            if last.is_some_and(|l| l >= key) {
                return Err(CodecError::Invalid("health keys not strictly increasing"));
            }
            last = Some(key);
            health.insert(key, AgentHealth::restore(&mut cur)?);
        }
        let scan_blob = cur.bytes()?;
        let scan = WeekScan::restore_state(scan_blob)?;
        cur.finish()?;
        if scan.shed() != ring.shed() {
            return Err(CodecError::Invalid("shed counters disagree"));
        }
        let ingested = scan.ingest_health().ingested().saturating_add(ring.len() as u64);
        if ingested != offered {
            return Err(CodecError::Invalid("offered count does not cover the pipeline"));
        }
        Ok(Supervisor {
            config,
            scan,
            ring,
            offered,
            ticks,
            deadline_misses,
            stalled,
            transitions,
            prev,
            health,
            metrics: SupervisorMetrics::detached(),
            journal: Journal::disabled(),
        })
    }

    /// Attach a restored supervisor to live instrumentation: the nested
    /// scan replays its `sflow_*`/`wire_*` totals, and the supervisor
    /// replays its own `supervisor_*` counters/gauges. After this, the
    /// registry reads exactly as if the run had never been interrupted.
    pub fn bind_obs(&mut self, obs: &Obs) {
        self.scan.bind_obs(obs);
        let m = SupervisorMetrics::register(&obs.registry);
        m.offered.add(self.offered);
        m.shed.add(self.ring.shed());
        m.ticks.add(self.ticks);
        m.deadline_misses.add(self.deadline_misses);
        m.ring_depth.set_max(self.ring.high_water() as u64);
        for (counter, t) in m.transitions.iter().zip(self.transitions) {
            counter.add(t);
        }
        let mut counts = [0u64; 4];
        for h in self.health.values() {
            bump(&mut counts, h.state().index());
        }
        for (gauge, count) in m.agents.iter().zip(counts) {
            gauge.set(count);
        }
        self.metrics = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    use ixp_sflow::Datagram;

    fn dg(sub: u32, seq: u32) -> Vec<u8> {
        Datagram {
            agent_address: Ipv4Addr::new(10, 255, 0, 1),
            sub_agent_id: sub,
            sequence: seq,
            uptime_ms: seq.wrapping_mul(40),
            samples: vec![],
            counters: vec![],
        }
        .encode()
    }

    fn supervisor(config: SupervisorConfig) -> Supervisor {
        Supervisor::new(WeekScan::new(Week::REFERENCE, 10), config)
    }

    fn small_config() -> SupervisorConfig {
        SupervisorConfig {
            ring_capacity: 8,
            arrivals_per_tick: 4,
            drain_budget: 8,
            policy: HealthPolicy::default(),
        }
    }

    /// A feed with a gap burst in the middle (drives Degraded → recovery).
    fn lossy_feed() -> Vec<Vec<u8>> {
        let mut seqs: Vec<u32> = (1..=40).collect();
        seqs.retain(|s| !(20..=27).contains(s));
        seqs.iter().map(|&s| dg(0, s)).collect()
    }

    #[test]
    fn clean_run_stays_healthy_with_no_misses_or_sheds() {
        let mut sup = supervisor(small_config());
        let done = sup.run_feed((1..=32u32).map(|s| dg(0, s)), None);
        assert!(done);
        let s = sup.stats();
        assert_eq!(s.offered, 32);
        assert_eq!(s.shed, 0);
        assert_eq!(s.deadline_misses, 0);
        assert_eq!(s.ticks, 8);
        assert_eq!(s.agents, [1, 0, 0, 0]);
        assert_eq!(sup.health_of(u32::from(Ipv4Addr::new(10, 255, 0, 1)), 0),
                   Some(HealthState::Healthy));
        let h = sup.scan().ingest_health();
        assert!(h.fully_accounted());
        assert_eq!(h.collector.accepted, 32);
    }

    #[test]
    fn loss_burst_degrades_then_recovers() {
        let mut sup = supervisor(small_config());
        sup.run_feed(lossy_feed().into_iter(), None);
        let s = sup.stats();
        // Degraded at the burst, Recovering after, Healthy at the end.
        assert!(s.transitions[HealthState::Degraded.index()] >= 1);
        assert!(s.transitions[HealthState::Recovering.index()] >= 1);
        assert_eq!(s.agents, [1, 0, 0, 0], "agent did not return to healthy");
    }

    #[test]
    fn stalled_drain_misses_deadlines_and_sheds_with_exact_accounting() {
        let mut sup = supervisor(small_config());
        sup.set_stalled(true);
        for seq in 1..=32u32 {
            sup.offer(dg(0, seq));
        }
        let s = sup.stats();
        assert_eq!(s.offered, 32);
        assert_eq!(s.shed, 24, "ring holds 8, the rest must shed");
        assert_eq!(s.deadline_misses, s.ticks);
        assert_eq!(s.high_water, 8);
        // Shed datagrams are in the health accounting, not lost silently.
        let h = sup.scan().ingest_health();
        assert_eq!(h.shed, 24);
        assert!(h.fully_accounted());
        // Un-stall and finish: the queued 8 drain, nothing more sheds.
        sup.set_stalled(false);
        sup.finish();
        let h = sup.scan().ingest_health();
        assert_eq!(h.collector.datagrams, 8);
        assert_eq!(h.ingested(), 32);
        assert!(h.fully_accounted());
    }

    #[test]
    fn kill_and_resume_is_byte_identical_at_every_boundary() {
        let feed = lossy_feed;
        let mut reference = supervisor(small_config());
        reference.run_feed(feed().into_iter(), None);
        let reference_ckpt = reference.checkpoint();
        for kill_at in 0..=feed().len() as u64 {
            let mut first = supervisor(small_config());
            let done = first.run_feed(feed().into_iter(), Some(kill_at));
            assert!(!done || kill_at >= feed().len() as u64);
            let mid = first.checkpoint();
            let mut resumed =
                Supervisor::restore(&mid, small_config()).expect("restore");
            assert_eq!(resumed.offered(), kill_at.min(feed().len() as u64));
            resumed.run_feed(feed().into_iter(), None);
            assert_eq!(
                resumed.checkpoint(),
                reference_ckpt,
                "divergence after kill at {kill_at}"
            );
        }
    }

    #[test]
    fn checkpoint_corruption_is_rejected_typed_never_panics() {
        let mut sup = supervisor(small_config());
        sup.run_feed(lossy_feed().into_iter(), Some(20));
        let ckpt = sup.checkpoint();
        for cut in 0..ckpt.len() {
            let prefix: Vec<u8> = ckpt.iter().copied().take(cut).collect();
            assert!(Supervisor::restore(&prefix, small_config()).is_err());
        }
        for i in 0..ckpt.len() {
            let mut bad = ckpt.clone();
            if let Some(b) = bad.get_mut(i) {
                *b ^= 0x40;
            }
            assert!(
                Supervisor::restore(&bad, small_config()).is_err(),
                "flip at {i} restored (checksum must catch it)"
            );
        }
    }

    #[test]
    fn restore_rejects_a_smaller_ring_than_the_saved_depth() {
        let mut sup = supervisor(SupervisorConfig {
            ring_capacity: 8,
            arrivals_per_tick: 1000, // no tick: everything stays queued
            ..small_config()
        });
        for seq in 1..=8u32 {
            sup.offer(dg(0, seq));
        }
        let ckpt = sup.checkpoint();
        let tiny = SupervisorConfig { ring_capacity: 2, ..small_config() };
        assert!(Supervisor::restore(&ckpt, tiny).is_err());
    }

    #[test]
    fn bind_obs_replays_supervisor_counters() {
        let obs_a = Obs::deterministic();
        let mut live = Supervisor::with_obs(
            WeekScan::with_obs(Week::REFERENCE, 10, &obs_a),
            small_config(),
            &obs_a,
        );
        live.run_feed(lossy_feed().into_iter(), None);
        let ckpt = live.checkpoint();
        let obs_b = Obs::deterministic();
        let mut restored = Supervisor::restore(&ckpt, small_config()).expect("restore");
        restored.bind_obs(&obs_b);
        assert_eq!(
            ixp_obs::json::render(&obs_a.snapshot()),
            ixp_obs::json::render(&obs_b.snapshot())
        );
    }
}
