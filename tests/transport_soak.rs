//! Transport chaos-soak acceptance gate: the sFlow-over-UDP front door
//! must survive combined UDP-level faults (5 % loss, duplication,
//! reordering, truncation), stray non-sFlow packets, and a mid-stream
//! kill-and-resume of both the transport intake and the supervisor —
//! with byte-identical recovery, exact extended conservation, and
//! Table 1 drift under 2 %.

use std::sync::OnceLock;

use ixp_vantage::core::analyzer::{Analyzer, WeeklyReport};
use ixp_vantage::core::{visibility, WeekScan};
use ixp_vantage::faults::{self, FaultConfig, FaultPlan};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};
use ixp_vantage::obs::Obs;
use ixp_vantage::supervisor::{Supervisor, SupervisorConfig};
use ixp_vantage::transport::{
    Drained, TransportConfig, TransportIntake, TransportMetrics, TransportStats,
};

const SEED: u64 = 1313;

/// Peer identity the week feed uses at the transport front door.
const SFLOW_PEER: u64 = 0x5F10;

/// Stray non-sFlow packets mixed into the week feed.
const GARBAGE_PACKETS: usize = 6;

fn model() -> &'static InternetModel {
    static M: OnceLock<InternetModel> = OnceLock::new();
    M.get_or_init(|| InternetModel::generate(ScaleConfig::tiny(), SEED))
}

fn analyzer() -> &'static Analyzer<'static> {
    static A: OnceLock<Analyzer<'static>> = OnceLock::new();
    A.get_or_init(|| Analyzer::new(model()))
}

/// The fault-free reference-week report drift is measured against.
fn clean() -> &'static WeeklyReport {
    static C: OnceLock<WeeklyReport> = OnceLock::new();
    C.get_or_init(|| analyzer().run_week(Week::REFERENCE))
}

fn members() -> u32 {
    model().registry.members_at(Week::REFERENCE).len() as u32
}

/// The workload, before wire faults: the reference week's sFlow
/// datagrams with six leading-0xFF garbage packets spread evenly through
/// it, so the version gate's decode-error path stays hot.
fn workload() -> &'static Vec<Vec<u8>> {
    static W: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    W.get_or_init(|| {
        let sflow: Vec<Vec<u8>> = analyzer().feed(Week::REFERENCE).collect();
        let stride = (sflow.len() / GARBAGE_PACKETS).max(1);
        let mut out = Vec::with_capacity(sflow.len() + GARBAGE_PACKETS);
        let mut garbage = (0..GARBAGE_PACKETS).map(|i| vec![0xFF; 9 + i]);
        for (i, dg) in sflow.into_iter().enumerate() {
            out.push(dg);
            if (i + 1) % stride == 0 {
                out.extend(garbage.next());
            }
        }
        out.extend(garbage);
        out
    })
}

/// The faulted stream, materialized once so every arm sees identical
/// bytes: 5 % loss plus duplication, reordering, and truncation.
fn faulted() -> &'static Vec<Vec<u8>> {
    static F: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    F.get_or_init(|| {
        let wire = FaultConfig {
            seed: SEED,
            drop: 0.05,
            duplicate: 0.01,
            reorder: 0.01,
            truncate: 0.002,
            ..FaultConfig::default()
        };
        FaultPlan::new(workload().iter().cloned(), wire).collect()
    })
}

fn config() -> SupervisorConfig {
    SupervisorConfig {
        ring_capacity: 256,
        arrivals_per_tick: 64,
        drain_budget: 96,
        ..SupervisorConfig::default()
    }
}

/// One soak arm's complete observable outcome.
struct Outcome {
    sup_checkpoint: Vec<u8>,
    transport_state: Vec<u8>,
    metrics: String,
    stats: TransportStats,
    fully_accounted: bool,
    report: WeeklyReport,
}

/// Drive the faulted stream through an intake-fed supervisor. With
/// `kill_at`, the run "dies" at that stream offset: both the supervisor
/// checkpoint and the transport state are serialized, everything is
/// dropped, and a fresh process (fresh registry included) restores and
/// continues — exactly the repro binary's `--kill-at`/`--resume` path.
fn run(kill_at: Option<usize>) -> Outcome {
    let stream = faulted();
    let mut obs = Obs::deterministic();
    let mut sup = Supervisor::with_obs(
        WeekScan::with_obs(Week::REFERENCE, members(), &obs),
        config(),
        &obs,
    );
    let mut intake = TransportIntake::new(TransportConfig::default());
    intake.bind_metrics(TransportMetrics::register(&obs.registry));

    for (i, packet) in stream.iter().enumerate() {
        if kill_at == Some(i) {
            let sup_ck = sup.checkpoint();
            let t_ck = intake.save_state();
            obs = Obs::deterministic();
            sup = Supervisor::restore(&sup_ck, config()).expect("restore own checkpoint");
            sup.bind_obs(&obs);
            intake = TransportIntake::restore_from(&t_ck).expect("restore own transport state");
            intake.bind_metrics(TransportMetrics::register(&obs.registry));
        }
        intake.offer(SFLOW_PEER, packet);
        for Drained::Sflow { datagram, .. } in intake.drain(usize::MAX) {
            sup.offer(datagram);
        }
    }
    sup.finish();
    let stats = intake.finish();
    Outcome {
        sup_checkpoint: sup.checkpoint(),
        transport_state: intake.save_state(),
        metrics: ixp_vantage::obs::json::render(&obs.snapshot()),
        stats,
        fully_accounted: intake.fully_accounted(),
        report: analyzer().report_from_scan(sup.into_scan()),
    }
}

fn drift_pct(value: u64, reference: u64) -> f64 {
    100.0 * (value as f64 - reference as f64).abs() / reference.max(1) as f64
}

#[test]
fn soak_holds_conservation_and_drift_under_combined_chaos() {
    let outcome = run(None);
    let s = outcome.stats;

    // The chaos actually happened: garbage reached the version gate, and
    // the collector behind it saw wire duplicates and sequence gaps.
    assert!(s.bad_version > 0, "no garbage reached the version gate: {s:?}");
    let health = &outcome.report.health;
    assert!(health.collector.duplicates > 0, "no duplicates suppressed: {health:?}");
    assert!(health.loss_pct() > 0.0, "no loss measured: {health:?}");

    // Exact extended conservation, with no transient terms after finish.
    assert!(outcome.fully_accounted, "{s:?}");
    assert_eq!(s.offered, faulted().len() as u64);
    assert_eq!(s.offered, s.received + s.shed);
    assert_eq!(s.received, s.sflow_datagrams + s.decode_errors);
    assert_eq!(s.decode_errors, s.truncated + s.bad_version);

    // Table 1 stays within the chaos drift tolerance.
    let clean_t1 = visibility::table1(&clean().snapshot);
    let t1 = visibility::table1(&outcome.report.snapshot);
    for (label, got, want) in [
        ("peering IPs", t1.peering.ips, clean_t1.peering.ips),
        ("peering prefixes", t1.peering.prefixes, clean_t1.peering.prefixes),
        ("peering ASes", t1.peering.ases, clean_t1.peering.ases),
    ] {
        let drift = drift_pct(got, want);
        assert!(drift <= 2.0, "{label} drifted {drift:.2} % ({got} vs {want})");
    }
}

#[test]
fn kill_and_resume_mid_stream_is_byte_identical() {
    let whole = run(None);
    // Die halfway through, inside the live part of the stream, where the
    // supervisor ring and the collector's sequence state are hot.
    let resumed = run(Some(faulted().len() / 2));
    assert_eq!(
        whole.sup_checkpoint, resumed.sup_checkpoint,
        "supervisor checkpoint diverged across kill-and-resume"
    );
    assert_eq!(
        whole.transport_state, resumed.transport_state,
        "transport state diverged across kill-and-resume"
    );
    assert_eq!(
        whole.metrics, resumed.metrics,
        "metrics snapshot diverged across kill-and-resume"
    );
    assert_eq!(whole.stats, resumed.stats);
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = run(None);
    let b = run(None);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.sup_checkpoint, b.sup_checkpoint);
    assert_eq!(a.transport_state, b.transport_state);
}

#[test]
fn overload_sheds_visibly_never_silently() {
    // A deliberately tiny inbox with a lazy drain cadence: the front
    // door must shed, and every shed packet must be counted.
    let mut intake = TransportIntake::new(TransportConfig { inbox_capacity: 16 });
    for (i, packet) in workload().iter().enumerate() {
        intake.offer(SFLOW_PEER, packet);
        if i % 8 == 7 {
            intake.drain(2);
        }
    }
    intake.drain(usize::MAX);
    let s = intake.finish();
    assert!(s.shed > 0, "tiny inbox never shed: {s:?}");
    assert!(intake.fully_accounted(), "{s:?}");
    assert_eq!(s.offered, s.received + s.shed);
}

/// A mid-stream kill of the transport front-end leaves a flight dump
/// whose tail names the cut, and whose body carries the transport-side
/// journal traffic (sheds from a deliberately small inbox) that explains
/// what the intake was doing when it died. Damaged dumps are rejected
/// with a typed error.
#[test]
fn kill_leaves_a_flight_dump_naming_the_cut() {
    use ixp_vantage::obs::journal::{self, EventKind};

    let stream = faulted();
    let kill_at = stream.len() / 2;
    let journal = ixp_vantage::obs::Journal::deterministic();
    let mut sup = Supervisor::new(WeekScan::new(Week::REFERENCE, members()), config());
    sup.bind_journal(journal.clone());
    // A 16-packet inbox drained 8 at a time every 24 offers: the front
    // door sheds steadily, right up to the cut.
    let mut intake = TransportIntake::new(TransportConfig { inbox_capacity: 16 });
    intake.bind_journal(journal.clone());

    for (i, packet) in stream.iter().take(kill_at).enumerate() {
        intake.offer(SFLOW_PEER, packet);
        if i % 24 == 23 {
            for Drained::Sflow { datagram, .. } in intake.drain(8) {
                sup.offer(datagram);
            }
        }
    }
    // As the repro binary's transport kill path (`sub_agent` 1 marks the
    // transport side), then the dump to `<state>.flight`.
    journal.record(EventKind::Kill, 0, 1, kill_at as u64, sup.stats().ticks);
    let dir = std::env::temp_dir().join(format!("ixp-transport-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("transport.state.flight");
    std::fs::write(&path, journal.dump_flight(journal::DEFAULT_CAPACITY)).unwrap();
    assert!(path.is_file(), "flight dump missing after transport kill");

    let bytes = std::fs::read(&path).unwrap();
    let events = journal::parse_flight(&bytes).expect("flight dump parses");
    let tail = events.last().expect("flight dump holds the journal tail");
    assert_eq!(tail.kind, EventKind::Kill);
    assert_eq!(tail.sub_agent, 1, "kill edge must name the transport side");
    assert_eq!(tail.a, kill_at as u64, "flight tail must name the cut offset");
    assert!(
        events.iter().any(|e| e.kind == EventKind::Shed && e.agent == SFLOW_PEER),
        "flight dump carries no transport-side context: {events:?}"
    );

    let mut flipped = bytes.clone();
    faults::chaos::flip_bit(&mut flipped, SEED);
    let err = journal::parse_flight(&flipped).expect_err("bit-flipped flight dump must be rejected");
    assert!(!err.to_string().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_transport_state_fails_closed() {
    let state = run(None).transport_state;
    let mut flipped = state.clone();
    faults::chaos::flip_bit(&mut flipped, SEED);
    assert!(
        TransportIntake::restore_from(&flipped).is_err(),
        "bit-flipped transport state restored"
    );
    let truncated = faults::chaos::truncate_at_random(&state, SEED);
    assert!(
        TransportIntake::restore_from(&truncated).is_err(),
        "truncated transport state restored"
    );
    // And a stray garbage packet never passes the version gate.
    let mut t = TransportIntake::new(TransportConfig::default());
    t.offer(1, &[0xFF; 9]);
    assert!(t.drain(1).is_empty());
    assert_eq!((t.stats().decode_errors, t.stats().sflow_datagrams), (1, 0));
}
