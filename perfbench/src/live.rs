//! `live`: the operator's path. The reference week goes through a seeded
//! fault plan (low rates of drop, duplicate, reorder, truncate and
//! corrupt, plus one agent restart) and each datagram is offered in turn
//! through `TransportIntake::offer`/`drain` (sFlow passthrough, in
//! memory), `Supervisor::with_obs` (default config, journal bound) and its
//! `WeekScan`. `Auditor::run(Steady)` runs every 4096 offered datagrams
//! and `Final` at the end; then come a checkpoint → restore round trip and
//! a `GET /metrics` scrape. One caller, closed loop: the supervisor is
//! count-driven, so an open-loop schedule would mostly time the sleep.

use std::hint::black_box;

use ixp_core::WeekScan;
use ixp_netmodel::Week;
use ixp_obs::journal::DEFAULT_CAPACITY;
use ixp_obs::{AuditScope, Auditor, Clock, Journal, Obs, RealClock};
use ixp_supervisor::{Supervisor, SupervisorConfig};
use ixp_transport::{Drained, Link, TransportConfig, TransportIntake, TransportMetrics, UdpLink};

use crate::pipeline::{
    self, check_health, digest, median_call_ns, scan_digest, traced_ingest, weekly, CHUNK,
};
use crate::report::Report;
use crate::setup::{self, Needs};
use crate::stats::{median, per, percentile, tail_percentile, ChunkTimes};
use crate::trace::Tracer;
use crate::Args;

/// Peer identity of the one sFlow exporter.
const PEER: u64 = 1;
/// Offered datagrams between steady-state audits.
const AUDIT_EVERY: u64 = 4096;
/// Tick durations needed before a p99 is read (ten beyond it).
const MIN_TICKS: usize = 1000;
/// Datagrams per UDP send burst: small enough for the socket buffer.
const UDP_BATCH: usize = 64;

/// One pass of the live chain, kept for the checks after it.
struct LivePass {
    sup: Supervisor,
    intake: TransportIntake,
    obs: Obs,
    journal: Journal,
    auditor: Auditor,
    wall_ns: u64,
    /// Durations of the offers that ran a watchdog tick.
    ticks_ns: Vec<u64>,
    steady_breaches: u64,
    final_ok: bool,
}

/// One pass of the live chain. Every [`CHUNK`] of the stream, and the
/// final drain with its audit, is timed into `chunks`.
fn live_pass(
    stream: &[Vec<u8>],
    members: u32,
    journal_on: bool,
    t: &mut Tracer,
    chunks: &mut ChunkTimes,
) -> LivePass {
    let config = SupervisorConfig::default();
    let obs = Obs::real();
    let journal = if journal_on {
        Journal::with_capacity(DEFAULT_CAPACITY, obs.clock.clone())
    } else {
        Journal::disabled()
    };
    let auditor = Auditor::new(obs.registry.clone(), journal.clone());
    let mut intake = TransportIntake::new(TransportConfig::default());
    intake.bind_metrics(TransportMetrics::register(&obs.registry));
    intake.bind_journal(journal.clone());
    let scan = WeekScan::with_obs(Week::REFERENCE, members, &obs);
    let mut sup = Supervisor::with_obs(scan, config, &obs);
    sup.bind_journal(journal.clone());

    let clock = RealClock::new();
    let mut ticks_ns = Vec::new();
    let mut steady_breaches = 0;
    let t0 = clock.now_ns();
    let mut last = t0;
    let mut chunk_count = 0;
    for (j, chunk) in stream.chunks(CHUNK).enumerate() {
        for dg in chunk {
            t.enter("transport");
            intake.offer(PEER, dg);
            let drained = intake.drain(usize::MAX);
            t.exit();
            for unit in drained {
                let Drained::Sflow { datagram, .. } = unit else {
                    continue;
                };
                if (sup.offered() + 1).is_multiple_of(config.arrivals_per_tick) {
                    t.enter("supervisor.tick");
                    let s = clock.now_ns();
                    sup.offer(datagram);
                    ticks_ns.push(clock.now_ns() - s);
                    t.exit();
                } else {
                    t.span("supervisor.offer", || sup.offer(datagram));
                }
                if sup.offered().is_multiple_of(AUDIT_EVERY)
                    && t.span("obs.audit", || auditor.run(AuditScope::Steady))
                        .is_err()
                {
                    steady_breaches += 1;
                }
            }
        }
        let now = clock.now_ns();
        chunks.record(j, now - last);
        last = now;
        chunk_count = j + 1;
    }
    t.span("finish", || {
        sup.finish();
        intake.finish();
    });
    let final_ok = t
        .span("obs.audit", || auditor.run(AuditScope::Final))
        .is_ok();
    let end = clock.now_ns();
    chunks.record(chunk_count, end - last);
    let wall_ns = end - t0;
    LivePass {
        sup,
        intake,
        obs,
        journal,
        auditor,
        wall_ns,
        ticks_ns,
        steady_breaches,
        final_ok,
    }
}

/// The conservation checks of one pass; unaccounted datagrams fail.
fn check_pass(report: &mut Report, p: &LivePass, offered: u64) {
    report.attempted += offered;
    let s = p.intake.stats();
    if !p.intake.fully_accounted() || s.offered != offered {
        report.failed += offered.abs_diff(s.received + s.shed).max(1);
        report.check(false, || {
            format!("transport intake not fully accounted: {s:?}")
        });
    }
    check_health(report, &p.sup.scan().ingest_health(), "live pass");
    report.check(s.sflow_datagrams == p.sup.offered(), || {
        format!(
            "transport passed {} sFlow datagrams, supervisor saw {}",
            s.sflow_datagrams,
            p.sup.offered()
        )
    });
    report.check(
        p.steady_breaches == 0 && p.final_ok && p.auditor.breaches() == 0,
        || {
            format!(
                "conservation audit breached ({} steady failures, final ok: {}, {} breaches)",
                p.steady_breaches,
                p.final_ok,
                p.auditor.breaches()
            )
        },
    );
    report.digest("live scan", scan_digest(p.sup.scan()));
}

/// Send the stream through a loopback `UdpLink::connect` → `bind` pair in
/// bursts of [`UDP_BATCH`] from this one thread, timing only `recv`.
fn udp_receive(report: &mut Report, stream: &[Vec<u8>]) {
    let absent = |report: &mut Report, why: String| {
        eprintln!("perfbench: UDP receive layer not measured: {why}");
        report.absent("transport.udp_recv_ns_per_datagram", why.clone());
        report.absent("transport.udp_lost", why);
    };
    let mut rx = match UdpLink::bind("127.0.0.1:0") {
        Ok(rx) => rx,
        Err(e) => return absent(report, format!("bind denied: {e}")),
    };
    let target = match rx.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => return absent(report, format!("no local address: {e}")),
    };
    let mut tx = match UdpLink::connect(&target) {
        Ok(tx) => tx,
        Err(e) => return absent(report, format!("connect denied: {e}")),
    };
    let clock = RealClock::new();
    let (mut sent, mut received, mut recv_ns) = (0u64, 0u64, 0u64);
    for batch in stream.chunks(UDP_BATCH) {
        for dg in batch {
            sent += u64::from(tx.send(PEER, dg).is_ok());
        }
        for _ in batch {
            let t0 = clock.now_ns();
            match rx.recv() {
                Ok(Some(_)) => {
                    recv_ns += clock.now_ns() - t0;
                    received += 1;
                }
                // Timed out: whatever is missing is counted as lost below.
                _ => break,
            }
        }
    }
    while let Ok(Some(_)) = rx.recv() {
        received += 1;
    }
    report.set(
        "transport.udp_recv_ns_per_datagram",
        recv_ns as f64 / received.max(1) as f64,
    );
    report.set(
        "transport.udp_lost",
        (stream.len() as u64).saturating_sub(received) as f64,
    );
    report.extra("transport.udp_sent", sent as f64, "count");
}

pub(crate) fn run(args: &Args, report: &mut Report, t: &mut Tracer) {
    let built = setup::build(&args.scale_config, args.seed, Needs::FaultedFeed, report, t);
    let (stream, members) = (&built.feed, built.members);
    let offered = stream.len() as u64;
    let clock = RealClock::new();
    let budget_ns = (args.seconds * 1e9) as u64 / if args.trace { 2 } else { 1 };
    let mut off = Tracer::new(false);
    t.keep_samples("supervisor.offer");

    let mut chunks = ChunkTimes::default();
    let mut wall = Vec::new();
    let mut ticks = Vec::new();
    let mut overhead = Vec::new();
    let mut last;
    loop {
        let p = live_pass(stream, members, true, &mut off, &mut chunks);
        check_pass(report, &p, offered);
        wall.push(p.wall_ns as f64);
        ticks.extend_from_slice(&p.ticks_ns);
        if args.trace {
            let mut scratch = Tracer::new(true);
            let first = overhead.is_empty();
            let traced = live_pass(
                stream,
                members,
                true,
                if first { &mut *t } else { &mut scratch },
                &mut ChunkTimes::default(),
            );
            check_pass(report, &traced, offered);
            overhead.push(100.0 * (traced.wall_ns as f64 - p.wall_ns as f64) / p.wall_ns as f64);
            if first {
                let s = traced.sup.stats();
                report.set("supervisor.ticks", s.ticks as f64);
                report.set("supervisor.shed", s.shed as f64);
                report.set("supervisor.deadline_misses", s.deadline_misses as f64);
                report.set(
                    "obs.journal_events",
                    (traced.journal.len() as u64 + traced.journal.dropped()) as f64,
                );
            }
        }
        last = p;
        let enough = ticks.len() >= MIN_TICKS && (!args.trace || overhead.len() >= 2);
        if enough && clock.now_ns() >= budget_ns {
            break;
        }
    }
    let rate = offered as f64 / (chunks.steady_pass_ns() / 1e9);
    report.set("dgrams_per_s", rate);
    report.extra("live_dgrams_per_s", rate, "datagrams/s");
    let pass_ns = median(&wall);
    report.passes(&wall.iter().map(|ns| ns / 1e9).collect::<Vec<_>>());
    report.set("tick_p50_ms", percentile(&ticks, 50.0) as f64 / 1e6);
    match tail_percentile(&ticks, 99.0) {
        Some(p99) => report.set("tick_p99_ms", p99 as f64 / 1e6),
        None => report.check(false, || format!("only {} ticks timed", ticks.len())),
    }
    report.set("tick_samples", ticks.len() as f64);

    let p = last;
    // Checkpoint → restore round trip of the final pipeline state.
    let config = SupervisorConfig::default();
    let ck = p.sup.checkpoint();
    match Supervisor::restore(&ck, config) {
        Ok(restored) => report.check(restored.checkpoint() == ck, || {
            "restore(checkpoint).checkpoint() differs from the checkpoint".to_string()
        }),
        Err(e) => report.check(false, || format!("checkpoint does not restore: {e}")),
    }
    report.set("supervisor.checkpoint_bytes", ck.len() as f64);
    report.set("scan.state_bytes", p.sup.scan().save_state().len() as f64);
    let ms = |ns: f64| ns / 1e6;
    report.set(
        "checkpoint_ms",
        ms(median_call_ns(400_000_000, 5, || {
            black_box(p.sup.checkpoint());
        })),
    );
    report.set(
        "restore_ms",
        ms(median_call_ns(400_000_000, 5, || {
            let _ = black_box(Supervisor::restore(black_box(&ck), config));
        })),
    );
    pipeline::time_exposition(report, &p.obs.registry, &p.journal);
    let health = p.sup.scan().ingest_health();
    let week_report = weekly(&built.analyzer, p.sup.scan(), health, &mut off);
    report.digest("live week", digest(&week_report));

    if args.trace {
        report.set("trace.overhead_pct", median(&overhead));
        let layers: u64 = [
            "transport",
            "supervisor.offer",
            "supervisor.tick",
            "obs.audit",
            "finish",
        ]
        .iter()
        .map(|n| t.total_ns(n))
        .sum();
        report.set("trace.attributed_pct", 100.0 * layers as f64 / pass_ns);
        report.set(
            "transport.ns_per_datagram",
            per(t.total_ns("transport"), offered),
        );
        if let Some(a) = t.get("supervisor.offer") {
            let samples = a.samples.clone().unwrap_or_default();
            report.set("supervisor.offer_ns_p50", percentile(&samples, 50.0) as f64);
            if let Some(p99) = tail_percentile(&samples, 99.0) {
                report.set("supervisor.offer_ns_p99", p99 as f64);
            }
        }
        if let Some(a) = t.get("obs.audit") {
            report.set(
                "obs.audit_us",
                a.total_ns as f64 / a.count.max(1) as f64 / 1e3,
            );
        }

        // The collector, dissector, classifier and upsert on the faulted
        // stream: duplicate suppression, gap accounting, decode errors and
        // the restart path all run here, unlike on `ingest`.
        let d = traced_ingest(stream, Week::REFERENCE, members, &Obs::real(), t);
        check_health(report, &d.health, "traced live ingest");
        pipeline::report_ingest_layers(report, t, &d.counts);
        pipeline::report_traffic(
            report,
            built.synth_ns,
            d.counts.samples,
            built.synth_datagrams,
        );
        let traced_week = weekly(&built.analyzer, &d.scan, d.health, t);
        report.set("census.servers", traced_week.census.len() as f64);
        pipeline::report_weekly_layers(report, t);

        // Journal off against journal on, paired over the first quarter.
        let prefix = &stream[..stream.len().div_ceil(4)];
        pipeline::paired_overhead(
            report,
            [
                "obs.journal_overhead_pct",
                "obs.journal_overhead_q1_pct",
                "obs.journal_overhead_q3_pct",
            ],
            budget_ns,
            7,
            || {
                let (mut off, mut chunks) = (Tracer::new(false), ChunkTimes::default());
                live_pass(prefix, members, false, &mut off, &mut chunks).wall_ns
            },
            || {
                let (mut off, mut chunks) = (Tracer::new(false), ChunkTimes::default());
                live_pass(prefix, members, true, &mut off, &mut chunks).wall_ns
            },
        );
        udp_receive(report, stream);
    }
}
