//! `ingest`: the reference week, synthesized during set-up, replayed
//! single-threaded through `WeekScan::with_obs(..).ingest`. The timed
//! region holds only collector decode, dissection, HTTP classification
//! and the per-IP upsert; synthesis is never inside it.

use ixp_core::WeekScan;
use ixp_netmodel::Week;
use ixp_obs::{Clock, Journal, Obs, RealClock};

use crate::pipeline::{
    self, check_health, digest, scan_digest, timed_ingest, traced_ingest, weekly,
};
use crate::report::Report;
use crate::setup::{self, Needs};
use crate::stats::{median, ChunkTimes};
use crate::trace::Tracer;
use crate::Args;

pub(crate) fn run(args: &Args, report: &mut Report, t: &mut Tracer) {
    let built = setup::build(&args.scale_config, args.seed, Needs::Feed, report, t);
    let (feed, members, week) = (&built.feed, built.members, Week::REFERENCE);
    let datagrams = feed.len() as u64;
    let clock = RealClock::new();
    // Traced runs spend half the budget on untraced/traced pairs and half
    // on the paired instrumentation-overhead measurement.
    let budget_ns = (args.seconds * 1e9) as u64 / if args.trace { 2 } else { 1 };

    let mut chunks = ChunkTimes::default();
    let mut untraced_ns = Vec::new();
    let mut overhead = Vec::new();
    let mut first: Option<WeekScan> = None;
    let mut last_obs;
    loop {
        let obs = Obs::real();
        let (scan, ns) = timed_ingest(WeekScan::with_obs(week, members, &obs), feed, &mut chunks);
        report.attempted += datagrams;
        check_health(report, &scan.ingest_health(), "ingest pass");
        report.digest("ingest scan", scan_digest(&scan));
        untraced_ns.push(ns as f64);
        first.get_or_insert(scan);
        last_obs = obs;

        if args.trace {
            // The first traced pass feeds the per-layer metrics; later
            // ones only pair with an untraced pass for the overhead.
            let mut scratch = Tracer::new(true);
            let tt = if overhead.is_empty() {
                &mut *t
            } else {
                &mut scratch
            };
            let obs = Obs::real();
            let d = traced_ingest(feed, week, members, &obs, tt);
            let traced = d.pass_ns;
            check_health(report, &d.health, "traced ingest pass");
            report.digest("ingest scan", scan_digest(&d.scan));
            overhead.push(100.0 * (traced as f64 - ns as f64) / ns as f64);
            if overhead.len() == 1 {
                pipeline::report_ingest_layers(report, t, &d.counts);
                pipeline::report_traffic(
                    report,
                    built.synth_ns,
                    d.counts.samples,
                    built.synth_datagrams,
                );
                let bytes = t.span("scan.save_state", || d.scan.save_state().len());
                report.set("scan.state_bytes", bytes as f64);
                let week_report = weekly(&built.analyzer, &d.scan, d.health, t);
                report.digest("reference week", digest(&week_report));
                report.set("census.servers", week_report.census.len() as f64);
            }
        }
        if clock.now_ns() >= budget_ns && (!args.trace || overhead.len() >= 2) {
            break;
        }
    }
    let rate = datagrams as f64 / (chunks.steady_pass_ns() / 1e9);
    report.set("dgrams_per_s", rate);
    report.extra("ingest_dgrams_per_s", rate, "datagrams/s");
    let pass_ns = median(&untraced_ns);
    report.passes(&untraced_ns.iter().map(|ns| ns / 1e9).collect::<Vec<_>>());

    if let Some(scan) = first {
        let health = scan.ingest_health();
        let mut off = Tracer::new(false);
        let tt = if args.trace { &mut *t } else { &mut off };
        report.digest(
            "reference week",
            digest(&weekly(&built.analyzer, &scan, health, tt)),
        );
    }
    pipeline::time_exposition(report, &last_obs.registry, &Journal::disabled());

    if args.trace {
        report.set("trace.overhead_pct", median(&overhead));
        let layers = t.total_ns("sflow") + t.total_ns("scan");
        report.set("trace.attributed_pct", 100.0 * layers as f64 / pass_ns);
        pipeline::report_weekly_layers(report, t);
        // Detached `WeekScan::new` against instrumented
        // `WeekScan::with_obs`, paired over the first quarter of the week.
        let prefix = &feed[..feed.len().div_ceil(4)];
        let pass = |scan: WeekScan| timed_ingest(scan, prefix, &mut ChunkTimes::default()).1;
        pipeline::paired_overhead(
            report,
            [
                "obs.ingest_overhead_pct",
                "obs.ingest_overhead_q1_pct",
                "obs.ingest_overhead_q3_pct",
            ],
            budget_ns,
            7,
            || pass(WeekScan::new(week, members)),
            || pass(WeekScan::with_obs(week, members, &Obs::real())),
        );
    }
}
