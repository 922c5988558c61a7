//! `study`: `Analyzer::run_study` over all 17 weeks, then clustering, the
//! visibility tables and longitudinal churn — what a `repro` user waits
//! for. Synthesis, ingest, census and snapshot all run; transport,
//! supervisor and auditor do not, so this workload is the "no change"
//! control for front-door changes.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use ixp_core::{cluster, longitudinal, visibility, Analyzer, StudyReport, WeeklyReport};
use ixp_netmodel::Week;
use ixp_obs::{Clock, Journal, RealClock};

use crate::pipeline::{self, check_health, digest, traced_ingest, weekly};
use crate::report::Report;
use crate::setup::{self, Needs};
use crate::stats::{median, steady_ns};
use crate::trace::Tracer;
use crate::Args;

/// The analyses `repro` runs over a finished study.
fn analyses(analyzer: &Analyzer<'_>, study: &StudyReport, t: &mut Tracer) {
    let reference = study.reference();
    t.span("cluster", || {
        black_box(cluster::cluster(reference, &analyzer.dns))
    });
    t.span("visibility", || {
        black_box(visibility::table1(&reference.snapshot));
        black_box(visibility::table2(&reference.snapshot, analyzer.model, 10));
        black_box(visibility::table3(&reference.snapshot));
    });
    t.span("longitudinal", || black_box(longitudinal::churn(study)));
}

/// Check every week and return the study's datagram count.
fn check_study(report: &mut Report, study: &StudyReport) -> u64 {
    report.check(study.weeks.len() == Week::COUNT, || {
        format!(
            "study has {} weeks, expected {}",
            study.weeks.len(),
            Week::COUNT
        )
    });
    let mut datagrams = 0;
    for (week, w) in Week::all().zip(&study.weeks) {
        check_health(report, &w.health, &format!("study week {}", week.0));
        report.check(!w.census.is_empty(), || {
            format!("study week {}: empty census", week.0)
        });
        datagrams += w.health.collector.datagrams;
    }
    report.attempted += study.weeks.len() as u64;
    report.digest("reference week", digest(study.reference()));
    datagrams
}

/// Per-week outcome of the traced study.
struct TracedWeek {
    index: usize,
    report: WeeklyReport,
    counts: pipeline::Counts,
    /// For the reference week: its scan's unique IPs and state bytes.
    reference: Option<(usize, usize)>,
}

/// The study with every layer in its own span: each week's feed is
/// collected (`traffic`) before the decomposed ingest scans it, on the
/// same number of worker threads as `run_study`.
fn traced_study(
    analyzer: &Analyzer<'_>,
    threads: usize,
    t: &mut Tracer,
) -> (StudyReport, pipeline::Counts, (usize, usize)) {
    let weeks: Vec<Week> = Week::all().collect();
    let next = AtomicUsize::new(0);
    let per_thread: Vec<(Tracer, Vec<TracedWeek>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.clamp(1, weeks.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut t = Tracer::new(true);
                    let mut done = Vec::new();
                    while let Some(&week) = weeks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let members = analyzer.model.registry.members_at(week).len() as u32;
                        let feed: Vec<Vec<u8>> =
                            t.span("traffic", || analyzer.feed(week).collect());
                        let d = traced_ingest(&feed, week, members, &analyzer.obs, &mut t);
                        drop(feed);
                        let reference = (week == Week::REFERENCE).then(|| {
                            let bytes = t.span("scan.save_state", || d.scan.save_state().len());
                            (d.scan.unique_ips(), bytes)
                        });
                        let report = weekly(analyzer, &d.scan, d.health, &mut t);
                        done.push(TracedWeek {
                            index: week.index(),
                            report,
                            counts: d.counts,
                            reference,
                        });
                    }
                    (t, done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("study worker panicked"))
            .collect()
    });
    let mut weeks_done = Vec::new();
    for (worker, done) in per_thread {
        t.merge(worker);
        weeks_done.extend(done);
    }
    weeks_done.sort_by_key(|w| w.index);
    let mut counts = pipeline::Counts::default();
    let mut reference = (0, 0);
    for w in &weeks_done {
        counts.add(&w.counts);
        reference = w.reference.unwrap_or(reference);
    }
    let study = StudyReport {
        weeks: weeks_done.into_iter().map(|w| w.report).collect(),
    };
    analyses(analyzer, &study, t);
    (study, counts, reference)
}

pub(crate) fn run(args: &Args, report: &mut Report, t: &mut Tracer) {
    let built = setup::build(&args.scale_config, args.seed, Needs::Instruments, report, t);
    let analyzer = &built.analyzer;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clock = RealClock::new();
    let budget_ns = (args.seconds * 1e9) as u64;
    let mut wall_ns = Vec::new();
    let mut datagrams;
    let mut off = Tracer::new(false);
    loop {
        let t0 = clock.now_ns();
        let study = analyzer.run_study(threads);
        analyses(analyzer, &study, &mut off);
        let ns = clock.now_ns() - t0;
        datagrams = check_study(report, &study);
        wall_ns.push(ns);
        if args.trace || clock.now_ns() >= budget_ns {
            break;
        }
    }
    // Every pass reads the same feeds, so the steady pass time gives the
    // rate.
    let study_s = steady_ns(&wall_ns) as f64 / 1e9;
    report.set("dgrams_per_s", datagrams as f64 / study_s);
    report.extra("study_s", study_s, "s");
    report.extra("study.threads", threads as f64, "count");
    let wall: Vec<f64> = wall_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    report.passes(&wall);

    if args.trace {
        let t0 = clock.now_ns();
        let (study, counts, (unique_ips, state_bytes)) = traced_study(analyzer, threads, t);
        // The separate child passes of the decomposition are not part of
        // the traced study's counterpart to an untraced one.
        let carved: u64 = ["wire", "http", "scan.save_state"]
            .iter()
            .map(|n| t.total_ns(n))
            .sum();
        let traced_s = (clock.now_ns() - t0) as f64 / 1e9 - carved as f64 / 1e9 / threads as f64;
        check_study(report, &study);
        let untraced_s = median(&wall);
        report.set(
            "trace.overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
        );
        // Busy time of every layer span, over the untraced study's
        // thread-time (its weeks run on `threads` workers).
        let layers: u64 = [
            "traffic",
            "ingest",
            "census",
            "snapshot",
            "cluster",
            "visibility",
            "longitudinal",
        ]
        .iter()
        .map(|n| t.total_ns(n))
        .sum();
        report.set(
            "trace.attributed_pct",
            100.0 * layers as f64 / 1e9 / (untraced_s * threads as f64),
        );
        pipeline::report_ingest_layers(report, t, &counts);
        pipeline::report_weekly_layers(report, t);
        pipeline::report_traffic(
            report,
            t.total_ns("traffic"),
            counts.samples,
            counts.datagrams,
        );
        report.set("scan.unique_ips", unique_ips as f64);
        report.set("scan.state_bytes", state_bytes as f64);
        report.set("census.servers", study.reference().census.len() as f64);
        report.set("cluster.ms", t.total_ns("cluster") as f64 / 1e6);
        report.set("visibility.ms", t.total_ns("visibility") as f64 / 1e6);
        report.set("longitudinal.ms", t.total_ns("longitudinal") as f64 / 1e6);
    }
    pipeline::time_exposition(report, &analyzer.obs.registry, &Journal::disabled());
}
