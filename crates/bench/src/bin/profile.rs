//! Self-profiling harness: measures per-stage throughput of the pipeline
//! with the `ixp-obs` instrumentation active and writes `BENCH_5.json`,
//! the baseline any later perf PR has to beat.
//!
//! ```text
//! cargo run --release -p ixp-bench --bin profile -- [--scale tiny|small]
//!     [--seed N] [--out BENCH_5.json] [--reps N]
//! ```
//!
//! Three measurements:
//!
//! * **ingest overhead** — the reference week's feed is materialized once
//!   and pushed through a detached [`WeekScan`] (metrics sinks discarded)
//!   and an instrumented one (live registry + real clock, 1-in-64 latency
//!   sampling). The two variants are *interleaved* within each repetition
//!   (detached, instrumented, detached, instrumented, …) so frequency
//!   scaling, cache warmth, and scheduler drift hit both alike — a fixed
//!   detached-then-instrumented order lets whichever runs later ride a
//!   warmer machine and can even report negative overhead. Median-of-`reps`
//!   wall times give the relative overhead; the acceptance bar is < 5 %.
//! * **journal overhead** — the same feed through the supervised intake
//!   ring, once with the event journal disabled and once with a live
//!   bounded journal recording tick spans and transitions. Interleaved
//!   and median'd the same way; same < 5 % bar (DESIGN.md §13).
//! * **per-stage throughput** — a full instrumented 17-week study plus the
//!   clustering / visibility / longitudinal analyses, with every stage's
//!   duration read back from the `core_stage_duration_ns{stage="..."}`
//!   histograms the pipeline itself publishes.
//!
//! All timing goes through [`ixp_obs::RealClock`] — this binary contains
//! no ambient `Instant::now` (the `obs-clock-boundary` lint holds here
//! too).

use std::fmt::Write as _;

use ixp_core::analyzer::{stage_metric, Analyzer};
use ixp_core::{cluster, longitudinal, visibility, WeekScan};
use ixp_netmodel::{InternetModel, ScaleConfig, Week};
use ixp_obs::{real_clock, MetricValue, Obs, Stopwatch};
use ixp_traffic::{MixConfig, WeekStream};

struct Args {
    scale: ScaleConfig,
    scale_name: String,
    seed: u64,
    out: String,
    reps: u32,
}

fn parse_args() -> Args {
    let mut scale = ScaleConfig::tiny();
    let mut scale_name = "tiny".to_string();
    let mut seed = 2012u64;
    let mut out = "BENCH_5.json".to_string();
    let mut reps = 3u32;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().expect("--scale value");
                scale_name = v.clone();
                scale = match v.as_str() {
                    "tiny" => ScaleConfig::tiny(),
                    "small" => ScaleConfig::small(),
                    other => panic!("--scale tiny|small, got {other}"),
                };
            }
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--out" => out = it.next().expect("--out path"),
            "--reps" => reps = it.next().and_then(|s| s.parse().ok()).expect("--reps N"),
            other => panic!("unknown argument {other}"),
        }
    }
    Args { scale, scale_name, seed, out, reps }
}

/// One timed call of `f`, in nanoseconds.
fn timed(clock: &dyn ixp_obs::Clock, mut f: impl FnMut()) -> u64 {
    let sw = Stopwatch::start(clock);
    f();
    sw.elapsed_ns(clock)
}

/// Median of the samples (robust to the odd scheduler hiccup without the
/// ordering bias a min/best-of has when variants run back to back).
fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    let n = samples.len();
    match n {
        0 => 0,
        _ if n % 2 == 1 => samples.get(n / 2).copied().unwrap_or(0),
        _ => {
            let hi = samples.get(n / 2).copied().unwrap_or(0);
            let lo = samples.get(n / 2 - 1).copied().unwrap_or(0);
            lo.midpoint(hi)
        }
    }
}

fn per_sec(count: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    count as f64 / (ns as f64 / 1e9)
}

fn main() {
    let args = parse_args();
    let clock = real_clock();
    let week = Week::REFERENCE;

    eprintln!("generating model (scale={}, seed={}) ...", args.scale_name, args.seed);
    let model = InternetModel::generate(args.scale.clone(), args.seed);
    let members = model.registry.members_at(week).len() as u32;

    // ---- ingest overhead: detached vs instrumented WeekScan -------------
    eprintln!("materializing reference-week feed ...");
    let feed: Vec<Vec<u8>> =
        WeekStream::new(&model, MixConfig::default(), week, model.seed).collect();
    let datagrams = feed.len() as u64;
    let feed_bytes: u64 = feed.iter().map(|d| d.len() as u64).sum();

    eprintln!(
        "timing ingest ({} datagrams, median of {} interleaved reps) ...",
        datagrams, args.reps
    );
    let mut run_detached = || {
        let mut scan = WeekScan::new(week, members);
        for dg in &feed {
            scan.ingest(dg);
        }
    };
    let mut run_instrumented = || {
        let obs = Obs::real();
        let mut scan = WeekScan::with_obs(week, members, &obs);
        for dg in &feed {
            scan.ingest(dg);
        }
    };
    // Untimed warmup of both variants (page in the feed, warm the caches).
    run_detached();
    run_instrumented();
    let mut detached = Vec::new();
    let mut instrumented = Vec::new();
    for _ in 0..args.reps.max(1) {
        detached.push(timed(clock.as_ref(), &mut run_detached));
        instrumented.push(timed(clock.as_ref(), &mut run_instrumented));
    }
    let detached_ns = median(detached);
    let instrumented_ns = median(instrumented);
    let overhead_pct = if detached_ns == 0 {
        0.0
    } else {
        100.0 * (instrumented_ns as f64 - detached_ns as f64) / detached_ns as f64
    };
    eprintln!(
        "  detached {:.1} ms, instrumented {:.1} ms, overhead {:+.2} % (bar: < 5 %)",
        detached_ns as f64 / 1e6,
        instrumented_ns as f64 / 1e6,
        overhead_pct
    );

    // ---- journal overhead: supervised ingest, journal off vs on ---------
    use ixp_supervisor::{Supervisor, SupervisorConfig};
    eprintln!(
        "timing supervised ingest with the event journal off vs on (median of {} reps) ...",
        args.reps
    );
    let sup_config = SupervisorConfig::default();
    let journal = ixp_obs::Journal::with_capacity(ixp_obs::journal::DEFAULT_CAPACITY, clock.clone());
    let mut run_journal_off = || {
        let mut sup = Supervisor::new(WeekScan::new(week, members), sup_config);
        for dg in &feed {
            sup.offer(dg.clone());
        }
        sup.finish();
    };
    let mut run_journal_on = || {
        let mut sup = Supervisor::new(WeekScan::new(week, members), sup_config);
        sup.bind_journal(journal.clone());
        for dg in &feed {
            sup.offer(dg.clone());
        }
        sup.finish();
    };
    run_journal_off();
    run_journal_on();
    let mut journal_off = Vec::new();
    let mut journal_on = Vec::new();
    for _ in 0..args.reps.max(1) {
        journal_off.push(timed(clock.as_ref(), &mut run_journal_off));
        journal_on.push(timed(clock.as_ref(), &mut run_journal_on));
    }
    let journal_off_ns = median(journal_off);
    let journal_on_ns = median(journal_on);
    let journal_events = journal.len() as u64 + journal.dropped();
    let journal_overhead_pct = if journal_off_ns == 0 {
        0.0
    } else {
        100.0 * (journal_on_ns as f64 - journal_off_ns as f64) / journal_off_ns as f64
    };
    eprintln!(
        "  journal off {:.1} ms, on {:.1} ms ({} events recorded), overhead {:+.2} % (bar: < 5 %)",
        journal_off_ns as f64 / 1e6,
        journal_on_ns as f64 / 1e6,
        journal_events,
        journal_overhead_pct
    );

    // ---- per-stage throughput: full instrumented study ------------------
    eprintln!("running instrumented 17-week study ...");
    let obs = Obs::real();
    let analyzer = Analyzer::with_obs(&model, obs.clone());
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let study = analyzer.run_study(threads.min(8));
    let reference = study.reference();
    let _clusters = obs.time(&stage_metric("clustering"), || {
        cluster::cluster(reference, &analyzer.dns)
    });
    obs.time(&stage_metric("visibility"), || {
        let _ = visibility::table1(&reference.snapshot);
        let _ = visibility::table2(&reference.snapshot, &model, 10);
        let _ = visibility::table3(&reference.snapshot);
    });
    obs.time(&stage_metric("longitudinal"), || {
        let _ = longitudinal::churn(&study);
    });

    let snap = obs.snapshot();
    let study_datagrams = snap.counter("sflow_datagrams_total").unwrap_or(0);

    let mut stages = String::new();
    for (i, stage) in ["scan", "census", "snapshot", "clustering", "visibility", "longitudinal"]
        .iter()
        .enumerate()
    {
        let Some(MetricValue::Histogram(h)) = snap.get(&stage_metric(stage)) else {
            continue;
        };
        let mean = h.sum.checked_div(h.count).unwrap_or(0);
        // Only the scan stage has a meaningful per-item rate; the analysis
        // stages report spans/sec over their aggregate wall time.
        let rate = if *stage == "scan" {
            per_sec(study_datagrams, h.sum)
        } else {
            per_sec(h.count, h.sum)
        };
        let _ = write!(
            stages,
            "{}    {{\"stage\": \"{stage}\", \"spans\": {}, \"total_ns\": {}, \"mean_ns\": {mean}, \"{}\": {rate:.2}}}",
            if i == 0 { "" } else { ",\n" },
            h.count,
            h.sum,
            if *stage == "scan" { "datagrams_per_sec" } else { "spans_per_sec" },
        );
        eprintln!(
            "  stage {stage:<13} {:>3} spans, total {:>9.1} ms, mean {:>8.2} ms",
            h.count,
            h.sum as f64 / 1e6,
            mean as f64 / 1e6
        );
    }

    let json = format!(
        "{{\n  \"schema\": \"ixp-bench/profile/3\",\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \"weeks\": {},\n  \"ingest\": {{\n    \"datagrams\": {datagrams},\n    \"bytes\": {feed_bytes},\n    \"detached_ns\": {detached_ns},\n    \"instrumented_ns\": {instrumented_ns},\n    \"overhead_pct\": {overhead_pct:.2},\n    \"detached_datagrams_per_sec\": {:.2},\n    \"instrumented_datagrams_per_sec\": {:.2},\n    \"detached_mbytes_per_sec\": {:.2}\n  }},\n  \"journal\": {{\n    \"off_ns\": {journal_off_ns},\n    \"on_ns\": {journal_on_ns},\n    \"events\": {journal_events},\n    \"overhead_pct\": {journal_overhead_pct:.2}\n  }},\n  \"stages\": [\n{stages}\n  ]\n}}\n",
        args.scale_name,
        args.seed,
        Week::COUNT,
        per_sec(datagrams, detached_ns),
        per_sec(datagrams, instrumented_ns),
        per_sec(feed_bytes, detached_ns) / 1e6,
    );
    std::fs::write(&args.out, json).expect("write profile json");
    eprintln!("wrote {}", args.out);
    let mut bad = false;
    if overhead_pct >= 5.0 {
        eprintln!("WARNING: instrumentation overhead {overhead_pct:.2} % exceeds the 5 % bar");
        bad = true;
    }
    if journal_overhead_pct >= 5.0 {
        eprintln!("WARNING: journal overhead {journal_overhead_pct:.2} % exceeds the 5 % bar");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
}
