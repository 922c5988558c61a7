//! Set-up shared by the workloads: the synthetic Internet, the analysis
//! instruments, and the reference week's sFlow feed (with its fault plan
//! for `live`). Set-up runs several times per run and `setup_s` reads
//! their steady percentile (see `stats.rs`), so work moved into set-up
//! shows.

use ixp_core::Analyzer;
use ixp_faults::{FaultConfig, FaultPlan};
use ixp_netmodel::{InternetModel, ScaleConfig, Week};
use ixp_obs::{Clock, Obs, RealClock};

use crate::report::Report;
use crate::stats::{median, steady_ns};
use crate::trace::Tracer;

/// Set-ups per run, at least; and at least this much set-up time, so a
/// cheap set-up (the study's, ≈80 ms) is sampled across seconds of the
/// host's speed changes rather than one moment of them.
const SETUP_REPS: usize = 3;
const SETUP_MIN_NS: u64 = 2_000_000_000;

/// What a workload needs built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Needs {
    /// Model and instruments only (the study streams its own feeds).
    Instruments,
    /// Plus the reference week's feed, synthesized up front.
    Feed,
    /// Plus that feed through the seeded fault plan of [`live_faults`].
    FaultedFeed,
}

/// The kept result of the last set-up.
pub(crate) struct Built {
    pub analyzer: Analyzer<'static>,
    /// The reference week's feed: clean for `ingest`, faulted for `live`,
    /// empty for `study`.
    pub feed: Vec<Vec<u8>>,
    /// Member ports active in the reference week.
    pub members: u32,
    /// Median time to synthesize the reference week's feed, in ns.
    pub synth_ns: u64,
    /// Datagrams the synthesizer emitted (before any fault plan).
    pub synth_datagrams: u64,
}

/// Parse a `--scale` name: `tiny`, `small` or `paper:<divisor>`.
pub(crate) fn scale_config(name: &str) -> Result<ScaleConfig, String> {
    match name {
        "tiny" => Ok(ScaleConfig::tiny()),
        "small" => Ok(ScaleConfig::small()),
        other => other
            .strip_prefix("paper:")
            .and_then(|d| d.parse::<u32>().ok())
            .filter(|d| *d >= 20)
            .map(ScaleConfig::paper)
            .ok_or_else(|| format!("--scale tiny|small|paper:<divisor ≥ 20>, got {other}")),
    }
}

/// The `live` workload's fault plan: low rates of every byte- and
/// delivery-level fault plus one agent restart, seeded from the run seed.
fn live_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed: seed ^ 0x11fe,
        drop: 0.002,
        duplicate: 0.002,
        reorder: 0.002,
        truncate: 0.001,
        corrupt: 0.001,
        restarts: vec![(0, 500)],
        ..FaultConfig::default()
    }
}

struct Timings {
    generate_ns: u64,
    build_ns: u64,
    synth_ns: u64,
}

/// One set-up over `model`: instruments, then the feed if asked for.
fn instruments_and_feed<'m>(
    model: &'m InternetModel,
    needs: Needs,
    seed: u64,
    clock: &RealClock,
    t: &mut Tracer,
    times: &mut Timings,
) -> (Analyzer<'m>, Vec<Vec<u8>>, u64) {
    let t0 = clock.now_ns();
    let analyzer = t.span("analyzer.build", || Analyzer::with_obs(model, Obs::real()));
    let t1 = clock.now_ns();
    times.build_ns = t1 - t0;
    let feed = match needs {
        Needs::Instruments => Vec::new(),
        Needs::Feed | Needs::FaultedFeed => {
            t.span("traffic", || analyzer.feed(Week::REFERENCE).collect())
        }
    };
    times.synth_ns = clock.now_ns() - t1;
    let synthesized = feed.len() as u64;
    let feed = match needs {
        Needs::FaultedFeed => t.span("faults", || {
            FaultPlan::new(feed.into_iter(), live_faults(seed)).collect()
        }),
        _ => feed,
    };
    (analyzer, feed, synthesized)
}

/// Set up repeatedly, record `setup_s` and the set-up layers, and keep
/// the last set-up.
pub(crate) fn build(
    scale: &ScaleConfig,
    seed: u64,
    needs: Needs,
    report: &mut Report,
    t: &mut Tracer,
) -> Built {
    let clock = RealClock::new();
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut analyzer_build = Vec::new();
    let mut synth = Vec::new();
    loop {
        let spent: u64 = setup.iter().sum();
        let last = setup.len() + 1 >= SETUP_REPS && spent >= SETUP_MIN_NS;
        let mut times = Timings {
            generate_ns: 0,
            build_ns: 0,
            synth_ns: 0,
        };
        let t0 = clock.now_ns();
        let model = t.span("netmodel.generate", || {
            InternetModel::generate(scale.clone(), seed)
        });
        times.generate_ns = clock.now_ns() - t0;
        let kept = if last {
            let model: &'static InternetModel = Box::leak(Box::new(model));
            Some((
                model,
                instruments_and_feed(model, needs, seed, &clock, t, &mut times),
            ))
        } else {
            // Dropped before the next set-up, so peak memory holds one feed.
            drop(instruments_and_feed(
                &model, needs, seed, &clock, t, &mut times,
            ));
            None
        };
        setup.push(clock.now_ns() - t0);
        generate.push(times.generate_ns as f64 / 1e6);
        analyzer_build.push(times.build_ns as f64 / 1e6);
        synth.push(times.synth_ns as f64);
        if let Some((model, (analyzer, feed, synth_datagrams))) = kept {
            report.set("setup_s", steady_ns(&setup) as f64 / 1e9);
            report.set("netmodel.generate_ms", median(&generate));
            report.set("analyzer.build_ms", median(&analyzer_build));
            let members = model.registry.members_at(Week::REFERENCE).len() as u32;
            let synth_ns = median(&synth) as u64;
            return Built {
                analyzer,
                feed,
                members,
                synth_ns,
                synth_datagrams,
            };
        }
    }
}
