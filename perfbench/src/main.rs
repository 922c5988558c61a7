//! Layered benchmark of the IXP vantage-point pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload study|ingest|live --seed N --seconds S --trace 0|1 \
//!     [--scale tiny|small|paper:<divisor>] [--out DIR]
//! ```
//!
//! Run from the repository root. Each workload is a closed loop with one
//! caller:
//!
//! * `study` (default scale `paper:2000`): the 17-week study plus the
//!   analyses, as `repro` users wait for it.
//! * `ingest` (default `paper:400`): the reference week, synthesized in
//!   set-up, replayed single-threaded through `WeekScan`.
//! * `live` (default `paper:400`): that week, through a seeded fault
//!   plan, the transport intake, the supervisor and the auditor, then a
//!   checkpoint round trip and a `/metrics` scrape.
//!
//! Set-up (model generation, instrument build, feed synthesis and the
//! fault plan) runs at least three times and for at least two seconds,
//! and is never inside a timed pass. Passes repeat for `--seconds`. The
//! end-to-end times are read at a high percentile of repeated timings
//! (see `stats.rs` for why): `setup_s` over the set-ups; `dgrams_per_s`
//! over the study's passes, and for `ingest` and `live` over a pass
//! assembled from each 4096-datagram chunk's times across passes.
//! `peak_rss_mb` is the process's `VmHWM` at exit.
//!
//! `--trace 0` measures with no spans and prints the end-to-end metrics;
//! `--trace 1` is a separate run that wraps each call into a layer's
//! public function in a span and prints the per-layer metrics, including
//! the tracing overhead against untraced passes of the same run. Every
//! run checks its outputs (conservation identities, the checkpoint round
//! trip, and a digest of the reference week that every pass of the run
//! must reproduce), prints the digest and a machine fingerprint, writes
//! `<out>/<workload>-seed<N>-trace<T>.json` with every metric and span
//! aggregate, and prints the result line last:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}, ...}}
//! ```
//!
//! A failed check prints `"correct": false` and exits with status 1.

mod ingest;
mod live;
mod pipeline;
mod report;
mod setup;
mod stats;
mod study;
mod trace;

use std::path::PathBuf;

use ixp_netmodel::ScaleConfig;

use crate::report::Report;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    Study,
    Ingest,
    Live,
}

impl Workload {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Ingest => "ingest",
            Workload::Live => "live",
        }
    }

    fn default_scale(self) -> &'static str {
        match self {
            Workload::Study => "paper:2000",
            Workload::Ingest | Workload::Live => "paper:400",
        }
    }
}

pub(crate) struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: String,
    pub scale_config: ScaleConfig,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2012u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut scale = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "study" => Workload::Study,
                    "ingest" => Workload::Ingest,
                    "live" => Workload::Live,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace 0|1, got {other}")),
                }
            }
            "--scale" => scale = Some(value()?),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload study|ingest|live is required")?;
    let scale = scale.unwrap_or_else(|| workload.default_scale().to_string());
    let scale_config = setup::scale_config(&scale)?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale,
        scale_config,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload={} scale={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.scale,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::new();
    let mut tracer = Tracer::new(args.trace);
    match args.workload {
        Workload::Study => study::run(&args, &mut report, &mut tracer),
        Workload::Ingest => ingest::run(&args, &mut report, &mut tracer),
        Workload::Live => live::run(&args, &mut report, &mut tracer),
    }
    if !report.finish(&args, &tracer) {
        std::process::exit(1);
    }
}
