//! Metric tables, the result line, the machine fingerprint, and the
//! results file each run leaves behind.

use std::fmt::Write as _;
use std::path::Path;

use crate::stats::quartiles;
use crate::trace::Tracer;
use crate::Args;

/// End-to-end metrics: printed by every untraced run (`--trace 0`). Each
/// is measured in every workload, so none reads 0.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dgrams_per_s", "datagrams/s"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`). A layer
/// that does no work in a workload reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("netmodel.generate_ms", "ms"),
    ("analyzer.build_ms", "ms"),
    ("traffic.ns_per_sample", "ns"),
    ("traffic.samples", "count"),
    ("traffic.datagrams", "count"),
    ("sflow.ns_per_datagram", "ns"),
    ("sflow.accepted", "count"),
    ("sflow.duplicates", "count"),
    ("sflow.rejected", "count"),
    ("sflow.lost", "count"),
    ("wire.ns_per_sample", "ns"),
    ("wire.undissectable", "count"),
    ("http.ns_per_payload", "ns"),
    ("http.payloads", "count"),
    ("http.hit_ratio", "ratio"),
    ("scan.ns_per_sample", "ns"),
    ("scan.upsert_ns_per_sample", "ns"),
    ("scan.unique_ips", "count"),
    ("scan.state_bytes", "bytes"),
    ("census.ms_per_week", "ms"),
    ("census.servers", "count"),
    ("snapshot.ms_per_week", "ms"),
    ("cluster.ms", "ms"),
    ("visibility.ms", "ms"),
    ("longitudinal.ms", "ms"),
    ("transport.ns_per_datagram", "ns"),
    ("transport.udp_recv_ns_per_datagram", "ns"),
    ("transport.udp_lost", "count"),
    ("supervisor.offer_ns_p50", "ns"),
    ("supervisor.offer_ns_p99", "ns"),
    ("supervisor.ticks", "count"),
    ("supervisor.shed", "count"),
    ("supervisor.deadline_misses", "count"),
    ("supervisor.checkpoint_bytes", "bytes"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("tick_samples", "count"),
    ("checkpoint_ms", "ms"),
    ("restore_ms", "ms"),
    ("obs.audit_us", "us"),
    ("obs.journal_events", "count"),
    ("obs.ingest_overhead_pct", "%"),
    ("obs.ingest_overhead_q1_pct", "%"),
    ("obs.ingest_overhead_q3_pct", "%"),
    ("obs.journal_overhead_pct", "%"),
    ("obs.journal_overhead_q1_pct", "%"),
    ("obs.journal_overhead_q3_pct", "%"),
    ("scrape_us", "us"),
    ("obsd.metrics_bytes", "bytes"),
    ("obsd.metrics_json_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Everything one run measured and checked.
pub(crate) struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Workload-specific figures printed for the reader and kept in the
    /// results file, but not part of the result line (name, value, unit).
    extras: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics deliberately left out, with the reason.
    absent: Vec<(&'static str, String)>,
    failures: Vec<String>,
    digests: Vec<(String, String)>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
}

impl Report {
    pub(crate) fn new() -> Report {
        Report {
            metrics: Vec::new(),
            extras: Vec::new(),
            absent: Vec::new(),
            failures: Vec::new(),
            digests: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Record a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Record a figure outside the declared tables.
    pub(crate) fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extras.push((name, value, unit));
    }

    /// Record how many timed passes a median was taken over, and their
    /// quartiles in seconds.
    pub(crate) fn passes(&mut self, seconds: &[f64]) {
        let (q1, median, q3) = quartiles(seconds);
        self.extra("pass.count", seconds.len() as f64, "count");
        self.extra("pass.q1_s", q1, "s");
        self.extra("pass.median_s", median, "s");
        self.extra("pass.q3_s", q3, "s");
    }

    /// Leave a per-layer metric out of the result, saying why.
    pub(crate) fn absent(&mut self, name: &'static str, reason: String) {
        self.absent.push((name, reason));
    }

    /// A failed output check fails the run.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// Record a result digest; two digests under one label must agree.
    pub(crate) fn digest(&mut self, label: &str, digest: String) {
        if let Some((_, first)) = self.digests.iter().find(|(l, _)| l == label) {
            let first = first.clone();
            self.check(first == digest, || {
                format!("digest `{label}` differs: {first} vs {digest}")
            });
        } else {
            self.digests.push((label.to_string(), digest));
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Print the human summary to stderr, the digests and fingerprint to
    /// stdout, write the results file, and print the result line last.
    /// Returns whether the run passed every check.
    pub(crate) fn finish(mut self, args: &Args, tracer: &Tracer) -> bool {
        match peak_rss_mb() {
            Some(mb) => self.set("peak_rss_mb", mb),
            None => self.check(false, || "VmHWM missing from /proc/self/status".to_string()),
        }
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        let mut line_metrics = Vec::new();
        for &(name, unit) in table {
            if self.absent.iter().any(|(n, _)| *n == name) {
                continue;
            }
            let value = match self.get(name) {
                Some(v) => v,
                // A layer that does no work in this workload.
                None if args.trace => 0.0,
                None => {
                    self.check(false, || {
                        format!("end-to-end metric {name} was not measured")
                    });
                    continue;
                }
            };
            if !value.is_finite() || (!args.trace && value <= 0.0) {
                self.check(false, || {
                    format!("metric {name} = {value} is not a positive number")
                });
                continue;
            }
            line_metrics.push((name, value, unit));
        }

        // The result line's metrics first, then everything else measured.
        let others = self
            .metrics
            .iter()
            .filter(|(n, _)| !line_metrics.iter().any(|(l, _, _)| l == n))
            .map(|&(n, v)| (n, v, unit_of(n).unwrap_or("")));
        for (name, value, unit) in line_metrics
            .iter()
            .copied()
            .chain(others)
            .chain(self.extras.iter().copied())
        {
            eprintln!("  {name:<36} {value:>16.4} {unit}");
        }
        for (name, reason) in &self.absent {
            eprintln!("  {name:<36} absent: {reason}");
        }
        for (label, digest) in &self.digests {
            println!("digest {label}: {digest}");
        }
        let stamp = fingerprint(args);
        println!("stamp: {stamp}");

        let correct = self.failures.is_empty() && self.failed == 0;
        if let Err(e) = self.write_results(args, &stamp, tracer, correct) {
            eprintln!(
                "perfbench: cannot write results under {}: {e}",
                args.out.display()
            );
        }
        let mut metrics = String::new();
        for (i, (name, value, unit)) in line_metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }

    fn write_results(
        &self,
        args: &Args,
        stamp: &str,
        tracer: &Tracer,
        correct: bool,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(&args.out)?;
        let mut s = String::new();
        let _ = writeln!(s, "{{\n  \"stamp\": {stamp},\n  \"correct\": {correct},");
        let _ = writeln!(
            s,
            "  \"attempted\": {}, \"failed\": {},",
            self.attempted, self.failed
        );
        s.push_str("  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{}\"", escape(f));
        }
        s.push_str("],\n  \"digests\": {");
        for (i, (label, d)) in self.digests.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{}\": \"{}\"", escape(label), escape(d));
        }
        s.push_str("},\n  \"metrics\": {");
        let all = self
            .metrics
            .iter()
            .map(|&(n, v)| (n, v, unit_of(n).unwrap_or("")))
            .chain(self.extras.iter().copied());
        for (i, (name, value, unit)) in all.enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\n    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("\n  },\n  \"absent\": {");
        for (i, (name, reason)) in self.absent.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": \"{}\"", escape(reason));
        }
        s.push_str("},\n  \"spans\": [");
        for (i, a) in tracer.aggs().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = a.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = write!(
                s,
                "{sep}\n    {{\"name\": \"{}\", \"parent\": {parent}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                a.name, a.count, a.total_ns, a.self_ns
            );
        }
        s.push_str("\n  ]\n}\n");
        let file = args.out.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::write(file, s)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The machine and input every result was measured on, as a JSON object.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"workload\": \"{}\", \"scale\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        escape(&cpu),
        escape(env!("PERFBENCH_RUSTC")),
        escape(&git_commit(Path::new("."))),
        args.workload.name(),
        escape(&args.scale),
        args.seed,
        args.seconds,
        args.trace
    )
}

/// The commit checked out in `root`, read from `.git` without leaving
/// the checkout; "unknown" when `root` is not a git work tree.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|h| h.trim().to_string())
                    .filter(|h| !h.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
