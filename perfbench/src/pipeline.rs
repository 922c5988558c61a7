//! Calls into the pipeline's layers shared by the workloads: the plain
//! and the decomposed (traced) week ingest, the weekly census and
//! snapshot, the output digest, exposition timing and paired overhead
//! measurement.

use std::hint::black_box;

use ixp_core::http::{self, HttpEvidence};
use ixp_core::scan::member_of;
use ixp_core::{Analyzer, IngestHealth, ServerCensus, WeekScan, WeeklyReport, WeeklySnapshot};
use ixp_netmodel::Week;
use ixp_obs::{Clock, Journal, Obs, RealClock, Registry};
use ixp_obsd::{respond, Board, ServerState};
use ixp_sflow::{Collector, Datagram, Ingest};
use ixp_wire::{Dissection, Network, Transport};

use crate::report::Report;
use crate::stats::{median, per, quartiles, ChunkTimes};
use crate::trace::Tracer;

/// Datagrams per timed chunk of a pass (a few tens of ms of work).
pub(crate) const CHUNK: usize = 4096;

/// The untraced week ingest: `scan.ingest` per datagram, timing each
/// [`CHUNK`] of the feed into `chunks`. Returns the scan and the whole
/// pass's time in ns.
pub(crate) fn timed_ingest(
    mut scan: WeekScan,
    feed: &[Vec<u8>],
    chunks: &mut ChunkTimes,
) -> (WeekScan, u64) {
    let clock = RealClock::new();
    let mut last = clock.now_ns();
    let start = last;
    for (j, chunk) in feed.chunks(CHUNK).enumerate() {
        for dg in chunk {
            scan.ingest(dg);
        }
        let now = clock.now_ns();
        chunks.record(j, now - last);
        last = now;
    }
    (scan, last - start)
}

/// A week ingested through the decomposed, traced path.
pub(crate) struct Decomposed {
    pub scan: WeekScan,
    /// Health of the outside collector the decomposition drives (the
    /// scan's own collector sees nothing on this path).
    pub health: IngestHealth,
    pub counts: Counts,
    /// Wall time of the spanned ingest loop, without the separate child
    /// passes: the traced counterpart of an untraced pass.
    pub pass_ns: u64,
}

/// The work counts of one or more decomposed ingests.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counts {
    pub datagrams: u64,
    pub samples: u64,
    /// Peering-TCP payloads handed to `http::classify`.
    pub payloads: u64,
    /// Payloads the classifier found HTTP evidence in.
    pub hits: u64,
    pub accepted: u64,
    pub duplicates: u64,
    pub rejected: u64,
    pub lost: u64,
    pub undissectable: u64,
    pub unique_ips: u64,
}

impl Counts {
    pub(crate) fn add(&mut self, o: &Counts) {
        self.datagrams += o.datagrams;
        self.samples += o.samples;
        self.payloads += o.payloads;
        self.hits += o.hits;
        self.accepted += o.accepted;
        self.duplicates += o.duplicates;
        self.rejected += o.rejected;
        self.lost += o.lost;
        self.undissectable += o.undissectable;
        self.unique_ips += o.unique_ips;
    }
}

/// `WeekScan::ingest` rebuilt from its public parts, with a span per
/// call: `sflow` around `Collector::ingest` and `scan` around the
/// datagram's `WeekScan::ingest_sample` calls. The two calls inside
/// `ingest_sample` — `Dissection::parse` (`wire`) and `http::classify` on
/// peering-TCP payloads (`http`) — are then timed in separate passes over
/// the same decoded samples and carved out of `scan`, whose remaining
/// self time is the per-IP upsert. The spanned pass drops each datagram
/// as the untraced one does; the child passes decode the feed again,
/// untimed, with a fresh collector that makes the same decisions.
pub(crate) fn traced_ingest(
    feed: &[Vec<u8>],
    week: Week,
    members: u32,
    obs: &Obs,
    t: &mut Tracer,
) -> Decomposed {
    let mut collector = Collector::with_obs(obs);
    let mut scan = WeekScan::with_obs(week, members, obs);
    let clock = RealClock::new();
    t.enter("ingest");
    for dg in feed {
        t.enter("sflow");
        let outcome = collector.ingest(dg);
        t.exit();
        if let Ingest::Accepted(d) = outcome {
            t.enter("scan");
            for s in &d.samples {
                scan.ingest_sample(s.sampling_rate, s.record.frame_length, &s.record.header);
            }
            t.exit();
        }
    }
    t.exit();
    let pass_ns = clock.now_ns();

    let mut again = Collector::new();
    let decoded: Vec<Datagram> = feed
        .iter()
        .filter_map(|dg| match again.ingest(dg) {
            Ingest::Accepted(d) => Some(d),
            Ingest::Duplicate | Ingest::Rejected(_) => None,
        })
        .collect();
    let snippets: Vec<&[u8]> = decoded
        .iter()
        .flat_map(|d| d.samples.iter().map(|s| s.record.header.as_slice()))
        .collect();
    t.carve("scan", "wire", || {
        for s in &snippets {
            let _ = black_box(Dissection::parse(black_box(s)));
        }
    });
    let payloads: Vec<&[u8]> = snippets
        .iter()
        .filter_map(|s| peering_tcp_payload(s, members))
        .collect();
    let hits = t.carve("scan", "http", || {
        payloads
            .iter()
            .filter(|p| !matches!(black_box(http::classify(black_box(p))), HttpEvidence::None))
            .count() as u64
    });
    let c = collector.stats();
    let counts = Counts {
        datagrams: feed.len() as u64,
        samples: snippets.len() as u64,
        payloads: payloads.len() as u64,
        hits,
        accepted: c.accepted,
        duplicates: c.duplicates,
        rejected: c.decode_errors.total(),
        lost: c.lost,
        undissectable: scan.undissectable,
        unique_ips: scan.unique_ips() as u64,
    };
    let health = IngestHealth {
        collector: c,
        undissectable_samples: scan.undissectable,
        shed: 0,
    };
    Decomposed {
        scan,
        health,
        counts,
        pass_ns,
    }
}

/// The payload `WeekScan::ingest_sample` hands to `http::classify`: TCP
/// over IPv4 between two different member ports active this week.
fn peering_tcp_payload(snippet: &[u8], members: u32) -> Option<&[u8]> {
    let d = Dissection::parse(snippet).ok()?;
    let member = |mac| member_of(mac).filter(|m| m.0 < members);
    let (src, dst) = (member(d.src_mac)?, member(d.dst_mac)?);
    match d.network {
        Network::Ipv4 {
            transport: Transport::Tcp { .. },
            payload,
            ..
        } if src != dst => Some(payload),
        _ => None,
    }
}

/// Record the ingest layers' per-layer metrics from decomposed passes.
pub(crate) fn report_ingest_layers(report: &mut Report, t: &Tracer, c: &Counts) {
    report.set(
        "sflow.ns_per_datagram",
        per(t.total_ns("sflow"), c.datagrams),
    );
    report.set("sflow.accepted", c.accepted as f64);
    report.set("sflow.duplicates", c.duplicates as f64);
    report.set("sflow.rejected", c.rejected as f64);
    report.set("sflow.lost", c.lost as f64);
    report.set("wire.ns_per_sample", per(t.total_ns("wire"), c.samples));
    report.set("wire.undissectable", c.undissectable as f64);
    report.set("http.ns_per_payload", per(t.total_ns("http"), c.payloads));
    report.set("http.payloads", c.payloads as f64);
    report.set("http.hit_ratio", per(c.hits, c.payloads));
    report.set("scan.ns_per_sample", per(t.total_ns("scan"), c.samples));
    report.set(
        "scan.upsert_ns_per_sample",
        per(t.self_ns("scan"), c.samples),
    );
    report.set("scan.unique_ips", c.unique_ips as f64);
}

/// Record the weekly census and snapshot layers.
pub(crate) fn report_weekly_layers(report: &mut Report, t: &Tracer) {
    let per_week = |name: &str| {
        t.get(name)
            .map_or(0.0, |a| a.total_ns as f64 / a.count.max(1) as f64 / 1e6)
    };
    report.set("census.ms_per_week", per_week("census"));
    report.set("snapshot.ms_per_week", per_week("snapshot"));
}

/// Record the traffic synthesis layer: `synth_ns` spent making `samples`
/// samples in `datagrams` datagrams.
pub(crate) fn report_traffic(report: &mut Report, synth_ns: u64, samples: u64, datagrams: u64) {
    report.set("traffic.ns_per_sample", per(synth_ns, samples));
    report.set("traffic.samples", samples as f64);
    report.set("traffic.datagrams", datagrams as f64);
}

/// Identify and aggregate one scanned week, with `census` and `snapshot`
/// spans.
pub(crate) fn weekly(
    analyzer: &Analyzer<'_>,
    scan: &WeekScan,
    health: IngestHealth,
    t: &mut Tracer,
) -> WeeklyReport {
    let census = t.span("census", || {
        ServerCensus::identify(scan, analyzer.model, &analyzer.dns, &analyzer.crawl)
    });
    let snapshot = t.span("snapshot", || {
        WeeklySnapshot::build(scan, &census, analyzer.model)
    });
    WeeklyReport {
        snapshot,
        census,
        health,
    }
}

/// The output digest of one week: Table 1's peering triple (IPs,
/// prefixes, ASes), the census size, and the filter cascade's totals.
pub(crate) fn digest(week: &WeeklyReport) -> String {
    let p = week.snapshot.peering;
    let f = week.snapshot.filter.total();
    format!(
        "table1={}/{}/{} census={} filter={}/{}/{}",
        p.ips,
        p.prefixes,
        p.ases,
        week.census.len(),
        f.samples,
        f.frames,
        f.bytes
    )
}

/// The cheap part of the digest, for comparing every pass of a run.
pub(crate) fn scan_digest(scan: &WeekScan) -> String {
    let f = scan.filter.total();
    format!(
        "ips={} domains={} filter={}/{}/{}",
        scan.unique_ips(),
        scan.domains.len(),
        f.samples,
        f.frames,
        f.bytes
    )
}

/// Check the no-silent-discard identity of one scanned week; every
/// datagram it cannot account for is a failed operation.
pub(crate) fn check_health(report: &mut Report, health: &IngestHealth, what: &str) {
    if !health.fully_accounted() {
        let c = &health.collector;
        let accounted = c.accepted + c.duplicates + c.decode_errors.total() + health.shed;
        report.failed += health.ingested().abs_diff(accounted).max(1);
        report.check(false, || {
            format!("{what}: ingest health not fully accounted: {health:?}")
        });
    }
}

/// Repeat `f` until `budget_ns` has passed and at least `min_reps` ran;
/// the median duration in ns.
pub(crate) fn median_call_ns(budget_ns: u64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let clock = RealClock::new();
    let mut samples = Vec::new();
    while samples.len() < min_reps || clock.now_ns() < budget_ns {
        let t0 = clock.now_ns();
        f();
        samples.push((clock.now_ns() - t0) as f64);
    }
    median(&samples)
}

/// Time `GET /metrics` (`scrape_us`) and `GET /metrics.json` against the
/// final registry, each the median of repeated calls.
pub(crate) fn time_exposition(report: &mut Report, registry: &Registry, journal: &Journal) {
    let state = ServerState::new(registry.clone(), journal.clone(), Board::new());
    let metrics = respond(&state, b"GET /metrics HTTP/1.1\r\n\r\n");
    let ok = metrics.bytes.starts_with(b"HTTP/1.1 200");
    report.check(ok, || "GET /metrics did not answer 200".to_string());
    report.set("obsd.metrics_bytes", metrics.bytes.len() as f64);
    let scrape = median_call_ns(300_000_000, 200, || {
        black_box(respond(&state, black_box(b"GET /metrics HTTP/1.1\r\n\r\n")));
    });
    report.set("scrape_us", scrape / 1e3);
    let json = median_call_ns(150_000_000, 100, || {
        black_box(respond(
            &state,
            black_box(b"GET /metrics.json HTTP/1.1\r\n\r\n"),
        ));
    });
    report.set("obsd.metrics_json_us", json / 1e3);
}

/// Paired, interleaved repetitions of a baseline `a` and a variant `b`
/// (each returns its own duration in ns), alternating which runs first.
/// Records `<name>` as the median relative cost of `b` over `a` in percent
/// and `<q1>`/`<q3>` as its quartiles, so a point estimate is never read
/// without its spread.
pub(crate) fn paired_overhead(
    report: &mut Report,
    names: [&'static str; 3],
    budget_ns: u64,
    min_pairs: usize,
    mut a: impl FnMut() -> u64,
    mut b: impl FnMut() -> u64,
) {
    let clock = RealClock::new();
    let mut pct = Vec::new();
    while pct.len() < min_pairs || clock.now_ns() < budget_ns {
        let (ta, tb) = if pct.len() % 2 == 0 {
            let ta = a();
            (ta, b())
        } else {
            let tb = b();
            (a(), tb)
        };
        pct.push(100.0 * (tb as f64 - ta as f64) / (ta.max(1)) as f64);
    }
    let (q1, med, q3) = quartiles(&pct);
    report.set(names[0], med);
    report.set(names[1], q1);
    report.set(names[2], q3);
}
