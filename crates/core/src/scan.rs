//! The single-pass weekly scan: decode sFlow → dissect frames → filtering
//! cascade (paper Fig. 1) → per-IP evidence accumulation.
//!
//! Everything later stages need from the raw stream is collected here in
//! one pass: category traffic totals, per-IP byte/sample counts, endpoint
//! role evidence from HTTP string matching, service-port bitmaps, URI
//! observations, and the member port seen on each IP's side of the fabric.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::net::Ipv4Addr;

use ixp_netmodel::{MemberId, Week};
use ixp_obs::codec::{self, CodecError, Cur};
use ixp_obs::Obs;
use ixp_sflow::collector::{Collector, CollectorStats, Ingest};
use ixp_sflow::{DecodeErrorCounts, TrafficEstimate};
use ixp_wire::dissect::{Dissection, Network, Transport};
use ixp_wire::{ipv4, DissectMetrics, EthernetAddress};

use crate::http::{self, HttpEvidence};

/// Filtering-cascade categories (paper Fig. 1). The discriminant is the
/// category's position in [`Category::ALL`], which indexes
/// [`FilterReport`] and orders the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Native IPv6.
    Ipv6,
    /// Other EtherTypes / malformed layer 3.
    OtherL3,
    /// Not member-to-member, or local housekeeping traffic.
    NonMemberOrLocal,
    /// Member-to-member IPv4 ICMP.
    Icmp,
    /// Member-to-member IPv4, other transport protocols.
    OtherTransport,
    /// Peering traffic, TCP.
    PeeringTcp,
    /// Peering traffic, UDP.
    PeeringUdp,
}

impl Category {
    /// All categories in cascade order.
    pub const ALL: [Category; 7] = [
        Category::Ipv6,
        Category::OtherL3,
        Category::NonMemberOrLocal,
        Category::Icmp,
        Category::OtherTransport,
        Category::PeeringTcp,
        Category::PeeringUdp,
    ];
}

/// Traffic totals per cascade category, indexed by [`Category`].
#[derive(Debug, Clone, Default)]
pub struct FilterReport {
    totals: [TrafficEstimate; Category::ALL.len()],
}

impl FilterReport {
    /// Estimate for one category.
    pub fn get(&self, cat: Category) -> TrafficEstimate {
        self.totals.get(cat as usize).copied().unwrap_or_default()
    }

    /// Total across all categories.
    pub fn total(&self) -> TrafficEstimate {
        Category::ALL.iter().map(|c| self.get(*c)).sum()
    }

    /// Peering traffic (TCP + UDP).
    pub fn peering(&self) -> TrafficEstimate {
        self.get(Category::PeeringTcp) + self.get(Category::PeeringUdp)
    }

    /// Byte share of a category in percent of the total.
    pub fn share(&self, cat: Category) -> f64 {
        self.get(cat).share_of(&self.total())
    }

    fn add(&mut self, cat: Category, rate: u32, frame_len: u32) {
        if let Some(e) = self.totals.get_mut(cat as usize) {
            e.add_raw(rate, frame_len);
        }
    }
}

/// Per-IP evidence bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evidence(pub u16);

impl Evidence {
    /// Payload string matching marked this IP as an HTTP server.
    pub const HTTP_SERVER: u16 = 1 << 0;
    /// The IP appeared as the client side of some flow.
    pub const CLIENT: u16 = 1 << 1;
    /// The IP received TLS-looking traffic on TCP 443 (HTTPS candidate).
    pub const TLS443: u16 = 1 << 2;
    /// Activity seen on TCP port 80 (server side).
    pub const PORT_80: u16 = 1 << 3;
    /// Activity on TCP 8080 (server side).
    pub const PORT_8080: u16 = 1 << 4;
    /// Activity on TCP 443 (server side).
    pub const PORT_443: u16 = 1 << 5;
    /// Activity on TCP 1935 (server side).
    pub const PORT_1935: u16 = 1 << 6;

    /// Check a bit.
    pub fn has(&self, bit: u16) -> bool {
        self.0 & bit != 0
    }

    /// Set a bit.
    pub fn set(&mut self, bit: u16) {
        self.0 |= bit;
    }

    /// Number of distinct well-known service ports seen.
    pub fn service_port_count(&self) -> u32 {
        (self.0 & (Self::PORT_80 | Self::PORT_8080 | Self::PORT_443 | Self::PORT_1935))
            .count_ones()
    }
}

/// Accumulated per-IP statistics.
#[derive(Debug, Clone, Default)]
pub struct IpStats {
    /// Estimated bytes this IP was an endpoint of (peering traffic only).
    pub bytes: u64,
    /// Samples this IP appeared in.
    pub samples: u32,
    /// Role/port evidence.
    pub evidence: Evidence,
    /// Interned ids of URI authorities observed when this IP acted as the
    /// server (bounded).
    pub uris: Vec<u32>,
    /// The member port on this IP's side of the fabric (last seen).
    pub member: MemberId,
}

const MAX_URIS_PER_IP: usize = 8;

/// The per-IP table of a [`WeekScan`].
pub type IpTable = HashMap<u32, IpStats, IpHashState>;

/// The hasher of [`IpTable`]: one 64×64→128-bit multiply of the key under
/// two secret per-table keys, folded by xor to 64 bits. The keys are IPs
/// from sampled traffic, which outsiders choose, so a fixed-constant hash
/// would let them flood one bucket chain; secret keys drawn from the
/// standard library's `RandomState` keep the table flood-resistant at a
/// fraction of SipHash's cost on a 4-byte key. Iteration order differs
/// between tables, so everything that leaves the scan is order-free or
/// sorted (see [`WeekScan::save_state`]).
#[derive(Clone)]
pub struct IpHashState {
    k0: u64,
    k1: u64,
}

impl Default for IpHashState {
    fn default() -> IpHashState {
        let seed = RandomState::new();
        IpHashState {
            k0: seed.hash_one(0u64),
            // Odd, so the multiply never zeroes the key.
            k1: seed.hash_one(1u64) | 1,
        }
    }
}

impl std::fmt::Debug for IpHashState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpHashState").finish_non_exhaustive()
    }
}

impl BuildHasher for IpHashState {
    type Hasher = IpHasher;

    fn build_hasher(&self) -> IpHasher {
        IpHasher { k1: self.k1, hash: self.k0 }
    }
}

/// The per-key state of [`IpHashState`].
#[derive(Debug, Clone)]
pub struct IpHasher {
    k1: u64,
    hash: u64,
}

impl IpHasher {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(self.k1);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for IpHasher {
    fn write(&mut self, bytes: &[u8]) {
        // IP keys take `write_u32`; anything else mixes byte by byte.
        for b in bytes {
            self.mix(u64::from(*b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A tiny string interner for URI authorities.
#[derive(Debug, Default)]
pub struct DomainTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl DomainTable {
    /// Intern a domain, returning its id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Resolve an id.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of distinct domains observed.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no domains were observed.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all interned names.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

/// Ingest-stream health for one week: the collector's sequence accounting
/// plus the scan's own sample-level dissection counter. This is what the
/// `IngestHealth` section of the weekly report renders, and what the
/// `repro --exp faults` sweep checks its accounting invariant against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestHealth {
    /// Datagram-level accounting from the fault-tolerant collector.
    pub collector: CollectorStats,
    /// Samples inside accepted datagrams that could not be dissected.
    pub undissectable_samples: u64,
    /// Datagrams shed by the bounded intake queue under overload, before
    /// they reached the collector. Counted here so backpressure degrades
    /// the accounting visibly, never silently.
    pub shed: u64,
}

impl IngestHealth {
    /// Estimated datagram loss in percent of the expected stream.
    pub fn loss_pct(&self) -> f64 {
        100.0 * self.collector.loss_rate()
    }

    /// Multiplier that scales received-traffic estimates to the expected
    /// full stream.
    pub fn compensation_factor(&self) -> f64 {
        self.collector.compensation_factor()
    }

    /// Every datagram offered to the pipeline: the ones the collector saw
    /// plus the ones the intake queue shed before it could.
    pub fn ingested(&self) -> u64 {
        self.collector.datagrams.saturating_add(self.shed)
    }

    /// The no-silent-discard invariant, extended over the intake queue:
    /// every offered buffer is accepted, a suppressed duplicate, a counted
    /// decode error, or an explicitly counted shed.
    pub fn fully_accounted(&self) -> bool {
        let c = &self.collector;
        let accounted = c
            .accepted
            .checked_add(c.duplicates)
            .and_then(|v| v.checked_add(c.decode_errors.total()))
            .and_then(|v| v.checked_add(self.shed));
        accounted == Some(self.ingested())
    }

    /// A traffic estimate scaled up by the loss-compensation factor, so
    /// degraded feeds still estimate the full stream.
    pub fn compensated(&self, estimate: &TrafficEstimate) -> TrafficEstimate {
        estimate.scaled(self.compensation_factor())
    }
}

/// A plain-integer shadow of [`DissectMetrics`]: the same outcome taxonomy
/// kept as owned `u64`s so it can be checkpointed and replayed. Registered
/// counters may be shared across scans (a parallel study registers one
/// `wire_*` family for all weeks), so per-scan contributions cannot be
/// read back out of the registry — the tally carries them instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DissectTally {
    frames: u64,
    ipv4_tcp: u64,
    ipv4_udp: u64,
    ipv4_icmp: u64,
    ipv4_other: u64,
    ipv4_truncated: u64,
    ipv6: u64,
    arp: u64,
    other_ethertype: u64,
    malformed_ipv4: u64,
    too_short: u64,
}

impl DissectTally {
    /// Mirror of [`DissectMetrics::record`] over plain integers.
    fn record(&mut self, outcome: &ixp_wire::Result<Dissection<'_>>) {
        self.frames += 1;
        let d = match outcome {
            Ok(d) => d,
            Err(_) => {
                self.too_short += 1;
                return;
            }
        };
        match &d.network {
            Network::Ipv4 { transport, .. } => match transport {
                Transport::Tcp { .. } => self.ipv4_tcp += 1,
                Transport::Udp { .. } => self.ipv4_udp += 1,
                Transport::Icmp => self.ipv4_icmp += 1,
                Transport::Other(_) => self.ipv4_other += 1,
                Transport::Truncated(_) => self.ipv4_truncated += 1,
            },
            Network::Ipv6 => self.ipv6 += 1,
            Network::Arp => self.arp += 1,
            Network::OtherEtherType(_) => self.other_ethertype += 1,
            Network::MalformedIpv4(_) => self.malformed_ipv4 += 1,
        }
    }

    /// Fields in serialization order.
    fn fields(&self) -> [u64; 11] {
        [
            self.frames,
            self.ipv4_tcp,
            self.ipv4_udp,
            self.ipv4_icmp,
            self.ipv4_other,
            self.ipv4_truncated,
            self.ipv6,
            self.arp,
            self.other_ethertype,
            self.malformed_ipv4,
            self.too_short,
        ]
    }

    /// Inverse of [`DissectTally::fields`]: rebuild from the same order.
    fn from_fields(f: [u64; 11]) -> DissectTally {
        let [frames, ipv4_tcp, ipv4_udp, ipv4_icmp, ipv4_other, ipv4_truncated, ipv6, arp, other_ethertype, malformed_ipv4, too_short] =
            f;
        DissectTally {
            frames,
            ipv4_tcp,
            ipv4_udp,
            ipv4_icmp,
            ipv4_other,
            ipv4_truncated,
            ipv6,
            arp,
            other_ethertype,
            malformed_ipv4,
            too_short,
        }
    }

    /// Replay the tally into a live bundle (after a restore).
    fn replay(&self, m: &DissectMetrics) {
        m.frames.add(self.frames);
        m.ipv4_tcp.add(self.ipv4_tcp);
        m.ipv4_udp.add(self.ipv4_udp);
        m.ipv4_icmp.add(self.ipv4_icmp);
        m.ipv4_other.add(self.ipv4_other);
        m.ipv4_truncated.add(self.ipv4_truncated);
        m.ipv6.add(self.ipv6);
        m.arp.add(self.arp);
        m.other_ethertype.add(self.other_ethertype);
        m.malformed_ipv4.add(self.malformed_ipv4);
        m.too_short.add(self.too_short);
    }
}

/// Serialization format version of [`WeekScan`] state.
pub const WEEKSCAN_STATE_VERSION: u32 = 1;

/// The result of scanning one week of sFlow.
#[derive(Debug)]
pub struct WeekScan {
    /// The week scanned.
    pub week: Week,
    /// Cascade totals.
    pub filter: FilterReport,
    /// Per-IP statistics (peering traffic endpoints only).
    pub ips: IpTable,
    /// Interned URI authorities.
    pub domains: DomainTable,
    /// Samples that could not be dissected at all.
    pub undissectable: u64,
    /// The fault-tolerant collector front-end: sequence accounting,
    /// duplicate suppression, restart detection, per-kind decode errors.
    collector: Collector,
    /// Live frame-dissection outcome counters (`wire_*` families;
    /// detached unless built by [`WeekScan::with_obs`]).
    dissect: DissectMetrics,
    /// Checkpointable shadow of `dissect`.
    tally: DissectTally,
    /// Datagrams shed by the bounded intake queue before reaching the
    /// collector (reported via [`WeekScan::record_shed`]).
    shed: u64,
    /// Number of member ports active this week (MACs above this id are not
    /// members yet and their frames are classified as non-member traffic).
    member_count: u32,
}

impl WeekScan {
    /// Create an empty scan for a week observed by `member_count` member
    /// ports.
    pub fn new(week: Week, member_count: u32) -> WeekScan {
        WeekScan {
            week,
            filter: FilterReport::default(),
            ips: IpTable::default(),
            domains: DomainTable::default(),
            undissectable: 0,
            collector: Collector::new(),
            dissect: DissectMetrics::detached(),
            tally: DissectTally::default(),
            shed: 0,
            member_count,
        }
    }

    /// Like [`WeekScan::new`], but publishing live metrics: the collector's
    /// `sflow_*` accounting and the dissector's `wire_*` outcome counters
    /// land in the bundle's registry as the scan runs.
    pub fn with_obs(week: Week, member_count: u32, obs: &Obs) -> WeekScan {
        WeekScan {
            collector: Collector::with_obs(obs),
            dissect: DissectMetrics::register(&obs.registry),
            ..WeekScan::new(week, member_count)
        }
    }

    /// Feed one encoded sFlow datagram through the fault-tolerant
    /// collector: duplicates are suppressed, sequence gaps are accounted as
    /// loss, and decode failures are counted by kind — never silently
    /// dropped.
    pub fn ingest(&mut self, datagram_bytes: &[u8]) {
        let dg = match self.collector.ingest(datagram_bytes) {
            Ingest::Accepted(dg) => dg,
            // Both outcomes are already counted in the collector's stats;
            // nothing vanishes.
            Ingest::Duplicate | Ingest::Rejected(_) => return,
        };
        for sample in &dg.samples {
            self.ingest_sample(sample.sampling_rate, sample.record.frame_length, &sample.record.header);
        }
    }

    /// Feed one raw sample (rate, claimed wire length, snippet).
    pub fn ingest_sample(&mut self, rate: u32, frame_len: u32, snippet: &[u8]) {
        let parsed = Dissection::parse(snippet);
        self.dissect.record(&parsed);
        self.tally.record(&parsed);
        let d = match parsed {
            Ok(d) => d,
            Err(_) => {
                self.undissectable += 1;
                return;
            }
        };
        let peer = match self.categorize(&d) {
            Cascade::Filtered(category) => {
                self.filter.add(category, rate, frame_len);
                return;
            }
            Cascade::Peering(peer) => peer,
        };
        self.filter.add(peer.category(), rate, frame_len);
        let bytes = u64::from(rate) * u64::from(frame_len);

        // Role evidence.
        let mut host: Option<&str> = None;
        let mut server_is_src = false;
        let mut server_is_dst = false;
        if let PeerTransport::Tcp { .. } = peer.transport {
            match http::classify(peer.payload) {
                HttpEvidence::Request { host: h } | HttpEvidence::RequestHeaders { host: h } => {
                    server_is_dst = true;
                    host = h;
                }
                HttpEvidence::Response | HttpEvidence::ResponseHeaders => {
                    server_is_src = true;
                }
                HttpEvidence::None => {}
            }
        }

        let src = u32::from(peer.repr.src_addr);
        let dst = u32::from(peer.repr.dst_addr);
        {
            let src_stats = self.ips.entry(src).or_default();
            src_stats.bytes += bytes;
            src_stats.samples += 1;
            src_stats.member = peer.src_member;
            if server_is_src {
                src_stats.evidence.set(Evidence::HTTP_SERVER);
                if let PeerTransport::Tcp { src_port, .. } = peer.transport {
                    set_port_bit(&mut src_stats.evidence, src_port);
                }
            } else if server_is_dst {
                // Classified flow with the server on the other side.
                src_stats.evidence.set(Evidence::CLIENT);
            }
        }
        {
            let dst_stats = self.ips.entry(dst).or_default();
            dst_stats.bytes += bytes;
            dst_stats.samples += 1;
            dst_stats.member = peer.dst_member;
            if server_is_dst {
                dst_stats.evidence.set(Evidence::HTTP_SERVER);
                if let PeerTransport::Tcp { dst_port, .. } = peer.transport {
                    set_port_bit(&mut dst_stats.evidence, dst_port);
                }
                if let Some(h) = host {
                    let id = self.domains.intern(h);
                    if dst_stats.uris.len() < MAX_URIS_PER_IP && !dst_stats.uris.contains(&id) {
                        dst_stats.uris.push(id);
                    }
                }
            } else if server_is_src {
                dst_stats.evidence.set(Evidence::CLIENT);
            }
            if let PeerTransport::Tcp { dst_port, .. } = peer.transport {
                // HTTPS candidates: TLS-shaped bytes towards port 443.
                if dst_port == 443 && matches!(peer.payload.first(), Some(0x16) | Some(0x17)) {
                    dst_stats.evidence.set(Evidence::TLS443);
                    set_port_bit(&mut dst_stats.evidence, 443);
                }
                // RTMP activity (port-level evidence; no string matching).
                if dst_port == 1935 && !peer.payload.is_empty() {
                    set_port_bit(&mut dst_stats.evidence, 1935);
                }
            }
        }
    }

    /// Run one dissected sample through the filtering cascade. Peering
    /// samples come back with the endpoints the per-IP upsert needs, so no
    /// later step has to re-match the dissection.
    fn categorize<'a>(&self, d: &Dissection<'a>) -> Cascade<'a> {
        let (repr, transport, payload) = match &d.network {
            Network::Ipv6 => return Cascade::Filtered(Category::Ipv6),
            Network::Arp | Network::OtherEtherType(_) | Network::MalformedIpv4(_) => {
                return Cascade::Filtered(Category::OtherL3)
            }
            Network::Ipv4 { repr, transport, payload } => (*repr, transport, *payload),
        };
        let member = |mac| member_of(mac).filter(|m| m.0 < self.member_count);
        let (src_member, dst_member) = match (member(d.src_mac), member(d.dst_mac)) {
            (Some(a), Some(b)) if a != b => (a, b),
            _ => return Cascade::Filtered(Category::NonMemberOrLocal),
        };
        let transport = match *transport {
            Transport::Tcp { src_port, dst_port, .. } => PeerTransport::Tcp { src_port, dst_port },
            Transport::Udp { .. } => PeerTransport::Udp,
            Transport::Icmp => return Cascade::Filtered(Category::Icmp),
            Transport::Other(_) | Transport::Truncated(_) => {
                return Cascade::Filtered(Category::OtherTransport)
            }
        };
        Cascade::Peering(Peering { src_member, dst_member, repr, transport, payload })
    }

    /// Unique peering IPs seen.
    pub fn unique_ips(&self) -> usize {
        self.ips.len()
    }

    /// Stats for one IP.
    pub fn stats(&self, ip: Ipv4Addr) -> Option<&IpStats> {
        self.ips.get(&u32::from(ip))
    }

    /// Datagram decode failures by kind (the once-silent error path).
    pub fn decode_errors(&self) -> DecodeErrorCounts {
        self.collector.stats().decode_errors
    }

    /// The collector front-end, for sequence/counter introspection.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Count datagrams the bounded intake queue shed before they reached
    /// this scan's collector, keeping the no-silent-discard invariant over
    /// the whole pipeline.
    pub fn record_shed(&mut self, n: u64) {
        self.shed = self.shed.saturating_add(n);
    }

    /// Datagrams shed by the intake queue so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Ingest-stream health: collector accounting plus the sample-level
    /// dissection counter and the intake queue's shed count.
    pub fn ingest_health(&self) -> IngestHealth {
        IngestHealth {
            collector: self.collector.stats(),
            undissectable_samples: self.undissectable,
            shed: self.shed,
        }
    }

    /// A traffic estimate scaled up by the collector's loss-compensation
    /// factor, so degraded feeds still estimate the full stream.
    pub fn compensated(&self, estimate: &TrafficEstimate) -> TrafficEstimate {
        self.collector.compensate(estimate)
    }

    /// Serialize the full scan state — cascade totals, per-IP evidence,
    /// interned domains, dissection tally, shed count, and the nested
    /// collector state — into a versioned, deterministic byte blob.
    /// Deterministic: hash maps are written in sorted key order, so equal
    /// states yield equal bytes.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_u32(&mut out, WEEKSCAN_STATE_VERSION);
        codec::put_u8(&mut out, self.week.0);
        codec::put_u32(&mut out, self.member_count);
        codec::put_u64(&mut out, self.shed);
        codec::put_u64(&mut out, self.undissectable);
        for cat in Category::ALL {
            let e = self.filter.get(cat);
            codec::put_u64(&mut out, e.samples);
            codec::put_u64(&mut out, e.frames);
            codec::put_u64(&mut out, e.bytes);
        }
        codec::put_u64(&mut out, self.domains.names.len() as u64);
        for name in &self.domains.names {
            codec::put_str(&mut out, name);
        }
        let mut ips: Vec<(&u32, &IpStats)> = self.ips.iter().collect();
        ips.sort_by_key(|(ip, _)| **ip);
        codec::put_u64(&mut out, ips.len() as u64);
        for (ip, s) in ips {
            codec::put_u32(&mut out, *ip);
            codec::put_u64(&mut out, s.bytes);
            codec::put_u32(&mut out, s.samples);
            codec::put_u16(&mut out, s.evidence.0);
            codec::put_u32(&mut out, s.member.0);
            codec::put_u8(&mut out, s.uris.len().min(MAX_URIS_PER_IP) as u8);
            for id in s.uris.iter().take(MAX_URIS_PER_IP) {
                codec::put_u32(&mut out, *id);
            }
        }
        for f in self.tally.fields() {
            codec::put_u64(&mut out, f);
        }
        out.extend_from_slice(&self.collector.save_state());
        out
    }

    /// Restore a scan from [`WeekScan::save_state`] bytes. The blob is
    /// validated as hostile input: typed errors (never panics) on
    /// truncation, version skew, unsorted or duplicate keys, out-of-range
    /// domain references, or collector accounting that does not balance.
    /// The restored scan has detached metrics and the frozen test clock;
    /// use [`WeekScan::bind_obs`] to re-attach instrumentation.
    pub fn restore_state(bytes: &[u8]) -> Result<WeekScan, CodecError> {
        let mut cur = Cur::new(bytes);
        let version = cur.u32()?;
        if version != WEEKSCAN_STATE_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let week = Week(cur.u8()?);
        let member_count = cur.u32()?;
        let mut scan = WeekScan::new(week, member_count);
        scan.shed = cur.u64()?;
        scan.undissectable = cur.u64()?;
        // Array order is `Category::ALL` order, the order `save_state`
        // writes.
        for e in scan.filter.totals.iter_mut() {
            e.samples = cur.u64()?;
            e.frames = cur.u64()?;
            e.bytes = cur.u64()?;
        }
        let n_domains = cur.count(8)?;
        for id in 0..n_domains {
            let name = cur.str()?;
            if scan.domains.intern(name) != id as u32 {
                return Err(CodecError::Invalid("duplicate domain in intern table"));
            }
        }
        let domain_count = scan.domains.len() as u32;
        // Per-IP entry: u32 key + u64 + 2×u32 + u16 + uri count byte.
        let n_ips = cur.count(19)?;
        let mut prev_ip: Option<u32> = None;
        for _ in 0..n_ips {
            let ip = cur.u32()?;
            if prev_ip.is_some_and(|p| p >= ip) {
                return Err(CodecError::Invalid("ip keys not strictly increasing"));
            }
            prev_ip = Some(ip);
            let mut s = IpStats {
                bytes: cur.u64()?,
                samples: cur.u32()?,
                evidence: Evidence(cur.u16()?),
                uris: Vec::new(),
                member: MemberId(cur.u32()?),
            };
            let n_uris = usize::from(cur.u8()?);
            if n_uris > MAX_URIS_PER_IP {
                return Err(CodecError::Invalid("uri list exceeds the per-ip bound"));
            }
            for _ in 0..n_uris {
                let id = cur.u32()?;
                if id >= domain_count {
                    return Err(CodecError::Invalid("uri id out of domain-table range"));
                }
                if s.uris.contains(&id) {
                    return Err(CodecError::Invalid("duplicate uri id for one ip"));
                }
                s.uris.push(id);
            }
            scan.ips.insert(ip, s);
        }
        // Mirror of the save-side `for f in self.tally.fields()` loop, so
        // the encode/decode field walks stay symmetric (ixp-lint L10).
        let mut tally_fields = [0u64; 11];
        for f in &mut tally_fields {
            *f = cur.u64()?;
        }
        scan.tally = DissectTally::from_fields(tally_fields);
        scan.collector = Collector::restore_from(&mut cur)?;
        cur.finish()?;
        Ok(scan)
    }

    /// Attach a restored scan to live instrumentation: the nested collector
    /// replays its `sflow_*` totals, and the dissection tally replays into
    /// freshly registered `wire_*` counters. After this, the registry reads
    /// exactly as if the scan had run uninterrupted under it.
    pub fn bind_obs(&mut self, obs: &Obs) {
        self.collector.bind_obs(obs);
        let m = DissectMetrics::register(&obs.registry);
        self.tally.replay(&m);
        self.dissect = m;
    }

    /// Attach an event journal to the collector front-end so source
    /// restarts and quarantines become flight-recorder events (see
    /// `Collector::bind_journal`). Journal state is live-run evidence and
    /// is never checkpointed or replayed.
    pub fn bind_journal(&mut self, journal: ixp_obs::journal::Journal) {
        self.collector.bind_journal(journal);
    }
}

/// Where the filtering cascade put one dissected sample.
enum Cascade<'a> {
    /// Outside the peering view, counted under this category.
    Filtered(Category),
    /// Member-to-member IPv4 TCP or UDP.
    Peering(Peering<'a>),
}

/// The endpoints of a peering sample.
struct Peering<'a> {
    src_member: MemberId,
    dst_member: MemberId,
    repr: ipv4::Repr,
    transport: PeerTransport,
    payload: &'a [u8],
}

impl Peering<'_> {
    fn category(&self) -> Category {
        match self.transport {
            PeerTransport::Tcp { .. } => Category::PeeringTcp,
            PeerTransport::Udp => Category::PeeringUdp,
        }
    }
}

/// The two transports the cascade keeps as peering traffic.
#[derive(Clone, Copy)]
enum PeerTransport {
    Tcp { src_port: u16, dst_port: u16 },
    Udp,
}

fn set_port_bit(e: &mut Evidence, port: u16) {
    match port {
        80 => e.set(Evidence::PORT_80),
        8080 => e.set(Evidence::PORT_8080),
        443 => e.set(Evidence::PORT_443),
        1935 => e.set(Evidence::PORT_1935),
        _ => {}
    }
}

/// Recover the member id from a port MAC (the inverse of
/// `EthernetAddress::from_member_id`).
pub fn member_of(mac: EthernetAddress) -> Option<MemberId> {
    match mac.0 {
        [0x02, 0x1f, a, b, c, d] => Some(MemberId(u32::from_be_bytes([a, b, c, d]))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_wire::ethernet::{self, EthernetAddress};
    use ixp_wire::ip::Protocol;
    use ixp_wire::{ipv4, tcp};

    /// Build an Ethernet+IPv4+TCP frame between two member ports.
    fn tcp_frame(src_member: u32, dst_member: u32, payload: &[u8], dst_port: u16) -> Vec<u8> {
        let (src_ip, dst_ip) = (Ipv4Addr::new(100, 0, 0, 1), Ipv4Addr::new(100, 0, 1, 1));
        tcp_frame_between(src_ip, dst_ip, src_member, dst_member, payload, dst_port)
    }

    /// Like [`tcp_frame`], between two given addresses.
    fn tcp_frame_between(
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_member: u32,
        dst_member: u32,
        payload: &[u8],
        dst_port: u16,
    ) -> Vec<u8> {
        let tcp_len = tcp::HEADER_LEN + payload.len();
        let total = ethernet::HEADER_LEN + ipv4::HEADER_LEN + tcp_len;
        let mut buf = vec![0u8; total];
        ethernet::Repr {
            src_addr: EthernetAddress::from_member_id(src_member),
            dst_addr: EthernetAddress::from_member_id(dst_member),
            ethertype: ixp_wire::EtherType::Ipv4,
        }
        .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
        ipv4::Repr {
            src_addr: src_ip,
            dst_addr: dst_ip,
            protocol: Protocol::Tcp,
            payload_len: tcp_len,
            ttl: 60,
        }
        .emit(&mut ipv4::Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]))
        .unwrap();
        let l4 = &mut buf[ethernet::HEADER_LEN + ipv4::HEADER_LEN..];
        l4[tcp::HEADER_LEN..].copy_from_slice(payload);
        tcp::Repr {
            src_port: 40000,
            dst_port,
            seq: 0,
            ack: 0,
            flags: tcp::Flags::ACK,
            window: 1000,
        }
        .emit(&mut tcp::Packet::new_unchecked(&mut l4[..]), src_ip, dst_ip)
        .unwrap();
        buf
    }

    #[test]
    fn category_discriminants_are_cascade_positions() {
        for (i, cat) in Category::ALL.iter().enumerate() {
            assert_eq!(*cat as usize, i, "{cat:?} indexes the filter report out of order");
        }
    }

    #[test]
    fn ip_tables_are_keyed_per_scan() {
        let (a, b) = (WeekScan::new(Week::REFERENCE, 10), WeekScan::new(Week::REFERENCE, 10));
        let differs = (0..16u32).any(|ip| a.ips.hasher().hash_one(ip) != b.ips.hasher().hash_one(ip));
        assert!(differs, "two scans hash every key alike: the IP table is not keyed");
    }

    #[test]
    fn save_state_is_independent_of_ip_insertion_order() {
        let frames: Vec<Vec<u8>> = (0..200u8)
            .map(|i| {
                let payload: &[u8] = match i % 3 {
                    0 => b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n",
                    1 => &[0x16, 0x03, 0x03, 0x00, 0x10, 0x80],
                    _ => &[0x80, 0x81, 0x82],
                };
                let port = if i % 3 == 1 { 443 } else { 80 };
                let (src, dst) = (Ipv4Addr::new(10, 0, i, 1), Ipv4Addr::new(10, 1, i / 2, 1));
                tcp_frame_between(src, dst, 1, 2, payload, port)
            })
            .collect();
        let mut forward = WeekScan::new(Week::REFERENCE, 10);
        for f in &frames {
            forward.ingest_sample(16_384, f.len() as u32, f);
        }
        let mut backward = WeekScan::new(Week::REFERENCE, 10);
        for f in frames.iter().rev() {
            backward.ingest_sample(16_384, f.len() as u32, f);
        }
        assert_eq!(forward.unique_ips(), 300);
        assert_eq!(forward.save_state(), backward.save_state());
    }

    #[test]
    fn member_of_inverts_port_macs() {
        for id in [0u32, 1, 456, 100_000] {
            assert_eq!(member_of(EthernetAddress::from_member_id(id)), Some(MemberId(id)));
        }
        assert_eq!(member_of(EthernetAddress([0x02, 0xFD, 0, 0, 0, 1])), None);
        assert_eq!(member_of(EthernetAddress::BROADCAST), None);
    }

    #[test]
    fn request_marks_destination_as_server_and_collects_uri() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        let frame = tcp_frame(1, 2, b"GET / HTTP/1.1\r\nHost: www.x.example\r\n\r\n", 80);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        let dst = scan.stats(Ipv4Addr::new(100, 0, 1, 1)).unwrap();
        assert!(dst.evidence.has(Evidence::HTTP_SERVER));
        assert!(dst.evidence.has(Evidence::PORT_80));
        assert_eq!(dst.uris.len(), 1);
        assert_eq!(scan.domains.name(dst.uris[0]), "www.x.example");
        let src = scan.stats(Ipv4Addr::new(100, 0, 0, 1)).unwrap();
        assert!(src.evidence.has(Evidence::CLIENT));
        assert!(!src.evidence.has(Evidence::HTTP_SERVER));
    }

    #[test]
    fn response_marks_source_as_server() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        let frame = tcp_frame(3, 4, b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n", 50_000);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        let src = scan.stats(Ipv4Addr::new(100, 0, 0, 1)).unwrap();
        assert!(src.evidence.has(Evidence::HTTP_SERVER));
    }

    #[test]
    fn non_member_macs_fall_out_of_peering() {
        let mut scan = WeekScan::new(Week::REFERENCE, 3);
        // Member ids 5 and 6 exceed the member count of 3.
        let frame = tcp_frame(5, 6, b"GET / HTTP/1.1\r\n", 80);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        assert_eq!(scan.filter.get(Category::NonMemberOrLocal).samples, 1);
        assert_eq!(scan.unique_ips(), 0);
    }

    #[test]
    fn same_member_both_sides_is_local() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        let frame = tcp_frame(2, 2, b"GET / HTTP/1.1\r\n", 80);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        assert_eq!(scan.filter.get(Category::NonMemberOrLocal).samples, 1);
    }

    #[test]
    fn tls_443_marks_candidate() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        let frame = tcp_frame(1, 2, &[0x16, 0x03, 0x03, 0x00, 0x10, 0x80], 443);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        let dst = scan.stats(Ipv4Addr::new(100, 0, 1, 1)).unwrap();
        assert!(dst.evidence.has(Evidence::TLS443));
        assert!(dst.evidence.has(Evidence::PORT_443));
        assert!(!dst.evidence.has(Evidence::HTTP_SERVER));
    }

    #[test]
    fn filter_shares_sum_to_100() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        for (port, payload) in
            [(80u16, &b"GET / HTTP/1.1\r\n"[..]), (443, &[0x16, 0x03, 0x03][..]), (25, &[0x80u8][..])]
        {
            let frame = tcp_frame(1, 2, payload, port);
            scan.ingest_sample(16_384, frame.len() as u32, &frame);
        }
        let total: f64 = Category::ALL.iter().map(|c| scan.filter.share(*c)).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn undissectable_bytes_are_counted_not_fatal() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        // A datagram-level decode failure lands in the per-kind error
        // counters, not the sample-level dissection counter.
        scan.ingest(&[1, 2, 3]);
        assert_eq!(scan.decode_errors().total(), 1);
        assert_eq!(scan.decode_errors().truncated, 1);
        // A sample-level dissection failure is counted separately.
        scan.ingest_sample(1, 10, &[0xff; 4]);
        assert_eq!(scan.undissectable, 1);
        let health = scan.ingest_health();
        assert!(health.fully_accounted());
        assert_eq!(health.undissectable_samples, 1);
        assert_eq!(health.collector.datagrams, 1);
    }

    /// A scan exercising every checkpointed dimension: cascade totals,
    /// per-IP evidence, interned domains, undissectables, decode errors,
    /// and a shed count.
    fn messy_scan() -> WeekScan {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        for (port, payload) in [
            (80u16, &b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n"[..]),
            (80, &b"GET / HTTP/1.1\r\nHost: b.example\r\n\r\n"[..]),
            (443, &[0x16, 0x03, 0x03][..]),
            (25, &[0x80u8][..]),
        ] {
            let frame = tcp_frame(1, 2, payload, port);
            scan.ingest_sample(16_384, frame.len() as u32, &frame);
        }
        scan.ingest(&[1, 2, 3]); // decode error
        scan.ingest_sample(1, 10, &[0xff; 4]); // undissectable
        scan.record_shed(3);
        scan
    }

    #[test]
    fn scan_save_restore_round_trips_and_stays_byte_identical() {
        let scan = messy_scan();
        let blob = scan.save_state();
        let restored = WeekScan::restore_state(&blob).expect("restore");
        assert_eq!(restored.save_state(), blob, "save → restore → save changed bytes");
        assert_eq!(restored.ingest_health(), scan.ingest_health());
        assert_eq!(restored.unique_ips(), scan.unique_ips());
        assert_eq!(restored.domains.len(), scan.domains.len());
        // Interning continues where it left off.
        let mut r = restored;
        let frame = tcp_frame(1, 2, b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n", 80);
        r.ingest_sample(16_384, frame.len() as u32, &frame);
        assert_eq!(r.domains.len(), scan.domains.len(), "known domain re-interned");
    }

    #[test]
    fn scan_restore_rejects_corruption_with_typed_errors_never_panics() {
        let blob = messy_scan().save_state();
        for cut in 0..blob.len() {
            let prefix: Vec<u8> = blob.iter().copied().take(cut).collect();
            assert!(WeekScan::restore_state(&prefix).is_err(), "cut {cut} restored");
        }
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            if let Some(b) = bad.get_mut(i) {
                *b ^= 0x01;
            }
            // Either a typed rejection or a state whose accounting balances.
            if let Ok(scan) = WeekScan::restore_state(&bad) {
                assert!(scan.ingest_health().fully_accounted());
            }
        }
    }

    #[test]
    fn shed_extends_the_accounting_invariant() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        scan.ingest(&[1, 2, 3]);
        scan.record_shed(7);
        let h = scan.ingest_health();
        assert_eq!(h.shed, 7);
        assert_eq!(h.ingested(), h.collector.datagrams + 7);
        assert!(h.fully_accounted());
    }

    #[test]
    fn scan_bind_obs_replays_into_a_fresh_registry() {
        let obs_a = ixp_obs::Obs::deterministic();
        let mut live = WeekScan::with_obs(Week::REFERENCE, 10, &obs_a);
        let frame = tcp_frame(1, 2, b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n", 80);
        live.ingest_sample(16_384, frame.len() as u32, &frame);
        live.ingest(&[1, 2, 3]);
        live.ingest_sample(1, 10, &[0xff; 4]);
        let blob = live.save_state();
        let obs_b = ixp_obs::Obs::deterministic();
        let mut restored = WeekScan::restore_state(&blob).expect("restore");
        restored.bind_obs(&obs_b);
        assert_eq!(
            ixp_obs::json::render(&obs_a.snapshot()),
            ixp_obs::json::render(&obs_b.snapshot())
        );
    }

    #[test]
    fn uris_are_deduplicated_and_bounded() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        for i in 0..20 {
            let host = format!("h{}.x.example", i % 12);
            let payload = format!("GET / HTTP/1.1\r\nHost: {host}\r\n\r\n");
            let frame = tcp_frame(1, 2, payload.as_bytes(), 80);
            scan.ingest_sample(16_384, frame.len() as u32, &frame);
        }
        let dst = scan.stats(Ipv4Addr::new(100, 0, 1, 1)).unwrap();
        assert!(dst.uris.len() <= 8);
        let mut dedup = dst.uris.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), dst.uris.len());
    }
}
