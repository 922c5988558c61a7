//! sFlow v5 datagram, flow-sample, and raw-packet-header record formats.
//!
//! The encoding follows the sFlow v5 specification (sflow.org, July 2004)
//! for the record types the IXP's collectors actually emit:
//!
//! * datagram header (IPv4 agent address form),
//! * `flow_sample` (enterprise 0, format 1),
//! * `raw packet header` flow record (enterprise 0, format 1) with
//!   `header_protocol = 1` (Ethernet).
//!
//! Unknown sample and record types are skipped using their length fields,
//! as the spec requires of collectors.

use core::fmt;
use std::net::Ipv4Addr;

use crate::xdr::{self, Put, Reader};

/// `header_protocol` value for Ethernet (ISO 8023) in raw-packet records.
pub const HEADER_PROTO_ETHERNET: u32 = 1;

const SFLOW_VERSION: u32 = 5;
const AGENT_ADDR_IPV4: u32 = 1;
const SAMPLE_TYPE_FLOW: u32 = 1;
const SAMPLE_TYPE_COUNTERS: u32 = 2;
const RECORD_TYPE_RAW_PACKET: u32 = 1;
const RECORD_TYPE_IF_COUNTERS: u32 = 1;

/// Failure while decoding a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes mid-structure.
    Truncated,
    /// The version field is not 5.
    BadVersion(u32),
    /// Only IPv4 agent addresses are supported by this collector.
    UnsupportedAgentAddress(u32),
    /// A length field contradicts the surrounding structure.
    Inconsistent,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("datagram truncated"),
            DecodeError::BadVersion(v) => write!(f, "unsupported sFlow version {v}"),
            DecodeError::UnsupportedAgentAddress(t) => {
                write!(f, "unsupported agent address type {t}")
            }
            DecodeError::Inconsistent => f.write_str("inconsistent length field"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A raw-packet-header flow record: the first bytes of a sampled frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawPacketHeader {
    /// Header protocol (1 = Ethernet).
    pub protocol: u32,
    /// Original length of the sampled frame on the wire, in bytes.
    pub frame_length: u32,
    /// Bytes removed from the end of the frame before sampling (FCS etc.).
    pub stripped: u32,
    /// The captured header bytes (≤ the sampler's snippet length).
    pub header: Vec<u8>,
}

/// A `flow_sample` structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSample {
    /// Sample sequence number (per source).
    pub sequence: u32,
    /// Source id (class 0, index = ifIndex of the sampled port).
    pub source_id: u32,
    /// The configured sampling rate N (one frame sampled out of N).
    pub sampling_rate: u32,
    /// Total frames that could have been sampled so far.
    pub sample_pool: u32,
    /// Samples dropped due to collector back-pressure.
    pub drops: u32,
    /// Input interface index.
    pub input_if: u32,
    /// Output interface index.
    pub output_if: u32,
    /// The raw packet header record (sFlow allows several records per
    /// sample; the IXP's switches emit exactly one raw-header record, which
    /// is all the study uses).
    pub record: RawPacketHeader,
}

/// A `counters_sample` with the standard `if_counters` block: the switch's
/// own per-interface octet/packet counters, exported unsampled. Real
/// deployments use these to verify the flow samples are unbiased — and so
/// does this reproduction (see `ixp-core`'s sampling-bias check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Sample sequence number (per source).
    pub sequence: u32,
    /// Source id (the polled interface).
    pub source_id: u32,
    /// ifIndex of the interface.
    pub if_index: u32,
    /// ifSpeed in bits per second.
    pub if_speed: u64,
    /// Octets received on the interface since boot.
    pub if_in_octets: u64,
    /// Unicast packets received.
    pub if_in_ucast: u32,
    /// Octets transmitted.
    pub if_out_octets: u64,
    /// Unicast packets transmitted.
    pub if_out_ucast: u32,
}

/// An sFlow v5 datagram: one agent's batch of samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// IPv4 address of the switch agent.
    pub agent_address: Ipv4Addr,
    /// Sub-agent id.
    pub sub_agent_id: u32,
    /// Datagram sequence number.
    pub sequence: u32,
    /// Switch uptime in milliseconds.
    pub uptime_ms: u32,
    /// The flow samples in this datagram.
    pub samples: Vec<FlowSample>,
    /// The counter samples in this datagram.
    pub counters: Vec<CounterSample>,
}

impl Datagram {
    /// Encode to the XDR wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.samples.len() * 192);
        out.put_u32(SFLOW_VERSION);
        out.put_u32(AGENT_ADDR_IPV4);
        out.put_slice(&self.agent_address.octets());
        out.put_u32(self.sub_agent_id);
        out.put_u32(self.sequence);
        out.put_u32(self.uptime_ms);
        out.put_u32((self.samples.len() + self.counters.len()) as u32);
        for sample in &self.samples {
            encode_flow_sample(&mut out, sample);
        }
        for counter in &self.counters {
            encode_counter_sample(&mut out, counter);
        }
        out
    }

    /// Decode from the XDR wire format.
    // ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
    pub fn decode(data: &[u8]) -> Result<Datagram, DecodeError> {
        let mut r = Reader::new(data);
        let version = r.u32()?;
        if version != SFLOW_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let addr_type = r.u32()?;
        if addr_type != AGENT_ADDR_IPV4 {
            return Err(DecodeError::UnsupportedAgentAddress(addr_type));
        }
        let agent_address = match *r.opaque(4)? {
            [a, b, c, d] => Ipv4Addr::new(a, b, c, d),
            _ => return Err(DecodeError::Truncated),
        };
        let sub_agent_id = r.u32()?;
        let sequence = r.u32()?;
        let uptime_ms = r.u32()?;
        let n_samples = r.u32()? as usize;
        if n_samples > data.len() / 8 {
            // Cheap sanity bound: each sample needs well over 8 bytes.
            return Err(DecodeError::Inconsistent);
        }
        let mut samples = Vec::with_capacity(n_samples.min(data.len() / 8));
        let mut counters = Vec::new();
        for _ in 0..n_samples {
            match decode_sample(&mut r)? {
                DecodedSample::Flow(sample) => samples.push(sample),
                DecodedSample::Counters(sample) => counters.push(sample),
                DecodedSample::Unknown => {}
            }
        }
        Ok(Datagram { agent_address, sub_agent_id, sequence, uptime_ms, samples, counters })
    }
}

fn encode_flow_sample(out: &mut Vec<u8>, sample: &FlowSample) {
    out.put_u32(SAMPLE_TYPE_FLOW);
    // Reserve the sample length, fill in afterwards.
    let len_pos = out.len();
    out.put_u32(0);
    let body_start = out.len();

    out.put_u32(sample.sequence);
    out.put_u32(sample.source_id);
    out.put_u32(sample.sampling_rate);
    out.put_u32(sample.sample_pool);
    out.put_u32(sample.drops);
    out.put_u32(sample.input_if);
    out.put_u32(sample.output_if);
    out.put_u32(1); // record count

    // Raw packet header record.
    out.put_u32(RECORD_TYPE_RAW_PACKET);
    let rec = &sample.record;
    let record_len = 16usize.saturating_add(xdr::pad4(rec.header.len()));
    out.put_u32(record_len as u32);
    out.put_u32(rec.protocol);
    out.put_u32(rec.frame_length);
    out.put_u32(rec.stripped);
    out.put_u32(rec.header.len() as u32);
    xdr::put_opaque(out, &rec.header);

    let body_len = (out.len() - body_start) as u32;
    // ixp-lint: allow(no-index) encoder backpatch; len_pos was reserved above
    out[len_pos..len_pos + 4].copy_from_slice(&body_len.to_be_bytes());
}

enum DecodedSample {
    Flow(FlowSample),
    Counters(CounterSample),
    Unknown,
}

/// Encode a counters sample with one generic-interface-counters record.
fn encode_counter_sample(out: &mut Vec<u8>, c: &CounterSample) {
    out.put_u32(SAMPLE_TYPE_COUNTERS);
    let len_pos = out.len();
    out.put_u32(0);
    let body_start = out.len();

    out.put_u32(c.sequence);
    out.put_u32(c.source_id);
    out.put_u32(1); // record count

    out.put_u32(RECORD_TYPE_IF_COUNTERS);
    // The standard if_counters block is 88 bytes; fields we do not model
    // are emitted as zero so real parsers stay happy.
    out.put_u32(88);
    out.put_u32(c.if_index);
    out.put_u32(6); // ifType: ethernetCsmacd
    out.put_u64(c.if_speed);
    out.put_u32(1); // ifDirection: full duplex
    out.put_u32(0b11); // ifStatus: admin up, oper up
    out.put_u64(c.if_in_octets);
    out.put_u32(c.if_in_ucast);
    out.put_u32(0); // in multicast
    out.put_u32(0); // in broadcast
    out.put_u32(0); // in discards
    out.put_u32(0); // in errors
    out.put_u32(0); // in unknown protos
    out.put_u64(c.if_out_octets);
    out.put_u32(c.if_out_ucast);
    out.put_u32(0); // out multicast
    out.put_u32(0); // out broadcast
    out.put_u32(0); // out discards
    out.put_u32(0); // out errors
    out.put_u32(0); // promiscuous mode

    let body_len = (out.len() - body_start) as u32;
    // ixp-lint: allow(no-index) encoder backpatch; len_pos was reserved above
    out[len_pos..len_pos + 4].copy_from_slice(&body_len.to_be_bytes());
}

// ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
fn decode_counter_sample(r: &mut Reader<'_>, sample_len: usize) -> Result<DecodedSample, DecodeError> {
    let end = r
        .position()
        .checked_add(sample_len)
        .ok_or(DecodeError::Inconsistent)?;
    let sequence = r.u32()?;
    let source_id = r.u32()?;
    let n_records = r.u32()? as usize;
    let mut out = None;
    for _ in 0..n_records {
        let record_type = r.u32()?;
        let record_len = r.u32()? as usize;
        if record_type != RECORD_TYPE_IF_COUNTERS || record_len != 88 {
            r.skip(xdr::pad4(record_len))?;
            continue;
        }
        let if_index = r.u32()?;
        let _if_type = r.u32()?;
        let if_speed = ((r.u32()? as u64) << 32) | r.u32()? as u64;
        let _dir = r.u32()?;
        let _status = r.u32()?;
        let if_in_octets = ((r.u32()? as u64) << 32) | r.u32()? as u64;
        let if_in_ucast = r.u32()?;
        r.skip(4 * 5)?;
        let if_out_octets = ((r.u32()? as u64) << 32) | r.u32()? as u64;
        let if_out_ucast = r.u32()?;
        // out multicast/broadcast/discards/errors + promiscuous mode.
        r.skip(4 * 5)?;
        out = Some(CounterSample {
            sequence,
            source_id,
            if_index,
            if_speed,
            if_in_octets,
            if_in_ucast,
            if_out_octets,
            if_out_ucast,
        });
    }
    if r.position() != end {
        return Err(DecodeError::Inconsistent);
    }
    match out {
        Some(c) => Ok(DecodedSample::Counters(c)),
        None => Ok(DecodedSample::Unknown),
    }
}

/// Decode one sample; unknown sample types are skipped.
// ixp-lint: allow(schema-drift) sFlow v5 wire codec; the schema is fixed by the protocol spec, not the checkpoint ratchet
fn decode_sample(r: &mut Reader<'_>) -> Result<DecodedSample, DecodeError> {
    let sample_type = r.u32()?;
    let sample_len = r.u32()? as usize;
    if sample_type == SAMPLE_TYPE_COUNTERS {
        return decode_counter_sample(r, sample_len);
    }
    if sample_type != SAMPLE_TYPE_FLOW {
        r.skip(xdr::pad4(sample_len))?;
        return Ok(DecodedSample::Unknown);
    }
    let end = r
        .position()
        .checked_add(sample_len)
        .ok_or(DecodeError::Inconsistent)?;

    let sequence = r.u32()?;
    let source_id = r.u32()?;
    let sampling_rate = r.u32()?;
    let sample_pool = r.u32()?;
    let drops = r.u32()?;
    let input_if = r.u32()?;
    let output_if = r.u32()?;
    let n_records = r.u32()? as usize;

    let mut record = None;
    for _ in 0..n_records {
        let record_type = r.u32()?;
        let record_len = r.u32()? as usize;
        if record_type != RECORD_TYPE_RAW_PACKET {
            r.skip(xdr::pad4(record_len))?;
            continue;
        }
        let record_end = r
            .position()
            .checked_add(record_len)
            .ok_or(DecodeError::Inconsistent)?;
        let protocol = r.u32()?;
        let frame_length = r.u32()?;
        let stripped = r.u32()?;
        let header_len = r.u32()? as usize;
        if header_len > record_len {
            return Err(DecodeError::Inconsistent);
        }
        let header = r.opaque(header_len)?.to_vec();
        if r.position() != record_end {
            return Err(DecodeError::Inconsistent);
        }
        record = Some(RawPacketHeader { protocol, frame_length, stripped, header });
    }
    if r.position() != end {
        return Err(DecodeError::Inconsistent);
    }
    let record = record.ok_or(DecodeError::Inconsistent)?;
    Ok(DecodedSample::Flow(FlowSample {
        sequence,
        source_id,
        sampling_rate,
        sample_pool,
        drops,
        input_if,
        output_if,
        record,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_with_header(header: Vec<u8>) -> FlowSample {
        FlowSample {
            sequence: 42,
            source_id: 7,
            sampling_rate: crate::PAPER_SAMPLING_RATE,
            sample_pool: 42 * crate::PAPER_SAMPLING_RATE,
            drops: 0,
            input_if: 7,
            output_if: 9,
            record: RawPacketHeader {
                protocol: HEADER_PROTO_ETHERNET,
                frame_length: 1514,
                stripped: 4,
                header,
            },
        }
    }

    fn sample_datagram() -> Datagram {
        Datagram {
            agent_address: Ipv4Addr::new(10, 0, 0, 1),
            sub_agent_id: 0,
            sequence: 99,
            uptime_ms: 123_456,
            samples: vec![
                sample_with_header(vec![0xaa; 128]),
                sample_with_header(vec![0xbb; 60]),
                sample_with_header(vec![0xcc; 61]), // odd length exercises padding
            ],
            counters: vec![CounterSample {
                sequence: 9,
                source_id: 7,
                if_index: 7,
                if_speed: 10_000_000_000,
                if_in_octets: 123_456_789_012,
                if_in_ucast: 4_000_000,
                if_out_octets: 987_654_321_098,
                if_out_ucast: 5_000_000,
            }],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let dg = sample_datagram();
        let bytes = dg.encode();
        assert_eq!(bytes.len() % 4, 0, "XDR output must stay 4-byte aligned");
        let decoded = Datagram::decode(&bytes).unwrap();
        assert_eq!(decoded, dg);
    }

    #[test]
    fn empty_datagram_round_trips() {
        let dg = Datagram {
            agent_address: Ipv4Addr::new(192, 168, 1, 1),
            sub_agent_id: 3,
            sequence: 0,
            uptime_ms: 0,
            samples: vec![],
            counters: vec![],
        };
        assert_eq!(Datagram::decode(&dg.encode()).unwrap(), dg);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample_datagram().encode();
        bytes[3] = 4;
        assert_eq!(Datagram::decode(&bytes).unwrap_err(), DecodeError::BadVersion(4));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample_datagram().encode();
        for cut in 1..bytes.len() {
            // Any strict prefix must decode to an error, never panic. A few
            // prefixes may cut exactly at a sample boundary *and* lie about
            // the count, which the count check rejects as Truncated too.
            assert!(Datagram::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn unknown_sample_types_are_skipped() {
        let dg = sample_datagram();
        let mut bytes = Vec::new();
        {
            use crate::xdr::Put;
            bytes.put_u32(5);
            bytes.put_u32(1);
            bytes.put_slice(&[10, 0, 0, 1]);
            bytes.put_u32(0);
            bytes.put_u32(1);
            bytes.put_u32(0);
            bytes.put_u32(2); // two samples: one unknown, one real
            bytes.put_u32(4); // expanded counter sample (unknown to us)
            bytes.put_u32(8);
            bytes.put_u64(0xdeadbeef_cafebabe);
        }
        let mut real = Vec::new();
        encode_flow_sample(&mut real, &dg.samples[0]);
        bytes.extend_from_slice(&real);
        let decoded = Datagram::decode(&bytes).unwrap();
        assert_eq!(decoded.samples.len(), 1);
        assert_eq!(decoded.samples[0], dg.samples[0]);
    }

    #[test]
    fn rejects_absurd_sample_count() {
        let mut bytes = sample_datagram().encode();
        // Overwrite the sample-count field (offset 24) with a huge number.
        bytes[24..28].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(Datagram::decode(&bytes).unwrap_err(), DecodeError::Inconsistent);
    }
}
