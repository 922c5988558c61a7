//! Property tests over the analysis pipeline's invariants.

use proptest::prelude::*;

use ixp_core::http::{classify, HttpEvidence};
use ixp_core::scan::member_of;
use ixp_core::{Category, WeekScan};
use ixp_netmodel::{InternetModel, ScaleConfig, Week};
use ixp_sflow::Datagram;
use ixp_traffic::{MixConfig, WeekStream};
use ixp_wire::{Dissection, Network, Transport};

/// The multi-scan classifier `http::classify` replaced, kept verbatim as
/// the reference the single-pass matcher must agree with.
mod reference {
    /// What the matcher found in one payload snippet.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) enum HttpEvidence {
        /// Nothing HTTP-like.
        None,
        /// A request: the destination is a server. The Host value, if it was
        /// recoverable from the snippet, identifies the URI authority.
        Request {
            /// Value of the `Host:` header, when present in the snippet.
            host: Option<String>,
        },
        /// A response: the source is a server.
        Response,
        /// Header fields only, implicating the destination (request headers).
        RequestHeaders {
            /// Value of the `Host:` header, when present.
            host: Option<String>,
        },
        /// Header fields only, implicating the source (response headers).
        ResponseHeaders,
    }

    const METHODS: [&str; 7] = ["GET ", "HEAD ", "POST ", "PUT ", "DELETE ", "OPTIONS ", "CONNECT "];

    const REQUEST_HEADERS: [&str; 5] =
        ["Host: ", "User-Agent: ", "Accept: ", "Referer: ", "Cookie: "];

    const RESPONSE_HEADERS: [&str; 5] = [
        "Server: ",
        "Content-Type: ",
        "Access-Control-Allow-Methods: ",
        "Set-Cookie: ",
        "Content-Length: ",
    ];

    /// Scan one payload snippet.
    pub(crate) fn classify(payload: &[u8]) -> HttpEvidence {
        if payload.len() < 4 {
            return HttpEvidence::None;
        }
        // Work on the lossless ASCII view; HTTP headers are ASCII.
        // Pattern 1a: request line at the start of the payload.
        if let Some(method_len) = METHODS
            .iter()
            .find(|m| payload.starts_with(m.as_bytes()))
            .map(|m| m.len())
        {
            // Require the protocol tag somewhere in the snippet (it may be cut
            // off for very long request targets; then fall through to headers).
            if find(payload, b"HTTP/1.").is_some() {
                let _ = method_len;
                return HttpEvidence::Request { host: extract_host(payload) };
            }
        }
        // Pattern 1b: status line.
        if payload.starts_with(b"HTTP/1.") {
            return HttpEvidence::Response;
        }
        // Pattern 2: header fields anywhere.
        let has_request_header = REQUEST_HEADERS.iter().any(|h| find(payload, h.as_bytes()).is_some());
        let has_response_header =
            RESPONSE_HEADERS.iter().any(|h| find(payload, h.as_bytes()).is_some());
        match (has_request_header, has_response_header) {
            (_, true) => HttpEvidence::ResponseHeaders,
            (true, false) => HttpEvidence::RequestHeaders { host: extract_host(payload) },
            (false, false) => HttpEvidence::None,
        }
    }

    /// Extract the Host header value if it fits the snippet.
    fn extract_host(payload: &[u8]) -> Option<String> {
        let start = find(payload, b"Host: ")? + 6;
        let rest = &payload[start..];
        let end = rest.iter().position(|b| *b == b'\r' || *b == b'\n')?;
        let value = &rest[..end];
        if value.is_empty() || value.len() > 253 {
            return None;
        }
        let s = std::str::from_utf8(value).ok()?;
        if s.chars().all(|c| c.is_ascii_alphanumeric() || ".-:".contains(c)) {
            // Strip an explicit port.
            Some(s.split(':').next().unwrap().to_string())
        } else {
            None
        }
    }

    /// Naive subsequence search (snippets are ≤ 128 bytes; this beats fancier
    /// algorithms at this size).
    fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        if needle.is_empty() || haystack.len() < needle.len() {
            return None;
        }
        haystack.windows(needle.len()).position(|w| w == needle)
    }
}

/// A verdict of the single-pass matcher in the reference's owned form.
fn owned(e: HttpEvidence<'_>) -> reference::HttpEvidence {
    use reference::HttpEvidence as R;
    let host = |h: Option<&str>| h.map(str::to_string);
    match e {
        HttpEvidence::None => R::None,
        HttpEvidence::Request { host: h } => R::Request { host: host(h) },
        HttpEvidence::Response => R::Response,
        HttpEvidence::RequestHeaders { host: h } => R::RequestHeaders { host: host(h) },
        HttpEvidence::ResponseHeaders => R::ResponseHeaders,
    }
}

/// Needles: every method, the protocol tag and a status line, every
/// header name, and near misses of `Host: `.
const NEEDLES: &[&[u8]] = &[
    b"GET ", b"HEAD ", b"POST ", b"PUT ", b"DELETE ", b"OPTIONS ", b"CONNECT ",
    b"HTTP/1.", b"HTTP/1.1 200 OK",
    b"Host: ", b"User-Agent: ", b"Accept: ", b"Referer: ", b"Cookie: ",
    b"Server: ", b"Content-Type: ", b"Access-Control-Allow-Methods: ", b"Set-Cookie: ",
    b"Content-Length: ",
    b"H", b"Ho", b"Host:", b"",
];

/// What may follow a needle: authorities with and without a port, a bare
/// port, a non-ASCII byte, junk and nothing.
const VALUES: &[&[u8]] =
    &[b"", b"www.x.example", b"a-b:8080", b"Z9", b":8080", b"\xff", b" /", b"x y"];

/// Line ends, including none.
const ENDS: &[&[u8]] = &[b"", b"\r", b"\n", b"\r\n"];

/// Payloads stitched from (needle, value, line end) pieces.
fn soup() -> impl Strategy<Value = Vec<u8>> {
    let piece = (0..NEEDLES.len(), 0..VALUES.len(), 0..ENDS.len());
    proptest::collection::vec(piece, 0..12).prop_map(|pieces| {
        pieces
            .into_iter()
            .flat_map(|(n, v, e)| [NEEDLES[n], VALUES[v], ENDS[e]])
            .flatten()
            .copied()
            .take(160)
            .collect()
    })
}

fn assert_agrees(payload: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        owned(classify(payload)),
        reference::classify(payload),
        "payload {:?}",
        String::from_utf8_lossy(payload)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The single-pass matcher agrees with the reference classifier on
    /// arbitrary bytes.
    #[test]
    fn http_classifier_matches_reference_on_arbitrary_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        assert_agrees(&payload)?;
    }

    /// ... and on payloads stitched from needles, line ends and near
    /// misses, cut at every length.
    #[test]
    fn http_classifier_matches_reference_on_needle_soup(payload in soup()) {
        for cut in 0..=payload.len() {
            assert_agrees(payload.get(..cut).unwrap_or_default())?;
        }
    }
}

proptest! {
    /// The HTTP string matcher never panics and never extracts an invalid
    /// Host value from arbitrary bytes.
    #[test]
    fn http_classifier_total(payload in proptest::collection::vec(any::<u8>(), 0..160)) {
        match classify(&payload) {
            HttpEvidence::Request { host } | HttpEvidence::RequestHeaders { host } => {
                if let Some(h) = host {
                    prop_assert!(!h.is_empty());
                    prop_assert!(h.len() <= 253);
                    prop_assert!(h.chars().all(|c| c.is_ascii_alphanumeric() || ".-".contains(c)));
                }
            }
            HttpEvidence::Response | HttpEvidence::ResponseHeaders | HttpEvidence::None => {}
        }
    }

    /// Valid requests with arbitrary (well-formed) hosts round-trip through
    /// the matcher.
    #[test]
    fn http_classifier_extracts_wellformed_hosts(
        label in "[a-z][a-z0-9-]{0,10}[a-z0-9]",
        tld in "[a-z]{2,7}",
    ) {
        let domain = format!("{label}.{tld}");
        let payload = format!("GET /x HTTP/1.1\r\nHost: {domain}\r\nAccept: */*\r\n\r\n");
        match classify(payload.as_bytes()) {
            HttpEvidence::Request { host } => prop_assert_eq!(host, Some(domain.as_str())),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// The scan is total over arbitrary byte blobs (never panics) and the
    /// cascade shares always form a partition.
    #[test]
    fn scan_is_total_and_partitions(
        blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 1..40),
        members in 1u32..100,
    ) {
        let mut scan = WeekScan::new(Week::REFERENCE, members);
        for blob in &blobs {
            scan.ingest(blob);
            scan.ingest_sample(16_384, blob.len() as u32, blob);
        }
        let total = scan.filter.total();
        let sum: u64 = Category::ALL.iter().map(|c| scan.filter.get(*c).bytes).sum();
        prop_assert_eq!(total.bytes, sum);
        if total.bytes > 0 {
            let share_sum: f64 = Category::ALL.iter().map(|c| scan.filter.share(*c)).sum();
            prop_assert!((share_sum - 100.0).abs() < 1e-6);
        }
    }

    /// Traffic accounting is additive: splitting a sample stream in two and
    /// merging the estimates equals scanning the whole stream.
    #[test]
    fn filter_report_is_additive(
        frames in proptest::collection::vec((60u32..1514, 1u32..64), 2..30),
        split in any::<proptest::sample::Index>(),
    ) {
        // Use simple valid ARP frames so categorization is deterministic.
        let make = |len: u32| -> Vec<u8> {
            let mut buf = vec![0u8; 60];
            buf[12] = 0x08;
            buf[13] = 0x06; // ARP
            let _ = len;
            buf
        };
        let k = split.index(frames.len().max(1)).max(1);
        let mut whole = WeekScan::new(Week::REFERENCE, 5);
        let mut a = WeekScan::new(Week::REFERENCE, 5);
        let mut b = WeekScan::new(Week::REFERENCE, 5);
        for (i, (len, rate)) in frames.iter().enumerate() {
            let f = make(*len);
            whole.ingest_sample(*rate * 100, *len, &f);
            if i < k {
                a.ingest_sample(*rate * 100, *len, &f);
            } else {
                b.ingest_sample(*rate * 100, *len, &f);
            }
        }
        let merged = a.filter.get(Category::OtherL3) + b.filter.get(Category::OtherL3);
        prop_assert_eq!(merged, whole.filter.get(Category::OtherL3));
    }
}

/// Every peering-TCP payload of the tiny-scale reference week gets the
/// reference classifier's verdict and host.
#[test]
fn http_classifier_matches_reference_on_the_reference_week() {
    let model = InternetModel::generate(ScaleConfig::tiny(), 2012);
    let members = model.registry.members_at(Week::REFERENCE).len() as u32;
    let member = |mac| member_of(mac).filter(|m| m.0 < members);
    let stream = WeekStream::new(&model, MixConfig::default(), Week::REFERENCE, model.seed);
    let (mut payloads, mut hits) = (0u64, 0u64);
    for bytes in stream {
        let dg = Datagram::decode(&bytes).expect("generated datagrams decode");
        for s in &dg.samples {
            let Ok(d) = Dissection::parse(&s.record.header) else { continue };
            let peering = matches!((member(d.src_mac), member(d.dst_mac)), (Some(a), Some(b)) if a != b);
            let Network::Ipv4 { transport: Transport::Tcp { .. }, payload, .. } = d.network else {
                continue;
            };
            if !peering {
                continue;
            }
            let verdict = owned(classify(payload));
            assert_eq!(verdict, reference::classify(payload), "payload {:?}", String::from_utf8_lossy(payload));
            payloads += 1;
            hits += u64::from(verdict != reference::HttpEvidence::None);
        }
    }
    assert!(payloads > 10_000, "only {payloads} peering-TCP payloads");
    assert!(hits > 1_000, "only {hits} HTTP payloads");
}
