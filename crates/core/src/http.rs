//! HTTP string matching over 128-byte payload snippets (paper §2.2.2).
//!
//! Two pattern families, exactly as the paper describes:
//!
//! 1. **initial-line patterns** — request method words (`GET`, `HEAD`,
//!    `POST`, …) followed by a path and `HTTP/1.{0,1}`, and response status
//!    lines `HTTP/1.{0,1} <code>`;
//! 2. **header-field patterns** — well-known header names (`Host:`,
//!    `Server:`, `Access-Control-Allow-Methods:`, …) anywhere in the
//!    snippet.
//!
//! A match also decides *which endpoint is the server*: a request line or a
//! `Host:` header implicates the destination; a status line or `Server:`
//! header implicates the source.

/// What the matcher found in one payload snippet. The Host value borrows
/// the snippet's bytes, so classifying a request allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpEvidence<'a> {
    /// Nothing HTTP-like.
    None,
    /// A request: the destination is a server. The Host value, if it was
    /// recoverable from the snippet, identifies the URI authority.
    Request {
        /// Value of the `Host:` header, when present in the snippet.
        host: Option<&'a str>,
    },
    /// A response: the source is a server.
    Response,
    /// Header fields only, implicating the destination (request headers).
    RequestHeaders {
        /// Value of the `Host:` header, when present.
        host: Option<&'a str>,
    },
    /// Header fields only, implicating the source (response headers).
    ResponseHeaders,
}

const METHODS: [&[u8]; 7] =
    [b"GET ", b"HEAD ", b"POST ", b"PUT ", b"DELETE ", b"OPTIONS ", b"CONNECT "];

/// The protocol tag: a status line starts with it, a request line must
/// carry it somewhere in the snippet.
const HTTP_TAG: &[u8] = b"HTTP/1.";

const HOST: &[u8] = b"Host: ";

/// Scan one payload snippet in a single pass.
///
/// Verdicts, in precedence order: a request method at the start plus the
/// protocol tag anywhere (the tag may be cut off for very long request
/// targets; then the headers decide); a status line at the start; any
/// response header anywhere; any request header anywhere. Every position
/// dispatches on its first byte to the few needles that start with it.
pub fn classify(payload: &[u8]) -> HttpEvidence<'_> {
    if payload.len() < 4 {
        return HttpEvidence::None;
    }
    if payload.starts_with(HTTP_TAG) {
        return HttpEvidence::Response;
    }
    let is_method = METHODS.iter().any(|m| payload.starts_with(m));
    let mut has_tag = false;
    let mut has_request_header = false;
    let mut has_response_header = false;
    // The snippet from the first `Host: ` on.
    let mut host_at: Option<&[u8]> = None;
    let mut rest = payload;
    while let Some((&first, tail)) = rest.split_first() {
        match first {
            b'H' => {
                if rest.starts_with(HTTP_TAG) {
                    has_tag = true;
                } else if rest.starts_with(HOST) {
                    has_request_header = true;
                    host_at.get_or_insert(rest);
                }
            }
            b'U' => has_request_header |= rest.starts_with(b"User-Agent: "),
            b'A' => {
                has_request_header |= rest.starts_with(b"Accept: ");
                has_response_header |= rest.starts_with(b"Access-Control-Allow-Methods: ");
            }
            b'R' => has_request_header |= rest.starts_with(b"Referer: "),
            b'C' => {
                has_request_header |= rest.starts_with(b"Cookie: ");
                has_response_header |=
                    rest.starts_with(b"Content-Type: ") || rest.starts_with(b"Content-Length: ");
            }
            b'S' => {
                has_response_header |=
                    rest.starts_with(b"Server: ") || rest.starts_with(b"Set-Cookie: ");
            }
            _ => {}
        }
        rest = tail;
    }
    let host = || host_at.and_then(host_value);
    if is_method && has_tag {
        HttpEvidence::Request { host: host() }
    } else if has_response_header {
        HttpEvidence::ResponseHeaders
    } else if has_request_header {
        HttpEvidence::RequestHeaders { host: host() }
    } else {
        HttpEvidence::None
    }
}

/// The Host value of a `Host: ` header line if the whole line fits the
/// snippet and is a plausible authority, with any explicit port stripped.
fn host_value(line: &[u8]) -> Option<&str> {
    let value = line.strip_prefix(HOST)?;
    let end = value.iter().position(|b| *b == b'\r' || *b == b'\n')?;
    let value = value.get(..end)?;
    if value.is_empty() || value.len() > 253 {
        return None;
    }
    if !value.iter().all(|b| b.is_ascii_alphanumeric() || b".-:".contains(b)) {
        return None;
    }
    let name = value.split(|b| *b == b':').next()?;
    std::str::from_utf8(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_requests_and_extracts_host() {
        let p = b"GET /index.html HTTP/1.1\r\nHost: www.foo.example\r\nAccept: */*\r\n\r\n";
        match classify(p) {
            HttpEvidence::Request { host } => {
                assert_eq!(host, Some("www.foo.example"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn classifies_responses() {
        let p = b"HTTP/1.1 200 OK\r\nServer: nginx\r\nContent-Type: text/html\r\n\r\n<html>";
        assert_eq!(classify(p), HttpEvidence::Response);
    }

    #[test]
    fn header_only_frames_are_attributed_by_direction() {
        let req = b"sdfsd\r\nHost: a.b.example\r\nCookie: x=1\r\n";
        match classify(req) {
            HttpEvidence::RequestHeaders { host } => {
                assert_eq!(host, Some("a.b.example"));
            }
            other => panic!("{other:?}"),
        }
        let resp = b"junk\r\nServer: Apache\r\nSet-Cookie: s=2\r\n";
        assert_eq!(classify(resp), HttpEvidence::ResponseHeaders);
    }

    #[test]
    fn binary_payloads_do_not_match() {
        let tls = [0x17u8, 0x03, 0x03, 0x00, 0x40, 0x99, 0x81, 0xaa, 0xbb];
        assert_eq!(classify(&tls), HttpEvidence::None);
        let content: Vec<u8> = (0..100).map(|i| 0x80u8 | i).collect();
        assert_eq!(classify(&content), HttpEvidence::None);
    }

    #[test]
    fn truncated_host_is_dropped() {
        let p = b"GET / HTTP/1.1\r\nHost: www.very-long-na"; // cut mid-value
        match classify(p) {
            HttpEvidence::Request { host } => assert_eq!(host, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn host_with_port_is_stripped() {
        let p = b"GET / HTTP/1.1\r\nHost: foo.example:8080\r\n";
        match classify(p) {
            HttpEvidence::Request { host } => assert_eq!(host, Some("foo.example")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_host_rejected() {
        let p = b"GET / HTTP/1.1\r\nHost: \xff\xfe\x01\r\n";
        match classify(p) {
            HttpEvidence::Request { host } => assert_eq!(host, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn short_payloads_are_none() {
        assert_eq!(classify(b""), HttpEvidence::None);
        assert_eq!(classify(b"GET"), HttpEvidence::None);
    }

    #[test]
    fn methods_without_protocol_tag_fall_to_headers() {
        let p = b"GET /something-that-goes-on-and-on";
        assert_eq!(classify(p), HttpEvidence::None);
    }
}
