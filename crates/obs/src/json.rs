//! Schema-versioned JSON snapshot exporter, plus a minimal parser.
//!
//! The exporter is hand-rolled, with no serialization dependency (same
//! idiom as `ixp-lint`'s JSON reporter).
//! Every value is an integer or a short string — no floats — so two equal
//! snapshots serialize to byte-identical documents. The schema is
//! versioned under the `"schema"` key; consumers must check it before
//! relying on field layout.
//!
//! The parser accepts the subset of JSON the exporter emits (and the lint
//! report emits): objects, arrays, strings with the common escapes,
//! unsigned integers, booleans and null. It exists so smoke tests and
//! tooling can read snapshots back without external dependencies.

use crate::metrics::{split_name, MetricValue, Snapshot};

/// Schema identifier written into every snapshot document.
pub const SCHEMA: &str = "ixp-obs/1";

/// Escape a string for a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize a snapshot to the versioned JSON document.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", escape(SCHEMA)));
    out.push_str("  \"metrics\": [");
    let mut first = true;
    for (name, value) in &snapshot.entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        match value {
            MetricValue::Counter(v) => out.push_str(&format!(
                "{{\"name\": \"{}\", \"kind\": \"counter\", \"value\": {v}}}",
                escape(name)
            )),
            MetricValue::Gauge(v) => out.push_str(&format!(
                "{{\"name\": \"{}\", \"kind\": \"gauge\", \"value\": {v}}}",
                escape(name)
            )),
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "{{\"name\": \"{}\", \"kind\": \"histogram\", \"count\": {}, \
                     \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                    escape(name),
                    h.count,
                    h.sum,
                    h.p50,
                    h.p90,
                    h.p99
                ));
                for (i, c) in h.counts.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    match h.bounds.get(i) {
                        Some(le) => out.push_str(&format!("{{\"le\": {le}, \"count\": {c}}}")),
                        None => out.push_str(&format!("{{\"le\": \"+Inf\", \"count\": {c}}}")),
                    }
                }
                out.push_str("]}");
            }
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// A parsed JSON value (the subset the exporters emit).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (the exporters never emit floats or negatives).
    Num(u64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Returns `None` on any syntax error or trailing
/// garbage.
pub fn parse(input: &str) -> Option<Value> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Option<Value> {
        let end = self.pos.checked_add(word.len())?;
        if self.bytes.get(self.pos..end)? == word.as_bytes() {
            self.pos = end;
            Some(value)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Value::Str),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn number(&mut self) -> Option<Value> {
        let mut n: u64 = 0;
        let mut any = false;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            n = n
                .checked_mul(10)?
                .checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
            any = true;
        }
        if any {
            Some(Value::Num(n))
        } else {
            None
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let end = self.pos.checked_add(4)?;
                        let hex = self.bytes.get(self.pos..end)?;
                        let hex = std::str::from_utf8(hex).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        self.pos = end;
                    }
                    _ => return None,
                },
                b => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos.checked_sub(1)?;
                        let mut end = self.pos;
                        while self.bytes.get(end).is_some_and(|x| x & 0xC0 == 0x80) {
                            end += 1;
                        }
                        let chunk = self.bytes.get(start..end)?;
                        out.push_str(std::str::from_utf8(chunk).ok()?);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Some(Value::Arr(items)),
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Some(Value::Obj(members)),
                _ => return None,
            }
        }
    }
}

/// Find a metric object by name inside a parsed snapshot document.
pub fn find_metric<'v>(doc: &'v Value, name: &str) -> Option<&'v Value> {
    doc.get("metrics")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
}

/// All family names present in a parsed snapshot (label blocks stripped),
/// for required-family smoke checks.
pub fn families(doc: &Value) -> Vec<String> {
    let mut out: Vec<String> = doc
        .get("metrics")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str))
        .map(|n| split_name(n).0.to_string())
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("sflow_datagrams_total").add(12);
        r.gauge("sflow_sources").set(3);
        let h = r.histogram("core_stage_duration_ns{stage=\"scan\"}", &[100, 1000]);
        h.observe(50);
        h.observe(5000);
        r.snapshot()
    }

    #[test]
    fn render_parse_roundtrip() {
        let doc = render(&sample());
        let v = parse(&doc).expect("exporter output must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        let dg = find_metric(&v, "sflow_datagrams_total").expect("metric present");
        assert_eq!(dg.get("kind").and_then(Value::as_str), Some("counter"));
        assert_eq!(dg.get("value").and_then(Value::as_u64), Some(12));
        let h = find_metric(&v, "core_stage_duration_ns{stage=\"scan\"}").expect("histogram");
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(2));
        let buckets = h.get("buckets").and_then(Value::as_arr).expect("buckets");
        assert_eq!(buckets.len(), 3);
        assert_eq!(
            buckets.last().and_then(|b| b.get("le")).and_then(Value::as_str),
            Some("+Inf")
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(render(&sample()), render(&sample()));
    }

    #[test]
    fn families_strips_labels() {
        let doc = parse(&render(&sample())).expect("parses");
        assert_eq!(
            families(&doc),
            vec![
                "core_stage_duration_ns".to_string(),
                "sflow_datagrams_total".to_string(),
                "sflow_sources".to_string(),
            ]
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert_eq!(parse("{"), None);
        assert_eq!(parse("{} trailing"), None);
        assert_eq!(parse("{\"a\": 01e5}"), None);
        assert_eq!(parse(""), None);
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse("{\"k\": \"a\\n\\\"b\\u0041ç\"}").expect("parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some("a\n\"bAç"));
    }

    #[test]
    fn escape_covers_control_chars() {
        assert_eq!(escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }
}
