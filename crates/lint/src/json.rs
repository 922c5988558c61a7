//! Machine-readable diagnostics: the `--format json` report.
//!
//! The emitter is hand-rolled (the linter is dependency-free); a minimal
//! parser rides along so tests — and the CI smoke check — can validate
//! that emitted reports round-trip.
//!
//! # Schema (version 3)
//!
//! ```json
//! {
//!   "version": 3,
//!   "tool": "ixp-lint",
//!   "rules": [
//!     { "id": "no-unwrap", "family": "L1", "severity": "error", "summary": "..." }
//!   ],
//!   "findings": [
//!     {
//!       "file": "crates/sflow/src/xdr.rs",
//!       "line": 42,
//!       "column": 9,
//!       "rule": "tainted-arith",
//!       "family": "L6",
//!       "severity": "error",
//!       "message": "..."
//!     }
//!   ],
//!   "notes": ["stale baseline: ..."],
//!   "summary": { "total": 1, "by_rule": { "tainted-arith": 1 } }
//! }
//! ```
//!
//! `rules` lists the full registry (every rule the linter ran, not just
//! those that fired), so consumers can discover families and ids without
//! parsing `--explain` output — the CI smoke check greps it for the L8
//! ids. `findings` is sorted (file, line, rule); `column` is 1-based and
//! 0 when unknown; `family` is `L1`..`L11` or `meta`; `severity` is
//! currently always `error` (the field exists so future advisory rules
//! do not need a schema bump).
//!
//! Version 2 added the `rules` array. Version 3 extends the family set
//! with `L9` (accounting conservation), `L10` (checkpoint-codec
//! symmetry), and `L11` (error-flow completeness); the report shape is
//! unchanged, but consumers keying on the family enumeration must
//! re-sync, so the version is bumped.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rules;
use crate::Finding;

/// Escape a string for embedding in a JSON string literal.
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the full diagnostics report.
pub fn report(findings: &[Finding], notes: &[String]) -> String {
    let mut out = String::from("{\n  \"version\": 3,\n  \"tool\": \"ixp-lint\",\n  \"rules\": [");
    for (i, r) in rules::RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": \"{}\", \"family\": \"{}\", \"severity\": \"{}\", \
             \"summary\": \"{}\"}}",
            escape(r.id),
            r.family,
            r.severity,
            escape(r.summary),
        );
    }
    out.push_str("\n  ],\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let info = rules::rule_info(f.rule);
        let (family, severity) =
            info.map(|r| (r.family, r.severity)).unwrap_or(("meta", "error"));
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"file\": \"{}\", \"line\": {}, \"column\": {}, \"rule\": \"{}\", \
             \"family\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"}}",
            escape(&f.file),
            f.line,
            f.col,
            escape(f.rule),
            family,
            severity,
            escape(&f.message),
        );
    }
    if findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"notes\": [");
    for (i, n) in notes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", escape(n));
    }
    out.push_str("],\n");
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *by_rule.entry(f.rule).or_insert(0) += 1;
    }
    let _ = write!(out, "  \"summary\": {{\"total\": {}, \"by_rule\": {{", findings.len());
    for (i, (rule, count)) in by_rule.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", escape(rule), count);
    }
    out.push_str("}}\n}\n");
    out
}

/// A parsed JSON value (the subset the report uses).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key-ordered.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
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

    /// The numeric payload as u64, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let v = parse_value(&bytes, &mut pos)?;
    skip_ws(&bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| c.is_whitespace()) {
        *pos += 1;
    }
}

fn expect(b: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{c}` at offset {pos}"))
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ':')?;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some('"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some('t') if matches(b, *pos, "true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some('f') if matches(b, *pos, "false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some('n') if matches(b, *pos, "null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => parse_number(b, pos),
        _ => Err(format!("unexpected character at offset {pos}")),
    }
}

fn matches(b: &[char], pos: usize, word: &str) -> bool {
    word.chars().enumerate().all(|(i, c)| b.get(pos + i) == Some(&c))
}

fn parse_string(b: &[char], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, '"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(out),
            '\\' => {
                let esc = b.get(*pos).copied();
                *pos += 1;
                match esc {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = b
                                .get(*pos)
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| format!("bad \\u escape at offset {pos}"))?;
                            code = code * 16 + d;
                            *pos += 1;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[char], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&'-') {
        *pos += 1;
    }
    while b
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
    {
        *pos += 1;
    }
    let text: String = b
        .get(start..*pos)
        .map(|cs| cs.iter().collect())
        .unwrap_or_default();
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("bad number at offset {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let findings = vec![
            Finding::at("crates/a/src/x.rs", 3, 5, "no-unwrap", "msg with \"quotes\""),
            Finding::at("crates/a/src/x.rs", 9, 1, "no-unwrap", "second"),
        ];
        let notes = vec!["a note".to_string()];
        let text = report(&findings, &notes);
        let v = parse(&text).unwrap();
        assert_eq!(v.get("version").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("tool").and_then(Value::as_str), Some("ixp-lint"));
        let rules_arr = v.get("rules").and_then(Value::as_arr).unwrap();
        assert_eq!(rules_arr.len(), crate::rules::RULES.len());
        assert!(rules_arr.iter().any(|r| {
            r.get("id").and_then(Value::as_str) == Some("lock-order-cycle")
                && r.get("family").and_then(Value::as_str) == Some("L8")
        }));
        let fs = v.get("findings").and_then(Value::as_arr).unwrap();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].get("line").and_then(Value::as_u64), Some(3));
        assert_eq!(fs[0].get("column").and_then(Value::as_u64), Some(5));
        assert_eq!(fs[0].get("family").and_then(Value::as_str), Some("L1"));
        assert_eq!(fs[0].get("severity").and_then(Value::as_str), Some("error"));
        assert_eq!(
            fs[0].get("message").and_then(Value::as_str),
            Some("msg with \"quotes\"")
        );
        let summary = v.get("summary").unwrap();
        assert_eq!(summary.get("total").and_then(Value::as_u64), Some(2));
        assert_eq!(
            summary.get("by_rule").and_then(|m| m.get("no-unwrap")).and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(v.get("notes").and_then(Value::as_arr).map(<[Value]>::len), Some(1));
    }

    #[test]
    fn empty_report_is_valid() {
        let v = parse(&report(&[], &[])).unwrap();
        assert_eq!(v.get("summary").and_then(|s| s.get("total")).and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("findings").and_then(Value::as_arr).map(<[Value]>::len), Some(0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("{} extra").is_err());
    }
}
