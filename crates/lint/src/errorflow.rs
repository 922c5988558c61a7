//! L11: error-flow completeness analysis (`error-sink`).
//!
//! Every `Result` produced on a stream-facing path must go somewhere
//! deliberate: propagated with `?`, matched and converted into a counted
//! metric/bucket, or vouched with an inline `allow(error-sink)` naming
//! why the error is genuinely ignorable. What it must never do is
//! evaporate — `let _ = fallible()`, a bare `fallible().ok();`, or
//! `fallible().unwrap_or_default()` turn a decode/restore failure into
//! silence, which is exactly the "silently lost datagram" failure mode
//! the conservation invariant (L9) exists to prevent.
//!
//! **Fallibility** is interprocedural, reusing the L6 symbol-table
//! machinery: a call site is fallible when it resolves to a workspace
//! `fn` whose signature returns `Result<..>` (the return types are
//! recovered by a token scan over each `fn` signature), or when its
//! final path segment is a known fallible decode/restore primitive
//! (`Cur` widths, `decode`, `restore*`, `open`, `finish`) — those seeds
//! keep the pass sound across the `Reader`/`Cur` trait boundary where
//! resolution has nothing to bind to.
//!
//! **Sinks** are judged per statement, inside non-test fns of the
//! stream-facing crates:
//!
//! * `let _ = <stmt containing a fallible call>;`
//! * a statement ending in a bare `.ok();` whose chain contains a
//!   fallible call (using `.ok()` to *convert and consume* the Option —
//!   `if let Some(x) = f().ok()` — is not a sink);
//! * `.unwrap_or_default()` applied downstream of a fallible call,
//!   which silently substitutes a zero value for a decode error.

use crate::lexer::{Kind, Lexed};
use crate::parser::ParsedFile;
use crate::symbols::SymbolTable;
use crate::Finding;

/// Crates whose `src/` trees are stream-facing, plus the shared codec
/// that reads sealed files back off disk.
fn in_scope(path: &str) -> bool {
    for crate_dir in ["wire", "sflow", "supervisor", "core", "faults", "transport"] {
        if path.starts_with(&format!("crates/{crate_dir}/src/")) {
            return true;
        }
    }
    path == "crates/obs/src/codec.rs"
}

/// Final path segments that are fallible even when unresolvable.
const SEED_FALLIBLE: &[&str] = &[
    "bool", "bytes", "count", "decode", "finish", "open", "restore", "restore_from",
    "restore_state", "str", "u128", "u16", "u32", "u64", "u8",
];

/// Per-file map of `fn`-name positions to "returns `Result`", recovered
/// by scanning each signature between the parameter list and the body.
fn result_fns(lexed: &Lexed) -> Vec<(String, u32, u32)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        let is_fn = matches!(&toks[i].kind, Kind::Ident(k) if k == "fn");
        if !is_fn {
            i += 1;
            continue;
        }
        let Some(Kind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) else {
            i += 1;
            continue;
        };
        let (name, line, col) = (name.clone(), toks[i + 1].line, toks[i + 1].col);
        // Scan the signature: past generics/params to `{` or `;`, looking
        // for `-> ... Result`. Depth-track parens so fn-pointer params
        // and tuple returns do not derail the walk.
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut arrow = false;
        let mut returns_result = false;
        while let Some(t) = toks.get(j) {
            match &t.kind {
                Kind::Punct('(') => paren += 1,
                Kind::Punct(')') => paren -= 1,
                Kind::Punct('<') => angle += 1,
                Kind::Punct('>') => angle -= 1,
                Kind::Arrow if paren == 0 => arrow = true,
                Kind::Ident(s) if arrow && s == "Result" => returns_result = true,
                Kind::Punct('{') | Kind::Punct(';') if paren == 0 && angle <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if returns_result {
            out.push((name, line, col));
        }
        i = j.max(i + 1);
    }
    out
}

/// Run the pass over the workspace.
pub fn check(
    files: &[ParsedFile],
    lexed: &[Lexed],
    table: &SymbolTable,
    out: &mut Vec<Finding>,
) {
    // (file_idx, fn_idx) -> returns Result, matched by name-token position.
    let per_file_results: Vec<Vec<(String, u32, u32)>> =
        lexed.iter().map(result_fns).collect();
    let mut returns_result = std::collections::HashSet::new();
    for (fi, file) in files.iter().enumerate() {
        for (xi, f) in file.fns.iter().enumerate() {
            if per_file_results[fi]
                .iter()
                .any(|(n, l, c)| *n == f.name && *l == f.line && *c == f.col)
            {
                returns_result.insert((fi, xi));
            }
        }
    }

    for (fi, file) in files.iter().enumerate() {
        if !in_scope(&file.path) {
            continue;
        }
        let toks = &lexed[fi].tokens;
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            let Some((b0, b1)) = f.body else { continue };
            let b1 = b1.min(toks.len());
            // Call-site token indexes that are fallible, for cheap
            // "does this statement contain one" range checks.
            let fallible: Vec<usize> = f
                .calls
                .iter()
                .filter(|c| {
                    let last = c.path.last().map(String::as_str).unwrap_or("");
                    SEED_FALLIBLE.contains(&last)
                        || table
                            .resolve(c, file, f)
                            .iter()
                            .any(|r| returns_result.contains(r))
                })
                .map(|c| c.tok)
                .collect();
            let stmt_has_fallible = |from: usize, to: usize| {
                fallible.iter().any(|&t| t >= from && t < to)
            };
            // Statement start: just past the previous `;`/`{`/`}`.
            let stmt_start = |at: usize| {
                let mut k = at;
                while k > b0 + 1 {
                    if matches!(toks[k - 1].kind, Kind::Punct(';' | '{' | '}')) {
                        break;
                    }
                    k -= 1;
                }
                k
            };
            // Statement end: the next `;` (or the body's end).
            let stmt_end = |at: usize| {
                let mut k = at;
                while k < b1 {
                    if matches!(toks[k].kind, Kind::Punct(';')) {
                        break;
                    }
                    k += 1;
                }
                k
            };

            let mut i = b0 + 1;
            while i < b1 {
                match &toks[i].kind {
                    // `let _ = <fallible>;`
                    Kind::Ident(k) if k == "let" => {
                        let underscore = matches!(
                            toks.get(i + 1).map(|t| &t.kind),
                            Some(Kind::Ident(u)) if u == "_"
                        );
                        let assigned = matches!(
                            toks.get(i + 2).map(|t| &t.kind),
                            Some(Kind::Punct('='))
                        );
                        if underscore && assigned {
                            let end = stmt_end(i);
                            if stmt_has_fallible(i, end) {
                                out.push(Finding::at(
                                    &file.path,
                                    toks[i].line,
                                    toks[i].col,
                                    "error-sink",
                                    &format!(
                                        "`let _ =` discards a `Result` from a fallible call \
                                         in fn `{}`; propagate with `?`, count the error, \
                                         or vouch with allow(error-sink)",
                                        f.name
                                    ),
                                ));
                                i = end;
                            }
                        }
                    }
                    // bare `.ok();` and `.unwrap_or_default()`
                    Kind::Ident(k) if k == "ok" || k == "unwrap_or_default" => {
                        let after_dot =
                            i > 0 && matches!(toks[i - 1].kind, Kind::Punct('.'));
                        let closed_call = matches!(
                            toks.get(i + 1).map(|t| &t.kind),
                            Some(Kind::Punct('('))
                        ) && matches!(
                            toks.get(i + 2).map(|t| &t.kind),
                            Some(Kind::Punct(')'))
                        );
                        // `.ok()` is only a sink when the Option is
                        // dropped on the floor (statement ends here).
                        let discards = k == "unwrap_or_default"
                            || matches!(
                                toks.get(i + 3).map(|t| &t.kind),
                                Some(Kind::Punct(';'))
                            );
                        if after_dot
                            && closed_call
                            && discards
                            && stmt_has_fallible(stmt_start(i), i)
                        {
                            let what = if k == "ok" {
                                "a bare `.ok()` discards the error of a fallible call"
                            } else {
                                "`unwrap_or_default()` silently replaces a decode/restore \
                                 error with a zero value"
                            };
                            out.push(Finding::at(
                                &file.path,
                                toks[i].line,
                                toks[i].col,
                                "error-sink",
                                &format!(
                                    "{what} in fn `{}`; propagate with `?`, count the \
                                     error, or vouch with allow(error-sink)",
                                    f.name
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::scan_sources;

    fn scan(path: &str, src: &str) -> Vec<(u32, String)> {
        scan_sources(vec![(path.to_string(), src.to_string())])
            .into_iter()
            .filter(|f| f.rule == "error-sink")
            .map(|f| (f.line, f.message))
            .collect()
    }

    const HELPER: &str = "fn parse(d: &[u8]) -> Result<u64, E> {\n\
                          if d.is_empty() { return Err(E); }\n\
                          Ok(1)\n\
                          }\n";

    #[test]
    fn let_underscore_on_fallible_call_is_a_sink() {
        let src = format!("{HELPER}pub fn drain(d: &[u8]) {{\nlet _ = parse(d);\n}}\n");
        let hits = scan("crates/sflow/src/s.rs", &src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].1.contains("let _ ="));
    }

    #[test]
    fn bare_ok_and_unwrap_or_default_are_sinks() {
        let src = format!(
            "{HELPER}pub fn drain(d: &[u8]) -> u64 {{\n\
             parse(d).ok();\n\
             parse(d).unwrap_or_default()\n\
             }}\n"
        );
        let hits = scan("crates/sflow/src/s.rs", &src);
        assert_eq!(hits.len(), 2, "{hits:?}");
    }

    #[test]
    fn seed_fallible_primitives_need_no_resolution() {
        let src = "pub fn peek(cur: &mut Cur<'_>) {\nlet _ = cur.u64();\n}\n";
        let hits = scan("crates/supervisor/src/s.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        // The shared codec reads sealed files back off disk: in scope too.
        let hits = scan("crates/obs/src/codec.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn propagation_match_and_used_ok_are_clean() {
        let src = format!(
            "{HELPER}pub fn fwd(d: &[u8]) -> Result<u64, E> {{\n\
             let v = parse(d)?;\n\
             match parse(d) {{ Ok(x) => Ok(x + v), Err(e) => Err(e) }}\n\
             }}\n\
             pub fn opt(d: &[u8]) -> Option<u64> {{\n\
             parse(d).ok()\n\
             }}\n\
             pub fn infallible() {{\n\
             let _ = total(3);\n\
             }}\n\
             fn total(x: u64) -> u64 {{ x }}\n"
        );
        let hits = scan("crates/sflow/src/s.rs", &src);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn out_of_scope_and_tests_are_exempt() {
        let src = format!("{HELPER}pub fn drain(d: &[u8]) {{\nlet _ = parse(d);\n}}\n");
        assert!(scan("crates/dns/src/s.rs", &src).is_empty());
        let test_src = format!(
            "{HELPER}#[cfg(test)]\nmod tests {{\n\
             fn drain(d: &[u8]) {{ let _ = super::parse(d); }}\n\
             }}\n"
        );
        assert!(scan("crates/sflow/src/s.rs", &test_src).is_empty());
    }

    #[test]
    fn allow_directive_vouches_a_sink() {
        let src = format!(
            "{HELPER}pub fn drain(d: &[u8]) {{\n\
             // ixp-lint: allow(error-sink) best-effort probe, failure is expected\n\
             let _ = parse(d);\n\
             }}\n"
        );
        assert!(scan("crates/sflow/src/s.rs", &src).is_empty());
    }
}
