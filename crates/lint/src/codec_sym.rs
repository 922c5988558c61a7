//! L10: checkpoint-codec symmetry analysis (`codec-asymmetry`,
//! `schema-drift`).
//!
//! Crash recovery (DESIGN.md §11) depends on every versioned
//! encode/decode pair staying *mirror images*: the ordered list of field
//! writes in `save` must equal the ordered list of field reads in
//! `restore`, or a checkpoint written today is garbage after the next
//! refactor. This pass holds that property statically, per entry of a
//! hand-maintained [`REGISTRY`] of writer/reader pairs:
//!
//! * **field-sequence symmetry** — both bodies are abstracted to a
//!   sequence of width symbols (`u8 bool u16 u32 u64 u128 bytes str`),
//!   loop brackets (`for`/`while`/`loop` bodies become `L( … )L`, so a
//!   writer loop must be mirrored by a reader loop), and nested-codec
//!   markers (a call to `save`/`save_state`/`checkpoint` must line up
//!   with a call to `restore`/`restore_from`/`restore_state`). A reader
//!   `count(..)` normalizes to `u64` — it reads the writer's `put_u64`
//!   length prefix. Any divergence is a `codec-asymmetry` finding naming
//!   the first mismatched step.
//! * **version discipline** — when the entry names a version const, both
//!   bodies must mention it and must put/read it first as a `u32`;
//!   sealed pairs must call `seal`/`open`. The frame those two calls
//!   write and verify is one shared function pair in `ixp_obs::codec`,
//!   held by its own corruption tests rather than by this pass.
//! * **schema-digest ratchet** (`schema-drift`) — an FNV-1a-64 digest of
//!   the writer's field sequence *including the written expressions* is
//!   pinned in the registry. Renaming, reordering, adding, or dropping a
//!   field changes the digest; the lint then fails until the author
//!   bumps the pair's format version and updates the pinned digest in
//!   the same change — the static analogue of "never change a schema
//!   without a version bump".
//! * **no unregistered codecs** — any non-test fn in the checkpoint
//!   crates that writes (≥ 2 `put_*`) or reads (≥ 2 numeric cursor
//!   widths) like a codec but is not in the registry is a
//!   `schema-drift` finding: new codecs must enter the ratchet.

use crate::cache;
use crate::lexer::{Kind, Lexed, Token};
use crate::parser::{FnItem, ParsedFile};
use crate::Finding;

/// One registered writer/reader pair.
pub struct CodecPair {
    /// Workspace-relative path holding both functions.
    pub file: &'static str,
    /// Writer `(owner, name)`; empty owner means a free function.
    pub writer: (&'static str, &'static str),
    /// Reader `(owner, name)`.
    pub reader: (&'static str, &'static str),
    /// Version const both bodies must mention and frame first as `u32`.
    pub version_ident: Option<&'static str>,
    /// Writer must call `seal(..)` and reader `open(..)`.
    pub sealed: bool,
    /// Pinned FNV-1a-64 digest of the writer's schema (see module docs).
    pub digest: u64,
}

/// Every checkpoint codec in the workspace, plus the lint fixture pair.
/// Adding an encode/decode pair anywhere else trips the unregistered
/// check until it is listed here with its digest.
pub const REGISTRY: &[CodecPair] = &[
    CodecPair {
        file: "crates/sflow/src/collector.rs",
        writer: ("Collector", "save_state"),
        reader: ("Collector", "restore_from"),
        version_ident: Some("COLLECTOR_STATE_VERSION"),
        sealed: false,
        digest: 0x4737_8e02_1aa4_1477,
    },
    CodecPair {
        file: "crates/core/src/scan.rs",
        writer: ("WeekScan", "save_state"),
        reader: ("WeekScan", "restore_state"),
        version_ident: Some("WEEKSCAN_STATE_VERSION"),
        sealed: false,
        digest: 0x22de_ae83_a9b7_4939,
    },
    CodecPair {
        file: "crates/supervisor/src/supervisor.rs",
        writer: ("Supervisor", "checkpoint"),
        reader: ("Supervisor", "restore"),
        version_ident: Some("SUPERVISOR_STATE_VERSION"),
        sealed: true,
        digest: 0xc63d_1bdf_57af_8ec1,
    },
    CodecPair {
        file: "crates/supervisor/src/ring.rs",
        writer: ("IntakeRing", "save"),
        reader: ("IntakeRing", "restore"),
        version_ident: None,
        sealed: false,
        digest: 0x7076_142d_6dc2_10c0,
    },
    CodecPair {
        file: "crates/supervisor/src/health.rs",
        writer: ("AgentHealth", "save"),
        reader: ("AgentHealth", "restore"),
        version_ident: None,
        sealed: false,
        digest: 0x5707_3053_7bbd_8dc7,
    },
    CodecPair {
        file: "crates/transport/src/intake.rs",
        writer: ("TransportIntake", "save_state"),
        reader: ("TransportIntake", "restore_from"),
        version_ident: Some("TRANSPORT_STATE_VERSION"),
        sealed: true,
        digest: 0x121e_bf91_a698_ea17,
    },
    // Lint fixture: deliberately asymmetric pair under tests/fixtures.
    CodecPair {
        file: "crates/supervisor/src/codec_pair.rs",
        writer: ("MiniState", "save"),
        reader: ("MiniState", "restore"),
        version_ident: None,
        sealed: false,
        digest: 0x87e1_f982_bd95_d560,
    },
];

/// `put_*` writers, normalized to their width symbol.
const PUT_OPS: &[(&str, &str)] = &[
    ("put_u8", "u8"),
    ("put_bool", "bool"),
    ("put_u16", "u16"),
    ("put_u32", "u32"),
    ("put_u64", "u64"),
    ("put_u128", "u128"),
    ("put_bytes", "bytes"),
    ("put_str", "str"),
];

/// Cursor readers, normalized. `count` reads a `put_u64` length prefix.
const CUR_OPS: &[(&str, &str)] = &[
    ("u8", "u8"),
    ("bool", "bool"),
    ("u16", "u16"),
    ("u32", "u32"),
    ("u64", "u64"),
    ("u128", "u128"),
    ("bytes", "bytes"),
    ("str", "str"),
    ("count", "u64"),
];

/// Calls that hand off to a nested codec on the writer side.
const NESTED_SAVE: &[&str] = &["save", "save_state", "checkpoint"];
/// ... and on the reader side.
const NESTED_RESTORE: &[&str] = &["restore", "restore_from", "restore_state"];

/// Numeric widths that count toward the unregistered-codec threshold
/// (`bytes`/`str`/`count` are common std method names and excluded).
const UNREG_NUMERIC: &[&str] = &["u8", "bool", "u16", "u32", "u64", "u128"];

/// Crates whose `src/` trees may hold checkpoint codecs.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/sflow/src/")
        || path.starts_with("crates/supervisor/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/transport/src/")
}

/// One abstract step of a codec body.
#[derive(Debug, Clone, PartialEq)]
enum Sym {
    /// A width symbol (`u64`, `bytes`, ...).
    Op(&'static str),
    LoopOpen,
    LoopClose,
    /// A nested-codec call, carrying the callee name for messages.
    Nested(String),
}

impl Sym {
    /// Rendering for findings and the digest canon.
    fn name(&self) -> String {
        match self {
            Sym::Op(o) => (*o).to_string(),
            Sym::LoopOpen => "loop{".to_string(),
            Sym::LoopClose => "}loop".to_string(),
            Sym::Nested(n) => format!("nested:{n}"),
        }
    }

    /// Equality for symmetry: any nested save lines up with any nested
    /// restore — the nested pair has its own registry entry.
    fn matches(&self, other: &Sym) -> bool {
        matches!((self, other), (Sym::Nested(_), Sym::Nested(_))) || self == other
    }
}

/// Textual form of one token, for the digest canon.
fn tok_text(t: &Token) -> String {
    match &t.kind {
        Kind::Ident(s) => s.clone(),
        Kind::Int => "#".to_string(),
        Kind::Float => "#.".to_string(),
        Kind::Str => "\"\"".to_string(),
        Kind::Char => "''".to_string(),
        Kind::Lifetime => "'_".to_string(),
        Kind::EqEq => "==".to_string(),
        Kind::Ne => "!=".to_string(),
        Kind::DotDot => "..".to_string(),
        Kind::PathSep => "::".to_string(),
        Kind::Arrow => "->".to_string(),
        Kind::FatArrow => "=>".to_string(),
        Kind::Punct(c) => c.to_string(),
    }
}

/// What one body walk produces.
struct Extract {
    syms: Vec<Sym>,
    /// Digest canon (writer side): symbols plus written expressions.
    canon: String,
    /// `put_*` call count (registered or not).
    puts: usize,
    /// Numeric cursor-read count (see [`UNREG_NUMERIC`]).
    numeric_reads: usize,
    /// Idents mentioned anywhere in the body.
    idents: Vec<String>,
}

/// The value expression of a `put_*` call: the tokens after the first
/// top-level comma of its argument list (`put_u64(out, self.shed)` →
/// `self.shed`). Feeds the schema digest so renames and reorders of the
/// *written fields* change it, while the output-buffer argument does not.
fn put_value_text(toks: &[Token], open: usize) -> String {
    let mut depth = 0usize;
    let mut i = open;
    let mut after_comma = false;
    let mut out = String::new();
    while i < toks.len() {
        match &toks[i].kind {
            Kind::Punct('(') | Kind::Punct('[') => depth += 1,
            Kind::Punct(')') | Kind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Kind::Punct(',') if depth == 1 => {
                after_comma = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        if after_comma && depth >= 1 {
            out.push_str(&tok_text(&toks[i]));
        }
        i += 1;
    }
    out
}

/// Walk one fn body and abstract it (see module docs). `writer` selects
/// `put_*` ops; otherwise cursor reads.
fn extract(toks: &[Token], body: (usize, usize), writer: bool) -> Extract {
    let mut ex = Extract {
        syms: Vec::new(),
        canon: String::new(),
        puts: 0,
        numeric_reads: 0,
        idents: Vec::new(),
    };
    let (b0, b1) = body;
    let mut depth = 0usize;
    let mut loop_depths: Vec<usize> = Vec::new();
    let mut pending_loop = false;
    let mut i = b0 + 1;
    while i < b1.min(toks.len()) {
        let t = &toks[i];
        match &t.kind {
            Kind::Punct('{') => {
                depth += 1;
                if pending_loop {
                    pending_loop = false;
                    loop_depths.push(depth);
                    ex.syms.push(Sym::LoopOpen);
                    ex.canon.push_str("|L(");
                }
            }
            Kind::Punct('}') => {
                if loop_depths.last() == Some(&depth) {
                    loop_depths.pop();
                    ex.syms.push(Sym::LoopClose);
                    ex.canon.push_str("|)L");
                }
                depth = depth.saturating_sub(1);
            }
            Kind::Ident(name) => {
                ex.idents.push(name.clone());
                match name.as_str() {
                    "for" | "while" | "loop" => pending_loop = true,
                    _ => {}
                }
                let called =
                    matches!(toks.get(i + 1).map(|t| &t.kind), Some(Kind::Punct('(')));
                let after_dot = i > b0 && matches!(toks[i - 1].kind, Kind::Punct('.'));
                let after_path =
                    i > b0 && matches!(toks[i - 1].kind, Kind::Punct('.') | Kind::PathSep);
                // `self.u64()` is the cursor implementing itself in terms
                // of narrower reads, not a codec consuming a cursor.
                let self_recv = after_dot
                    && i >= 2
                    && matches!(&toks[i - 2].kind, Kind::Ident(r) if r == "self");
                if called {
                    if writer {
                        // Checkpoint puts are free functions
                        // (`checkpoint::put_u64(out, v)`); method-style
                        // `out.put_u32(v)` is the sFlow XDR wire trait,
                        // a protocol codec outside the checkpoint ratchet.
                        if let Some((_, op)) = PUT_OPS
                            .iter()
                            .find(|(n, _)| n == name)
                            .filter(|_| !after_dot)
                        {
                            ex.puts += 1;
                            ex.syms.push(Sym::Op(op));
                            ex.canon.push('|');
                            ex.canon.push_str(op);
                            ex.canon.push('(');
                            ex.canon.push_str(&put_value_text(toks, i + 1));
                            ex.canon.push(')');
                        }
                        if after_path && NESTED_SAVE.contains(&name.as_str()) {
                            ex.syms.push(Sym::Nested(name.clone()));
                            ex.canon.push_str("|N:");
                            ex.canon.push_str(name);
                        }
                    } else {
                        if after_dot && !self_recv {
                            if let Some((_, op)) =
                                CUR_OPS.iter().find(|(n, _)| n == name)
                            {
                                // `count(min)` takes an argument; std's
                                // argless `Iterator::count()` does not and
                                // stays out of the codec-shape threshold.
                                let with_arg = !matches!(
                                    toks.get(i + 2).map(|t| &t.kind),
                                    Some(Kind::Punct(')'))
                                );
                                let numeric = if name == "count" {
                                    with_arg
                                } else {
                                    UNREG_NUMERIC.contains(op)
                                };
                                if numeric {
                                    ex.numeric_reads += 1;
                                }
                                if name != "count" || with_arg {
                                    ex.syms.push(Sym::Op(op));
                                }
                            }
                        }
                        if after_path && NESTED_RESTORE.contains(&name.as_str()) {
                            ex.syms.push(Sym::Nested(name.clone()));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    ex
}

/// Find a registered fn inside one parsed file.
fn find_fn<'a>(file: &'a ParsedFile, owner: &str, name: &str) -> Option<&'a FnItem> {
    file.fns.iter().find(|f| {
        !f.in_test
            && f.name == name
            && match (&f.owner, owner.is_empty()) {
                (None, true) => true,
                (Some(o), false) => o == owner,
                _ => false,
            }
    })
}

fn qual(owner: &str, name: &str) -> String {
    if owner.is_empty() {
        name.to_string()
    } else {
        format!("{owner}::{name}")
    }
}

/// Run the pass over the workspace against the built-in [`REGISTRY`].
pub fn check(files: &[ParsedFile], lexed: &[Lexed], out: &mut Vec<Finding>) {
    check_with(REGISTRY, files, lexed, out);
}

/// Run the pass against an explicit registry (tests inject pairs here).
pub fn check_with(
    registry: &[CodecPair],
    files: &[ParsedFile],
    lexed: &[Lexed],
    out: &mut Vec<Finding>,
) {
    for pair in registry {
        let Some(fi) = files.iter().position(|f| f.path == pair.file) else {
            // The file is not part of this scan (subset scans, fixture
            // registry entries against the live tree): nothing to check.
            continue;
        };
        let file = &files[fi];
        let toks = &lexed[fi].tokens;
        let writer = find_fn(file, pair.writer.0, pair.writer.1);
        let reader = find_fn(file, pair.reader.0, pair.reader.1);
        let (Some(w), Some(r)) = (writer, reader) else {
            let missing = if writer.is_none() { pair.writer } else { pair.reader };
            out.push(Finding::at(
                &file.path,
                1,
                1,
                "codec-asymmetry",
                &format!(
                    "registered codec fn `{}` not found in this file; update the codec \
                     registry in crates/lint/src/codec_sym.rs",
                    qual(missing.0, missing.1)
                ),
            ));
            continue;
        };
        let (Some(wb), Some(rb)) = (w.body, r.body) else { continue };
        let wx = extract(toks, wb, true);
        let rx = extract(toks, rb, false);

        // Field-sequence symmetry: first divergence wins.
        let n = wx.syms.len().max(rx.syms.len());
        for step in 0..n {
            let ws = wx.syms.get(step);
            let rs = rx.syms.get(step);
            let ok = matches!((ws, rs), (Some(a), Some(b)) if a.matches(b));
            if !ok {
                out.push(Finding::at(
                    &file.path,
                    r.line,
                    r.col,
                    "codec-asymmetry",
                    &format!(
                        "reader `{}` diverges from writer `{}` at field {}: writer has \
                         {}, reader has {} — encode and decode must walk the same \
                         ordered field list",
                        qual(pair.reader.0, pair.reader.1),
                        qual(pair.writer.0, pair.writer.1),
                        step + 1,
                        ws.map_or("nothing".to_string(), Sym::name),
                        rs.map_or("nothing".to_string(), Sym::name),
                    ),
                ));
                break;
            }
        }
        if let Some(version) = pair.version_ident {
            for (f, ex) in [(w, &wx), (r, &rx)] {
                if !ex.idents.iter().any(|s| s == version) {
                    out.push(Finding::at(
                        &file.path,
                        f.line,
                        f.col,
                        "codec-asymmetry",
                        &format!(
                            "codec fn `{}` does not mention its version const \
                             `{version}`; versioned state must be framed by it",
                            qual(pair.writer.0, &f.name),
                        ),
                    ));
                } else if ex.syms.first() != Some(&Sym::Op("u32")) {
                    out.push(Finding::at(
                        &file.path,
                        f.line,
                        f.col,
                        "codec-asymmetry",
                        &format!(
                            "codec fn `{}` must put/read the `u32` version \
                             (`{version}`) as its first field",
                            qual(pair.writer.0, &f.name),
                        ),
                    ));
                }
            }
        }
        if pair.sealed {
            for (f, ex, call) in [(w, &wx, "seal"), (r, &rx, "open")] {
                if !ex.idents.iter().any(|s| s == call) {
                    out.push(Finding::at(
                        &file.path,
                        f.line,
                        f.col,
                        "codec-asymmetry",
                        &format!(
                            "sealed codec fn `{}` must call `{call}` so the state rides \
                             inside the checked frame",
                            qual(pair.writer.0, &f.name),
                        ),
                    ));
                }
            }
        }

        // Schema-digest ratchet over the writer's field schema.
        let computed = cache::fnv64(wx.canon.as_bytes());
        if computed != pair.digest {
            let bump = pair.version_ident.map_or(
                "bump the enclosing format version".to_string(),
                |v| format!("bump `{v}`"),
            );
            out.push(Finding::at(
                &file.path,
                w.line,
                w.col,
                "schema-drift",
                &format!(
                    "schema digest {computed:#018x} of writer `{}` does not match the \
                     registered {:#018x}; the checkpoint schema changed without a version \
                     bump — {bump} and update the digest in crates/lint/src/codec_sym.rs \
                     in the same change",
                    qual(pair.writer.0, pair.writer.1),
                    pair.digest,
                ),
            ));
        }
    }

    // Unregistered-codec sweep: codec-shaped fns must enter the ratchet.
    for (fi, file) in files.iter().enumerate() {
        if !in_scope(&file.path) {
            continue;
        }
        let toks = &lexed[fi].tokens;
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            let registered = registry.iter().any(|p| {
                p.file == file.path
                    && (find_fn(file, p.writer.0, p.writer.1)
                        .is_some_and(|g| std::ptr::eq(g, f))
                        || find_fn(file, p.reader.0, p.reader.1)
                            .is_some_and(|g| std::ptr::eq(g, f)))
            });
            if registered {
                continue;
            }
            let Some(body) = f.body else { continue };
            let puts = extract(toks, body, true).puts;
            let reads = extract(toks, body, false).numeric_reads;
            if puts >= 2 || reads >= 2 {
                let what = if puts >= 2 {
                    format!("{puts} field writes")
                } else {
                    format!("{reads} field reads")
                };
                out.push(Finding::at(
                    &file.path,
                    f.line,
                    f.col,
                    "schema-drift",
                    &format!(
                        "fn `{}` looks like a checkpoint codec ({what}) but is not in the \
                         codec registry; add the writer/reader pair and its schema digest \
                         to crates/lint/src/codec_sym.rs",
                        f.name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, parser};

    fn prep(path: &str, src: &str) -> (Vec<ParsedFile>, Vec<Lexed>) {
        let lexed = lexer::lex(src);
        let parsed = parser::parse(path, &lexed);
        (vec![parsed], vec![lexed])
    }

    fn pair(file: &'static str, digest: u64) -> CodecPair {
        CodecPair {
            file,
            writer: ("S", "save"),
            reader: ("S", "restore"),
            version_ident: None,
            sealed: false,
                digest,
        }
    }

    const SYMMETRIC: &str = "impl S {\n\
        pub fn save(&self, out: &mut Vec<u8>) {\n\
            checkpoint::put_u64(out, self.a);\n\
            checkpoint::put_u64(out, self.items.len() as u64);\n\
            for it in &self.items {\n\
                checkpoint::put_bytes(out, it);\n\
            }\n\
        }\n\
        pub fn restore(cur: &mut Cur<'_>) -> Result<S, StateError> {\n\
            let a = cur.u64()?;\n\
            let n = cur.count(1)?;\n\
            let mut items = Vec::new();\n\
            for _ in 0..n {\n\
                items.push(cur.bytes()?.to_vec());\n\
            }\n\
            Ok(S { a, items })\n\
        }\n\
    }\n";

    fn digest_of(src: &str) -> u64 {
        let (parsed, lexed) = prep("crates/core/src/x.rs", src);
        let f = find_fn(&parsed[0], "S", "save").expect("writer");
        cache::fnv64(extract(&lexed[0].tokens, f.body.expect("body"), true).canon.as_bytes())
    }

    fn run(registry: &[CodecPair], path: &str, src: &str) -> Vec<(String, String)> {
        let (parsed, lexed) = prep(path, src);
        let mut out = Vec::new();
        check_with(registry, &parsed, &lexed, &mut out);
        out.into_iter().map(|f| (f.rule.to_string(), f.message)).collect()
    }

    #[test]
    fn symmetric_pair_with_pinned_digest_is_clean() {
        let registry = [pair("crates/core/src/x.rs", digest_of(SYMMETRIC))];
        let hits = run(&registry, "crates/core/src/x.rs", SYMMETRIC);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn dropped_read_is_an_asymmetry() {
        let src = SYMMETRIC.replace("let n = cur.count(1)?;", "let n = 0usize;");
        let registry = [pair("crates/core/src/x.rs", digest_of(&src))];
        let hits = run(&registry, "crates/core/src/x.rs", &src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "codec-asymmetry");
        assert!(hits[0].1.contains("at field 2"), "{}", hits[0].1);
    }

    #[test]
    fn missing_loop_on_one_side_is_an_asymmetry() {
        // `\n\` string continuations strip the next line's indentation,
        // so the fixture content has none.
        let src = SYMMETRIC.replace(
            "for _ in 0..n {\nitems.push(cur.bytes()?.to_vec());\n}",
            "items.push(cur.bytes()?.to_vec());",
        );
        assert_ne!(src, SYMMETRIC);
        let registry = [pair("crates/core/src/x.rs", digest_of(&src))];
        let hits = run(&registry, "crates/core/src/x.rs", &src);
        assert!(
            hits.iter().any(|h| h.0 == "codec-asymmetry"),
            "{hits:?}"
        );
    }

    #[test]
    fn reordered_fields_change_the_digest() {
        // Swap which fields the writer puts: symbol sequence unchanged,
        // schema digest changed -> drift against the old pin.
        let swapped = SYMMETRIC.replace("self.a", "self.b");
        assert_ne!(digest_of(SYMMETRIC), digest_of(&swapped));
        let registry = [pair("crates/core/src/x.rs", digest_of(SYMMETRIC))];
        let hits = run(&registry, "crates/core/src/x.rs", &swapped);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "schema-drift");
        assert!(hits[0].1.contains("version bump"), "{}", hits[0].1);
    }

    #[test]
    fn unregistered_codec_shape_is_flagged_on_both_sides() {
        let hits = run(&[], "crates/core/src/x.rs", SYMMETRIC);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.0 == "schema-drift"));
        assert!(hits[0].1.contains("not in the codec registry"));
    }

    #[test]
    fn missing_version_and_seal_are_flagged() {
        let src = "impl S {\n\
            pub fn save(&self, out: &mut Vec<u8>) {\n\
                checkpoint::put_u64(out, self.a);\n\
            }\n\
            pub fn restore(cur: &mut Cur<'_>) -> Result<u64, StateError> {\n\
                cur.u64()\n\
            }\n\
        }\n";
        let registry = [CodecPair {
            version_ident: Some("STATE_VERSION"),
            sealed: true,
            digest: digest_of2(src),
            ..pair("crates/core/src/x.rs", 0)
        }];
        let hits = run(&registry, "crates/core/src/x.rs", src);
        // version missing in both + seal/open missing in both.
        assert_eq!(hits.len(), 4, "{hits:?}");
        assert!(hits.iter().all(|h| h.0 == "codec-asymmetry"));
    }

    fn digest_of2(src: &str) -> u64 {
        let (parsed, lexed) = prep("crates/core/src/x.rs", src);
        let f = find_fn(&parsed[0], "S", "save").expect("writer");
        cache::fnv64(extract(&lexed[0].tokens, f.body.expect("body"), true).canon.as_bytes())
    }

    #[test]
    fn nested_codec_calls_line_up() {
        let src = "impl S {\n\
            pub fn save(&self, out: &mut Vec<u8>) {\n\
                checkpoint::put_u64(out, self.a);\n\
                self.inner.save_state(out);\n\
            }\n\
            pub fn restore(cur: &mut Cur<'_>) -> Result<S, StateError> {\n\
                let a = cur.u64()?;\n\
                let inner = Inner::restore_from(cur)?;\n\
                Ok(S { a, inner })\n\
            }\n\
        }\n";
        let registry = [pair("crates/core/src/x.rs", digest_of2(src))];
        let hits = run(&registry, "crates/core/src/x.rs", src);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
