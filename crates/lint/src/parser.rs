//! A lightweight item/expression parser over the lexer's token stream.
//!
//! This is not a Rust grammar: it recovers exactly the structure the
//! semantic passes need — function items (name, impl owner, visibility,
//! parameter names, body token range), call sites with per-argument token
//! ranges, panic sites, `use` imports and named struct fields — and it
//! never fails. Anything
//! it cannot make sense of is skipped token by token, which is the right
//! degradation for a linter: an unparsed construct produces no findings
//! rather than a crash.

use crate::lexer::{Kind, Lexed, Token};

/// A `use` import: the name it binds locally and the full path it names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// The local binding (last path segment, or the `as` alias).
    pub alias: String,
    /// Full path segments, e.g. `["ixp_core", "util", "pick"]`.
    pub path: Vec<String>,
}

/// Where a call leaves the current function.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments as written: `["helper"]`, `["xdr", "pad4"]`,
    /// `["Self", "new"]`. Method calls carry the bare method name.
    pub path: Vec<String>,
    /// True for `.name(...)` receiver calls.
    pub is_method: bool,
    /// For `self.field.name(...)`: the field the method is called on,
    /// so the call can resolve through the field's declared type.
    pub self_field: Option<String>,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// Token ranges (half-open, into the file's token vec) of each
    /// top-level argument.
    pub args: Vec<(usize, usize)>,
    /// Token index of the callee name in the file's token vec, so passes
    /// that reason about statement extents (L8) can anchor a scan there.
    pub tok: usize,
}

/// A construct that can panic at runtime.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human description, e.g. "`.unwrap()`" or "`[..]` indexing".
    pub what: &'static str,
    /// The rule whose allow directive vouches for this site. L1-covered
    /// sites use their L1 rule id; assert-family sites use `panic-path`.
    pub vouch_rule: &'static str,
    /// True when the L1 token rules already report this construct in L1
    /// scope (so L5 need not re-report it locally).
    pub l1_covered: bool,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// True for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// True inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// 1-based line of the function name.
    pub line: u32,
    /// 1-based column of the function name.
    pub col: u32,
    /// Parameter names in declaration order (`self` included).
    pub params: Vec<String>,
    /// Body token range (half-open, including the braces); `None` for
    /// bodiless declarations.
    pub body: Option<(usize, usize)>,
    /// Calls made anywhere in the body.
    pub calls: Vec<CallSite>,
    /// Panic sites anywhere in the body.
    pub panics: Vec<PanicSite>,
}

/// One named field of a braced `struct`: `scan: WeekScan` gives
/// `("WeekScan", "scan")` under owner `Supervisor`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructField {
    /// The struct declaring the field.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Head type name, past references and paths (`&'a mut a::B<C>` →
    /// `B`).
    pub ty: String,
}

/// One parsed file: imports plus function items, with the token stream
/// kept alongside so passes can inspect argument ranges.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub path: String,
    /// Owning crate name (`wire` for `crates/wire/...`, `(root)` for the
    /// root package `src/` tree).
    pub crate_name: String,
    /// All `use` imports (item- or body-level).
    pub uses: Vec<UseImport>,
    /// All function items in source order.
    pub fns: Vec<FnItem>,
    /// Named fields of every braced `struct` in the file.
    pub fields: Vec<StructField>,
}

/// The crate a workspace-relative path belongs to.
pub fn crate_of(path: &str) -> String {
    for prefix in ["crates/", "vendor/"] {
        if let Some(rest) = path.strip_prefix(prefix) {
            if let Some(name) = rest.split('/').next() {
                return name.to_string();
            }
        }
    }
    "(root)".to_string()
}

/// Keywords that introduce control flow, not calls, when followed by `(`.
const NOT_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move",
    "let", "else", "break", "continue", "fn", "where", "impl", "dyn",
    "pub", "crate", "super", "mut", "ref", "box", "yield", "async", "await",
    "unsafe", "use", "static", "const", "trait", "struct", "enum", "type",
];

/// Re-exported for the body scanner: identifiers that may precede `[`
/// without forming an index expression.
use crate::rules::NON_INDEXABLE_KEYWORDS;

fn ident_is(t: Option<&Token>, s: &str) -> bool {
    matches!(t.map(|t| &t.kind), Some(Kind::Ident(id)) if id == s)
}

fn kind(t: Option<&Token>) -> Option<&Kind> {
    t.map(|t| &t.kind)
}

/// Skip a balanced `<...>` generic list starting at `i` (which must point
/// at `<`). Returns the index just past the matching `>`, or `len` when
/// unbalanced.
fn skip_angles(toks: &[Token], mut i: usize) -> usize {
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        match t.kind {
            Kind::Punct('<') => depth += 1,
            Kind::Punct('>') => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            // A `;` or `{` at depth > 0 means this was a comparison, not
            // generics; bail out where we are.
            Kind::Punct(';' | '{') => return i,
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Skip a balanced bracket pair (`(`/`[`/`{`) starting at `i` (which must
/// point at the opener). Returns the index just past the closer.
fn skip_balanced(toks: &[Token], mut i: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        match &t.kind {
            Kind::Punct(c) if *c == open => depth += 1,
            Kind::Punct(c) if *c == close => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Parse a `use` declaration starting at the `use` keyword. Expands
/// `{...}` groups and `as` aliases; globs and malformed trees are skipped.
/// Returns the index just past the terminating `;` (or EOF).
fn parse_use(toks: &[Token], start: usize, out: &mut Vec<UseImport>) -> usize {
    let mut path: Vec<String> = Vec::new();
    // Stack of path lengths to restore at each `}`.
    let mut group_marks: Vec<usize> = Vec::new();
    let mut pending: Option<String> = None;
    let mut i = start + 1;

    macro_rules! emit {
        ($leaf:expr, $alias:expr) => {{
            let leaf: String = $leaf;
            if leaf != "*" {
                let mut full = path.clone();
                // `use a::b::{self, c}`: `self` names the prefix itself.
                if leaf == "self" {
                    if let Some(last) = full.last().cloned() {
                        out.push(UseImport { alias: $alias.unwrap_or(last), path: full });
                    }
                } else {
                    full.push(leaf.clone());
                    out.push(UseImport { alias: $alias.unwrap_or(leaf), path: full });
                }
            }
        }};
    }

    while let Some(t) = toks.get(i) {
        match &t.kind {
            Kind::Ident(id) if id == "as" => {
                if let Some(Kind::Ident(alias)) = kind(toks.get(i + 1)) {
                    if let Some(leaf) = pending.take() {
                        emit!(leaf, Some(alias.clone()));
                    }
                    i += 1;
                }
            }
            Kind::Ident(id) => pending = Some(id.clone()),
            Kind::Punct('*') => pending = Some("*".to_string()),
            Kind::PathSep => {
                if let Some(seg) = pending.take() {
                    path.push(seg);
                }
            }
            Kind::Punct(',') => {
                if let Some(leaf) = pending.take() {
                    emit!(leaf, None);
                }
                // Restore the path to the innermost group prefix.
                if let Some(mark) = group_marks.last() {
                    path.truncate(*mark);
                }
            }
            Kind::Punct('{') => group_marks.push(path.len()),
            Kind::Punct('}') => {
                if let Some(leaf) = pending.take() {
                    emit!(leaf, None);
                }
                if let Some(mark) = group_marks.pop() {
                    path.truncate(mark);
                }
            }
            Kind::Punct(';') => {
                if let Some(leaf) = pending.take() {
                    emit!(leaf, None);
                }
                return i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// From an `impl`/`trait` keyword at `start`, recover the implemented-on
/// type name (after `for` if present, the first type otherwise) and the
/// block's token extent. Returns `(owner, body_open, body_end)`.
fn impl_owner(toks: &[Token], start: usize) -> Option<(String, usize, usize)> {
    let mut i = start + 1;
    if matches!(kind(toks.get(i)), Some(Kind::Punct('<'))) {
        i = skip_angles(toks, i);
    }
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    // Stop collecting type names once a `where` clause or supertrait list
    // starts; keep scanning for the block opener.
    let mut collecting = true;
    while let Some(t) = toks.get(i) {
        match &t.kind {
            Kind::Ident(id) if id == "for" => saw_for = true,
            Kind::Ident(id) if id == "where" => collecting = false,
            Kind::Punct(':') => collecting = false,
            Kind::Ident(id) if collecting => {
                // `a::b::Type`: keep updating through path segments so the
                // last segment wins.
                if saw_for {
                    after_for = Some(id.clone());
                } else {
                    last_ident = Some(id.clone());
                }
            }
            Kind::Punct('<') => {
                i = skip_angles(toks, i);
                continue;
            }
            Kind::Punct('{') => {
                let end = skip_balanced(toks, i, '{', '}');
                let owner = after_for.or(last_ident)?;
                return Some((owner, i, end));
            }
            Kind::Punct(';') => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Is the `fn` at `start` unrestricted-`pub`? Scans back over visibility
/// and function qualifiers.
fn fn_is_pub(toks: &[Token], start: usize) -> bool {
    let mut j = start;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            Kind::Ident(q)
                if matches!(q.as_str(), "const" | "unsafe" | "async" | "extern") => {}
            Kind::Str => {} // extern "C"
            Kind::Punct(')') => {
                // pub(crate) / pub(super): restricted, keep scanning past it
                // but it does not count as pub.
                let open = rfind_open(toks, j);
                if open == 0 {
                    return false;
                }
                j = open;
            }
            Kind::Ident(q) if q == "pub" => {
                // `pub(` is restricted visibility.
                return !matches!(kind(toks.get(j + 1)), Some(Kind::Punct('(')));
            }
            _ => return false,
        }
    }
    false
}

/// Index of the `(` matching the `)` at `close`, scanning backward.
fn rfind_open(toks: &[Token], close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        match &toks[j].kind {
            Kind::Punct(')') => depth += 1,
            Kind::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        if j == 0 {
            return 0;
        }
        j -= 1;
    }
}

/// Parameter names from the `(...)` range: each ident directly before a
/// `:` at parenthesis depth 1, plus a bare/borrowed `self` receiver.
fn parse_params(toks: &[Token], open: usize, close: usize) -> Vec<String> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i < close {
        match kind(toks.get(i)) {
            Some(Kind::Punct('(' | '[' | '{')) => depth += 1,
            Some(Kind::Punct(')' | ']' | '}')) => depth -= 1,
            Some(Kind::Ident(id)) if depth == 1 => {
                if id == "self" && params.is_empty() {
                    params.push("self".to_string());
                } else if matches!(kind(toks.get(i + 1)), Some(Kind::Punct(':')))
                    && !matches!(kind(toks.get(i + 2)), Some(Kind::PathSep))
                {
                    params.push(id.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    params
}

/// Parse the named fields of the `struct` whose keyword sits at `start`.
/// Tuple and unit structs have none. Returns the index scanning should
/// continue from.
fn parse_struct(toks: &[Token], start: usize, out: &mut Vec<StructField>) -> usize {
    let Some(Kind::Ident(owner)) = kind(toks.get(start + 1)) else {
        return start + 1;
    };
    let mut i = start + 2;
    if matches!(kind(toks.get(i)), Some(Kind::Punct('<'))) {
        i = skip_angles(toks, i);
    }
    // Skip a `where` clause; stop at the body or at a tuple/unit end.
    while let Some(t) = toks.get(i) {
        match t.kind {
            Kind::Punct('{') => break,
            Kind::Punct('(' | ';') => return i,
            _ => i += 1,
        }
    }
    let end = skip_balanced(toks, i, '{', '}');
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        match kind(toks.get(j)) {
            Some(Kind::Punct('{' | '(' | '[')) => depth += 1,
            Some(Kind::Punct('}' | ')' | ']')) => depth -= 1,
            Some(Kind::Punct('<')) => {
                j = skip_angles(toks, j);
                continue;
            }
            Some(Kind::Ident(name))
                if depth == 1
                    && matches!(kind(toks.get(j + 1)), Some(Kind::Punct(':')))
                    && !matches!(kind(toks.get(j + 2)), Some(Kind::PathSep)) =>
            {
                // The head type: the last path segment before generics,
                // past `&`, lifetimes, `mut` and `dyn`.
                let mut k = j + 2;
                let mut ty = None;
                while let Some(t) = toks.get(k) {
                    match &t.kind {
                        Kind::Punct('&') | Kind::Lifetime | Kind::PathSep => {}
                        Kind::Ident(w) if w == "mut" || w == "dyn" => {}
                        Kind::Ident(w) => ty = Some(w.clone()),
                        _ => break,
                    }
                    k += 1;
                }
                if let Some(ty) = ty {
                    out.push(StructField { owner: owner.clone(), name: name.clone(), ty });
                }
                j = k;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    end
}

/// Parse the `fn` whose keyword sits at `start`. Returns the item (or
/// `None` when `fn` is part of a type like `fn(u32) -> u32`) and the index
/// scanning should continue from.
fn parse_fn(toks: &[Token], start: usize, owner: Option<&str>) -> (Option<FnItem>, usize) {
    let name_tok = toks.get(start + 1);
    let Some(Kind::Ident(name)) = kind(name_tok) else {
        return (None, start + 1);
    };
    let name = name.clone();
    let (line, col, in_test) =
        name_tok.map(|t| (t.line, t.col, t.in_test)).unwrap_or((0, 0, false));

    let mut i = start + 2;
    if matches!(kind(toks.get(i)), Some(Kind::Punct('<'))) {
        i = skip_angles(toks, i);
    }
    if !matches!(kind(toks.get(i)), Some(Kind::Punct('('))) {
        return (None, start + 1);
    }
    let params_open = i;
    let params_close = skip_balanced(toks, i, '(', ')');
    let params = parse_params(toks, params_open, params_close);

    // Scan the return type / where clause for the body `{` or a `;`.
    let mut j = params_close;
    let mut body = None;
    while let Some(t) = toks.get(j) {
        match &t.kind {
            Kind::Punct('<') => {
                j = skip_angles(toks, j);
                continue;
            }
            Kind::Punct('{') => {
                body = Some((j, skip_balanced(toks, j, '{', '}')));
                break;
            }
            Kind::Punct(';') => {
                j += 1;
                break;
            }
            Kind::Punct('(' | '[') => {
                let close = if t.kind == Kind::Punct('(') { ')' } else { ']' };
                let open = if t.kind == Kind::Punct('(') { '(' } else { '[' };
                j = skip_balanced(toks, j, open, close);
                continue;
            }
            _ => j += 1,
        }
    }

    let item = FnItem {
        name,
        owner: owner.map(str::to_string),
        is_pub: fn_is_pub(toks, start),
        in_test,
        line,
        col,
        params,
        body,
        calls: Vec::new(),
        panics: Vec::new(),
    };
    // Continue scanning just inside the body so nested items are found.
    let next = match body {
        Some((open, _)) => open + 1,
        None => j,
    };
    (Some(item), next.max(start + 2))
}

/// Split the argument list of a call whose `(` sits at `open` into
/// top-level token ranges. Returns (arg ranges, index past `)`).
fn split_args(toks: &[Token], open: usize) -> (Vec<(usize, usize)>, usize) {
    let close = skip_balanced(toks, open, '(', ')');
    let inner_end = close.saturating_sub(1).max(open + 1);
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut arg_start = open + 1;
    let mut i = open + 1;
    while i < inner_end {
        match kind(toks.get(i)) {
            Some(Kind::Punct('(' | '[' | '{')) => depth += 1,
            Some(Kind::Punct(')' | ']' | '}')) => depth -= 1,
            Some(Kind::Punct(',')) if depth == 0 => {
                args.push((arg_start, i));
                arg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if arg_start < inner_end {
        args.push((arg_start, inner_end));
    }
    (args, close)
}

/// Collect the `::`-separated path ending with the ident at `i`, looking
/// backward. `["a", "b", "name"]` for `a::b::name`.
fn collect_path(toks: &[Token], i: usize, name: &str) -> Vec<String> {
    let mut segs = vec![name.to_string()];
    let mut j = i;
    while j >= 2
        && matches!(kind(toks.get(j - 1)), Some(Kind::PathSep))
    {
        match kind(toks.get(j - 2)) {
            Some(Kind::Ident(seg)) => {
                segs.insert(0, seg.clone());
                j -= 2;
            }
            _ => break,
        }
    }
    segs
}

/// Scan a function body for call sites and panic sites.
fn scan_body(toks: &[Token], start: usize, end: usize, item: &mut FnItem) {
    let mut i = start;
    while i < end {
        let Some(t) = toks.get(i) else { break };
        let prev = i.checked_sub(1).and_then(|j| toks.get(j));
        let next = toks.get(i + 1);
        match &t.kind {
            Kind::Ident(name) => {
                let after_dot = matches!(kind(prev), Some(Kind::Punct('.')));
                let before_paren = matches!(kind(next), Some(Kind::Punct('(')));
                let before_bang = matches!(kind(next), Some(Kind::Punct('!')));
                if before_bang {
                    let (what, vouch_rule, l1): (&str, &str, bool) = match name.as_str() {
                        "panic" => ("`panic!`", "no-panic", true),
                        "todo" => ("`todo!`", "no-panic", true),
                        "unimplemented" => ("`unimplemented!`", "no-panic", true),
                        "unreachable" => ("`unreachable!`", "no-unreachable", true),
                        "assert" => ("`assert!`", "panic-path", false),
                        "assert_eq" => ("`assert_eq!`", "panic-path", false),
                        "assert_ne" => ("`assert_ne!`", "panic-path", false),
                        _ => ("", "", false),
                    };
                    if !what.is_empty() {
                        item.panics.push(PanicSite {
                            line: t.line,
                            col: t.col,
                            what,
                            vouch_rule,
                            l1_covered: l1,
                        });
                    }
                    i += 1;
                    continue;
                }
                if before_paren {
                    if after_dot {
                        match name.as_str() {
                            "unwrap" => item.panics.push(PanicSite {
                                line: t.line,
                                col: t.col,
                                what: "`.unwrap()`",
                                vouch_rule: "no-unwrap",
                                l1_covered: true,
                            }),
                            "expect" => item.panics.push(PanicSite {
                                line: t.line,
                                col: t.col,
                                what: "`.expect()`",
                                vouch_rule: "no-expect",
                                l1_covered: true,
                            }),
                            _ => {}
                        }
                        let (args, _after) = split_args(toks, i + 1);
                        // `self . field . name (`: remember the field.
                        let self_field = match (
                            i.checked_sub(4).and_then(|j| toks.get(j)).map(|t| &t.kind),
                            i.checked_sub(3).and_then(|j| toks.get(j)).map(|t| &t.kind),
                            i.checked_sub(2).and_then(|j| toks.get(j)).map(|t| &t.kind),
                        ) {
                            (
                                Some(Kind::Ident(recv)),
                                Some(Kind::Punct('.')),
                                Some(Kind::Ident(field)),
                            ) if recv == "self" => Some(field.clone()),
                            _ => None,
                        };
                        item.calls.push(CallSite {
                            path: vec![name.clone()],
                            is_method: true,
                            self_field,
                            line: t.line,
                            col: t.col,
                            args,
                            tok: i,
                        });
                        // Advance one token only: the argument interior is
                        // scanned normally, so nested calls are still found.
                        i += 1;
                        continue;
                    }
                    let declares_fn = ident_is(prev, "fn");
                    if !declares_fn && !NOT_CALLEES.contains(&name.as_str()) {
                        let (args, _after) = split_args(toks, i + 1);
                        item.calls.push(CallSite {
                            path: collect_path(toks, i, name),
                            is_method: false,
                            self_field: None,
                            line: t.line,
                            col: t.col,
                            args,
                            tok: i,
                        });
                    }
                }
            }
            Kind::Punct('[') => {
                let indexable = match kind(prev) {
                    Some(Kind::Ident(id)) => !NON_INDEXABLE_KEYWORDS.contains(&id.as_str()),
                    Some(Kind::Punct(']' | ')' | '?')) | Some(Kind::Int) => true,
                    _ => false,
                };
                if indexable {
                    item.panics.push(PanicSite {
                        line: t.line,
                        col: t.col,
                        what: "`[..]` indexing",
                        vouch_rule: "no-index",
                        l1_covered: true,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Parse one lexed file.
pub fn parse(path: &str, lexed: &Lexed) -> ParsedFile {
    let toks = &lexed.tokens;
    let mut file = ParsedFile {
        path: path.to_string(),
        crate_name: crate_of(path),
        uses: Vec::new(),
        fns: Vec::new(),
        fields: Vec::new(),
    };
    // Stack of enclosing impl/trait blocks: (owner, end token index).
    let mut owners: Vec<(String, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while owners.last().is_some_and(|(_, end)| i >= *end) {
            owners.pop();
        }
        let t = &toks[i];
        match &t.kind {
            Kind::Ident(id) if id == "use" => {
                // Only at statement position (not e.g. a field named `use`,
                // which is not valid Rust anyway).
                i = parse_use(toks, i, &mut file.uses);
                continue;
            }
            Kind::Ident(id) if id == "struct" => {
                i = parse_struct(toks, i, &mut file.fields).max(i + 1);
                continue;
            }
            Kind::Ident(id) if id == "impl" || id == "trait" => {
                if let Some((owner, body_open, end)) = impl_owner(toks, i) {
                    owners.push((owner, end));
                    i = body_open + 1;
                    continue;
                }
                i += 1;
                continue;
            }
            Kind::Ident(id) if id == "fn" => {
                let owner = owners.last().map(|(o, _)| o.as_str());
                let (item, next) = parse_fn(toks, i, owner);
                if let Some(item) = item {
                    file.fns.push(item);
                }
                i = next.max(i + 1);
                continue;
            }
            _ => i += 1,
        }
    }
    for f in &mut file.fns {
        if let Some((s, e)) = f.body {
            scan_body(toks, s + 1, e.saturating_sub(1), f);
        }
    }
    file
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse("crates/x/src/lib.rs", &lex(src))
    }

    #[test]
    fn free_fn_with_params_and_body() {
        let p = parse_src("pub fn add(a: u32, b: u32) -> u32 { a + b }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "add");
        assert!(f.is_pub);
        assert_eq!(f.params, vec!["a", "b"]);
        assert!(f.owner.is_none());
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_methods_get_their_owner() {
        let p = parse_src(
            "struct R;\nimpl R {\n    pub fn new() -> Self { R }\n    fn go(&self, n: usize) {}\n}\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].owner.as_deref(), Some("R"));
        assert_eq!(p.fns[1].params, vec!["self", "n"]);
    }

    #[test]
    fn trait_impl_owner_is_the_type_after_for() {
        let p = parse_src("impl fmt::Display for Foo {\n    fn fmt(&self) {}\n}\n");
        assert_eq!(p.fns[0].owner.as_deref(), Some("Foo"));
    }

    #[test]
    fn pub_crate_is_not_pub() {
        let p = parse_src("pub(crate) fn a() {}\npub fn b() {}\nfn c() {}");
        let pubs: Vec<bool> = p.fns.iter().map(|f| f.is_pub).collect();
        assert_eq!(pubs, vec![false, true, false]);
    }

    #[test]
    fn calls_paths_and_methods() {
        let p = parse_src(
            "fn f(r: &mut R) { let x = r.u32(); helper(x); xdr::pad4(x); Self::go(x, 2); }",
        );
        let f = &p.fns[0];
        let paths: Vec<Vec<String>> = f.calls.iter().map(|c| c.path.clone()).collect();
        assert!(paths.contains(&vec!["u32".to_string()]));
        assert!(paths.contains(&vec!["helper".to_string()]));
        assert!(paths.contains(&vec!["xdr".to_string(), "pad4".to_string()]));
        assert!(paths.contains(&vec!["Self".to_string(), "go".to_string()]));
        let go = f.calls.iter().find(|c| c.path.last().map(String::as_str) == Some("go")).unwrap();
        assert_eq!(go.args.len(), 2);
    }

    #[test]
    fn panic_sites_cover_macros_methods_and_indexing() {
        let p = parse_src(
            "fn f(b: &[u8], o: Option<u8>) {\n    o.unwrap();\n    o.expect(\"x\");\n    panic!(\"y\");\n    assert!(b.len() > 1);\n    let _ = b[0];\n}\n",
        );
        let what: Vec<&str> = p.fns[0].panics.iter().map(|s| s.what).collect();
        assert_eq!(
            what,
            vec!["`.unwrap()`", "`.expect()`", "`panic!`", "`assert!`", "`[..]` indexing"]
        );
        assert!(p.fns[0].panics.iter().any(|s| !s.l1_covered));
    }

    #[test]
    fn use_trees_expand_groups_and_aliases() {
        let p = parse_src(
            "use std::collections::{HashMap, BTreeMap as Tree};\nuse ixp_core::util::pick;\nuse crate::xdr;\n",
        );
        let find = |alias: &str| p.uses.iter().find(|u| u.alias == alias).map(|u| u.path.clone());
        assert_eq!(
            find("HashMap"),
            Some(vec!["std".into(), "collections".into(), "HashMap".into()])
        );
        assert_eq!(
            find("Tree"),
            Some(vec!["std".into(), "collections".into(), "BTreeMap".into()])
        );
        assert_eq!(find("pick"), Some(vec!["ixp_core".into(), "util".into(), "pick".into()]));
        assert_eq!(find("xdr"), Some(vec!["crate".into(), "xdr".into()]));
    }

    #[test]
    fn struct_fields_record_their_head_type() {
        let p = parse_src(
            "pub struct S<'a, T> where T: Copy {\n    scan: WeekScan,\n    pub r: &'a mut ring::IntakeRing,\n    m: BTreeMap<(u32, u32), T>,\n}\nstruct Unit;\nstruct Tuple(u8);\nimpl S<'_, u8> { fn go(&self) { self.scan.ingest(1); self.r.len(); x.y.z(); } }",
        );
        let got: Vec<(&str, &str, &str)> = p
            .fields
            .iter()
            .map(|f| (f.owner.as_str(), f.name.as_str(), f.ty.as_str()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("S", "scan", "WeekScan"),
                ("S", "r", "IntakeRing"),
                ("S", "m", "BTreeMap"),
            ]
        );
        let fields: Vec<Option<&str>> =
            p.fns[0].calls.iter().map(|c| c.self_field.as_deref()).collect();
        assert_eq!(fields, vec![Some("scan"), Some("r"), None]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse_src("fn apply(f: fn(u32) -> u32, x: u32) -> u32 { f(x) }");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "apply");
    }

    #[test]
    fn bodiless_trait_methods_parse() {
        let p = parse_src("trait T { fn must(&self) -> u8; fn dflt(&self) -> u8 { 0 } }");
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
        assert_eq!(p.fns[0].owner.as_deref(), Some("T"));
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let p = parse_src("#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn real() {}");
        let t = p.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.in_test);
        let real = p.fns.iter().find(|f| f.name == "real").unwrap();
        assert!(!real.in_test);
    }

    #[test]
    fn crate_of_paths() {
        assert_eq!(crate_of("crates/wire/src/ipv4.rs"), "wire");
        assert_eq!(crate_of("vendor/crossbeam/src/lib.rs"), "crossbeam");
        assert_eq!(crate_of("src/lib.rs"), "(root)");
    }
}
