//! The project rules, run over the token stream of each file.
//!
//! Rules are scoped by workspace-relative path. All checks are lexical
//! approximations of the real invariants — exact enough for this codebase,
//! with the inline allow directive as the escape hatch for false positives.
//!
//! | rule            | family | scope                                         |
//! |-----------------|--------|-----------------------------------------------|
//! | `no-unwrap`     | L1     | stream-facing crates (`ixp-wire`, `ixp-sflow`, `ixp-faults`, `ixp-supervisor`, `ixp-transport`, `ixp-obsd`) |
//! | `no-expect`     | L1     | stream-facing crates                          |
//! | `no-panic`      | L1     | stream-facing crates (`panic!`/`todo!`/`unimplemented!`) |
//! | `no-unreachable`| L1     | stream-facing crates                          |
//! | `no-index`      | L1     | stream-facing crates (`[i]` indexing / slicing) |
//! | `no-narrow-cast`| L2     | `sflow::accounting`, `core::census`           |
//! | `no-float-eq`   | L3     | `core::{longitudinal, visibility, baseline}`  |
//! | `error-impl`    | L4     | every crate `src/` tree                       |
//! | `panic-path`    | L5     | `pub fn`s of stream-facing crates (whole-workspace call graph) |
//! | `tainted-capacity`, `tainted-arith`, `tainted-slice-len` | L6 | stream-facing crates |
//! | `hash-iter-order`, `ambient-time`, `ambient-random` | L7 | `core::{report, snapshot, bias}`, `ixp-faults` |
//! | `obs-clock-boundary` | L7 | every crate `src/` tree except `obs/src/clock.rs` |
//! | `lock-order-cycle` | L8 | every crate `src/` tree + `vendor/*/src/` |
//! | `guard-across-blocking` | L8 | every crate `src/` tree + `vendor/*/src/` |
//! | `shared-state-escape` | L8 | every crate `src/` tree + `vendor/*/src/` |
//! | `atomic-ordering` | L8 | every crate `src/` tree + `vendor/*/src/` |
//! | `order-dependent-merge` | L8 | every crate `src/` tree + `vendor/*/src/` |
//! | `unaccounted-drop` | L9 | datagram-consuming paths of `sflow::collector`, `supervisor::{ring, supervisor}`, `core::scan` |
//! | `codec-asymmetry` | L10 | registered checkpoint save/restore pairs |
//! | `schema-drift` | L10 | registered pairs (digest ratchet) + unregistered checkpoint-shaped codecs |
//! | `error-sink` | L11 | every crate `src/` tree |
//!
//! Test code (`#[cfg(test)]` items) is exempt from every family except L4.

use std::collections::{BTreeMap, HashSet};

use crate::lexer::{Kind, Lexed};
use crate::Finding;

/// Metadata for one rule: where it sits in the family taxonomy and the
/// `--explain` text.
#[derive(Debug)]
pub struct RuleInfo {
    /// Rule id as it appears in findings and directives.
    pub id: &'static str,
    /// Family tag: `L1`..`L11`, or `meta` for the directive checker.
    pub family: &'static str,
    /// Diagnostic severity (currently always `error`; the field exists so
    /// advisory rules can be added without a JSON schema bump).
    pub severity: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Longer `--explain` text.
    pub explain: &'static str,
}

/// The full rule registry.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-unwrap",
        family: "L1",
        severity: "error",
        summary: "no `.unwrap()` in stream-facing crates",
        explain: "The decoders are fed raw network bytes and must never panic \
                  (DESIGN.md §8). `.unwrap()` turns a malformed datagram into a \
                  collector crash; return the crate's Error type instead.",
    },
    RuleInfo {
        id: "no-expect",
        family: "L1",
        severity: "error",
        summary: "no `.expect()` in stream-facing crates",
        explain: "Like no-unwrap: `.expect()` panics on malformed input. The \
                  message string does not make the crash acceptable; return an \
                  Error with the same context instead.",
    },
    RuleInfo {
        id: "no-panic",
        family: "L1",
        severity: "error",
        summary: "no `panic!`/`todo!`/`unimplemented!` in stream-facing crates",
        explain: "Explicit panic macros in a decoder convert hostile input into \
                  denial of service. Unfinished paths must return Error, not todo!.",
    },
    RuleInfo {
        id: "no-unreachable",
        family: "L1",
        severity: "error",
        summary: "no `unreachable!` in stream-facing crates",
        explain: "States judged impossible have a way of arriving off the wire. \
                  Return an Error for impossible states so a wrong judgement is \
                  a diagnostic, not an abort.",
    },
    RuleInfo {
        id: "no-index",
        family: "L1",
        severity: "error",
        summary: "no `[..]` indexing/slicing in stream-facing crates",
        explain: "Slice indexing panics on out-of-bounds. Decoders must use \
                  `.get()`, slice patterns, or split_at-style helpers after an \
                  explicit length check. A checked site can be vouched for with \
                  `// ixp-lint: allow(no-index) <reason>`.",
    },
    RuleInfo {
        id: "no-narrow-cast",
        family: "L2",
        severity: "error",
        summary: "no narrowing `as` casts in accounting modules",
        explain: "Traffic estimates aggregate 64-bit counters; a narrowing `as` \
                  silently truncates. Use TryFrom or keep the wide type \
                  (DESIGN.md §8, L2).",
    },
    RuleInfo {
        id: "no-float-eq",
        family: "L3",
        severity: "error",
        summary: "no exact float comparison in longitudinal analytics",
        explain: "Measured ratios carry rounding error; `==`/`!=` against floats \
                  makes conclusions depend on accumulation order. Compare \
                  against a tolerance.",
    },
    RuleInfo {
        id: "error-impl",
        family: "L4",
        severity: "error",
        summary: "public error enums implement Display + std::error::Error",
        explain: "Every `pub enum *Error*` must implement Display and \
                  std::error::Error somewhere in its crate, so callers can \
                  propagate and print failures uniformly.",
    },
    RuleInfo {
        id: "panic-path",
        family: "L5",
        severity: "error",
        summary: "pub fns of stream-facing crates are transitively panic-free",
        explain: "L5 builds the workspace call graph and computes the transitive \
                  can-panic set. A `pub fn` in ixp-wire/ixp-sflow/ixp-faults that \
                  can reach a panic through any workspace call chain — including \
                  helpers in other crates, or assert!/assert_eq! which the L1 \
                  token rules do not cover — is reported with the offending \
                  chain. Sites suppressed by their L1 allow directive are \
                  treated as vouched-safe and do not propagate.",
    },
    RuleInfo {
        id: "tainted-capacity",
        family: "L6",
        severity: "error",
        summary: "wire-tainted values must not size allocations",
        explain: "A length decoded from the wire can be up to 2^32; passing it \
                  to Vec::with_capacity lets one datagram demand gigabytes. Cap \
                  the value against the remaining input (e.g. `.min(buf.len())`) \
                  before sizing the allocation.",
    },
    RuleInfo {
        id: "tainted-arith",
        family: "L6",
        severity: "error",
        summary: "wire-tainted operands require checked arithmetic",
        explain: "Unchecked `+`/`*`/`<<` on a wire-derived value overflows: a \
                  panic in debug builds, a silent wrap in release — either way a \
                  corrupted traffic estimate (the sampling-rate scaling of §3.1 \
                  multiplies two wire values). Route the value through \
                  checked_*/saturating_* arithmetic or validate its bound first.",
    },
    RuleInfo {
        id: "tainted-slice-len",
        family: "L6",
        severity: "error",
        summary: "wire-tainted values must not bound index/slice expressions",
        explain: "Using a decoded length inside `[..]` panics when the datagram \
                  lies about its own size. Validate against the buffer length \
                  and use `.get()`.",
    },
    RuleInfo {
        id: "hash-iter-order",
        family: "L7",
        severity: "error",
        summary: "no HashMap/HashSet in deterministic output/replay paths",
        explain: "HashMap iteration order is randomized per process. In report \
                  rendering it reorders lines; in float accumulation it changes \
                  sums; in ixp-faults it breaks bit-for-bit replay (DESIGN.md §9). \
                  Use BTreeMap/BTreeSet or sort explicitly.",
    },
    RuleInfo {
        id: "ambient-time",
        family: "L7",
        severity: "error",
        summary: "no SystemTime::now/Instant::now in deterministic paths",
        explain: "Wall-clock reads make two runs of the same input differ. \
                  Timestamps must arrive as data (datagram uptime fields, plan \
                  parameters), never be sampled ambiently.",
    },
    RuleInfo {
        id: "ambient-random",
        family: "L7",
        severity: "error",
        summary: "no ambient entropy in deterministic paths",
        explain: "thread_rng/from_entropy/OsRng draw per-process entropy, \
                  breaking the fault-replay guarantee. All randomness flows from \
                  the seeded generator carried in the plan.",
    },
    RuleInfo {
        id: "obs-clock-boundary",
        family: "L7",
        severity: "error",
        summary: "Instant/SystemTime reads only inside ixp-obs's RealClock",
        explain: "All instrumentation timing flows through the injectable \
                  ixp_obs::Clock trait so metric snapshots stay reproducible \
                  under TestClock (DESIGN.md §10). The single permitted \
                  `Instant::now()` site is RealClock in crates/obs/src/clock.rs; \
                  every other module takes a `&dyn Clock` (or an `Obs` bundle) \
                  and reads time through it.",
    },
    RuleInfo {
        id: "lock-order-cycle",
        family: "L8",
        severity: "error",
        summary: "lock-acquisition order is acyclic across the workspace",
        explain: "L8 records, per function, which locks are held when another \
                  lock is acquired — directly or through any workspace call \
                  chain — and builds a lock-order graph over the guard scopes \
                  it can see (`lock()`/`read()`/`write()` receivers). A cycle \
                  in that graph means two threads taking the locks in opposite \
                  orders can deadlock; the finding carries the full cycle with \
                  one witness acquisition site per edge. Break the cycle by \
                  ordering the acquisitions consistently or narrowing a guard \
                  scope with `drop(guard)`.",
    },
    RuleInfo {
        id: "guard-across-blocking",
        family: "L8",
        severity: "error",
        summary: "no Mutex guard held across a blocking channel/thread call",
        explain: "Holding a lock guard across `.send()`/`.recv()`/`join`/`wait`/\
                  `sleep` stalls every other thread contending for that lock for \
                  as long as the blocking call takes — and deadlocks outright \
                  when the unblocking party needs the same lock. Drop the guard \
                  first (`drop(guard)`), or pass the guard to a condvar `wait`, \
                  which atomically releases it and is therefore exempt.",
    },
    RuleInfo {
        id: "shared-state-escape",
        family: "L8",
        severity: "error",
        summary: "no non-Arc interior mutability or `static mut` inside spawned closures",
        explain: "A `RefCell`/`Cell`/`UnsafeCell` local that is not wrapped in \
                  `Arc`, or any `static mut`, reached from a `thread::spawn`/\
                  `scope.spawn` closure is a data race: the borrow-flag or the \
                  raw cell is mutated unsynchronised from two threads. Share \
                  state through `Arc<Mutex<_>>`/`Arc<AtomicU64>` or move \
                  per-thread state into the closure by value.",
    },
    RuleInfo {
        id: "atomic-ordering",
        family: "L8",
        severity: "error",
        summary: "no `Ordering::Relaxed` atomic loads on report/snapshot paths",
        explain: "Functions reachable from a snapshot/report/export entry point \
                  feed the byte-identical-metrics gate (DESIGN.md §10). A \
                  `Relaxed` load there may read a stale value relative to the \
                  writes another thread published before the snapshot was cut, \
                  so two exports of the 'same' state can disagree. Use at least \
                  `Ordering::Acquire` for loads on these paths; hot-path \
                  writers (`fetch_add`/`store`) may stay `Relaxed`.",
    },
    RuleInfo {
        id: "order-dependent-merge",
        family: "L8",
        severity: "error",
        summary: "channel-drain merges must be order-independent or sorted",
        explain: "A loop draining a channel (`recv`/`try_recv`) observes items \
                  in a scheduling-dependent order. Accumulating them with \
                  float `+=`/`*=` makes the sum depend on that order (float \
                  addition is not associative), and collecting them with \
                  `push`/`extend` without a subsequent `sort*` leaks the order \
                  into the result. Use integer accumulators, index-keyed slots \
                  (`slots[i] = v`), or sort the collected values before use — \
                  the ROADMAP-1 shard merge must be seed-stable.",
    },
    RuleInfo {
        id: "unaccounted-drop",
        family: "L9",
        severity: "error",
        summary: "datagram-consuming paths must increment an accounting bucket on every exit",
        explain: "The conservation invariant `ingested = accepted + duplicates + \
                  errors + shed` (DESIGN.md §9/§11) only holds if every code \
                  path that consumes a datagram — accept, dedupe, decode-error, \
                  shed, quarantine — increments exactly one bucket before it \
                  exits. This pass splits each consuming fn (`offer`/`ingest*` \
                  with a payload parameter) into segments at every `return`: a \
                  segment that exits without a counter bump (`<bucket> += ..`), \
                  a counting call (`.inc()`/`.add()`/`.record*()`/...), or a \
                  transfer to another consuming fn is a silent drop. Count the \
                  datagram, hand it on, or vouch the exit with \
                  allow(unaccounted-drop) and a reason.",
    },
    RuleInfo {
        id: "codec-asymmetry",
        family: "L10",
        severity: "error",
        summary: "checkpoint encode/decode pairs must walk the same ordered field list",
        explain: "Crash recovery restores state by replaying the writer's field \
                  list in order (DESIGN.md §11); if `save` and `restore` \
                  disagree about one width, loop, or nested-codec call, every \
                  checkpoint on disk is misread from that field on. Each pair \
                  in the codec registry (crates/lint/src/codec_sym.rs) is \
                  abstracted to a width/loop/nested symbol sequence and the \
                  reader must mirror the writer exactly; versioned pairs must \
                  frame a `u32` version const first, and sealed pairs must \
                  call `seal`/`open`. The frame itself is one shared function \
                  pair in `ixp_obs::codec`, covered by its corruption tests.",
    },
    RuleInfo {
        id: "schema-drift",
        family: "L10",
        severity: "error",
        summary: "checkpoint schemas may only change together with a version bump",
        explain: "Every registered codec writer has an FNV-1a-64 digest of its \
                  field schema (widths, loops, nested codecs, and the written \
                  expressions) pinned in crates/lint/src/codec_sym.rs. \
                  Renaming, reordering, adding, or dropping a field changes \
                  the digest, and the lint fails until the format version is \
                  bumped and the pinned digest updated in the same change — \
                  old checkpoints then fail closed with `BadVersion` instead \
                  of being misdecoded. Codec-shaped fns (two or more field \
                  writes/reads) outside the registry are also flagged: new \
                  codecs must enter the ratchet.",
    },
    RuleInfo {
        id: "error-sink",
        family: "L11",
        severity: "error",
        summary: "no silently discarded `Result` on stream-facing paths",
        explain: "A decode/restore error that evaporates is a lost datagram the \
                  accounting never saw — the dynamic invariants can no longer \
                  notice it. On stream-facing paths, `let _ = fallible()`, a \
                  bare `fallible().ok();`, and `fallible().unwrap_or_default()` \
                  are findings; fallibility is resolved interprocedurally \
                  through the workspace symbol table (any fn returning \
                  `Result`) plus the `Cur`/decode/restore primitives. \
                  Propagate with `?`, convert the error into a counted bucket \
                  or metric, or vouch the site with allow(error-sink) and a \
                  reason.",
    },
    RuleInfo {
        id: "bad-directive",
        family: "meta",
        severity: "error",
        summary: "malformed or unknown ixp-lint directives",
        explain: "An `// ixp-lint:` comment that names an unknown rule or omits \
                  the allow-file reason is itself a finding, so suppressions \
                  cannot silently rot.",
    },
];

/// Every rule the linter knows, including the meta rule for malformed
/// directives.
pub const ALL_RULES: &[&str] = &[
    "no-unwrap",
    "no-expect",
    "no-panic",
    "no-unreachable",
    "no-index",
    "no-narrow-cast",
    "no-float-eq",
    "error-impl",
    "panic-path",
    "tainted-capacity",
    "tainted-arith",
    "tainted-slice-len",
    "hash-iter-order",
    "ambient-time",
    "ambient-random",
    "obs-clock-boundary",
    "lock-order-cycle",
    "guard-across-blocking",
    "shared-state-escape",
    "atomic-ordering",
    "order-dependent-merge",
    "unaccounted-drop",
    "codec-asymmetry",
    "schema-drift",
    "error-sink",
    "bad-directive",
];

/// The L1 family: the no-panic decoder contract.
pub const L1_RULES: &[&str] =
    &["no-unwrap", "no-expect", "no-panic", "no-unreachable", "no-index"];

/// The L6 family: wire-taint overflow analysis.
pub const L6_RULES: &[&str] = &["tainted-capacity", "tainted-arith", "tainted-slice-len"];

/// The L7 family: determinism of output and replay paths, plus the
/// workspace-wide clock-injection boundary of `ixp-obs`.
pub const L7_RULES: &[&str] =
    &["hash-iter-order", "ambient-time", "ambient-random", "obs-clock-boundary"];

/// The L8 family: concurrency safety ahead of the sharded parallel ingest —
/// lock ordering, guard scopes, shared-state escapes, atomic orderings on
/// snapshot paths, and order-independent shard merges.
pub const L8_RULES: &[&str] = &[
    "lock-order-cycle",
    "guard-across-blocking",
    "shared-state-escape",
    "atomic-ordering",
    "order-dependent-merge",
];

/// The L9 family: the accounting-conservation invariant, held statically.
pub const L9_RULES: &[&str] = &["unaccounted-drop"];

/// The L10 family: checkpoint-codec symmetry and the schema-digest ratchet.
pub const L10_RULES: &[&str] = &["codec-asymmetry", "schema-drift"];

/// The L11 family: error-flow completeness on stream-facing paths.
pub const L11_RULES: &[&str] = &["error-sink"];

/// Registry lookup by rule id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Expand a rule name or family alias (`l1`..`l11`) into concrete rules.
/// Returns `None` for unknown names.
pub fn resolve_rule(name: &str) -> Option<Vec<&'static str>> {
    if let Some(&r) = ALL_RULES.iter().find(|r| **r == name) {
        return Some(vec![r]);
    }
    match name {
        "l1" | "L1" => Some(L1_RULES.to_vec()),
        "l2" | "L2" => Some(vec!["no-narrow-cast"]),
        "l3" | "L3" => Some(vec!["no-float-eq"]),
        "l4" | "L4" => Some(vec!["error-impl"]),
        "l5" | "L5" => Some(vec!["panic-path"]),
        "l6" | "L6" => Some(L6_RULES.to_vec()),
        "l7" | "L7" => Some(L7_RULES.to_vec()),
        "l8" | "L8" => Some(L8_RULES.to_vec()),
        "l9" | "L9" => Some(L9_RULES.to_vec()),
        "l10" | "L10" => Some(L10_RULES.to_vec()),
        "l11" | "L11" => Some(L11_RULES.to_vec()),
        _ => None,
    }
}

/// L1 scope: source trees of the crates that face the raw datagram stream —
/// the two packet parsers, the fault injector (which rewrites encoded
/// datagrams and must survive anything it is fed, including its own output),
/// the supervisor and the shared codec in `ixp-obs` (which decode sealed
/// files that may be truncated or corrupted by the very crash they are
/// recovering from),
/// and the wire transport (the UDP front door and its version gate, which
/// read attacker-grade bytes straight off the socket),
/// and the exposition server (which parses HTTP request bytes from any
/// client that can reach the socket).
pub(crate) fn l1_applies(path: &str) -> bool {
    path.starts_with("crates/wire/src/")
        || path.starts_with("crates/sflow/src/")
        || path.starts_with("crates/faults/src/")
        || path.starts_with("crates/supervisor/src/")
        || path.starts_with("crates/transport/src/")
        || path.starts_with("crates/obsd/src/")
        || path == "crates/obs/src/codec.rs"
}

/// L2 scope: modules that aggregate counters and must not silently truncate.
fn l2_applies(path: &str) -> bool {
    path == "crates/sflow/src/accounting.rs" || path == "crates/core/src/census.rs"
}

/// L3 scope: longitudinal/visibility analytics comparing measured ratios.
fn l3_applies(path: &str) -> bool {
    path == "crates/core/src/longitudinal.rs"
        || path == "crates/core/src/visibility.rs"
        || path == "crates/core/src/baseline.rs"
}

/// L4 scope: any `src/` tree (root package or a workspace crate). Excludes
/// tests, examples, benches and fixture trees. Shared with the L7
/// `obs-clock-boundary` rule, which polices the same set of files.
pub(crate) fn l4_applies(path: &str) -> bool {
    let mut parts = path.split('/');
    match parts.next() {
        Some("src") => true,
        Some("crates") => {
            let _crate_name = parts.next();
            parts.next() == Some("src")
        }
        _ => false,
    }
}

/// Identifiers that may legally precede `[` without it being an index
/// expression (mostly keywords introducing array patterns/types).
pub(crate) const NON_INDEXABLE_KEYWORDS: &[&str] = &[
    "let", "in", "mut", "ref", "return", "as", "if", "else", "match", "move",
    "static", "const", "dyn", "impl", "for", "where", "use", "pub", "enum",
    "struct", "fn", "type", "break", "continue", "loop", "while", "unsafe",
    "mod", "trait", "box", "yield", "async", "await", "become",
];

/// Cast targets treated as narrowing-prone. Lexically we cannot see the
/// source type, so every `as` to one of these is flagged in L2 scope;
/// widening targets (`u64`, `usize`, `f64`, ...) are not.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Run the per-file rules (L1, L2, L3) over one lexed file.
pub fn check_tokens(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let l1 = l1_applies(path);
    let l2 = l2_applies(path);
    let l3 = l3_applies(path);
    if !(l1 || l2 || l3) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| &toks[j].kind);
        let next = toks.get(i + 1).map(|t| &t.kind);
        // L2 runs before the big match: accounting.rs sits inside an L1
        // scope too, and `as` is an identifier the L1 arm would swallow.
        if l2 {
            if let Kind::Ident(name) = &t.kind {
                if name == "as" {
                    if let Some(Kind::Ident(target)) = next {
                        if NARROW_TARGETS.contains(&target.as_str()) {
                            out.push(Finding::at(
                                path,
                                t.line,
                                t.col,
                                "no-narrow-cast",
                                &format!(
                                    "narrowing `as {target}` in an accounting module; \
                                     use `TryFrom` or a widening type"
                                ),
                            ));
                        }
                    }
                }
            }
        }
        match &t.kind {
            Kind::Ident(name) if l1 => {
                let after_dot = prev == Some(&Kind::Punct('.'));
                let bang = next == Some(&Kind::Punct('!'));
                match name.as_str() {
                    "unwrap" if after_dot => out.push(Finding::at(
                        path,
                        t.line,
                        t.col,
                        "no-unwrap",
                        "`.unwrap()` in a parser crate; return `Error` instead",
                    )),
                    "expect" if after_dot => out.push(Finding::at(
                        path,
                        t.line,
                        t.col,
                        "no-expect",
                        "`.expect()` in a parser crate; return `Error` instead",
                    )),
                    "panic" | "todo" | "unimplemented" if bang => out.push(Finding::at(
                        path,
                        t.line,
                        t.col,
                        "no-panic",
                        &format!("`{name}!` in a parser crate; decoders must not panic"),
                    )),
                    "unreachable" if bang => out.push(Finding::at(
                        path,
                        t.line,
                        t.col,
                        "no-unreachable",
                        "`unreachable!` in a parser crate; return `Error` for impossible states",
                    )),
                    _ => {}
                }
            }
            Kind::Punct('[') if l1 => {
                let indexable = match prev {
                    Some(Kind::Ident(id)) => {
                        !NON_INDEXABLE_KEYWORDS.contains(&id.as_str())
                    }
                    Some(Kind::Punct(']' | ')' | '?')) | Some(Kind::Int) => true,
                    _ => false,
                };
                if indexable {
                    out.push(Finding::at(
                        path,
                        t.line,
                        t.col,
                        "no-index",
                        "`[..]` indexing/slicing can panic; use `.get()` or slice patterns",
                    ));
                }
            }
            Kind::EqEq | Kind::Ne if l3 => {
                let float_adjacent = matches!(prev, Some(Kind::Float))
                    || matches!(next, Some(&Kind::Float));
                if float_adjacent {
                    out.push(Finding::at(
                        path,
                        t.line,
                        t.col,
                        "no-float-eq",
                        "exact float comparison; compare against a tolerance instead",
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Per-crate facts feeding the L4 rule.
#[derive(Debug, Default)]
pub struct CrateErrorInfo {
    /// `pub enum <name>` where the name contains `Error`, outside tests:
    /// (enum name, file, line).
    pub error_enums: Vec<(String, String, u32)>,
    /// Type names with an `impl ... Display for <name>` anywhere in the crate.
    pub display_impls: HashSet<String>,
    /// Type names with an `impl ... Error for <name>` anywhere in the crate.
    pub error_impls: HashSet<String>,
}

/// Group key for a file: the crate it belongs to (`crates/<name>` or the
/// root package).
fn crate_group(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some(name) = rest.split('/').next() {
            return format!("crates/{name}");
        }
    }
    "(root)".to_string()
}

/// Collect L4 facts from one lexed file into the per-crate map.
pub fn collect_error_info(
    path: &str,
    lexed: &Lexed,
    map: &mut BTreeMap<String, CrateErrorInfo>,
) {
    if !l4_applies(path) {
        return;
    }
    let info = map.entry(crate_group(path)).or_default();
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        match &toks[i].kind {
            // `pub enum FooError` / `pub(crate) enum FooError`
            Kind::Ident(kw) if kw == "enum" && !toks[i].in_test => {
                let is_pub = match i.checked_sub(1).map(|j| &toks[j].kind) {
                    Some(Kind::Ident(p)) => p == "pub",
                    Some(Kind::Punct(')')) => {
                        // pub(crate) / pub(super): scan back past the parens.
                        let mut j = i - 1;
                        while j > 0 && toks[j].kind != Kind::Punct('(') {
                            j -= 1;
                        }
                        j > 0 && matches!(&toks[j - 1].kind, Kind::Ident(p) if p == "pub")
                    }
                    _ => false,
                };
                if !is_pub {
                    continue;
                }
                if let Some(Kind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                    if name.contains("Error") {
                        info.error_enums.push((
                            name.clone(),
                            path.to_string(),
                            toks[i + 1].line,
                        ));
                    }
                }
            }
            // `impl [<...>] [path::]Trait for Type`
            Kind::Ident(kw) if kw == "for" => {
                // Walk back: the trait name is the last ident before `for`;
                // only count it if an `impl` appears first (not a loop).
                let mut trait_name: Option<&str> = None;
                let mut j = i;
                let mut is_impl = false;
                while j > 0 {
                    j -= 1;
                    match &toks[j].kind {
                        Kind::Ident(id) if id == "impl" => {
                            is_impl = true;
                            break;
                        }
                        Kind::Ident(id) if trait_name.is_none() => trait_name = Some(id),
                        Kind::Punct('{' | '}' | ';') => break,
                        _ => {}
                    }
                }
                if !is_impl {
                    continue;
                }
                if let Some(Kind::Ident(type_name)) = toks.get(i + 1).map(|t| &t.kind) {
                    match trait_name {
                        Some("Display") => {
                            info.display_impls.insert(type_name.clone());
                        }
                        Some("Error") => {
                            info.error_impls.insert(type_name.clone());
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
}

/// Emit an `error-impl` finding for every public error enum missing a
/// `Display` or `std::error::Error` impl within its crate.
pub fn finalize_error_impl(
    map: &BTreeMap<String, CrateErrorInfo>,
    out: &mut Vec<Finding>,
) {
    for info in map.values() {
        for (name, file, line) in &info.error_enums {
            let mut missing = Vec::new();
            if !info.display_impls.contains(name) {
                missing.push("Display");
            }
            if !info.error_impls.contains(name) {
                missing.push("std::error::Error");
            }
            if !missing.is_empty() {
                out.push(Finding::new(
                    file,
                    *line,
                    "error-impl",
                    &format!("`pub enum {name}` does not implement {}", missing.join(" + ")),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<(u32, &'static str)> {
        let lexed = lex(src);
        let mut out = Vec::new();
        check_tokens(path, &lexed, &mut out);
        out.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn l1_catches_all_five_shapes() {
        let src = "
fn f(b: &[u8]) {
    let a = b.first().unwrap();
    let c = b.get(1).expect(\"x\");
    panic!(\"boom\");
    unreachable!();
    let d = b[0];
}
";
        let got = run("crates/wire/src/x.rs", src);
        assert_eq!(
            got,
            vec![
                (3, "no-unwrap"),
                (4, "no-expect"),
                (5, "no-panic"),
                (6, "no-unreachable"),
                (7, "no-index"),
            ]
        );
    }

    #[test]
    fn l1_out_of_scope_and_test_code_are_clean() {
        let src = "fn f(b: &[u8]) -> u8 { b[0] }";
        assert!(run("crates/core/src/x.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn t(b: &[u8]) { b[0]; b.first().unwrap(); } }";
        assert!(run("crates/wire/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn l1_covers_the_fault_injector() {
        let src = "fn f(b: &[u8]) { b.first().unwrap(); let _ = b[0]; }";
        let got = run("crates/faults/src/plan.rs", src);
        assert_eq!(got, vec![(1, "no-unwrap"), (1, "no-index")]);
    }

    #[test]
    fn l1_covers_the_shared_codec_but_not_the_rest_of_obs() {
        let src = "fn f(b: &[u8]) { b.first().unwrap(); let _ = b[0]; }";
        let got = run("crates/obs/src/codec.rs", src);
        assert_eq!(got, vec![(1, "no-unwrap"), (1, "no-index")]);
        assert!(run("crates/obs/src/journal.rs", src).is_empty());
    }

    #[test]
    fn no_index_skips_types_patterns_and_macros() {
        let src = "
fn f() -> [u8; 4] {
    let [a, b, c, d] = [1u8, 2, 3, 4];
    let v = vec![a, b];
    if let Some([x, ..]) = Some([c, d]) { let _ = x; }
    [a, b, c, d]
}
";
        assert!(run("crates/wire/src/x.rs", src).is_empty(), "{:?}", run("crates/wire/src/x.rs", src));
    }

    #[test]
    fn no_index_catches_chained_and_call_results() {
        let src = "fn f(v: &[Vec<u8>]) { v[0][1]; f2()[2]; }";
        let got = run("crates/sflow/src/x.rs", src);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|(_, r)| *r == "no-index"));
    }

    #[test]
    fn l2_narrowing_only_in_scope() {
        let src = "fn f(x: usize) { let _ = x as u32; let _ = x as u64; }";
        let got = run("crates/core/src/census.rs", src);
        assert_eq!(got, vec![(1, "no-narrow-cast")]);
        assert!(run("crates/core/src/other.rs", src).is_empty());
    }

    #[test]
    fn l1_and_l2_both_fire_in_accounting() {
        let src = "fn f(x: usize, o: Option<u8>) { let _ = x as u16; o.unwrap(); }";
        let got = run("crates/sflow/src/accounting.rs", src);
        assert_eq!(got, vec![(1, "no-narrow-cast"), (1, "no-unwrap")]);
    }

    #[test]
    fn l3_float_eq() {
        let src = "fn f(x: f64) -> bool { x == 0.5 || 1.0 != x || x == y }";
        let got = run("crates/core/src/visibility.rs", src);
        assert_eq!(got, vec![(1, "no-float-eq"), (1, "no-float-eq")]);
    }

    #[test]
    fn l4_flags_missing_impls_and_accepts_complete_ones() {
        let good = "
pub enum ParseError { Bad }
impl fmt::Display for ParseError { }
impl std::error::Error for ParseError { }
";
        let bad = "pub enum DecodeError { Short }\nimpl fmt::Display for DecodeError {}\n";
        let mut map = BTreeMap::new();
        collect_error_info("crates/a/src/lib.rs", &lex(good), &mut map);
        collect_error_info("crates/b/src/lib.rs", &lex(bad), &mut map);
        let mut out = Vec::new();
        finalize_error_impl(&map, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "error-impl");
        assert!(out[0].message.contains("std::error::Error"));
        assert!(!out[0].message.contains("Display +"));
    }

    #[test]
    fn l4_cross_file_impls_count() {
        let decl = "pub enum FetchError { Nope }";
        let impls = "impl core::fmt::Display for FetchError {}\nimpl std::error::Error for FetchError {}";
        let mut map = BTreeMap::new();
        collect_error_info("crates/a/src/err.rs", &lex(decl), &mut map);
        collect_error_info("crates/a/src/fmt.rs", &lex(impls), &mut map);
        let mut out = Vec::new();
        finalize_error_impl(&map, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l4_ignores_for_loops_and_test_enums() {
        let src = "
fn f() { for x in 0..3 { let _ = x; } }
#[cfg(test)]
mod tests { pub enum TestError { X } }
";
        let mut map = BTreeMap::new();
        collect_error_info("crates/a/src/lib.rs", &lex(src), &mut map);
        let mut out = Vec::new();
        finalize_error_impl(&map, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(resolve_rule("l1").map(|v| v.len()), Some(5));
        assert_eq!(resolve_rule("l6").map(|v| v.len()), Some(3));
        assert_eq!(resolve_rule("l7").map(|v| v.len()), Some(4));
        assert_eq!(resolve_rule("l8").map(|v| v.len()), Some(5));
        assert_eq!(resolve_rule("l9").map(|v| v.len()), Some(1));
        assert_eq!(resolve_rule("l10").map(|v| v.len()), Some(2));
        assert_eq!(resolve_rule("l11").map(|v| v.len()), Some(1));
        assert_eq!(resolve_rule("no-index"), Some(vec!["no-index"]));
        assert_eq!(resolve_rule("panic-path"), Some(vec!["panic-path"]));
        assert_eq!(resolve_rule("nope"), None);
    }

    #[test]
    fn registry_covers_every_rule() {
        assert_eq!(RULES.len(), ALL_RULES.len());
        for id in ALL_RULES {
            let info = rule_info(id).unwrap_or_else(|| panic!("{id} missing from RULES"));
            assert!(!info.summary.is_empty() && !info.explain.is_empty());
            assert!(
                matches!(
                    info.family,
                    "L1" | "L2" | "L3" | "L4" | "L5" | "L6" | "L7" | "L8" | "L9" | "L10"
                        | "L11" | "meta"
                ),
                "{id} has odd family {}",
                info.family
            );
        }
    }
}
