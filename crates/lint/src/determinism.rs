//! L7 — determinism of report/serialization and replay paths.
//!
//! The fault-replay guarantee (DESIGN.md §9) and every rendered table in
//! the report depend on iteration order and ambient inputs being fixed.
//! In the scoped files this pass forbids:
//!
//! * `hash-iter-order` — any use of `HashMap`/`HashSet`: their iteration
//!   order is randomized per process, which reorders rendered lines and
//!   changes the accumulation order of floating-point sums. Use
//!   `BTreeMap`/`BTreeSet` or sort an extracted Vec explicitly.
//! * `ambient-time`   — `SystemTime::now`/`Instant::now`: wall-clock
//!   reads make replays non-reproducible; thread timestamps through as
//!   data instead.
//! * `ambient-random` — `thread_rng`/`from_entropy`/`OsRng`: ambient
//!   entropy breaks bit-for-bit replay; all randomness must come from a
//!   seeded generator carried in the plan/config.
//!
//! Scope: the report/serialization modules of `ixp-core` (`report.rs`,
//! `snapshot.rs`, `bias.rs`) and all of `ixp-faults`.
//!
//! A fourth rule, `obs-clock-boundary`, extends the ambient-time ban to
//! **every** crate `src/` tree: since `ixp-obs` made time injectable, the
//! only legitimate `Instant::now`/`SystemTime::now` site in the workspace
//! is `RealClock` in `crates/obs/src/clock.rs`. Everything else takes a
//! `&dyn Clock` (or an `Obs` bundle), so instrumented runs stay
//! byte-reproducible under `TestClock`. Files already in the strict L7
//! scope keep reporting `ambient-time` instead (one decision, one rule).

use crate::lexer::{Kind, Lexed};
use crate::Finding;

/// Files whose behaviour must be deterministic.
pub(crate) fn l7_applies(path: &str) -> bool {
    path == "crates/core/src/report.rs"
        || path == "crates/core/src/snapshot.rs"
        || path == "crates/core/src/bias.rs"
        || path.starts_with("crates/faults/src/")
}

/// Files held to the clock-injection boundary: every `src/` tree except
/// the one sanctioned real-clock site, minus the strict-L7 files (those
/// already report the stronger `ambient-time`).
pub(crate) fn obs_clock_applies(path: &str) -> bool {
    crate::rules::l4_applies(path)
        && path != "crates/obs/src/clock.rs"
        && !l7_applies(path)
}

/// Ambient entropy sources.
const RANDOM_SOURCES: &[&str] = &["thread_rng", "from_entropy", "OsRng", "random"];

/// Run the pass over one lexed file.
pub fn check(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let l7 = l7_applies(path);
    let clock_boundary = obs_clock_applies(path);
    if !(l7 || clock_boundary) {
        return;
    }
    let toks = &lexed.tokens;
    let mut in_use = false;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        match &t.kind {
            Kind::Ident(id) if id == "use" => in_use = true,
            Kind::Punct(';') => in_use = false,
            // The `use` line falls with the last mention; flagging it too
            // would double-count one decision.
            Kind::Ident(id) if l7 && (id == "HashMap" || id == "HashSet") && !in_use => {
                out.push(Finding::at(
                    path,
                    t.line,
                    t.col,
                    "hash-iter-order",
                    &format!(
                        "`{id}` in a deterministic output/replay path; its iteration \
                         order is randomized — use `BTree{}` or an explicit sort",
                        id.trim_start_matches("Hash")
                    ),
                ));
            }
            Kind::Ident(id) if id == "SystemTime" || id == "Instant" => {
                let now_next = matches!(toks.get(i + 1).map(|n| &n.kind), Some(Kind::PathSep))
                    && matches!(
                        toks.get(i + 2).map(|n| &n.kind),
                        Some(Kind::Ident(m)) if m == "now"
                    );
                if now_next {
                    if l7 {
                        out.push(Finding::at(
                            path,
                            t.line,
                            t.col,
                            "ambient-time",
                            &format!(
                                "`{id}::now()` in a deterministic path; wall-clock reads break \
                                 replay — take timestamps as input data"
                            ),
                        ));
                    } else {
                        out.push(Finding::at(
                            path,
                            t.line,
                            t.col,
                            "obs-clock-boundary",
                            &format!(
                                "`{id}::now()` outside ixp-obs's RealClock; read time through \
                                 an injected `ixp_obs::Clock` so instrumented runs stay \
                                 reproducible"
                            ),
                        ));
                    }
                }
            }
            Kind::Ident(id) if l7 && RANDOM_SOURCES.contains(&id.as_str()) => {
                // `random` only as a call (`random()`), to spare variables
                // merely named `random`.
                let is_call = id != "random"
                    || matches!(toks.get(i + 1).map(|n| &n.kind), Some(Kind::Punct('(')));
                if !in_use && is_call {
                    out.push(Finding::at(
                        path,
                        t.line,
                        t.col,
                        "ambient-random",
                        &format!(
                            "`{id}` draws ambient entropy; replays must use the seeded \
                             generator carried in the plan"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<(u32, &'static str)> {
        let mut out = Vec::new();
        check(path, &lex(src), &mut out);
        out.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn hashmap_in_report_path_is_flagged_but_use_line_is_not() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u64>) {}\n";
        assert_eq!(run("crates/core/src/report.rs", src), vec![(2, "hash-iter-order")]);
    }

    #[test]
    fn btreemap_and_out_of_scope_files_are_clean() {
        let src = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u64>) {}\n";
        assert!(run("crates/core/src/report.rs", src).is_empty());
        let hashy = "fn f(m: &HashMap<u32, u64>) {}";
        assert!(run("crates/core/src/census.rs", hashy).is_empty());
    }

    #[test]
    fn ambient_time_and_randomness_are_flagged() {
        let src = "fn f() {\n    let t = SystemTime::now();\n    let i = std::time::Instant::now();\n    let mut rng = rand::thread_rng();\n}\n";
        let got = run("crates/faults/src/clock.rs", src);
        assert_eq!(
            got,
            vec![(2, "ambient-time"), (3, "ambient-time"), (4, "ambient-random")]
        );
    }

    #[test]
    fn seeded_rng_and_duration_are_clean() {
        let src = "fn f(seed: u64) {\n    let rng = SmallRng::seed_from_u64(seed);\n    let d = SystemTime::UNIX_EPOCH;\n}\n";
        assert!(run("crates/faults/src/plan.rs", src).is_empty());
    }

    #[test]
    fn clock_boundary_covers_every_src_tree() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(run("crates/core/src/scan.rs", src), vec![(1, "obs-clock-boundary")]);
        assert_eq!(run("crates/obs/src/span.rs", src), vec![(1, "obs-clock-boundary")]);
        assert_eq!(run("src/lib.rs", src), vec![(1, "obs-clock-boundary")]);
        // Outside any src tree (benches, examples) the rule is silent.
        assert!(run("crates/bench/benches/pipeline.rs", src).is_empty());
    }

    #[test]
    fn real_clock_site_is_exempt_and_hash_rules_stay_scoped() {
        let src = "fn f() { RealClock { origin: Instant::now() } }";
        assert!(run("crates/obs/src/clock.rs", src).is_empty());
        // The strict-L7 rules do not leak into the broader clock scope.
        let other = "fn g(m: &HashMap<u8, u8>) { let r = rand::thread_rng(); }";
        assert!(run("crates/core/src/scan.rs", other).is_empty());
        // Strict-L7 files keep reporting ambient-time, not the boundary rule.
        let timed = "fn h() { let t = SystemTime::now(); }";
        assert_eq!(run("crates/faults/src/plan.rs", timed), vec![(1, "ambient-time")]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(run("crates/faults/src/plan.rs", src).is_empty());
    }
}
