//! Exit-code and output tests for the `ixp-lint` binary, run against the
//! committed fixture trees and a temporary tree for the baseline ratchet.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ixp-lint"))
        .args(args)
        .output()
        .expect("spawn ixp-lint")
}

fn run_on(root: &Path) -> Output {
    run_lint(&["--root", root.to_str().unwrap()])
}

#[test]
fn violations_tree_exits_one_with_findings_on_stdout() {
    let out = run_on(&fixture("violations"));
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("crates/wire/src/bad.rs:2: no-unwrap: "),
        "stdout was: {stdout}"
    );
    assert!(stdout.contains("crates/wire/src/bad.rs:10: no-index: "));
    assert!(stdout.contains("crates/badcrate/src/lib.rs:1: error-impl: "));
    // One violation per new semantic rule family as well.
    assert!(stdout.contains("crates/wire/src/l5.rs:6: panic-path: "));
    assert!(stdout.contains("crates/sflow/src/taint.rs:5: tainted-capacity: "));
    assert!(stdout.contains("crates/faults/src/clock.rs:4: ambient-time: "));
    assert!(stdout.contains("crates/core/src/timing.rs:3: obs-clock-boundary: "));
    // And the L8 concurrency family.
    assert!(stdout.contains("crates/alpha/src/lib.rs:11: lock-order-cycle: "));
    assert!(stdout.contains("crates/gamma/src/lib.rs:24: guard-across-blocking: "));
    assert!(stdout.contains("crates/gamma/src/lib.rs:16: shared-state-escape: "));
    assert!(stdout.contains("crates/gamma/src/lib.rs:30: atomic-ordering: "));
    assert!(stdout.contains("crates/gamma/src/lib.rs:47: order-dependent-merge: "));
    let stderr = String::from_utf8(out.stderr).unwrap();
    // And the L9-L11 invariant families.
    assert!(stdout.contains("crates/supervisor/src/intake.rs:14: unaccounted-drop: "));
    assert!(stdout.contains("crates/supervisor/src/codec_pair.rs:16: codec-asymmetry: "));
    assert!(stdout.contains("crates/supervisor/src/probe.rs:12: panic-path: "));
    assert!(stdout.contains("crates/core/src/codec_noreg.rs:5: schema-drift: "));
    assert!(stdout.contains("crates/sflow/src/sink.rs:13: error-sink: "));
    // The transport crate carries the same invariant families.
    assert!(stdout.contains("crates/transport/src/bad.rs:4: no-index: "));
    assert!(stdout.contains("crates/transport/src/l5.rs:6: panic-path: "));
    assert!(stdout.contains("crates/transport/src/shed.rs:14: unaccounted-drop: "));
    assert!(stdout.contains("crates/transport/src/sink.rs:13: error-sink: "));
    assert!(stdout.contains("crates/transport/src/taint.rs:5: tainted-capacity: "));
    // So does the exposition server.
    assert!(stdout.contains("crates/obsd/src/bad.rs:4: no-expect: "));
    assert!(stderr.contains("39 violation(s)"), "stderr was: {stderr}");
}

#[test]
fn json_format_emits_the_documented_schema() {
    let out = run_lint(&["--root", fixture("violations").to_str().unwrap(), "--format", "json"]);
    // Same exit code as the text format.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let v = ixp_lint::json::parse(&stdout).expect("report must be valid JSON");
    assert_eq!(v.get("version").and_then(|s| s.as_u64()), Some(3));
    let rules = v.get("rules").and_then(|r| r.as_arr()).expect("rules array");
    for id in ixp_lint::rules::L8_RULES
        .iter()
        .chain(ixp_lint::rules::L9_RULES)
        .chain(ixp_lint::rules::L10_RULES)
        .chain(ixp_lint::rules::L11_RULES)
    {
        assert!(
            rules.iter().any(|r| r.get("id").and_then(|i| i.as_str()) == Some(*id)),
            "rule {id} missing from the schema's rules array"
        );
    }
    let findings = v.get("findings").and_then(|f| f.as_arr()).expect("findings array");
    assert_eq!(v.get("summary").and_then(|s| s.get("total")).and_then(|t| t.as_u64()), Some(39));
    let cycle = findings
        .iter()
        .find(|f| f.get("rule").and_then(|r| r.as_str()) == Some("lock-order-cycle"))
        .expect("lock-order-cycle finding present");
    assert_eq!(cycle.get("family").and_then(|f| f.as_str()), Some("L8"));
    let unwrap_finding = findings
        .iter()
        .find(|f| f.get("rule").and_then(|r| r.as_str()) == Some("no-unwrap"))
        .expect("no-unwrap finding present");
    assert_eq!(
        unwrap_finding.get("file").and_then(|f| f.as_str()),
        Some("crates/wire/src/bad.rs")
    );
    assert_eq!(unwrap_finding.get("line").and_then(|l| l.as_u64()), Some(2));
    assert_eq!(unwrap_finding.get("family").and_then(|f| f.as_str()), Some("L1"));
    assert_eq!(unwrap_finding.get("severity").and_then(|s| s.as_str()), Some("error"));
    assert!(unwrap_finding.get("column").and_then(|c| c.as_u64()).is_some());
}

#[test]
fn json_format_on_the_workspace_parses_cleanly() {
    // The same invocation scripts/ci.sh uses to write target/lint-report.json.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf();
    let out = run_lint(&["--root", root.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "workspace must lint clean");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let v = ixp_lint::json::parse(&stdout).expect("workspace report must be valid JSON");
    assert_eq!(v.get("version").and_then(|s| s.as_u64()), Some(3));
    assert_eq!(v.get("summary").and_then(|s| s.get("total")).and_then(|t| t.as_u64()), Some(0));
}

#[test]
fn explain_prints_rule_rationale() {
    let out = run_lint(&["--explain", "panic-path"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("panic-path [L5 / error]"), "{stdout}");
    assert!(stdout.contains("call graph"), "{stdout}");

    let out = run_lint(&["--explain", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn clean_tree_exits_zero_silently() {
    let out = run_on(&fixture("clean"));
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_flag_and_missing_root_exit_two() {
    let out = run_lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));

    let out = run_on(Path::new("/nonexistent/ixp-lint-root"));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_exits_zero() {
    let out = run_lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout).unwrap().contains("usage:"));
}

#[test]
fn baseline_ratchet_tolerates_then_blocks() {
    // Build a scratch tree with one grandfathered violation.
    let root = std::env::temp_dir().join(format!("ixp-lint-ratchet-{}", std::process::id()));
    let src_dir = root.join("crates/wire/src");
    fs::create_dir_all(&src_dir).unwrap();
    let one = "pub fn f(b: &[u8]) -> u8 {\n    b[0]\n}\n";
    fs::write(src_dir.join("lib.rs"), one).unwrap();

    // Without a baseline the violation fails the run.
    assert_eq!(run_on(&root).status.code(), Some(1));

    // --update-baseline grandfathers it; the next run is clean.
    let out = run_lint(&["--root", root.to_str().unwrap(), "--update-baseline"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(root.join("lint-baseline.toml").is_file());
    assert_eq!(run_on(&root).status.code(), Some(0));

    // A second violation exceeds the ratchet and fails again, listing both.
    let two = "pub fn f(b: &[u8]) -> u8 {\n    b[0]\n}\npub fn g(b: &[u8]) -> u8 {\n    b[1]\n}\n";
    fs::write(src_dir.join("lib.rs"), two).unwrap();
    let out = run_on(&root);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("crates/wire/src/lib.rs:2: no-index: "));
    assert!(stdout.contains("crates/wire/src/lib.rs:5: no-index: "));

    fs::remove_dir_all(&root).ok();
}
