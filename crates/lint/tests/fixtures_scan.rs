//! Library-level tests over the committed fixture trees: exact
//! file/line/rule assertions for one violation of every rule, plus the
//! suppression and `#[cfg(test)]`-exemption cases.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

#[test]
fn violations_tree_reports_every_rule_exactly() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    let got: Vec<(String, u32, &str)> =
        findings.iter().map(|f| (f.file.clone(), f.line, f.rule)).collect();
    let expected: Vec<(String, u32, &str)> = [
        ("crates/alpha/src/lib.rs", 11, "lock-order-cycle"),
        ("crates/badcrate/src/lib.rs", 1, "error-impl"),
        ("crates/core/src/codec_noreg.rs", 5, "schema-drift"),
        ("crates/core/src/codec_noreg.rs", 10, "schema-drift"),
        ("crates/core/src/report.rs", 5, "hash-iter-order"),
        ("crates/core/src/timing.rs", 3, "obs-clock-boundary"),
        ("crates/core/src/visibility.rs", 2, "no-float-eq"),
        ("crates/faults/src/clock.rs", 4, "ambient-time"),
        ("crates/faults/src/clock.rs", 5, "ambient-random"),
        ("crates/gamma/src/lib.rs", 16, "shared-state-escape"),
        ("crates/gamma/src/lib.rs", 17, "shared-state-escape"),
        ("crates/gamma/src/lib.rs", 24, "guard-across-blocking"),
        ("crates/gamma/src/lib.rs", 30, "atomic-ordering"),
        ("crates/gamma/src/lib.rs", 39, "atomic-ordering"),
        ("crates/gamma/src/lib.rs", 47, "order-dependent-merge"),
        ("crates/gamma/src/lib.rs", 48, "order-dependent-merge"),
        ("crates/obsd/src/bad.rs", 4, "no-expect"),
        ("crates/sflow/src/accounting.rs", 2, "no-narrow-cast"),
        ("crates/sflow/src/sink.rs", 13, "error-sink"),
        ("crates/sflow/src/sink.rs", 14, "error-sink"),
        ("crates/sflow/src/sink.rs", 15, "error-sink"),
        ("crates/sflow/src/taint.rs", 5, "tainted-capacity"),
        ("crates/sflow/src/taint.rs", 6, "tainted-arith"),
        ("crates/sflow/src/taint.rs", 8, "tainted-slice-len"),
        ("crates/supervisor/src/codec_pair.rs", 16, "codec-asymmetry"),
        ("crates/supervisor/src/intake.rs", 14, "unaccounted-drop"),
        ("crates/supervisor/src/probe.rs", 12, "panic-path"),
        ("crates/transport/src/bad.rs", 4, "no-index"),
        ("crates/transport/src/l5.rs", 6, "panic-path"),
        ("crates/transport/src/shed.rs", 14, "unaccounted-drop"),
        ("crates/transport/src/sink.rs", 13, "error-sink"),
        ("crates/transport/src/taint.rs", 5, "tainted-capacity"),
        ("crates/wire/src/bad.rs", 2, "no-unwrap"),
        ("crates/wire/src/bad.rs", 3, "no-expect"),
        ("crates/wire/src/bad.rs", 5, "no-panic"),
        ("crates/wire/src/bad.rs", 8, "no-unreachable"),
        ("crates/wire/src/bad.rs", 10, "no-index"),
        ("crates/wire/src/bad_directive.rs", 1, "bad-directive"),
        ("crates/wire/src/l5.rs", 6, "panic-path"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r))
    .collect();
    assert_eq!(got, expected);
}

#[test]
fn l5_trace_names_the_cross_crate_chain() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    let trace = findings
        .iter()
        .find(|f| f.rule == "panic-path" && f.file == "crates/transport/src/l5.rs")
        .map(|f| f.message.clone())
        .unwrap();
    assert!(trace.contains("first_byte"), "{trace}");
    assert!(trace.contains("pick"), "{trace}");
    assert!(trace.contains("crates/core/src/util.rs"), "{trace}");
}

/// The probe that once passed: an unconditional `panic!` in the week
/// scan's ingest, reached from the supervisor through `self.scan`.
#[test]
fn l5_follows_self_field_receivers_into_other_crates() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    let trace = findings
        .iter()
        .find(|f| f.rule == "panic-path" && f.file == "crates/supervisor/src/probe.rs")
        .map(|f| f.message.clone())
        .expect("the field-receiver probe must be reported");
    assert!(trace.contains("pub fn `offer`"), "{trace}");
    assert!(trace.contains("calls `ingest`"), "{trace}");
    assert!(trace.contains("`panic!` (crates/core/src/weekscan.rs:11)"), "{trace}");
}

#[test]
fn l8_trace_names_the_cross_crate_cycle() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    let trace = findings
        .iter()
        .find(|f| f.rule == "lock-order-cycle")
        .map(|f| f.message.clone())
        .unwrap();
    assert!(trace.contains("`stats`"), "{trace}");
    assert!(trace.contains("`table`"), "{trace}");
    assert!(trace.contains("inside `account`"), "{trace}");
    assert!(trace.contains("crates/beta/src/lib.rs:13"), "{trace}");
}

#[test]
fn suppressed_and_test_exempt_files_are_silent() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    assert!(
        !findings.iter().any(|f| f.file.contains("allowed.rs")),
        "inline allow directives must suppress: {findings:?}"
    );
    assert!(
        !findings.iter().any(|f| f.file.contains("test_exempt.rs")),
        "cfg(test) code must be exempt: {findings:?}"
    );
}

#[test]
fn clean_tree_is_clean() {
    let findings = ixp_lint::scan_workspace(&fixture("clean")).unwrap();
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn render_matches_cli_format() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    let unwrap_line = findings
        .iter()
        .find(|f| f.rule == "no-unwrap")
        .map(|f| f.render())
        .unwrap();
    assert!(
        unwrap_line.starts_with("crates/wire/src/bad.rs:2: no-unwrap: "),
        "{unwrap_line}"
    );
}
