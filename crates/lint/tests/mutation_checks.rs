//! Acceptance mutations for the L9/L10 analyses: patch a copy of the
//! *live* sources in memory and prove the lint catches the regression.
//! The checked-out tree is never modified — each test lints a patched
//! string through `scan_sources`, so these are real end-to-end runs over
//! the real collector/ring code, minus one invariant.

use std::fs;
use std::path::PathBuf;

const RING: &str = "crates/supervisor/src/ring.rs";
const COLLECTOR: &str = "crates/sflow/src/collector.rs";

fn live(path: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf();
    fs::read_to_string(root.join(path)).expect("live source")
}

/// Scan the given (path, source) set and keep only the L9-L11 rules.
fn scan(files: Vec<(&str, String)>) -> Vec<(String, u32, String)> {
    const NEW_RULES: [&str; 4] =
        ["unaccounted-drop", "codec-asymmetry", "schema-drift", "error-sink"];
    ixp_lint::scan_sources(files.into_iter().map(|(p, s)| (p.to_string(), s)))
        .into_iter()
        .filter(|f| NEW_RULES.contains(&f.rule))
        .map(|f| (f.rule.to_string(), f.line, f.message))
        .collect()
}

#[test]
fn unmutated_live_sources_are_clean() {
    let hits = scan(vec![(RING, live(RING)), (COLLECTOR, live(COLLECTOR))]);
    assert!(hits.is_empty(), "control must be clean: {hits:?}");
}

#[test]
fn deleting_the_shed_increment_fails_conservation() {
    let orig = live(RING);
    let src = orig.replacen(
        "self.shed += 1;\n            return false;",
        "return false;",
        1,
    );
    assert_ne!(src, orig, "patch must apply");
    let hits = scan(vec![(RING, src)]);
    assert!(
        hits.iter().any(|h| h.0 == "unaccounted-drop"),
        "dropping the shed count must fail L9: {hits:?}"
    );
}

#[test]
fn uncounted_early_return_in_ingest_fails_conservation() {
    let orig = live(COLLECTOR);
    let src = orig.replacen(
        "self.datagrams += 1;",
        "if bytes.is_empty() {\n            return Ingest::Rejected(DecodeError::Truncated);\n        }\n        self.datagrams += 1;",
        1,
    );
    assert_ne!(src, orig, "patch must apply");
    let hits = scan(vec![(COLLECTOR, src)]);
    assert!(
        hits.iter().any(|h| h.0 == "unaccounted-drop"),
        "an uncounted early return must fail L9: {hits:?}"
    );
}

#[test]
fn reordering_checkpoint_fields_without_version_bump_fails_drift() {
    let orig = live(COLLECTOR);
    let src = orig.replacen(
        "codec::put_u64(&mut out, self.seq_opened);\n        codec::put_u64(&mut out, self.seq_recovered);",
        "codec::put_u64(&mut out, self.seq_recovered);\n        codec::put_u64(&mut out, self.seq_opened);",
        1,
    );
    assert_ne!(src, orig, "patch must apply");
    let hits = scan(vec![(COLLECTOR, src)]);
    assert!(
        hits.iter().any(|h| h.0 == "schema-drift"),
        "a field reorder must fail the digest ratchet: {hits:?}"
    );
    // The width sequence is unchanged, so symmetry itself still holds.
    assert!(
        !hits.iter().any(|h| h.0 == "codec-asymmetry"),
        "reorder of same-width fields is drift, not asymmetry: {hits:?}"
    );
}

#[test]
fn dropping_a_checkpoint_field_fails_symmetry() {
    let orig = live(COLLECTOR);
    let src = orig.replacen(
        "        codec::put_u64(&mut out, self.latency_samples);\n",
        "",
        1,
    );
    assert_ne!(src, orig, "patch must apply");
    let hits = scan(vec![(COLLECTOR, src)]);
    assert!(
        hits.iter().any(|h| h.0 == "codec-asymmetry"),
        "a dropped writer field must desynchronize the reader walk: {hits:?}"
    );
}
