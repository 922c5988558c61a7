//! CI guard for the ratchet baseline: it is empty and must stay empty.
//!
//! `lint-baseline.toml` grandfathers violations; every rule family is now
//! enforced at zero of them. Growing it back is the one edit this test
//! exists to make loud.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn baseline_entry_count_never_grows() {
    let path = workspace_root().join("lint-baseline.toml");
    let text = fs::read_to_string(&path).unwrap_or_default();
    let baseline = ixp_lint::baseline::parse(&text).expect("committed baseline must parse");
    // Every rule family is enforced at zero tolerated violations.
    assert!(
        baseline.entries.is_empty(),
        "lint-baseline.toml grew to {} entr(ies); the ratchet only goes down. \
         Fix the new finding or vouch for it with an inline \
         `// ixp-lint: allow(<rule>) <reason>` directive instead of baselining it.",
        baseline.entries.len(),
    );
    for e in &baseline.entries {
        assert!(
            e.reason.is_some(),
            "baseline entry {}:{} has no `reason`; every grandfathered pair must say why",
            e.file,
            e.rule,
        );
    }
}

/// Every surface that enumerates rules — the registry behind `--explain`,
/// the `--rules` alias resolver, and the JSON schema's `rules` array —
/// must agree on the same 26 ids. A rule added to one surface but not the
/// others fails here, not in the field.
#[test]
fn registry_explain_and_json_schema_stay_in_sync() {
    use ixp_lint::rules;

    for id in rules::ALL_RULES {
        assert!(
            rules::rule_info(id).is_some(),
            "rule {id} is in ALL_RULES but has no registry entry for --explain"
        );
        assert_eq!(
            rules::resolve_rule(id),
            Some(vec![*id]),
            "rule {id} must resolve to itself through --rules"
        );
    }

    // The family aliases partition ALL_RULES exactly (bad-directive is the
    // one rule outside any lN family).
    let mut from_aliases = BTreeSet::new();
    for alias in
        ["l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8", "l9", "l10", "l11", "bad-directive"]
    {
        for id in ixp_lint::rules::resolve_rule(alias).expect("family alias resolves") {
            assert!(from_aliases.insert(id), "rule {id} appears in two families");
        }
    }
    let all: BTreeSet<&str> = rules::ALL_RULES.iter().copied().collect();
    assert_eq!(from_aliases, all, "family aliases must cover ALL_RULES exactly");

    // The JSON schema's rules array lists the same ids.
    let report = ixp_lint::json::report(&[], &[]);
    let v = ixp_lint::json::parse(&report).expect("empty report parses");
    let json_ids: BTreeSet<String> = v
        .get("rules")
        .and_then(|r| r.as_arr())
        .expect("rules array")
        .iter()
        .map(|r| r.get("id").and_then(|i| i.as_str()).expect("rule id").to_string())
        .collect();
    let all_owned: BTreeSet<String> = all.iter().map(|s| s.to_string()).collect();
    assert_eq!(json_ids, all_owned, "JSON schema rules array must match ALL_RULES");
}

#[test]
fn committed_workspace_is_clean_without_any_baseline() {
    let findings = ixp_lint::scan_workspace(workspace_root()).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "the tree must lint clean with an empty ratchet:\n{}",
        findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n"),
    );
}
