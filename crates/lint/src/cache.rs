//! Content-hash incremental lint cache (`target/lint-cache/`).
//!
//! Two layers, both keyed by FNV-1a-64 content digests so a stale entry
//! is structurally impossible — there is no mtime anywhere:
//!
//! * **fixpoint entry** — the final, post-suppression, sorted findings of
//!   a whole-workspace run, keyed by the *rule-registry digest* (every
//!   rule id/family/severity/summary plus the codec registry and the
//!   cache format const — any lint upgrade invalidates everything) and
//!   the *workspace digest* (every file path and content digest). A hit
//!   skips the entire analysis: this is the warm-CI path.
//! * **per-file entries** — the pure per-file findings (token rules +
//!   determinism) of one file, keyed by path, content digest, and the
//!   registry digest. When one file changes, the workspace digest misses
//!   but every other file's token findings load from here; the
//!   cross-file fixpoint passes (L4–L11) always recompute, because their
//!   inputs span files. That is the invalidation contract the cache
//!   tests pin: a one-byte edit costs exactly one per-file recompute
//!   plus the fixpoint passes.
//!
//! Entries are written atomically (temp file + rename), and any parse
//! failure or digest mismatch degrades to a miss — the cache can be
//! deleted at any time with no effect but wall-clock.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::codec_sym;
use crate::rules;
use crate::Finding;

/// Bump to invalidate every cache entry on a format change.
const CACHE_FORMAT: &str = "ixp-lint-cache/1";

/// What a cached scan can report about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Files whose per-file findings loaded from cache.
    pub file_hits: usize,
    /// Files analyzed from scratch.
    pub file_misses: usize,
    /// Whole-workspace result loaded; no analysis ran at all.
    pub fixpoint_hit: bool,
}

/// FNV-1a-64 (same constants as the sealed-file checksum in `ixp_obs::codec`).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of everything that defines the linter's behavior: the rule
/// registry, the codec registry (file/fn names, versions, pinned schema
/// digests), and the cache format itself.
pub fn registry_digest() -> u64 {
    let mut canon = String::from(CACHE_FORMAT);
    for r in rules::RULES {
        canon.push('|');
        canon.push_str(r.id);
        canon.push('/');
        canon.push_str(r.family);
        canon.push('/');
        canon.push_str(r.severity);
        canon.push('/');
        canon.push_str(r.summary);
    }
    for p in codec_sym::REGISTRY {
        canon.push('|');
        canon.push_str(p.file);
        canon.push(':');
        canon.push_str(p.writer.1);
        canon.push('/');
        canon.push_str(p.reader.1);
        canon.push(':');
        canon.push_str(p.version_ident.unwrap_or("-"));
        canon.push_str(&format!(":{:016x}", p.digest));
    }
    fnv64(canon.as_bytes())
}

/// Digest of the whole input set: every path with its content digest.
/// Files arrive sorted from the workspace walk, so this is stable.
pub fn workspace_digest(files: &[(String, String)], digests: &[u64]) -> u64 {
    let mut canon = String::new();
    for ((path, _), d) in files.iter().zip(digests) {
        canon.push_str(path);
        canon.push_str(&format!(":{d:016x}|"));
    }
    fnv64(canon.as_bytes())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('\x1f', "\\t")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\x1f'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn render_findings(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}\x1f{}\x1f{}\x1f{}\x1f{}\n",
            escape(&f.file),
            f.line,
            f.col,
            f.rule,
            escape(&f.message)
        ));
    }
    out
}

/// Parse serialized findings; `None` on any malformed line (→ miss).
fn parse_findings(body: &str) -> Option<Vec<Finding>> {
    let mut out = Vec::new();
    for line in body.lines() {
        let mut parts = line.split('\x1f');
        let file = unescape(parts.next()?);
        let line_no: u32 = parts.next()?.parse().ok()?;
        let col: u32 = parts.next()?.parse().ok()?;
        let rule_name = parts.next()?;
        // Findings carry `&'static str` rules: map back into the registry.
        let rule = *rules::ALL_RULES.iter().find(|r| **r == rule_name)?;
        let message = unescape(parts.next()?);
        if parts.next().is_some() {
            return None;
        }
        out.push(Finding::at(&file, line_no, col, rule, &message));
    }
    Some(out)
}

/// Atomically write `content` at `dir/name`. Failures are swallowed —
/// a cache that cannot be written is a cache that misses next time.
fn write_entry(dir: &Path, name: &str, content: &str) {
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!("{name}.tmp{}", std::process::id()));
    let write = fs::File::create(&tmp).and_then(|mut f| f.write_all(content.as_bytes()));
    if write.is_ok() {
        let _ = fs::rename(&tmp, dir.join(name));
    } else {
        let _ = fs::remove_file(&tmp);
    }
}

fn read_entry(dir: &Path, name: &str, expect_header: &str) -> Option<String> {
    let text = fs::read_to_string(dir.join(name)).ok()?;
    let (format_line, rest) = text.split_once('\n')?;
    if format_line != CACHE_FORMAT {
        return None;
    }
    let (header, body) = rest.split_once('\n')?;
    if header != expect_header {
        return None;
    }
    Some(body.to_string())
}

fn fixpoint_name() -> &'static str {
    "fixpoint.ck"
}

fn per_file_name(path: &str, digest: u64, registry: u64) -> String {
    format!("pf-{:016x}.ck", fnv64(format!("{path}:{digest:016x}:{registry:016x}").as_bytes()))
}

/// Load the whole-workspace result if registry and workspace match.
pub fn load_fixpoint(dir: &Path, registry: u64, workspace: u64) -> Option<Vec<Finding>> {
    let header = format!("{registry:016x} {workspace:016x}");
    parse_findings(&read_entry(dir, fixpoint_name(), &header)?)
}

/// Store the whole-workspace result.
pub fn store_fixpoint(dir: &Path, registry: u64, workspace: u64, findings: &[Finding]) {
    let content = format!(
        "{CACHE_FORMAT}\n{registry:016x} {workspace:016x}\n{}",
        render_findings(findings)
    );
    write_entry(dir, fixpoint_name(), &content);
}

/// Load one file's per-file findings if its content digest matches.
pub fn load_per_file(
    dir: &Path,
    path: &str,
    digest: u64,
    registry: u64,
) -> Option<Vec<Finding>> {
    let header = format!("{registry:016x} {digest:016x} {}", escape(path));
    parse_findings(&read_entry(dir, &per_file_name(path, digest, registry), &header)?)
}

/// Store one file's per-file findings.
pub fn store_per_file(
    dir: &Path,
    path: &str,
    digest: u64,
    registry: u64,
    findings: &[Finding],
) {
    let content = format!(
        "{CACHE_FORMAT}\n{registry:016x} {digest:016x} {}\n{}",
        escape(path),
        render_findings(findings)
    );
    write_entry(dir, &per_file_name(path, digest, registry), &content);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ixp-lint-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn findings_round_trip_with_escapes() {
        let findings = vec![
            Finding::at("a/b.rs", 3, 7, "no-unwrap", "line one\nline two \\ back"),
            Finding::at("a/π.rs", 1, 1, "error-sink", "plain"),
        ];
        let parsed = parse_findings(&render_findings(&findings)).expect("parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].message, "line one\nline two \\ back");
        assert_eq!(parsed[0].col, 7);
        assert_eq!(parsed[1].file, "a/π.rs");
    }

    #[test]
    fn unknown_rule_is_a_miss_not_a_panic() {
        assert!(parse_findings("f\x1f1\x1f1\x1fnot-a-rule\x1fm\n").is_none());
    }

    #[test]
    fn fixpoint_store_load_honors_both_digests() {
        let dir = tmp_dir("fx");
        let findings = vec![Finding::at("x.rs", 1, 2, "no-panic", "m")];
        store_fixpoint(&dir, 7, 9, &findings);
        assert_eq!(load_fixpoint(&dir, 7, 9).as_deref(), Some(&findings[..]));
        assert!(load_fixpoint(&dir, 7, 10).is_none());
        assert!(load_fixpoint(&dir, 8, 9).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_file_store_load_honors_digest_and_path() {
        let dir = tmp_dir("pf");
        let findings = vec![Finding::at("a.rs", 2, 4, "no-index", "m")];
        store_per_file(&dir, "a.rs", 11, 5, &findings);
        assert_eq!(load_per_file(&dir, "a.rs", 11, 5).as_deref(), Some(&findings[..]));
        assert!(load_per_file(&dir, "a.rs", 12, 5).is_none());
        assert!(load_per_file(&dir, "b.rs", 11, 5).is_none());
        assert!(load_per_file(&dir, "a.rs", 11, 6).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_digest_is_stable_within_a_build() {
        assert_eq!(registry_digest(), registry_digest());
        assert_ne!(registry_digest(), 0);
    }
}
