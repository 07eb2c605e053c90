#![forbid(unsafe_code)]

//! wflint — token-level static analysis for the deterministic envelope.
//!
//! Every guarantee this codebase makes — byte-identical replay, `.schedule`
//! counterexamples that re-execute —
//! rests on the premise that a run is a pure function of config + pick
//! vector, and that servers journal before they ack. This crate promotes the
//! old substring lint to real analysis:
//!
//! * [`lexer`] — a lossless Rust lexer (nested block comments, raw strings,
//!   char/byte literals), so rules match code tokens, never comment text;
//! * [`envelope`] — the lint target set inferred from `Cargo.toml` workspace
//!   members and `mod` declarations instead of a hardcoded file list;
//! * [`rules`] — the rule families, with function-scope tracking for
//!   `panic-in-actor`, `commit-point-order`, and `lock-order`;
//! * [`output`] — text / JSON / GitHub-annotation rendering.
//!
//! The library is std-only (it polices the rest of the workspace, so it must
//! build before anything else) and `forbid(unsafe_code)`.
//!
//! # Typical use (what `tools/detlint` does)
//!
//! ```no_run
//! use std::path::Path;
//! let root = lint::envelope::find_workspace_root(Path::new(".")).unwrap();
//! let files = lint::envelope::infer(&root).unwrap();
//! let report = lint::lint_files(&root, &files).unwrap();
//! for f in &report.findings {
//!     eprintln!("{f}");
//! }
//! ```

pub mod envelope;
pub mod lexer;
pub mod output;
pub mod rules;

use rules::{FileLint, Finding, LockEdge};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Result of linting a file set.
#[derive(Debug)]
pub struct Report {
    /// Post-waiver findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Files linted.
    pub files_linted: usize,
}

/// Lint already-loaded sources: `(label, text)` pairs. Pure (no I/O) — the
/// golden/fixture tests drive this directly.
pub fn lint_sources(sources: &[(String, String)]) -> Report {
    let mut per_file: Vec<FileLint> =
        sources.iter().map(|(label, text)| rules::analyze(label, text)).collect();
    let edges: Vec<LockEdge> = per_file.iter().flat_map(|f| f.lock_edges.iter().cloned()).collect();
    for finding in lock_cycle_findings(&edges) {
        if let Some(fl) = per_file.iter_mut().find(|fl| fl.file == finding.0) {
            fl.push_late(finding.1, rules::LOCK_ORDER, finding.2);
        }
    }
    let mut findings: Vec<Finding> = per_file.into_iter().flat_map(FileLint::resolve).collect();
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Report { findings, files_linted: sources.len() }
}

/// Lint workspace-relative `files` under `root`.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> std::io::Result<Report> {
    let mut sources = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(root.join(f))?;
        // Normalize label separators so findings are stable across hosts.
        let label = f.to_string_lossy().replace('\\', "/");
        sources.push((label, text));
    }
    Ok(lint_sources(&sources))
}

/// Cross-file lock-order analysis: build the acquisition graph over all
/// nested-lock edges and report every edge that participates in a cycle
/// (receiver `to` can reach `from` again). Returns `(file, line, message)`
/// tuples, deterministic order.
fn lock_cycle_findings(edges: &[LockEdge]) -> Vec<(String, u32, String)> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().insert(e.to.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                for m in next {
                    if *m == to {
                        return true;
                    }
                    stack.push(m);
                }
            }
        }
        false
    };
    let mut out = Vec::new();
    let mut reported = BTreeSet::new();
    for e in edges {
        if reaches(&e.to, &e.from) && reported.insert((e.file.clone(), e.line)) {
            out.push((
                e.file.clone(),
                e.line,
                format!(
                    "lock-order cycle: `fn {}` acquires `{}` while holding `{}`, but `{}` is also acquired while `{}` is held elsewhere — potential deadlock",
                    e.func, e.to, e.from, e.from, e.to
                ),
            ));
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src_report(files: &[(&str, &str)]) -> Report {
        let owned: Vec<(String, String)> =
            files.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
        lint_sources(&owned)
    }

    #[test]
    fn cross_file_lock_cycle_is_detected() {
        let a = "fn f() { let g = alpha.lock(); beta.lock(); }";
        let b = "fn g() { let g = beta.lock(); alpha.lock(); }";
        let r = src_report(&[("a.rs", a), ("b.rs", b)]);
        let locks: Vec<_> = r.findings.iter().filter(|f| f.rule == rules::LOCK_ORDER).collect();
        assert_eq!(locks.len(), 2, "both edges of the cycle are reported: {:?}", r.findings);
        assert!(locks.iter().any(|f| f.file == "a.rs"));
        assert!(locks.iter().any(|f| f.file == "b.rs"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let a = "fn f() { let g = alpha.lock(); beta.lock(); }";
        let b = "fn g() { let g = alpha.lock(); beta.lock(); }";
        let r = src_report(&[("a.rs", a), ("b.rs", b)]);
        assert!(
            r.findings.iter().all(|f| f.rule != rules::LOCK_ORDER),
            "same order everywhere must not report: {:?}",
            r.findings
        );
    }

    #[test]
    fn non_nested_locks_make_no_edges() {
        // The first guard is a temporary (dies at `;`), so the second
        // acquisition is not nested.
        let a = "fn f() { alpha.lock().push(1); beta.lock().push(2); }";
        let b = "fn g() { beta.lock().push(1); alpha.lock().push(2); }";
        let r = src_report(&[("a.rs", a), ("b.rs", b)]);
        assert!(r.findings.iter().all(|f| f.rule != rules::LOCK_ORDER), "{:?}", r.findings);
    }

    #[test]
    fn reentrant_relock_is_reported() {
        let a = "fn f() { let g = m.lock(); m.lock(); }";
        let r = src_report(&[("a.rs", a)]);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == rules::LOCK_ORDER && f.message.contains("re-entrant")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn findings_are_sorted_and_labeled() {
        let r = src_report(&[
            ("b.rs", "use std::collections::HashMap;\n"),
            ("a.rs", "fn f() { let t = Instant::now(); }\n"),
        ]);
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[0].rule, rules::AMBIENT_TIME);
        assert_eq!(r.findings[1].file, "b.rs");
        assert_eq!(r.findings[1].rule, rules::HASHMAP);
    }
}
