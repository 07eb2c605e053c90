//! Self-lint: run the real envelope inference and rules over this very
//! workspace. Guards two properties end to end:
//!
//! 1. inference is no narrower than the old hardcoded `DEFAULT_TARGETS`
//!    list the CLI shipped with before envelope inference existed, and
//! 2. the tree is clean — no finding, no baseline to hide one in — the same
//!    invariant CI enforces, so `cargo test` catches it first.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let p = entry.unwrap().path();
        if p.is_dir() {
            rs_files_under(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn inferred_envelope_covers_old_default_targets() {
    let root = root();
    let files = lint::envelope::infer(&root).unwrap();
    let set: BTreeSet<String> =
        files.iter().map(|f| f.to_string_lossy().replace('\\', "/")).collect();
    // The pre-inference CLI hardcoded these roots. Inference derives the set
    // from manifests and `mod` trees instead, and must not lose any of them.
    let old_targets = [
        "crates/sim-core/src",
        "crates/net/src/des.rs",
        "crates/wfcr/src",
        "crates/staging/src",
        "crates/shardmap/src",
        "crates/obs/src",
        "crates/supervise/src",
    ];
    for target in old_targets {
        let full = root.join(target);
        if full.is_file() {
            assert!(set.contains(target), "inferred envelope lost {target}");
        } else {
            let mut under = Vec::new();
            rs_files_under(&full, &mut under);
            assert!(!under.is_empty(), "{target} has no .rs files?");
            for f in under {
                let rel = f.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
                assert!(set.contains(&rel), "inferred envelope lost {rel}");
            }
        }
    }
}

#[test]
fn workspace_is_clean() {
    let root = root();
    let files = lint::envelope::infer(&root).unwrap();
    let report = lint::lint_files(&root, &files).unwrap();
    assert!(
        report.findings.is_empty(),
        "lint findings (fix them; there is no baseline): {:#?}",
        report.findings
    );
    assert!(!root.join("lint-baseline.json").exists(), "the ratchet is closed: no baseline file");
}
