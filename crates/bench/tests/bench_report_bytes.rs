//! `bench_report`'s three outputs are pinned byte for byte: the report CI
//! gates, and the OpenMetrics and JSONL exports of the `fig9/Un+fail` run's
//! series.
//! Any change to an event, a metric name, a gauge's first window or the
//! registry's iteration order shows up here as a diff.

use std::path::Path;
use std::process::Command;

#[test]
fn outputs_match_the_committed_baselines_byte_for_byte() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_report_bytes");
    let status = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .arg("--out")
        .arg(&out)
        .arg("--openmetrics")
        .arg(out.join("openmetrics.txt"))
        .arg("--series")
        .arg(out.join("series.jsonl"))
        .output()
        .expect("spawn bench_report")
        .status;
    assert!(status.success(), "bench_report exited with {status}");
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    for file in ["BENCH_fig9.json", "openmetrics.txt", "series.jsonl"] {
        let got = std::fs::read(out.join(file)).expect("bench_report wrote the file");
        let want = std::fs::read(baselines.join(file)).expect("committed baseline");
        assert!(got == want, "{file} differs from crates/bench/baselines/{file}");
    }
}
