//! `bench_report` — distill deterministic runs into a canonical
//! `BENCH_fig9.json` regression report.
//!
//! Runs the fig9-style smoke matrix (tiny workload: logging vs. coordinated
//! protocol fault-free, plus one failure at 700 ms of each shape the paper
//! contrasts) with telemetry enabled and writes one `telemetry::BenchReport`
//! covering the metrics the paper's evaluation cares about: execution time,
//! write-path p99, peak staging memory, the determinism anchors (puts,
//! events dispatched, scrape windows, digest mismatches — all bit-exact for
//! a given seed), on the failure rows what the recovery did (rollbacks,
//! replayed gets, absorbed puts, stale reads, re-executed steps) and on the
//! hybrid row what log collection reclaimed.
//!
//! CI's `metrics-gate` job regenerates this file and gates it against the
//! committed baseline in `crates/bench/baselines/` with
//! `wf-metrics gate`; see that tool for the tolerance semantics.
//!
//! ```text
//! bench_report                      # write ./BENCH_fig9.json
//! bench_report --out target/bench   # write there instead
//! bench_report --openmetrics om.txt # also export one run's series
//! ```

use sim_core::time::SimTime;
use telemetry::{BenchReport, Direction};
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec, WorkflowConfig};
use workflow::runner::run;
use workflow::TelemetryCfg;

/// The series export flags write this row's series: the consumer's
/// recovery under logging, whose timeline has a replay to show.
const EXPORTED_ROW: &str = "fig9/Un+fail";

/// The producer and the consumer of `tiny`.
const PRODUCER: u32 = 0;
const CONSUMER: u32 = 1;

/// The benched matrix: fault-free logging and coordinated runs, then one
/// failure at 700 ms per row. The failure rows cover the
/// consumer failing under Un (the fig9e "1 failure" shape: it recovers off
/// the critical path, so its time equals the fault-free run's), the
/// producer failing under Un (its re-executed puts are absorbed by the
/// log), the consumer failing again 35 ms later, inside the first
/// failure's 70 ms ULFM repair (the repair restarts), and the consumer
/// failing under In (stale reads by design: the positive control) and
/// under Co. The fault-free hybrid row gates log collection with a
/// replicated reader, which must not pin the collection floor.
fn matrix() -> Vec<(&'static str, WorkflowConfig)> {
    let telemetry = TelemetryCfg::windowed(SimTime::from_millis(500));
    let clean = |protocol| tiny(protocol).with_telemetry(telemetry.clone());
    let failing_at = |protocol, app, at_ms: &[u64]| {
        let at = at_ms.iter().map(|&ms| FailureSpec::At { at: SimTime::from_millis(ms), app });
        clean(protocol).with_failures(at.collect())
    };
    let failing = |protocol, app| failing_at(protocol, app, &[700]);
    vec![
        ("fig9/Un", clean(WorkflowProtocol::Uncoordinated)),
        ("fig9/Co", clean(WorkflowProtocol::Coordinated)),
        ("fig9/Hy", clean(WorkflowProtocol::Hybrid)),
        ("fig9/Un+fail", failing(WorkflowProtocol::Uncoordinated, CONSUMER)),
        ("fig9/Un+fail-producer", failing(WorkflowProtocol::Uncoordinated, PRODUCER)),
        (
            "fig9/Un+fail-in-ulfm",
            failing_at(WorkflowProtocol::Uncoordinated, CONSUMER, &[700, 735]),
        ),
        ("fig9/In+fail", failing(WorkflowProtocol::Individual, CONSUMER)),
        // Pins an unfixed defect of the coordinated baseline (ROADMAP item
        // 1b): `stale_gets` reads 16 because a put the producer's
        // pre-rollback incarnation left in flight survives the
        // `GlobalReset` (tests/crash_consistency_cases.rs pins it too). The
        // fix must turn it into 0.
        ("fig9/Co+fail", failing(WorkflowProtocol::Coordinated, CONSUMER)),
    ]
}

fn build_report() -> (BenchReport, String, String) {
    let mut report = BenchReport::new("fig9");
    let mut openmetrics = String::new();
    let mut jsonl = String::new();
    for (id, cfg) in matrix() {
        let r = run(&cfg);
        let row = report.push_row(id);
        // Deterministic virtual-time metrics: tolerances exist for the day
        // a metric becomes wall-clock-derived, not because these drift.
        row.metric("total_time_s", r.total_time_s, Direction::LargerWorse, 0.02);
        row.metric("p99_put_response_s", r.p99_put_response_s(), Direction::LargerWorse, 0.05);
        row.metric(
            "staging_peak_mib",
            r.staging_peak_bytes as f64 / (1 << 20) as f64,
            Direction::LargerWorse,
            0.05,
        );
        row.metric("puts", r.puts() as f64, Direction::Exact, 0.0);
        row.metric("digest_mismatches", r.digest_mismatches as f64, Direction::Exact, 0.0);
        row.metric("events_dispatched", r.events_dispatched as f64, Direction::Exact, 0.0);
        let series = r.series.as_ref().expect("telemetry-on run attaches a series");
        row.metric("scrape_windows", series.windows.len() as f64, Direction::Exact, 0.0);
        if !cfg.failures.is_empty() {
            row.metric("recoveries", r.recoveries() as f64, Direction::Exact, 0.0);
            row.metric("replayed_gets", r.replayed_gets as f64, Direction::Exact, 0.0);
            row.metric("absorbed_puts", r.absorbed_puts as f64, Direction::Exact, 0.0);
            row.metric("stale_gets", r.stale_gets as f64, Direction::Exact, 0.0);
            row.metric("rollback_steps", r.rollback_steps() as f64, Direction::Exact, 0.0);
        }
        if cfg.protocol == WorkflowProtocol::Hybrid {
            let reclaimed = r.gc_reclaimed_bytes as f64 / (1 << 20) as f64;
            row.metric("gc_reclaimed_mib", reclaimed, Direction::SmallerWorse, 0.05);
        }
        if id == EXPORTED_ROW {
            openmetrics = telemetry::export::to_openmetrics(series);
            jsonl = telemetry::export::to_jsonl(series);
        }
        eprintln!("{}", r.summary());
    }
    (report, openmetrics, jsonl)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out_dir = ".".to_string();
    let mut om_path: Option<String> = None;
    let mut series_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_dir = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--openmetrics" => {
                om_path = args.get(i + 1).cloned();
                if om_path.is_none() {
                    eprintln!("--openmetrics requires a path");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--series" => {
                series_path = args.get(i + 1).cloned();
                if series_path.is_none() {
                    eprintln!("--series requires a path");
                    std::process::exit(2);
                }
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_report [--out DIR] [--openmetrics FILE] [--series FILE]");
                std::process::exit(2);
            }
        }
    }

    let (report, openmetrics, jsonl) = build_report();
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = format!("{out_dir}/{}", report.file_name());
    std::fs::write(&path, report.to_json()).expect("write bench report");
    eprintln!("wrote {path}");
    if let Some(p) = om_path {
        std::fs::write(&p, openmetrics).expect("write openmetrics export");
        eprintln!("wrote {p}");
    }
    if let Some(p) = series_path {
        std::fs::write(&p, jsonl).expect("write series export");
        eprintln!("wrote {p}");
    }
}
