#![forbid(unsafe_code)]

//! wf-metrics — analyzer for the windowed telemetry series exported by
//! workflow runs (see the `telemetry` crate).
//!
//! Reads a series exported with `telemetry::export::to_jsonl` (attached to
//! a `RunReport` when the workflow runs with `TelemetryCfg`) and answers
//! the questions dashboards would: what moved per window and what changed
//! between two runs.
//!
//! Subcommands (file arguments are always last):
//!
//! * `wf-metrics summary <series.jsonl>` — per-metric overview: counter
//!   totals, gauge close/peak values, histogram counts and p50/p99/p999.
//! * `wf-metrics diff <runA.jsonl> <runB.jsonl>` — run-to-run comparison:
//!   counter totals and histogram quantiles side by side with drift.
//! * `wf-metrics export <series.jsonl>` — OpenMetrics text exposition on
//!   stdout (what CI uploads as an artifact).
//! * `wf-metrics gate <baseline.json> <fresh.json>` — bench regression
//!   gate over two `BENCH_*.json` reports; lists every metric that
//!   worsened beyond its committed tolerance. Exit 1 on regression.
//!
//! All output is derived from virtual time and is byte-deterministic for
//! the given input files.

use std::process::ExitCode;

use telemetry::{bench, export, Series};

/// Nanoseconds → `S.mmmuuu ms`, integer math only, so output bytes are a
/// pure function of the input.
fn fmt_ms(ns: u64) -> String {
    format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn load_series(path: &str) -> Result<Series, String> {
    export::from_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Quantile cell for the summary/diff tables: value or `-` when empty.
fn q_cell(h: &telemetry::Histogram, q: f64) -> String {
    h.quantile(q).map_or_else(|| "-".into(), fmt_ms)
}

fn cmd_summary(series: &Series) {
    let span = series.windows.last().map_or(0, |w| w.end_ns);
    println!(
        "{} windows of {} (span {})",
        series.windows.len(),
        fmt_ms(series.window_ns),
        fmt_ms(span)
    );

    let counters = series.counter_names();
    if !counters.is_empty() {
        println!("{:<34} {:>12}", "counter", "total");
        for name in &counters {
            let total: u64 = series.counter_points(name).map(|(_, v)| v).sum();
            println!("{name:<34} {total:>12}");
        }
    }

    // Gauge names, ordered, from every window (a gauge can appear late).
    let mut gauges: Vec<String> = Vec::new();
    for w in &series.windows {
        for (n, _) in &w.gauges {
            if !gauges.contains(n) {
                gauges.push(n.clone());
            }
        }
    }
    gauges.sort();
    if !gauges.is_empty() {
        println!("{:<34} {:>12} {:>12}", "gauge", "last", "peak");
        for name in &gauges {
            let pts: Vec<i64> = series.gauge_points(name).map(|(_, v)| v).collect();
            let last = pts.last().copied().unwrap_or(0);
            let peak = pts.iter().copied().max().unwrap_or(0);
            println!("{name:<34} {last:>12} {peak:>12}");
        }
    }

    let mut hists: Vec<String> = Vec::new();
    for w in &series.windows {
        for (n, _) in &w.hists {
            if !hists.contains(n) {
                hists.push(n.clone());
            }
        }
    }
    hists.sort();
    if !hists.is_empty() {
        println!(
            "{:<34} {:>9} {:>12} {:>12} {:>12} {:>12}",
            "histogram", "count", "p50", "p99", "p999", "max"
        );
        for name in &hists {
            let Some(h) = series.cumulative_hist(name) else { continue };
            println!(
                "{:<34} {:>9} {:>12} {:>12} {:>12} {:>12}",
                name,
                h.count(),
                q_cell(&h, 0.50),
                q_cell(&h, 0.99),
                q_cell(&h, 0.999),
                h.max().map_or_else(|| "-".into(), fmt_ms)
            );
        }
    }
}

/// Signed drift cell `a -> b` for the diff table.
fn drift(a: u64, b: u64) -> String {
    if b >= a {
        format!("+{}", b - a)
    } else {
        format!("-{}", a - b)
    }
}

fn cmd_diff(a: &Series, b: &Series) {
    println!(
        "A: {} windows of {}   B: {} windows of {}",
        a.windows.len(),
        fmt_ms(a.window_ns),
        b.windows.len(),
        fmt_ms(b.window_ns)
    );

    let mut counters = a.counter_names();
    for n in b.counter_names() {
        if !counters.contains(&n) {
            counters.push(n);
        }
    }
    counters.sort();
    if !counters.is_empty() {
        println!("{:<34} {:>12} {:>12} {:>12}", "counter", "A", "B", "drift");
        for name in &counters {
            let ta: u64 = a.counter_points(name).map(|(_, v)| v).sum();
            let tb: u64 = b.counter_points(name).map(|(_, v)| v).sum();
            if ta == tb {
                continue; // only show what moved
            }
            println!("{:<34} {:>12} {:>12} {:>12}", name, ta, tb, drift(ta, tb));
        }
    }

    let mut hists: Vec<String> = Vec::new();
    for s in [a, b] {
        for w in &s.windows {
            for (n, _) in &w.hists {
                if !hists.contains(n) {
                    hists.push(n.clone());
                }
            }
        }
    }
    hists.sort();
    if !hists.is_empty() {
        println!(
            "{:<34} {:>12} {:>12} {:>12} {:>12}",
            "histogram p99", "A", "B", "A count", "B count"
        );
        for name in &hists {
            let ha = a.cumulative_hist(name);
            let hb = b.cumulative_hist(name);
            let cell = |h: &Option<telemetry::Histogram>, q: f64| {
                h.as_ref().map_or_else(|| "-".into(), |h| q_cell(h, q))
            };
            let count = |h: &Option<telemetry::Histogram>| {
                h.as_ref().map_or(0, telemetry::Histogram::count)
            };
            println!(
                "{:<34} {:>12} {:>12} {:>12} {:>12}",
                name,
                cell(&ha, 0.99),
                cell(&hb, 0.99),
                count(&ha),
                count(&hb)
            );
        }
    }
}

fn cmd_gate(baseline_path: &str, fresh_path: &str) -> Result<ExitCode, String> {
    let baseline = bench::BenchReport::from_json(&read(baseline_path)?)
        .map_err(|e| format!("{baseline_path}: {e}"))?;
    let fresh = bench::BenchReport::from_json(&read(fresh_path)?)
        .map_err(|e| format!("{fresh_path}: {e}"))?;
    let regressions = bench::compare(&baseline, &fresh);
    if regressions.is_empty() {
        let metrics: usize = baseline.rows.iter().map(|r| r.metrics.len()).sum();
        println!("gate: ok ({} rows, {} metrics within tolerance)", baseline.rows.len(), metrics);
        Ok(ExitCode::SUCCESS)
    } else {
        for r in &regressions {
            println!("regression: {}", r.describe());
        }
        println!("gate: {} regression(s)", regressions.len());
        Ok(ExitCode::FAILURE)
    }
}

const USAGE: &str =
    "usage: wf-metrics <summary <series>|diff <a> <b>|export <series>|gate <baseline> <fresh>>";

/// Parsed invocation: which report to produce over which files.
enum Cmd {
    Summary(String),
    Diff(String, String),
    Export(String),
    Gate(String, String),
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let one = |args: &[String]| match args {
        [f] => Ok(f.clone()),
        _ => Err(USAGE.to_string()),
    };
    let two = |args: &[String]| match args {
        [a, b] => Ok((a.clone(), b.clone())),
        _ => Err(USAGE.to_string()),
    };
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "summary" => Ok(Cmd::Summary(one(rest)?)),
            "diff" => two(rest).map(|(a, b)| Cmd::Diff(a, b)),
            "export" => Ok(Cmd::Export(one(rest)?)),
            "gate" => two(rest).map(|(b, f)| Cmd::Gate(b, f)),
            // Bare `wf-metrics <file>` defaults to the summary report.
            f if !f.starts_with('-') && rest.is_empty() => Ok(Cmd::Summary(f.to_string())),
            _ => Err(USAGE.to_string()),
        },
        None => Err(USAGE.to_string()),
    }
}

fn run(cmd: Cmd) -> Result<ExitCode, String> {
    match cmd {
        Cmd::Summary(f) => {
            cmd_summary(&load_series(&f)?);
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Diff(a, b) => {
            cmd_diff(&load_series(&a)?, &load_series(&b)?);
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Export(f) => {
            print!("{}", export::to_openmetrics(&load_series(&f)?));
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Gate(b, f) => cmd_gate(&b, &f),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(cmd) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wf-metrics: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn fmt_ms_is_integer_math() {
        assert_eq!(fmt_ms(0), "0.000ms");
        assert_eq!(fmt_ms(1_234_567), "1.234ms");
        assert_eq!(fmt_ms(2_000_001_000), "2000.001ms");
    }

    #[test]
    fn drift_is_signed() {
        assert_eq!(drift(5, 8), "+3");
        assert_eq!(drift(8, 5), "-3");
        assert_eq!(drift(5, 5), "+0");
    }

    #[test]
    fn parses_subcommands() {
        assert!(matches!(parse_args(&s(&["t.jsonl"])), Ok(Cmd::Summary(f)) if f == "t.jsonl"));
        assert!(matches!(parse_args(&s(&["summary", "t.jsonl"])), Ok(Cmd::Summary(_))));
        assert!(matches!(parse_args(&s(&["diff", "a.jsonl", "b.jsonl"])), Ok(Cmd::Diff(..))));
        assert!(matches!(parse_args(&s(&["export", "t.jsonl"])), Ok(Cmd::Export(_))));
        assert!(matches!(parse_args(&s(&["gate", "base.json", "fresh.json"])), Ok(Cmd::Gate(..))));
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["bogus", "x", "t.jsonl"])).is_err());
        assert!(parse_args(&s(&["diff", "a.jsonl"])).is_err());
        assert!(parse_args(&s(&["gate", "base.json"])).is_err());
        assert!(parse_args(&s(&["--help"])).is_err());
    }
}
