//! `hostbench repeat W -n K`: K runs of one workload, one process each, on
//! seeds `seed, seed+1, …`, summarised per metric. The JSON it prints is what
//! `baseline/set_a.json` and `set_b.json` hold; the table on stderr is for
//! reading.

use crate::report::ResultLine;
use crate::spec;
use crate::Args;
use serde::Serialize;
use std::collections::BTreeMap;
use std::process::Command;

#[derive(Serialize)]
struct Row {
    unit: String,
    min: f64,
    median: f64,
    max: f64,
    /// (max − min) / median.
    range_over_median: f64,
    /// (third quartile − first quartile) / median, quartiles as Python's
    /// `statistics.quantiles(values, n=4)` computes them.
    iqr_over_median: f64,
    /// The metric's regression bound (end-to-end metrics only).
    bound: Option<f64>,
    /// The range exceeds the bound: this sample alone could not tell a
    /// regression of that size from noise.
    over_bound: bool,
    values: Vec<f64>,
}

#[derive(Serialize)]
struct Summary {
    workload: String,
    trace: bool,
    seconds: u64,
    seeds: Vec<u64>,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Row>,
}

/// Quartiles by the exclusive method (`statistics.quantiles` default).
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    (at(0.25), at(0.75))
}

fn summarise(name: &str, unit: &str, mut values: Vec<f64>) -> Row {
    let raw = values.clone();
    values.sort_by(f64::total_cmp);
    let (min, max) = (values[0], values[values.len() - 1]);
    let median = crate::stats::median(&mut values);
    let (q1, q3) = quartiles(&values);
    let rel = |x: f64| if median == 0.0 { 0.0 } else { x / median.abs() };
    let bound = spec::E2E.iter().find(|m| m.name == name).map(|m| m.bound);
    Row {
        unit: unit.to_string(),
        min,
        median,
        max,
        range_over_median: rel(max - min),
        iqr_over_median: rel(q3 - q1),
        bound,
        over_bound: bound.is_some_and(|b| rel(max - min) > b),
        values: raw,
    }
}

/// K runs of `workload`, summarised; prints the table to stderr.
fn repeat_one(args: &Args, workload: &str) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let seeds: Vec<u64> = (0..args.repeats as u64).map(|i| args.seed + i).collect();
    let mut columns: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for &seed in &seeds {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(dir) = &args.dir {
            cmd.arg("--dir").arg(dir);
        }
        let out = cmd.output().map_err(|e| format!("spawning a run: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line: ResultLine =
            text.lines().last().and_then(|l| serde_json::from_str(l).ok()).ok_or_else(|| {
                format!(
                    "{workload} seed {seed}: no result line; stderr: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        attempted += line.attempted;
        failed += line.failed;
        for (name, m) in line.metrics {
            columns.entry(name).or_insert_with(|| (m.unit, Vec::new())).1.push(m.value);
        }
    }
    let metrics: BTreeMap<String, Row> = columns
        .into_iter()
        .map(|(name, (unit, values))| {
            let row = summarise(&name, &unit, values);
            (name, row)
        })
        .collect();
    eprintln!(
        "{workload:36} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "min", "median", "max", "range%", "iqr%", "bound%"
    );
    for (name, r) in &metrics {
        eprintln!(
            "{:36} {:>14.4} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>6} {}{}",
            name,
            r.min,
            r.median,
            r.max,
            r.range_over_median * 100.0,
            r.iqr_over_median * 100.0,
            r.bound.map_or(String::new(), |b| format!("{:.1}", b * 100.0)),
            r.unit,
            if r.over_bound { "  <-- range over bound" } else { "" }
        );
    }
    Ok(Summary {
        workload: workload.to_string(),
        trace: args.trace,
        seconds: args.seconds,
        seeds,
        attempted,
        failed,
        metrics,
    })
}

/// `repeat W`: one summary; `repeat all`: the list over every workload.
pub fn repeat(args: &Args) -> Result<bool, String> {
    let summaries: Vec<Summary> = if args.workload == "all" {
        spec::WORKLOADS.iter().map(|w| repeat_one(args, w.name)).collect::<Result<_, _>>()?
    } else if spec::workload(&args.workload).is_some() {
        vec![repeat_one(args, &args.workload)?]
    } else {
        return Err(format!("unknown workload `{}`", args.workload));
    };
    let failed: u64 = summaries.iter().map(|s| s.failed).sum();
    println!("{}", serde_json::to_string_pretty(&summaries).expect("summaries serialize"));
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        let row = summarise("steps_per_s", "1/s", vec![100.0, 90.0, 110.0, 95.0, 105.0]);
        assert_eq!((row.min, row.median, row.max), (90.0, 100.0, 110.0));
        assert!((row.range_over_median - 0.2).abs() < 1e-12);
        assert_eq!(row.over_bound, 0.2 > row.bound.expect("an end-to-end metric has a bound"));
        assert!(summarise("backend.puts", "count", vec![1.0, 9.0]).bound.is_none());
        assert_eq!(row.values[1], 90.0, "values keep run order");
    }
}
