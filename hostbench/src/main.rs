#![forbid(unsafe_code)]

//! `hostbench` — the repository's host-time benchmark. See `README.md` in
//! this directory for the metric glossary and the commands.
//!
//! ```text
//! hostbench --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json's form)
//! hostbench run W [--seed N] [--seconds S] [--trace] [--dir D] [--trace-out F] [--selftest-corrupt]
//! hostbench layers [--seed N]
//! hostbench repeat W [-n 5] [--seed N] [--seconds S] [--trace]
//! hostbench spec
//! ```
//!
//! Every run prints a detail line (sample counts, counts, what does not
//! apply) and, last, the contract's result line; it exits non-zero when a
//! correctness check failed.

mod des;
mod drive;
mod fleet;
mod gen;
mod place;
mod probes;
mod repeat;
mod report;
mod span;
mod spec;
mod stats;
mod timed;

use drive::{RoundCfg, RoundOut, Verdicts};
use report::{Calibrant, Metrics, ResultLine};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Budget of each calibrant reading.
const CALIBRANT: Duration = Duration::from_millis(200);
/// Budget of each isolated probe inside a traced run, and on its own under
/// `hostbench layers` (ISSUE 11's "at least 1 s").
const PROBE_IN_RUN: Duration = Duration::from_millis(60);
const PROBE_ALONE: Duration = Duration::from_secs(1);
/// Spans kept when a traced round is written out for a trace viewer.
const TRACE_OUT_SPANS: usize = 200_000;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub dir: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub corrupt: bool,
    pub repeats: usize,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: hostbench [run|repeat|layers|spec] [WORKLOAD] [--workload W] [--seed N] \
         [--seconds S] [--trace [0|1]] [--dir D] [--trace-out F] [--selftest-corrupt] [-n K]\
         \nworkloads: {}\nseeds: {} while developing a change, {} held back to confirm it",
        names.join(", "),
        spec::DEV_SEED,
        spec::HELD_BACK_SEED
    )
}

fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let mut args = Args {
        workload: String::new(),
        seed: spec::DEV_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        dir: None,
        trace_out: None,
        corrupt: false,
        repeats: 5,
    };
    let mut mode = String::from("run");
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with('-')) {
        mode = first.to_string();
        it.next();
        if let Some(w) = it.peek().filter(|a| !a.starts_with('-')) {
            args.workload = w.to_string();
            it.next();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        let number =
            |s: String| s.parse::<u64>().map_err(|_| format!("{flag}: `{s}` is not a number"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => args.seconds = number(value("a number")?)?.clamp(1, 60),
            "-n" => args.repeats = number(value("a number")?)?.max(2) as usize,
            "--dir" => args.dir = Some(PathBuf::from(value("a directory")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a file")?)),
            "--selftest-corrupt" => args.corrupt = true,
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((mode, args))
}

/// The run's scratch tree; removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(args: &Args) -> std::io::Result<Scratch> {
        let root = args.dir.clone().unwrap_or_else(|| {
            let target =
                std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
            target.join("hostbench").join(format!("{}-{}", args.workload, std::process::id()))
        });
        std::fs::create_dir_all(&root)?;
        Ok(Scratch(root))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a workload hands back: what it measured (end-to-end metrics, or its
/// traced layers), the verdicts, and the detail line's part of it.
struct RunOutcome {
    metrics: Metrics,
    verdicts: Verdicts,
    detail: Detail,
}

/// The detail line printed before the result line.
#[derive(Debug, Default, Serialize)]
pub struct Detail {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Rounds (threaded) or sweeps (`des_fig10`) measured.
    pub rounds: u64,
    /// Steps/s of each round (traced ones included), or events/s of each
    /// sweep: shows at a glance whether one run was of one piece.
    pub round_rates: Vec<f64>,
    pub measured_s: f64,
    pub threads_available: u64,
    /// The one CPU every thread of the run was pinned to.
    pub pinned_cpu: u64,
    /// End-to-end metrics that do not apply here and carry a filler.
    pub not_applicable: Vec<String>,
    pub samples: BTreeMap<String, u64>,
    /// Traced runs: the p50 put and the p50 of each layer's part of a put.
    pub notes: BTreeMap<String, f64>,
    /// Every round of a workload without rollbacks must count the same.
    pub counts_repeat_across_rounds: bool,
    pub media_peak_live_bytes: u64,
    pub unlinked_spans: u64,
    pub first_failure: Option<String>,
}

fn run_threaded(shape: spec::Shape, args: &Args) -> Result<RunOutcome, String> {
    let scratch = Scratch::new(args).map_err(|e| format!("scratch directory: {e}"))?;
    if shape.journals == spec::Journals::Fs {
        if let Some(free) = stats::free_bytes(&scratch.0) {
            if free < spec::MIN_FREE_BYTES {
                return Err(format!(
                    "{} has {free} bytes free; a durable workload wants {}",
                    scratch.0.display(),
                    spec::MIN_FREE_BYTES
                ));
            }
        }
    }
    let started = Instant::now();
    let mut rounds: Vec<(bool, RoundOut)> = Vec::new();
    while started.elapsed().as_secs() < args.seconds || rounds.len() < 2 {
        let round = rounds.len() as u64;
        let traced = args.trace && round % 2 == 1;
        let dir = scratch.0.join(format!("r{round}"));
        let out = drive::run_round(&RoundCfg {
            shape,
            seed: args.seed,
            round,
            dir: &dir,
            traced,
            corrupt: args.corrupt && round == 0,
        })
        .map_err(|e| format!("round {round}: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push((traced, out));
    }
    let measured_s = started.elapsed().as_secs_f64();

    let mut verdicts = Verdicts::default();
    for (_, r) in &rounds {
        verdicts.merge(&r.verdicts);
    }
    let plain: Vec<&RoundOut> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let mut detail = Detail {
        rounds: rounds.len() as u64,
        round_rates: rounds
            .iter()
            .map(|(_, r)| f64::from(r.steps) / (r.busy_ns as f64 / 1e9))
            .collect(),
        measured_s,
        counts_repeat_across_rounds: shape.rollback_every > 0
            || plain.windows(2).all(|p| p[0].counts == p[1].counts),
        media_peak_live_bytes: rounds.iter().map(|(_, r)| r.media_peak_live).max().unwrap_or(0),
        ..Default::default()
    };
    let metrics = if args.trace {
        let mut traced = Vec::new();
        for (i, (_, r)) in rounds.iter().enumerate().filter(|(_, (t, _))| *t) {
            let trace = r.trace.as_ref().expect("traced round kept its spans");
            if let (Some(path), 1) = (&args.trace_out, i) {
                std::fs::write(path, trace.chrome_jsonl(TRACE_OUT_SPANS))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            let a = trace.attribute();
            detail.unlinked_spans += a.unlinked as u64;
            traced.push((r, a));
        }
        report::threaded_layers(&plain, &traced)
    } else {
        report::threaded_e2e(&plain, stats::peak_rss_mib())
    };
    Ok(RunOutcome { metrics, verdicts, detail })
}

fn run_des(args: &Args) -> Result<RunOutcome, String> {
    let started = Instant::now();
    // Traced, the simulator has no seam of its own to report — every threaded
    // and media metric reads zero, the probes carry its layers — so only the
    // scale-0 cells run, for their checks.
    let sweeps: Vec<des::SweepOut> = if args.trace {
        vec![des::sweep(args.seed, 0, 0..1, args.corrupt)]
    } else {
        (0..spec::DES_SWEEPS)
            .map(|k| des::sweep(args.seed, k, 0..5, args.corrupt && k == 0))
            .collect()
    };
    let measured_s = started.elapsed().as_secs_f64();
    let mut verdicts = Verdicts::default();
    for s in &sweeps {
        verdicts.merge(&s.verdicts);
    }
    let detail = Detail {
        rounds: sweeps.len() as u64,
        round_rates: sweeps.iter().map(|s| s.events as f64 / s.wall_s).collect(),
        measured_s,
        counts_repeat_across_rounds: true,
        ..Default::default()
    };
    let metrics = if args.trace {
        Metrics::default()
    } else {
        report::des_e2e(&sweeps, stats::peak_rss_mib())
    };
    Ok(RunOutcome { metrics, verdicts, detail })
}

/// `BENCHMARK.json` is `spec::benchmark_json()`'s text. The package is outside
/// the root workspace, whose tests never compile it, so every run from a
/// directory holding the file checks the two against each other itself.
fn check_committed_spec() -> Result<(), String> {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(committed) if committed != spec::benchmark_json() => Err(String::from(
            "BENCHMARK.json differs from src/spec.rs; regenerate it with `hostbench spec`",
        )),
        _ => Ok(()),
    }
}

/// Run one workload once and print the detail and result lines.
fn run(args: &Args) -> Result<bool, String> {
    let w = spec::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`\n{}", args.workload, usage()))?;
    check_committed_spec()?;
    // Read before pinning: afterwards the process sees one CPU.
    let threads_available = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let pinned_cpu = place::pin_to_one_cpu()?;
    // The calibrant brackets traced runs, which report it.
    let cal_start = args.trace.then(|| stats::calibrant_mib_s(CALIBRANT));
    let mut outcome = match w.shape {
        Some(shape) => run_threaded(shape, args),
        None => run_des(args),
    }?;
    let verdicts = &outcome.verdicts;
    outcome.metrics = if let Some(start_mib_s) = cal_start {
        let cal = Calibrant { start_mib_s, end_mib_s: stats::calibrant_mib_s(CALIBRANT) };
        let mut m = std::mem::take(&mut outcome.metrics);
        m.set(
            "failed_ops_pct",
            "%",
            verdicts.failed as f64 / verdicts.attempted.max(1) as f64 * 100.0,
            verdicts.attempted as usize,
        );
        let scratch = Scratch::new(args).map_err(|e| format!("scratch directory: {e}"))?;
        let probes = probes::run_all(args.seed, PROBE_IN_RUN, &scratch.0)
            .map_err(|e| format!("probes: {e}"))?;
        m.values.extend(probes.values);
        m.samples.extend(probes.samples);
        report::complete_layers(m, cal)
    } else {
        report::complete_e2e(w, std::mem::take(&mut outcome.metrics), args.seed)
    };
    let d = &mut outcome.detail;
    d.pinned_cpu = pinned_cpu as u64;
    d.workload = w.name.to_string();
    d.seed = args.seed;
    d.trace = args.trace;
    d.threads_available = threads_available;
    d.samples = std::mem::take(&mut outcome.metrics.samples);
    d.notes = std::mem::take(&mut outcome.metrics.notes);
    d.first_failure.clone_from(&outcome.verdicts.first_failure);
    if !args.trace {
        d.not_applicable = spec::E2E
            .iter()
            .filter(|e| !w.applies.contains(&e.name))
            .map(|e| e.name.to_string())
            .collect();
    }
    let correct = outcome.verdicts.failed == 0;
    println!("{}", serde_json::to_string(&outcome.detail).expect("detail serializes"));
    let line = ResultLine {
        correct,
        attempted: outcome.verdicts.attempted.max(1),
        failed: outcome.verdicts.failed,
        metrics: outcome.metrics.values,
    };
    println!("{}", serde_json::to_string(&line).expect("result serializes"));
    Ok(correct)
}

fn layers(args: &Args) -> Result<bool, String> {
    let scratch = Scratch::new(&Args { workload: "layers".into(), ..args.clone() })
        .map_err(|e| format!("scratch directory: {e}"))?;
    let m =
        probes::run_all(args.seed, PROBE_ALONE, &scratch.0).map_err(|e| format!("probes: {e}"))?;
    println!("{}", serde_json::to_string(&m.values).expect("metrics serialize"));
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|(mode, args)| match mode.as_str() {
        "run" => run(&args),
        "layers" => layers(&args),
        "repeat" => repeat::repeat(&args),
        "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("hostbench: {msg}");
            ExitCode::from(1)
        }
    }
}
