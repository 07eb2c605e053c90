#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment drivers regenerating the paper's evaluation artifacts.
//!
//! Each `figXX`/`tableX` function runs the corresponding workloads through
//! the discrete-event engine and returns structured rows; the `repro` binary
//! prints them as tables (and optionally JSON). See EXPERIMENTS.md at the
//! repository root for the paper-vs-measured record.

use serde::Serialize;
use wfcr::protocol::{FtScheme, WorkflowProtocol};
use workflow::config::{table2, table3, WorkflowConfig};
use workflow::runner::{materialize_failures, run};
use workflow::RunReport;

/// Row of the logging-overhead experiments (Figure 9 a–d).
#[derive(Debug, Clone, Serialize)]
pub struct OverheadRow {
    /// Sweep coordinate: subset ‰ (Case 1) or checkpoint period (Case 2).
    pub x: u64,
    /// Cumulative write response time without logging, seconds.
    pub base_cum_write_s: f64,
    /// Cumulative write response time with data/event logging, seconds.
    pub logged_cum_write_s: f64,
    /// Write response time increase, percent (paper: ~10–15%).
    pub write_delta_pct: f64,
    /// Peak staging memory without logging, bytes.
    pub base_peak_bytes: u64,
    /// Peak staging memory with logging, bytes.
    pub logged_peak_bytes: u64,
    /// Memory increase, percent (paper: ~76–97%).
    pub mem_delta_pct: f64,
}

fn with_subset(mut cfg: WorkflowConfig, subset_millis: u64) -> WorkflowConfig {
    for c in cfg.components.iter_mut() {
        c.subset_millis = subset_millis;
        // Case 1 writes "different subsets of the entire data domain in each
        // time step": the region rotates through the domain.
        c.subset_pattern = workflow::config::SubsetPattern::Rotating;
    }
    cfg.label = format!("{}/subset{}", cfg.label, subset_millis);
    cfg
}

fn with_periods(mut cfg: WorkflowConfig, period: u32) -> WorkflowConfig {
    for c in cfg.components.iter_mut() {
        c.scheme = FtScheme::CheckpointRestart { period };
    }
    cfg.coordinated_period = period;
    cfg.label = format!("{}/period{}", cfg.label, period);
    cfg
}

fn overhead_pair(base_cfg: WorkflowConfig, logged_cfg: WorkflowConfig, x: u64) -> OverheadRow {
    let base = run(&base_cfg);
    let logged = run(&logged_cfg);
    OverheadRow {
        x,
        base_cum_write_s: base.cumulative_put_response_s,
        logged_cum_write_s: logged.cumulative_put_response_s,
        write_delta_pct: logged.write_response_delta_pct(&base),
        base_peak_bytes: base.staging_peak_bytes,
        logged_peak_bytes: logged.staging_peak_bytes,
        mem_delta_pct: logged.memory_delta_pct(&base),
    }
}

/// Case 1 (Figures 9a + 9c): sweep the coupled subset over
/// 20/40/60/80/100% of the domain; compare original staging (Ds,
/// failure-free) against staging with data/event logging (Un, failure-free).
pub fn case1_sweep() -> Vec<OverheadRow> {
    [200u64, 400, 600, 800, 1000]
        .iter()
        .map(|&subset| {
            let base =
                with_subset(table2(WorkflowProtocol::FailureFree), subset).with_failures(vec![]);
            let logged =
                with_subset(table2(WorkflowProtocol::Uncoordinated), subset).with_failures(vec![]);
            overhead_pair(base, logged, subset / 10) // report percent
        })
        .collect()
}

/// Case 2 (Figures 9b + 9d): full domain, checkpoint period swept 2..=6.
pub fn case2_sweep() -> Vec<OverheadRow> {
    (2u32..=6)
        .map(|period| {
            let base =
                with_periods(table2(WorkflowProtocol::FailureFree), period).with_failures(vec![]);
            let logged =
                with_periods(table2(WorkflowProtocol::Uncoordinated), period).with_failures(vec![]);
            overhead_pair(base, logged, period as u64)
        })
        .collect()
}

/// Row of the execution-time experiments (Figure 9e, Figure 10).
#[derive(Debug, Clone, Serialize)]
pub struct ExecRow {
    /// Scheme label (Ds/Co/Un/Hy/In; "+1f" variants carry failures).
    pub scheme: String,
    /// Total workflow execution time, seconds.
    pub total_s: f64,
    /// Improvement vs. the coordinated baseline, percent (positive =
    /// faster than Co).
    pub gain_vs_co_pct: f64,
    /// Full run report for drill-down.
    pub report: RunReport,
}

/// Figure 9(e): total execution time of Ds (failure-free) and Co/Un/Hy/In
/// with one injected failure, on the Table II configuration. For each seed
/// the same failure (time + victim) is injected into every scheme; totals
/// are averaged over `seeds` sampled failure schedules (the paper runs one
/// random failure; averaging removes victim-selection noise).
pub fn fig9e(seeds: u64) -> Vec<ExecRow> {
    assert!(seeds >= 1);
    let mut totals: std::collections::BTreeMap<&'static str, f64> = Default::default();
    let mut last_report: std::collections::BTreeMap<&'static str, RunReport> = Default::default();
    for seed in 0..seeds {
        let seed_cfg = table2(WorkflowProtocol::Uncoordinated).with_seed(42 + seed);
        let failures = materialize_failures(&seed_cfg);
        for proto in WorkflowProtocol::all() {
            let cfg = match proto {
                WorkflowProtocol::FailureFree => {
                    table2(proto).with_seed(42 + seed).with_failures(vec![])
                }
                _ => table2(proto).with_seed(42 + seed).with_failures(failures.clone()),
            };
            let report = run(&cfg);
            *totals.entry(proto.label()).or_default() += report.total_time_s;
            last_report.insert(proto.label(), report);
        }
    }
    let mean = |label: &str| totals[label] / seeds as f64;
    let co_total = mean("Co");
    WorkflowProtocol::all()
        .iter()
        .map(|proto| {
            let label = if *proto == WorkflowProtocol::FailureFree {
                "Ds".to_string()
            } else {
                format!("{}+1f", proto.label())
            };
            let total_s = mean(proto.label());
            ExecRow {
                scheme: label,
                total_s,
                gain_vs_co_pct: (co_total - total_s) / co_total * 100.0,
                report: last_report[proto.label()].clone(),
            }
        })
        .collect()
}

/// Row of the Figure 10 scalability study.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleRow {
    /// Total cores at this scale (704..11264).
    pub cores: usize,
    /// Failures injected.
    pub nfailures: usize,
    /// Coordinated total time, s.
    pub co_s: f64,
    /// Uncoordinated total time, s.
    pub un_s: f64,
    /// Hybrid total time, s.
    pub hy_s: f64,
    /// Individual total time, s.
    pub in_s: f64,
    /// Un improvement over Co, percent (paper: up to 7.89–13.48%).
    pub un_gain_pct: f64,
    /// Hy improvement over Co, percent.
    pub hy_gain_pct: f64,
}

/// Figure 10: total execution time for Co/Un/Hy/In at five scales and 1–3
/// failures. `scales` selects a subset (e.g. `0..5`); identical failures per
/// cell across schemes, averaged over `seeds` failure schedules.
pub fn fig10(
    scales: std::ops::Range<usize>,
    failure_counts: &[usize],
    seeds: u64,
) -> Vec<ScaleRow> {
    assert!(seeds >= 1);
    let mut rows = Vec::new();
    for scale in scales {
        for &nf in failure_counts {
            let cores = table3(scale, WorkflowProtocol::Uncoordinated, nf).total_cores();
            let mut totals: std::collections::HashMap<&str, f64> = Default::default();
            for seed in 0..seeds {
                let seed_cfg = table3(scale, WorkflowProtocol::Uncoordinated, nf)
                    .with_seed(42 + scale as u64 * 1000 + seed);
                let failures = materialize_failures(&seed_cfg);
                for proto in [
                    WorkflowProtocol::Coordinated,
                    WorkflowProtocol::Uncoordinated,
                    WorkflowProtocol::Hybrid,
                    WorkflowProtocol::Individual,
                ] {
                    let cfg = table3(scale, proto, nf)
                        .with_seed(seed_cfg.seed)
                        .with_failures(failures.clone());
                    *totals.entry(proto.label()).or_default() += run(&cfg).total_time_s;
                }
            }
            let n = seeds as f64;
            let (co, un, hy, inn) =
                (totals["Co"] / n, totals["Un"] / n, totals["Hy"] / n, totals["In"] / n);
            rows.push(ScaleRow {
                cores,
                nfailures: nf,
                co_s: co,
                un_s: un,
                hy_s: hy,
                in_s: inn,
                un_gain_pct: (co - un) / co * 100.0,
                hy_gain_pct: (co - hy) / co * 100.0,
            });
        }
    }
    rows
}

/// Row of an ablation study.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Total workflow time, s.
    pub total_s: f64,
    /// Peak staging memory, bytes.
    pub peak_bytes: u64,
    /// Steps re-executed after rollbacks.
    pub rollback_steps: u64,
    /// Auxiliary count (meaning depends on the ablation).
    pub aux: u64,
}

/// Ablation: log garbage collection on vs. off (Table II, failure-free).
/// Without GC the staging log grows without bound — the design choice §III-A.2
/// exists to prevent exactly this.
pub fn ablation_gc() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for (label, gc) in [("gc-on", true), ("gc-off", false)] {
        let mut cfg = table2(WorkflowProtocol::Uncoordinated).with_failures(vec![]);
        cfg.log_gc = gc;
        let r = run(&cfg);
        rows.push(AblationRow {
            variant: label.to_string(),
            total_s: r.total_time_s,
            peak_bytes: r.staging_peak_bytes,
            rollback_steps: r.rollback_steps(),
            aux: r.gc_reclaimed_bytes,
        });
    }
    rows
}

/// Ablation: proactive-checkpoint predictor recall sweep (Table II, three
/// failures so lost work dominates).
pub fn ablation_proactive() -> Vec<AblationRow> {
    use workflow::config::ProactiveCfg;
    let seed_cfg = table2(WorkflowProtocol::Uncoordinated)
        .with_failures(vec![workflow::config::FailureSpec::Mtbf { mtbf_secs: 200.0, count: 3 }]);
    let failures = materialize_failures(&seed_cfg);
    let mut rows = Vec::new();
    for recall in [0.0, 0.5, 1.0] {
        let mut cfg = table2(WorkflowProtocol::Uncoordinated).with_failures(failures.clone());
        cfg.proactive = Some(ProactiveCfg { lead: sim_core::time::SimTime::from_secs(20), recall });
        let r = run(&cfg);
        rows.push(AblationRow {
            variant: format!("recall={recall:.1}"),
            total_s: r.total_time_s,
            peak_bytes: r.staging_peak_bytes,
            rollback_steps: r.rollback_steps(),
            aux: r.proactive_ckpts(),
        });
    }
    rows
}

/// Ablation: checkpoint storage target (PFS vs. two-level) under Un and Co
/// with a congested PFS slice, one failure.
pub fn ablation_ckpt_target() -> Vec<AblationRow> {
    use workflow::config::CkptTarget;
    let seed_cfg = table2(WorkflowProtocol::Uncoordinated);
    let failures = materialize_failures(&seed_cfg);
    let mut rows = Vec::new();
    for proto in [WorkflowProtocol::Uncoordinated, WorkflowProtocol::Coordinated] {
        for (label, target) in [("pfs", CkptTarget::Pfs), ("two-level", CkptTarget::TwoLevel)] {
            let mut cfg = table2(proto).with_failures(failures.clone());
            // Congested per-job PFS slice makes the storage choice visible.
            cfg.pfs = ckpt::PfsModel { aggregate_bw: 5e9, latency_s: 0.02 };
            cfg.ckpt_target = target;
            let r = run(&cfg);
            rows.push(AblationRow {
                variant: format!("{}/{}", proto.label(), label),
                total_s: r.total_time_s,
                peak_bytes: r.staging_peak_bytes,
                rollback_steps: r.rollback_steps(),
                aux: r.ckpts(),
            });
        }
    }
    rows
}

/// Ablation: spare-process pool vs. scheduler respawn for ULFM recovery
/// (Table II, three failures into the simulation).
pub fn ablation_spares() -> Vec<AblationRow> {
    let failures: Vec<workflow::config::FailureSpec> = [90u64, 210, 330]
        .iter()
        .map(|&s| workflow::config::FailureSpec::At {
            at: sim_core::time::SimTime::from_secs(s),
            app: 0,
        })
        .collect();
    let mut rows = Vec::new();
    for (label, spares) in [("spares=4", 4usize), ("spares=0 (respawn)", 0)] {
        let mut cfg = table2(WorkflowProtocol::Uncoordinated).with_failures(failures.clone());
        for c in cfg.components.iter_mut() {
            c.spares = spares;
        }
        let r = run(&cfg);
        rows.push(AblationRow {
            variant: label.to_string(),
            total_s: r.total_time_s,
            peak_bytes: r.staging_peak_bytes,
            rollback_steps: r.rollback_steps(),
            aux: r.recoveries(),
        });
    }
    rows
}

/// Row of the checkpoint-period sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PeriodRow {
    /// Simulation checkpoint period, time steps.
    pub period: u32,
    /// Mean total time across seeds, seconds.
    pub total_s: f64,
    /// Mean re-executed steps.
    pub redo_steps: f64,
    /// Checkpoints taken.
    pub ckpts: f64,
}

/// Checkpoint-period sweep under frequent failures (Un protocol): the classic
/// lost-work-vs-checkpoint-overhead trade-off. Prints the simulated optimum
/// next to the Young/Daly first-order estimate `sqrt(2·MTBF·C)`.
pub fn period_sweep(seeds: u64) -> (Vec<PeriodRow>, f64) {
    assert!(seeds >= 1);
    let mtbf_secs = 120.0;
    let nfailures = 4;
    let mut rows = Vec::new();
    for period in 1u32..=10 {
        let mut total = 0.0;
        let mut redo = 0.0;
        let mut ckpts = 0.0;
        for seed in 0..seeds {
            let mut cfg = table2(WorkflowProtocol::Uncoordinated).with_seed(7_000 + seed);
            // Slow the PFS so checkpoint cost is a visible fraction of a step
            // (the regime where the period trade-off matters).
            cfg.pfs = ckpt::PfsModel { aggregate_bw: 2e9, latency_s: 0.05 };
            cfg.failures =
                vec![workflow::config::FailureSpec::Mtbf { mtbf_secs, count: nfailures }];
            let failures = materialize_failures(&cfg);
            let mut cfg = with_periods(cfg, period);
            cfg.failures = failures;
            let r = run(&cfg);
            total += r.total_time_s;
            redo += r.rollback_steps() as f64;
            ckpts += r.ckpts() as f64;
        }
        let n = seeds as f64;
        rows.push(PeriodRow { period, total_s: total / n, redo_steps: redo / n, ckpts: ckpts / n });
    }
    // Young/Daly: T_opt = sqrt(2·MTBF·C); in steps, divide by the step time.
    let cfg = table2(WorkflowProtocol::Uncoordinated);
    let pfs = ckpt::PfsModel { aggregate_bw: 2e9, latency_s: 0.05 };
    let ckpt_cost_s = pfs.write_time(cfg.components[0].state_bytes, 1).as_secs_f64();
    let step_s = cfg.components[0].compute_per_step.as_secs_f64();
    let young_steps = (2.0 * mtbf_secs * ckpt_cost_s).sqrt() / step_s;
    (rows, young_steps)
}

/// Render the period sweep.
pub fn print_period_sweep(rows: &[PeriodRow], young_steps: f64) {
    println!("{:>7} | {:>10} {:>11} {:>8}", "period", "total (s)", "redo steps", "ckpts");
    println!("{}", "-".repeat(44));
    for r in rows {
        println!("{:>7} | {:>10.2} {:>11.1} {:>8.1}", r.period, r.total_s, r.redo_steps, r.ckpts);
    }
    let best = rows
        .iter()
        .min_by(|a, b| a.total_s.partial_cmp(&b.total_s).expect("finite"))
        .expect("nonempty");
    println!(
        "
simulated optimum: period {} | Young/Daly estimate: {:.1} steps",
        best.period, young_steps
    );
    let bars: Vec<(String, f64)> =
        rows.iter().map(|r| (format!("period {}", r.period), r.total_s)).collect();
    print_bars("total time vs checkpoint period:", &bars, "s");
}

/// Render ablation rows.
pub fn print_ablation(title: &str, rows: &[AblationRow]) {
    println!("== ablation: {title} ==");
    println!(
        "{:>22} | {:>10} {:>14} {:>10} {:>12}",
        "variant", "total (s)", "peak mem (MiB)", "redo steps", "aux"
    );
    println!("{}", "-".repeat(78));
    for r in rows {
        println!(
            "{:>22} | {:>10.2} {:>14.1} {:>10} {:>12}",
            r.variant,
            r.total_s,
            r.peak_bytes as f64 / (1 << 20) as f64,
            r.rollback_steps,
            r.aux
        );
    }
}

/// Render a labelled horizontal ASCII bar chart (the terminal rendition of
/// the paper's bar figures). Bars are scaled to the maximum value.
pub fn print_bars(title: &str, rows: &[(String, f64)], unit: &str) {
    println!("{title}");
    let maxv = rows.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let maxlabel = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    if maxv <= 0.0 {
        println!("  (no data)");
        return;
    }
    let width: usize = 46;
    for (label, v) in rows {
        let n = ((v / maxv) * width as f64).round() as usize;
        println!("  {label:>maxlabel$} | {:<width$} {v:.2}{unit}", "#".repeat(n.max(1)),);
    }
}

// ---- pretty-print helpers ----------------------------------------------

/// Render the Case 1/2 overhead rows as an aligned table.
pub fn print_overhead(rows: &[OverheadRow], x_label: &str) {
    println!(
        "{:>10} | {:>14} {:>14} {:>8} | {:>14} {:>14} {:>8}",
        x_label, "base cumW(s)", "log cumW(s)", "ΔW%", "base mem(MiB)", "log mem(MiB)", "Δmem%"
    );
    println!("{}", "-".repeat(96));
    for r in rows {
        println!(
            "{:>10} | {:>14.3} {:>14.3} {:>7.1}% | {:>14.1} {:>14.1} {:>7.1}%",
            r.x,
            r.base_cum_write_s,
            r.logged_cum_write_s,
            r.write_delta_pct,
            r.base_peak_bytes as f64 / (1 << 20) as f64,
            r.logged_peak_bytes as f64 / (1 << 20) as f64,
            r.mem_delta_pct
        );
    }
}

/// Render Figure 9(e) rows.
pub fn print_exec(rows: &[ExecRow]) {
    println!("{:>8} | {:>12} {:>12}", "scheme", "total (s)", "vs Co");
    println!("{}", "-".repeat(40));
    for r in rows {
        println!("{:>8} | {:>12.2} {:>+11.2}%", r.scheme, r.total_s, r.gain_vs_co_pct);
    }
    println!();
    let bars: Vec<(String, f64)> = rows.iter().map(|r| (r.scheme.clone(), r.total_s)).collect();
    print_bars("total workflow execution time:", &bars, "s");
}

/// Render Figure 10 rows as bars of the Un gain per cell.
pub fn print_scale_bars(rows: &[ScaleRow]) {
    let bars: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (format!("{} cores, {}f", r.cores, r.nfailures), r.un_gain_pct))
        .collect();
    print_bars("uncoordinated gain over coordinated (%):", &bars, "%");
}

/// Render Figure 10 rows.
pub fn print_scale(rows: &[ScaleRow]) {
    println!(
        "{:>7} {:>4} | {:>10} {:>10} {:>10} {:>10} | {:>8} {:>8}",
        "cores", "#f", "Co (s)", "Un (s)", "Hy (s)", "In (s)", "Un gain", "Hy gain"
    );
    println!("{}", "-".repeat(90));
    for r in rows {
        println!(
            "{:>7} {:>4} | {:>10.2} {:>10.2} {:>10.2} {:>10.2} | {:>7.2}% {:>7.2}%",
            r.cores, r.nfailures, r.co_s, r.un_s, r.hy_s, r.in_s, r.un_gain_pct, r.hy_gain_pct
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_pair_positive_deltas() {
        // One cheap pair: subset 20% of Table II.
        let base = with_subset(table2(WorkflowProtocol::FailureFree), 200).with_failures(vec![]);
        let logged =
            with_subset(table2(WorkflowProtocol::Uncoordinated), 200).with_failures(vec![]);
        let row = overhead_pair(base, logged, 20);
        assert!(row.write_delta_pct > 0.0, "logging must cost write time");
        assert!(row.mem_delta_pct > 0.0, "logging must cost memory");
        assert!(row.logged_cum_write_s > row.base_cum_write_s);
    }

    #[test]
    fn with_periods_sets_everything() {
        let cfg = with_periods(table2(WorkflowProtocol::Coordinated), 3);
        assert_eq!(cfg.coordinated_period, 3);
        for c in &cfg.components {
            assert_eq!(c.scheme.period(), Some(3));
        }
    }

    #[test]
    fn materialized_failures_deterministic() {
        let cfg = table2(WorkflowProtocol::Uncoordinated);
        assert_eq!(
            format!("{:?}", materialize_failures(&cfg)),
            format!("{:?}", materialize_failures(&cfg))
        );
    }
}
