//! `des_fig10`: the simulator's own speed. One *sweep* runs Table III scales
//! 0–4 × {Co, Un, Hy, In} × 1–3 failures — the paper's Figure 10 matrix, with
//! one failure schedule per cell shared by the four protocols as in
//! `bench::fig10` — on a single thread with no media. The failure schedules
//! belong to the workload's shape and are the same on every run; `--seed`
//! drives the engines' own random streams (latency and compute jitter). The
//! virtual-time outputs are therefore a pure function of the seed that
//! barely moves from seed to seed, and an engine change that moves a
//! simulated statistic is caught on the same row as its speed-up.

use crate::drive::Verdicts;
use crate::gen::des_seed;
use crate::spec::DES_FAILURE_SEED;
use std::time::Instant;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{table3, WorkflowConfig};
use workflow::runner::{materialize_failures, run};

const PROTOCOLS: [WorkflowProtocol; 4] = [
    WorkflowProtocol::Coordinated,
    WorkflowProtocol::Uncoordinated,
    WorkflowProtocol::Hybrid,
    WorkflowProtocol::Individual,
];

/// The configs of one sweep, cell-major: `cells[i]` holds one (scale,
/// failure count) cell's four protocol variants in [`PROTOCOLS`] order.
pub fn sweep_configs(
    seed: u64,
    k: u64,
    scales: std::ops::Range<usize>,
) -> Vec<Vec<WorkflowConfig>> {
    let (engine, schedule) = (des_seed(seed, k), des_seed(DES_FAILURE_SEED, k));
    let mut cells = Vec::new();
    for scale in scales {
        for nfailures in 1..=3 {
            let cell = scale as u64 * 1000 + nfailures as u64;
            let failures = materialize_failures(
                &table3(scale, WorkflowProtocol::Uncoordinated, nfailures)
                    .with_seed(schedule + cell),
            );
            cells.push(
                PROTOCOLS
                    .iter()
                    .map(|&p| {
                        table3(scale, p, nfailures)
                            .with_seed(engine + cell)
                            .with_failures(failures.clone())
                    })
                    .collect(),
            );
        }
    }
    cells
}

/// What one sweep measured.
#[derive(Debug, Default)]
pub struct SweepOut {
    /// Building the sweep's configs and failure schedules, plus one warm-up
    /// pass over the scale-0 cells.
    pub setup_s: f64,
    /// Host time of the timed matrix.
    pub wall_s: f64,
    pub events: u64,
    /// Σ `total_time_s` over the matrix, virtual seconds.
    pub total_time_s: f64,
    /// Mean over cells of (Co − Un) / Co, percent.
    pub un_gain_pct: f64,
    pub verdicts: Verdicts,
}

/// Run sweep `k` of `seed` over Table III `scales`. `corrupt`
/// (`--selftest-corrupt`) flips one byte of the twin run's report before it
/// is compared.
pub fn sweep(seed: u64, k: u64, scales: std::ops::Range<usize>, corrupt: bool) -> SweepOut {
    let t0 = Instant::now();
    let cells = sweep_configs(seed, k, scales);
    for cfg in cells.iter().take(3).flatten() {
        run(cfg);
    }
    let mut out = SweepOut { setup_s: t0.elapsed().as_secs_f64(), ..Default::default() };

    let t = Instant::now();
    let mut reports = Vec::with_capacity(cells.len());
    for cell in &cells {
        reports.push(cell.iter().map(run).collect::<Vec<_>>());
    }
    out.wall_s = t.elapsed().as_secs_f64();

    let mut gains = 0.0;
    for cell in &reports {
        for r in cell {
            out.events += r.events_dispatched;
            out.total_time_s += r.total_time_s;
            out.verdicts.record(r.digest_mismatches == 0, || {
                format!("{}: {} digest mismatches", r.label, r.digest_mismatches)
            });
        }
        gains += (cell[0].total_time_s - cell[1].total_time_s) / cell[0].total_time_s * 100.0;
    }
    out.un_gain_pct = gains / reports.len() as f64;

    // Same seed, same report: run one cell's Un variant again, outside the
    // timed window, and require the identical JSON line.
    let pick = (k as usize) % cells.len();
    let twin = run(&cells[pick][1]);
    let mut twin_line = twin.to_json_line().into_bytes();
    if corrupt {
        twin_line[0] ^= 0x01;
    }
    out.verdicts.record(twin_line == reports[pick][1].to_json_line().into_bytes(), || {
        format!("{}: a same-seed rerun reported differently", twin.label)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_moves_the_engines_and_leaves_the_failure_schedules() {
        let schedules = |cells: &[Vec<WorkflowConfig>]| {
            serde_json::to_string(&cells.iter().flatten().map(|c| &c.failures).collect::<Vec<_>>())
                .unwrap()
        };
        let engines = |cells: &[Vec<WorkflowConfig>]| -> Vec<u64> {
            cells.iter().flatten().map(|c| c.seed).collect()
        };
        let (a, b) = (sweep_configs(1, 0, 0..2), sweep_configs(2, 0, 0..2));
        assert_eq!(schedules(&a), schedules(&b));
        assert_ne!(engines(&a), engines(&b));
        assert_eq!(engines(&a), engines(&sweep_configs(1, 0, 0..2)));
        // Another sweep of the same seed is another schedule.
        assert_ne!(schedules(&a), schedules(&sweep_configs(1, 1, 0..2)));
        // One schedule per cell, shared by its four protocols.
        for cell in &a {
            assert!(cell.iter().all(|c| c.seed == cell[0].seed));
            assert_eq!(schedules(&[vec![cell[0].clone()]]), schedules(&[vec![cell[3].clone()]]));
        }
    }
}
