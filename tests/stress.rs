//! Long-haul stress: many steps, many failures of every kind, every
//! protocol — the workflow must always complete with zero digest mismatches.

use sim_core::time::SimTime;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec};
use workflow::runner::{materialize_failures, run};

mod common;

/// A 60-step tiny workflow with a dense failure schedule mixing component
/// and staging-server failures.
fn stress_cfg(protocol: WorkflowProtocol, seed: u64) -> workflow::WorkflowConfig {
    let mut cfg = tiny(protocol).with_seed(seed);
    cfg.total_steps = 60;
    let mut failures = Vec::new();
    // Component failures every ~1.3 s of the ~7 s run, alternating victims.
    for k in 0..5u64 {
        failures.push(FailureSpec::At {
            at: SimTime::from_millis(900 + k * 1_300),
            app: (k % 2) as u32,
        });
    }
    // Staging failures interleaved.
    failures.push(FailureSpec::StagingAt { at: SimTime::from_millis(1_500), server: 0 });
    failures.push(FailureSpec::StagingAt { at: SimTime::from_millis(4_200), server: 3 });
    cfg.failures = failures;
    cfg
}

#[test]
fn uncoordinated_survives_dense_failures() {
    let _wd = common::watchdog(
        "uncoordinated_survives_dense_failures",
        std::time::Duration::from_secs(300),
    );
    let r = run(&stress_cfg(WorkflowProtocol::Uncoordinated, 1));
    assert_eq!(r.finish_times_s.len(), 2);
    assert!(r.recoveries() >= 4, "recoveries: {}", r.recoveries());
    assert_eq!(r.staging_rebuilds, 2);
    assert_eq!(r.digest_mismatches, 0);
    assert!(r.steps_executed > 120, "re-execution happened");
}

#[test]
fn hybrid_survives_dense_failures() {
    let _wd =
        common::watchdog("hybrid_survives_dense_failures", std::time::Duration::from_secs(300));
    let r = run(&stress_cfg(WorkflowProtocol::Hybrid, 2));
    assert_eq!(r.finish_times_s.len(), 2);
    assert!(r.failovers() >= 1, "analytics failures fail over");
    assert!(r.recoveries() >= 1, "simulation failures roll back");
    assert_eq!(r.digest_mismatches, 0);
}

#[test]
fn coordinated_survives_dense_failures() {
    let _wd = common::watchdog(
        "coordinated_survives_dense_failures",
        std::time::Duration::from_secs(300),
    );
    let r = run(&stress_cfg(WorkflowProtocol::Coordinated, 3));
    assert_eq!(r.finish_times_s.len(), 2);
    assert!(r.recoveries() >= 4);
}

#[test]
fn individual_survives_dense_failures() {
    let _wd =
        common::watchdog("individual_survives_dense_failures", std::time::Duration::from_secs(300));
    // In completes too (it just serves possibly-stale data).
    let r = run(&stress_cfg(WorkflowProtocol::Individual, 4));
    assert_eq!(r.finish_times_s.len(), 2);
}

#[test]
fn many_random_schedules_never_wedge() {
    let _wd =
        common::watchdog("many_random_schedules_never_wedge", std::time::Duration::from_secs(300));
    // 20 random MTBF schedules across protocols: every run terminates with
    // both components finished and a clean log.
    for seed in 0..20u64 {
        let proto = match seed % 3 {
            0 => WorkflowProtocol::Uncoordinated,
            1 => WorkflowProtocol::Hybrid,
            _ => WorkflowProtocol::Coordinated,
        };
        let base = tiny(proto)
            .with_seed(500 + seed)
            .with_failures(vec![FailureSpec::Mtbf { mtbf_secs: 0.6, count: 3 }]);
        let failures = materialize_failures(&base);
        let r = run(&base.with_failures(failures));
        assert_eq!(r.finish_times_s.len(), 2, "seed {seed} proto {proto:?} wedged");
        assert_eq!(r.digest_mismatches, 0, "seed {seed} proto {proto:?}");
    }
}

#[test]
fn long_run_memory_stays_bounded_under_gc() {
    let _wd = common::watchdog(
        "long_run_memory_stays_bounded_under_gc",
        std::time::Duration::from_secs(300),
    );
    let mut cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![]);
    cfg.total_steps = 30;
    let short = run(&cfg);
    cfg.total_steps = 90;
    let long = run(&cfg);
    // GC keeps peak memory flat as the run length triples.
    assert!(
        long.staging_peak_bytes <= short.staging_peak_bytes * 3 / 2,
        "peak grew with run length: {} -> {}",
        short.staging_peak_bytes,
        long.staging_peak_bytes
    );
    assert!(long.gc_reclaimed_bytes > short.gc_reclaimed_bytes);
}
