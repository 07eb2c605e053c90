//! Tests for the paper's named extensions implemented in this reproduction:
//! staging-server failures survived via the resilience layer (CoREC),
//! proactive checkpointing, and two-level (multi-level) checkpoint storage.

use sim_core::time::SimTime;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, CkptTarget, FailureSpec, ProactiveCfg};
use workflow::runner::run;

#[test]
fn staging_server_failure_is_survived() {
    let cfg = tiny(WorkflowProtocol::Uncoordinated)
        .with_failures(vec![FailureSpec::StagingAt { at: SimTime::from_millis(500), server: 0 }]);
    let r = run(&cfg);
    assert_eq!(r.finish_times_s.len(), 2, "workflow completes through the rebuild");
    assert_eq!(r.staging_rebuilds, 1);
    assert_eq!(r.recoveries(), 0, "no application component rolled back");
    assert_eq!(r.digest_mismatches, 0);

    // The rebuild window delays traffic: the run takes longer than clean.
    let clean = run(&tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![]));
    assert!(
        r.total_time_s >= clean.total_time_s,
        "rebuild must not make the run faster ({} vs {})",
        r.total_time_s,
        clean.total_time_s
    );
}

#[test]
fn staging_failure_preserves_coupled_data() {
    // Failure while the log holds several versions; subsequent reads (and a
    // consumer rollback replay!) still verify.
    let cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![
        FailureSpec::StagingAt { at: SimTime::from_millis(450), server: 1 },
        FailureSpec::At { at: SimTime::from_millis(900), app: 1 },
    ]);
    let r = run(&cfg);
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.staging_rebuilds, 1);
    assert_eq!(r.recoveries(), 1);
    assert!(r.replayed_gets > 0, "replay still served from the rebuilt log");
    assert_eq!(r.digest_mismatches, 0);
}

#[test]
fn multiple_staging_failures() {
    let cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![
        FailureSpec::StagingAt { at: SimTime::from_millis(300), server: 0 },
        FailureSpec::StagingAt { at: SimTime::from_millis(600), server: 2 },
        FailureSpec::StagingAt { at: SimTime::from_millis(900), server: 0 },
    ]);
    let r = run(&cfg);
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.staging_rebuilds, 3);
    assert_eq!(r.digest_mismatches, 0);
}

#[test]
fn proactive_checkpoint_reduces_lost_work() {
    let failure = vec![FailureSpec::At { at: SimTime::from_millis(750), app: 0 }];

    let base = run(&tiny(WorkflowProtocol::Uncoordinated).with_failures(failure.clone()));
    assert_eq!(base.proactive_ckpts(), 0);

    let mut cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(failure);
    cfg.proactive = Some(ProactiveCfg { lead: SimTime::from_millis(250), recall: 1.0 });
    let pro = run(&cfg);
    assert_eq!(pro.proactive_ckpts(), 1, "the predictor triggered a checkpoint");
    assert!(
        pro.rollback_steps() < base.rollback_steps(),
        "proactive checkpoint must shrink lost work: {} vs {}",
        pro.rollback_steps(),
        base.rollback_steps()
    );
    assert!(
        pro.total_time_s < base.total_time_s,
        "less re-execution ⇒ faster run: {} vs {}",
        pro.total_time_s,
        base.total_time_s
    );
    assert_eq!(pro.digest_mismatches, 0);
}

#[test]
fn proactive_with_zero_recall_changes_nothing() {
    let failure = vec![FailureSpec::At { at: SimTime::from_millis(750), app: 0 }];
    let base = run(&tiny(WorkflowProtocol::Uncoordinated).with_failures(failure.clone()));
    let mut cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(failure);
    cfg.proactive = Some(ProactiveCfg { lead: SimTime::from_millis(250), recall: 0.0 });
    let pro = run(&cfg);
    assert_eq!(pro.proactive_ckpts(), 0);
    assert_eq!(pro.total_time_s, base.total_time_s, "recall 0 ⇒ identical run");
}

#[test]
fn two_level_checkpointing_cheaper_writes() {
    // Use a config where checkpoint volume matters.
    let mut pfs_cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![]);
    // A congested per-job PFS slice (5 GB/s) vs fast node-local NVMe — the
    // regime multi-level checkpointing targets.
    pfs_cfg.pfs = ckpt::PfsModel { aggregate_bw: 5e9, latency_s: 0.02 };
    for c in pfs_cfg.components.iter_mut() {
        c.state_bytes = 8 << 30; // 8 GiB per component: PFS writes hurt
    }
    let mut tl_cfg = pfs_cfg.clone();
    tl_cfg.ckpt_target = CkptTarget::TwoLevel;
    // Fast NVMe so the two-level advantage is unambiguous.
    tl_cfg.node_local = ckpt::NodeLocalModel { bw: 20e9, latency_s: 0.0005 };

    let pfs = run(&pfs_cfg);
    let tl = run(&tl_cfg);
    assert!(
        tl.total_time_s < pfs.total_time_s,
        "two-level checkpoints must be cheaper: {} vs {}",
        tl.total_time_s,
        pfs.total_time_s
    );
}

#[test]
fn two_level_restore_still_works_after_failure() {
    let mut cfg = tiny(WorkflowProtocol::Uncoordinated)
        .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(700), app: 0 }]);
    cfg.ckpt_target = CkptTarget::TwoLevel;
    let r = run(&cfg);
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.recoveries(), 1);
    assert_eq!(r.digest_mismatches, 0);
}

#[test]
fn two_level_helps_coordinated_rollback_too() {
    // Healthy components under Co restore from node-local copies; only the
    // victim reads the PFS. With large state this shrinks Co's recovery.
    let failure = vec![FailureSpec::At { at: SimTime::from_millis(700), app: 0 }];
    let mut pfs_cfg = tiny(WorkflowProtocol::Coordinated).with_failures(failure.clone());
    let mut tl_cfg = tiny(WorkflowProtocol::Coordinated).with_failures(failure);
    for cfg in [&mut pfs_cfg, &mut tl_cfg] {
        cfg.pfs = ckpt::PfsModel { aggregate_bw: 5e9, latency_s: 0.02 };
        for c in cfg.components.iter_mut() {
            c.state_bytes = 8 << 30;
        }
    }
    tl_cfg.ckpt_target = CkptTarget::TwoLevel;
    tl_cfg.node_local = ckpt::NodeLocalModel { bw: 20e9, latency_s: 0.0005 };
    let pfs = run(&pfs_cfg);
    let tl = run(&tl_cfg);
    assert!(
        tl.total_time_s < pfs.total_time_s,
        "two-level Co must beat PFS Co: {} vs {}",
        tl.total_time_s,
        pfs.total_time_s
    );
}
