//! Figure 1 topology: one simulation feeding several in-situ consumers, each
//! with its own fault-tolerance cadence — the "loosely coupled" flexibility
//! the framework exists to provide.

use sim_core::time::SimTime;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{fanout, FailureSpec};
use workflow::runner::run;

#[test]
fn three_consumers_run_failure_free() {
    let r = run(&fanout(WorkflowProtocol::Uncoordinated, 3));
    assert_eq!(r.finish_times_s.len(), 4);
    assert_eq!(r.digest_mismatches, 0);
    // Periods 4/4/5/6 over 12 steps: 3 + 3 + 2 + 2 checkpoints.
    assert_eq!(r.ckpts(), 10);
    assert_eq!(r.steps_executed, 4 * 12);
}

#[test]
fn one_consumer_failure_leaves_the_rest_untouched() {
    // Fail consumer 2 (checkpoint period 5) right after it has read a step
    // beyond its last checkpoint, so the rollback has something to replay.
    let cfg = fanout(WorkflowProtocol::Uncoordinated, 3)
        .with_failures(vec![FailureSpec::At { at: SimTime::from_secs(55), app: 2 }]);
    let r = run(&cfg);
    assert_eq!(r.recoveries(), 1, "only the failed consumer rolls back");
    assert!(r.replayed_gets > 0, "replayed_gets = {}", r.replayed_gets);
    assert_eq!(r.digest_mismatches, 0);
    assert_eq!(r.finish_times_s.len(), 4);
}

#[test]
fn producer_failure_absorbed_once_despite_many_readers() {
    let cfg = fanout(WorkflowProtocol::Uncoordinated, 3)
        .with_failures(vec![FailureSpec::At { at: SimTime::from_secs(50), app: 0 }]);
    let r = run(&cfg);
    assert_eq!(r.recoveries(), 1);
    assert!(r.absorbed_puts > 0, "re-writes absorbed");
    // Consumers that already read old versions are NOT disturbed: no
    // replayed gets (none of them rolled back).
    assert_eq!(r.replayed_gets, 0);
    assert_eq!(r.digest_mismatches, 0);
}

#[test]
fn coordinated_rolls_back_all_four() {
    let cfg = fanout(WorkflowProtocol::Coordinated, 3)
        .with_failures(vec![FailureSpec::At { at: SimTime::from_secs(50), app: 3 }]);
    let r = run(&cfg);
    assert_eq!(r.recoveries(), 4, "global rollback counts every component");
    assert_eq!(r.finish_times_s.len(), 4);
}

#[test]
fn gc_waits_for_slowest_consumer() {
    // With consumers checkpointing at periods 4/5/6, the GC floor tracks the
    // slowest; memory stays bounded but above the single-consumer case.
    let one = run(&fanout(WorkflowProtocol::Uncoordinated, 1));
    let three = run(&fanout(WorkflowProtocol::Uncoordinated, 3));
    assert!(three.staging_peak_bytes >= one.staging_peak_bytes);
    assert!(three.gc_reclaimed_bytes > 0, "GC still reclaims eventually");
}

#[test]
fn hybrid_fanout_mixes_schemes() {
    // Hybrid replicates every consumer; producer keeps C/R.
    let cfg = fanout(WorkflowProtocol::Hybrid, 2).with_failures(vec![
        FailureSpec::At { at: SimTime::from_secs(30), app: 1 },
        FailureSpec::At { at: SimTime::from_secs(60), app: 0 },
    ]);
    let r = run(&cfg);
    assert_eq!(r.failovers(), 1, "consumer failure -> replica failover");
    assert_eq!(r.recoveries(), 1, "producer failure -> rollback");
    assert_eq!(r.digest_mismatches, 0);
}

#[test]
fn rotating_subsets_couple_and_recover() {
    use workflow::config::SubsetPattern;
    // Case 1's literal pattern: a different 30% of the domain every step,
    // wrapping around the boundary (two disjoint boxes on wrap steps).
    let mut cfg = fanout(WorkflowProtocol::Uncoordinated, 1);
    for c in cfg.components.iter_mut() {
        c.subset_millis = 300;
        c.subset_pattern = SubsetPattern::Rotating;
    }
    let clean = run(&cfg);
    assert_eq!(clean.finish_times_s.len(), 2);
    assert_eq!(clean.digest_mismatches, 0);

    // And recovery still replays correctly with moving regions.
    let failed =
        run(&cfg.with_failures(vec![FailureSpec::At { at: SimTime::from_secs(55), app: 1 }]));
    assert_eq!(failed.recoveries(), 1);
    assert!(failed.replayed_gets > 0, "rotating-region replay must be served");
    assert_eq!(failed.digest_mismatches, 0);
}

#[test]
fn coupled_regions_geometry() {
    use staging::geometry::BBox;
    use workflow::config::{coupled_regions, SubsetPattern};
    let domain = BBox::whole([10, 10, 100]);
    // Fixed: same prefix every step.
    let f1 = coupled_regions(&domain, 300, SubsetPattern::Fixed, 1);
    let f2 = coupled_regions(&domain, 300, SubsetPattern::Fixed, 7);
    assert_eq!(f1, f2);
    assert_eq!(f1.len(), 1);
    assert_eq!(f1[0].extent(2), 30);
    // Rotating: moves by its own extent, wraps into two boxes.
    let r0 = coupled_regions(&domain, 300, SubsetPattern::Rotating, 0);
    let r1 = coupled_regions(&domain, 300, SubsetPattern::Rotating, 1);
    assert_ne!(r0, r1, "successive steps touch different regions");
    let r3 = coupled_regions(&domain, 300, SubsetPattern::Rotating, 3); // start 90, wraps
    assert_eq!(r3.len(), 2, "wrap produces two boxes: {r3:?}");
    let vol: u64 = r3.iter().map(BBox::volume).sum();
    assert_eq!(vol, 10 * 10 * 30);
    assert!(!r3[0].intersects(&r3[1]));
    // Volume is constant across steps for any pattern.
    for step in 0..20 {
        let v: u64 = coupled_regions(&domain, 300, SubsetPattern::Rotating, step)
            .iter()
            .map(BBox::volume)
            .sum();
        assert_eq!(v, 3000, "step {step}");
    }
}
