//! The Figure 5 scenario end-to-end: two coupled simulations exchanging data
//! through staging every time step, with per-solver checkpoint periods. When
//! one solver rolls back, its replay involves **both** directions — its
//! re-reads are served the logged versions and its re-writes are absorbed —
//! while the healthy solver never stalls on inconsistent data.

use sim_core::time::SimTime;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{dns_les, FailureSpec};
use workflow::runner::run;

#[test]
fn coupled_solvers_run_failure_free() {
    let r = run(&dns_les(WorkflowProtocol::Uncoordinated));
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.digest_mismatches, 0);
    // Both components write AND read every step.
    assert!(r.puts() > 0 && r.gets() > 0);
    // DNS writes the full domain (2 vars × 8 blocks), LES a subset, for 12
    // steps each; both also read the other's fields.
    assert_eq!(r.steps_executed, 24);
    // Periods 4 and 5 over 12 steps → 3 + 2 checkpoints.
    assert_eq!(r.ckpts(), 5);
}

#[test]
fn figure5_scenario_les_rollback_replays_both_directions() {
    // Mirrors Figure 5: solver b (LES) fails mid-run after a checkpoint;
    // staging replays the events recorded since that checkpoint.
    let cfg = dns_les(WorkflowProtocol::Uncoordinated).with_failures(vec![FailureSpec::At {
        at: SimTime::from_secs(65), // within steps 6..7 of a ~10 s/step run
        app: 1,
    }]);
    let r = run(&cfg);
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.recoveries(), 1);
    assert!(r.absorbed_puts > 0, "the rolled-back solver's re-writes must be absorbed");
    assert!(r.replayed_gets > 0, "its re-reads must be served from the log");
    assert_eq!(r.digest_mismatches, 0, "replayed data is bit-identical");
}

#[test]
fn figure5_scenario_dns_rollback() {
    let cfg = dns_les(WorkflowProtocol::Uncoordinated)
        .with_failures(vec![FailureSpec::At { at: SimTime::from_secs(65), app: 0 }]);
    let r = run(&cfg);
    assert_eq!(r.recoveries(), 1);
    assert!(r.absorbed_puts > 0 && r.replayed_gets > 0);
    assert_eq!(r.digest_mismatches, 0);
    assert_eq!(r.finish_times_s.len(), 2);
}

#[test]
fn coupled_solvers_uncoordinated_beats_coordinated() {
    let failure = vec![FailureSpec::At { at: SimTime::from_secs(65), app: 1 }];
    let un = run(&dns_les(WorkflowProtocol::Uncoordinated).with_failures(failure.clone()));
    let co = run(&dns_les(WorkflowProtocol::Coordinated).with_failures(failure));
    assert!(
        un.total_time_s <= co.total_time_s * 1.001,
        "Un ({}) must not lose to Co ({}) on an LES failure",
        un.total_time_s,
        co.total_time_s
    );
}

#[test]
fn coupled_solvers_deterministic() {
    let a = run(&dns_les(WorkflowProtocol::Uncoordinated));
    let b = run(&dns_les(WorkflowProtocol::Uncoordinated));
    assert_eq!(a.total_time_s, b.total_time_s);
    assert_eq!(a.events_dispatched, b.events_dispatched);
}

#[test]
fn double_failure_both_solvers() {
    let cfg = dns_les(WorkflowProtocol::Uncoordinated).with_failures(vec![
        FailureSpec::At { at: SimTime::from_secs(45), app: 0 },
        FailureSpec::At { at: SimTime::from_secs(85), app: 1 },
    ]);
    let r = run(&cfg);
    assert_eq!(r.recoveries(), 2);
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.digest_mismatches, 0);
}
