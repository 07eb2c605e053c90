//! End-to-end protocol invariants on the discrete-event workflow engine:
//! every protocol completes, preserves consistency where it promises to,
//! and the paper's performance orderings hold.

use obs::RecordKind;
use sim_core::time::SimTime;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{table3, tiny, FailureSpec, TraceCfg, WorkflowConfig};
use workflow::runner::{materialize_failures, run, run_traced};

#[test]
fn all_protocols_complete_failure_free() {
    for proto in WorkflowProtocol::all() {
        let r = run(&tiny(proto).with_failures(vec![]));
        assert_eq!(r.finish_times_s.len(), 2, "{proto:?}");
        assert_eq!(r.recoveries(), 0);
        assert_eq!(r.digest_mismatches, 0);
        assert!(r.total_time_s > 0.0);
    }
}

#[test]
fn all_protocols_complete_with_failures_each_victim() {
    for proto in [
        WorkflowProtocol::Coordinated,
        WorkflowProtocol::Uncoordinated,
        WorkflowProtocol::Hybrid,
        WorkflowProtocol::Individual,
    ] {
        for victim in [0u32, 1] {
            let cfg = tiny(proto).with_failures(vec![FailureSpec::At {
                at: SimTime::from_millis(700),
                app: victim,
            }]);
            let r = run(&cfg);
            assert_eq!(r.finish_times_s.len(), 2, "{proto:?} victim {victim} did not complete");
            assert_eq!(r.digest_mismatches, 0, "{proto:?} victim {victim}");
        }
    }
}

#[test]
fn failure_free_is_fastest() {
    let ds = run(&tiny(WorkflowProtocol::FailureFree).with_failures(vec![]));
    let failure = vec![FailureSpec::At { at: SimTime::from_millis(700), app: 0 }];
    for proto in [
        WorkflowProtocol::Coordinated,
        WorkflowProtocol::Uncoordinated,
        WorkflowProtocol::Hybrid,
        WorkflowProtocol::Individual,
    ] {
        let r = run(&tiny(proto).with_failures(failure.clone()));
        assert!(
            r.total_time_s > ds.total_time_s,
            "{proto:?}: failure run ({}) must exceed failure-free ({})",
            r.total_time_s,
            ds.total_time_s
        );
    }
}

#[test]
fn uncoordinated_never_slower_than_coordinated() {
    // Across many failure schedules, Un beats or ties Co.
    for seed in 0..10u64 {
        let base = tiny(WorkflowProtocol::Uncoordinated)
            .with_seed(100 + seed)
            .with_failures(vec![workflow::config::FailureSpec::Mtbf { mtbf_secs: 1.0, count: 1 }]);
        let failures = materialize_failures(&base);
        let un = run(&tiny(WorkflowProtocol::Uncoordinated)
            .with_seed(100 + seed)
            .with_failures(failures.clone()));
        let co =
            run(&tiny(WorkflowProtocol::Coordinated).with_seed(100 + seed).with_failures(failures));
        assert!(
            un.total_time_s <= co.total_time_s * 1.001,
            "seed {seed}: Un {} vs Co {}",
            un.total_time_s,
            co.total_time_s
        );
    }
}

#[test]
fn individual_is_lower_bound_among_failure_protocols() {
    let failure = vec![FailureSpec::At { at: SimTime::from_millis(700), app: 0 }];
    let ind = run(&tiny(WorkflowProtocol::Individual).with_failures(failure.clone()));
    for proto in [WorkflowProtocol::Coordinated, WorkflowProtocol::Uncoordinated] {
        let r = run(&tiny(proto).with_failures(failure.clone()));
        assert!(
            ind.total_time_s <= r.total_time_s * 1.001,
            "In ({}) must lower-bound {:?} ({})",
            ind.total_time_s,
            proto,
            r.total_time_s
        );
    }
}

#[test]
fn logging_overhead_bounded() {
    // Producer-only configuration isolates the write path from consumer
    // get/put interleaving noise (which at toy scale can mask the logging
    // cost in either direction).
    let mut ds_cfg = tiny(WorkflowProtocol::FailureFree).with_failures(vec![]);
    ds_cfg.components.truncate(1);
    let mut un_cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![]);
    un_cfg.components.truncate(1);
    let ds = run(&ds_cfg);
    let un = run(&un_cfg);
    let delta = un.write_response_delta_pct(&ds);
    assert!(delta > 3.0, "logging must add write latency: {delta}%");
    assert!(delta < 60.0, "write overhead out of control: {delta}%");

    // Memory overhead is measured on the full coupled workflow (GC needs the
    // consumer's checkpoints to advance).
    let ds_full = run(&tiny(WorkflowProtocol::FailureFree).with_failures(vec![]));
    let un_full = run(&tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![]));
    let mem = un_full.memory_delta_pct(&ds_full);
    assert!(mem > 0.0 && mem < 400.0, "memory overhead out of range: {mem}%");
}

#[test]
fn replay_happens_only_under_logging_protocols() {
    let failure = vec![FailureSpec::At { at: SimTime::from_millis(700), app: 1 }];
    let un = run(&tiny(WorkflowProtocol::Uncoordinated).with_failures(failure.clone()));
    assert!(un.replayed_gets > 0);
    let ind = run(&tiny(WorkflowProtocol::Individual).with_failures(failure.clone()));
    assert_eq!(ind.replayed_gets, 0, "In has no log to replay from");
    let co = run(&tiny(WorkflowProtocol::Coordinated).with_failures(failure));
    assert_eq!(co.replayed_gets, 0, "Co re-executes instead of replaying");
}

#[test]
fn multiple_failures_multiple_recoveries() {
    let cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![
        FailureSpec::At { at: SimTime::from_millis(300), app: 0 },
        FailureSpec::At { at: SimTime::from_millis(700), app: 1 },
        FailureSpec::At { at: SimTime::from_millis(1_100), app: 0 },
    ]);
    let r = run(&cfg);
    assert_eq!(r.recoveries(), 3);
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.digest_mismatches, 0);
    assert!(r.absorbed_puts > 0 && r.replayed_gets > 0);
}

#[test]
fn runs_are_deterministic_across_protocols() {
    for proto in WorkflowProtocol::all() {
        let a = run(&tiny(proto));
        let b = run(&tiny(proto));
        assert_eq!(a.total_time_s, b.total_time_s, "{proto:?}");
        assert_eq!(a.events_dispatched, b.events_dispatched, "{proto:?}");
        assert_eq!(a.staging_peak_bytes, b.staging_peak_bytes, "{proto:?}");
        assert_eq!(a.net_bytes(), b.net_bytes(), "{proto:?}");
    }
}

#[test]
fn seed_changes_jitter_but_not_structure() {
    let a = run(&tiny(WorkflowProtocol::Uncoordinated).with_seed(1).with_failures(vec![]));
    let b = run(&tiny(WorkflowProtocol::Uncoordinated).with_seed(2).with_failures(vec![]));
    assert_ne!(a.total_time_s, b.total_time_s, "jitter must differ");
    assert_eq!(a.puts(), b.puts(), "request structure is seed-independent");
    assert_eq!(a.ckpts(), b.ckpts());
}

#[test]
fn late_failure_and_early_failure_both_recover() {
    for at_ms in [120u64, 700, 1_900] {
        let cfg = tiny(WorkflowProtocol::Uncoordinated)
            .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(at_ms), app: 0 }]);
        let r = run(&cfg);
        assert_eq!(r.finish_times_s.len(), 2, "failure at {at_ms}ms");
        assert_eq!(r.digest_mismatches, 0);
    }
}

#[test]
fn individual_serves_stale_data_after_consumer_rollback() {
    // The paper's justification for In being only a *theoretical* bound: a
    // rolled-back consumer under In re-reads evicted versions and is served
    // whatever survives — quantified by the stale_gets counter.
    let failure = vec![FailureSpec::At { at: SimTime::from_millis(900), app: 1 }];
    let ind = run(&tiny(WorkflowProtocol::Individual).with_failures(failure.clone()));
    assert!(ind.stale_gets > 0, "In must expose stale reads after a consumer rollback");
    // The logging scheme serves the exact logged versions instead.
    let un = run(&tiny(WorkflowProtocol::Uncoordinated).with_failures(failure));
    assert_eq!(un.stale_gets, 0, "Un never serves unverified stale data");
    assert!(un.replayed_gets > 0);
}

#[test]
fn coordinated_failure_during_rendezvous_window() {
    // Hit the failure right around the step-4 coordinated checkpoint, when
    // components may be parked in the rendezvous — the director must clear
    // the rendezvous state and drive the global rollback to completion.
    for at_ms in 390..=440u64 {
        if at_ms % 10 != 0 {
            continue;
        }
        let cfg = tiny(WorkflowProtocol::Coordinated)
            .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(at_ms), app: 0 }]);
        let r = run(&cfg);
        assert_eq!(r.finish_times_s.len(), 2, "stuck at failure time {at_ms}ms");
        assert_eq!(r.recoveries(), 2);
    }
}

#[test]
fn failure_during_checkpoint_write_recovers() {
    // Un: fail the simulation while it is writing a checkpoint (steps 4/8/12
    // at ~100 ms/step; the PFS write adds ~20 ms after step end).
    for at_ms in [405u64, 410, 415] {
        let cfg = tiny(WorkflowProtocol::Uncoordinated)
            .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(at_ms), app: 0 }]);
        let r = run(&cfg);
        assert_eq!(r.finish_times_s.len(), 2, "stuck at {at_ms}ms");
        assert_eq!(r.recoveries(), 1);
        assert_eq!(r.digest_mismatches, 0);
    }
}

#[test]
fn back_to_back_failures_same_component() {
    // Second failure arrives shortly after the first recovery completes.
    let cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![
        FailureSpec::At { at: SimTime::from_millis(600), app: 0 },
        FailureSpec::At { at: SimTime::from_millis(780), app: 0 },
    ]);
    let r = run(&cfg);
    assert_eq!(r.finish_times_s.len(), 2);
    assert!(r.recoveries() + u64::from(r.rollback_steps() == 0) >= 1);
    assert_eq!(r.digest_mismatches, 0);
}

#[test]
fn simultaneous_failures_both_components() {
    let cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![
        FailureSpec::At { at: SimTime::from_millis(700), app: 0 },
        FailureSpec::At { at: SimTime::from_millis(700), app: 1 },
    ]);
    let r = run(&cfg);
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.recoveries(), 2);
    assert_eq!(r.digest_mismatches, 0);
}

/// `[begin, end]` (virtual ns) of every span named `name` on a track whose
/// name ends with `track`, in begin order, with the args of its end record.
fn span_windows(t: &obs::Trace, track: &str, name: &str) -> Vec<(u64, u64, Vec<obs::Arg>)> {
    let on_track = |r: &obs::Record| t.tracks[r.track as usize].ends_with(track);
    t.records
        .iter()
        .filter(|r| r.k == RecordKind::Begin && r.name == name && on_track(r))
        .map(|b| {
            let end = t.records.iter().find(|r| r.k == RecordKind::End && r.sp == b.sp);
            let end = end.expect("every span is closed");
            (b.t, end.t, end.args.clone())
        })
        .collect()
}

fn consumer_fails_at(protocol: WorkflowProtocol, at: &[u64]) -> WorkflowConfig {
    let failures = at.iter().map(|&ns| FailureSpec::At { at: SimTime::from_nanos(ns), app: 1 });
    tiny(protocol).with_failures(failures.collect()).with_tracing(TraceCfg::full())
}

/// A second failure inside the first one's ULFM repair kills that repair
/// and starts another: the restore waits for the second ULFM, both deaths
/// count, and the re-execution still reads exactly what it read before.
#[test]
fn a_failure_inside_ulfm_restarts_the_recovery() {
    let first = SimTime::from_millis(700).as_nanos();
    let (one, once) = run_traced(&consumer_fails_at(WorkflowProtocol::Uncoordinated, &[first]));
    let ulfm = span_windows(&once, ":analytics", "ulfm");
    assert_eq!(ulfm.len(), 1);
    let (ulfm_begin, ulfm_end, _) = ulfm[0];
    let again = (ulfm_begin + ulfm_end) / 2;

    let cfg = consumer_fails_at(WorkflowProtocol::Uncoordinated, &[first, again]);
    let (r, trace) = run_traced(&cfg);
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.metrics.counter("wf.failures"), 2, "the second death is not free");
    assert_eq!(r.recoveries(), 2, "one ULFM repair per death");
    assert_eq!(r.digest_mismatches, 0);
    assert_eq!(r.stale_gets, 0);
    obs::analyze::validate(&trace).expect("trace validates");

    let ulfm = span_windows(&trace, ":analytics", "ulfm");
    assert_eq!(ulfm.len(), 2, "a second ULFM runs");
    assert!(ulfm[0].2.iter().any(|a| a.k == "status" && a.v == "aborted"), "{:?}", ulfm[0]);
    assert_eq!((ulfm[0].1, ulfm[1].0), (again, again), "the death ends one repair, starts one");
    let restore = span_windows(&trace, ":analytics", "restore");
    assert_eq!(restore.len(), 1);
    assert_eq!(restore[0].0, ulfm[1].1, "the restore follows the second ULFM");
    assert!(restore[0].0 > ulfm_end, "the recovery ends after the first ULFM's time");
    assert_eq!(obs::analyze::recovery_paths(&trace).len(), 1, "one recovery, restarted");
    assert_eq!(
        r.rollback_steps(),
        one.rollback_steps(),
        "a restarted recovery counts its redo once"
    );
}

/// Under Co, a failure while the director's global rollback is under way
/// re-runs repair for its component, and the rollback waits for it.
#[test]
fn a_failure_inside_the_co_rollback_delays_rollback_complete() {
    let first = SimTime::from_millis(700).as_nanos();
    let (one, once) = run_traced(&consumer_fails_at(WorkflowProtocol::Coordinated, &[first]));
    let rollback = span_windows(&once, "director", "co.rollback");
    assert_eq!(rollback.len(), 1);
    let (begin, end, _) = rollback[0];

    let cfg = consumer_fails_at(WorkflowProtocol::Coordinated, &[first, (begin + end) / 2]);
    let (two, trace) = run_traced(&cfg);
    assert_eq!(two.finish_times_s.len(), 2);
    assert_eq!(two.metrics.counter("wf.failures"), 2);
    assert_eq!(two.metrics.counter("wf.failures_coalesced"), 0);
    obs::analyze::validate(&trace).expect("trace validates");
    let rollback = span_windows(&trace, "director", "co.rollback");
    assert_eq!(rollback.len(), 1, "one rollback, extended");
    assert_eq!(rollback[0].0, begin);
    assert!(rollback[0].1 > end, "RollbackComplete comes later: {} vs {end}", rollback[0].1);
    assert!(two.total_time_s > one.total_time_s);
    assert_eq!(two.recoveries(), one.recoveries(), "one rollback of every component");
}

/// No scheduled failure is free: in one of Figure 10's exact schedules
/// (2 816 cores, two producer failures 9.5 s apart; `bench::fig10`'s seed
/// `42 + 1000·scale + 11`) the second failure lands in the first one's
/// recovery. Every protocol counts each failure that hit a component before
/// it finished, and none coalesces one.
#[test]
fn every_failure_that_hits_a_live_component_counts() {
    let (scale, nf) = (2, 2);
    let seed = 42 + 1000 * scale as u64 + 11;
    let failures =
        materialize_failures(&table3(scale, WorkflowProtocol::Uncoordinated, nf).with_seed(seed));
    for proto in [
        WorkflowProtocol::Coordinated,
        WorkflowProtocol::Uncoordinated,
        WorkflowProtocol::Hybrid,
        WorkflowProtocol::Individual,
    ] {
        let r = run(&table3(scale, proto, nf).with_seed(seed).with_failures(failures.clone()));
        let hits = failures
            .iter()
            .filter(|f| match f {
                FailureSpec::At { at, app } => {
                    r.finish_times_s.iter().any(|&(a, done)| a == *app && at.as_secs_f64() < done)
                }
                _ => false,
            })
            .count() as u64;
        assert_eq!(hits, 2, "{proto:?}: both failures hit a live component");
        assert_eq!(r.metrics.counter("wf.failures"), hits, "{proto:?}");
        assert!(
            r.metrics.counters.iter().all(|c| c.name != "wf.failures_coalesced"),
            "{proto:?}: an unsupervised run coalesces nothing"
        );
    }
}
