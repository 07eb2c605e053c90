//! Self-healing supervision: automatic restarts, poison quarantine, and
//! composed failures written as lists of single fail-stops.
//!
//! The invariants pinned here, per the supervision design (DESIGN §8):
//!
//! * A single component crash — including one landing *during its own
//!   recovery* — recovers by checkpoint rollback without a global
//!   rollback: only the victim rolls back, the run completes, and the
//!   staging replay digests verify clean.
//! * A poison put crash-loops its consumer until it has caused
//!   `supervise::POISON_THRESHOLD` deaths, the step is quarantined, and the
//!   *rest* of the run completes — byte-identically across same-seed runs.
//! * The quarantined step's trace instant names its victim, step, death
//!   count and cause, and a supervised trace is well formed with no
//!   supervisor of its own: each component enacts its own supervision.
//! * A death while the component waits out its restart backoff is
//!   coalesced into the outage already open.
//! * Cascading, correlated and fail-during-recovery failures — each a list
//!   of `FailureSpec::At` — and poison puts are deterministic end to end
//!   (the soak).

mod common;

use std::time::Duration;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec, TraceCfg, WorkflowConfig};
use workflow::runner::{run, run_traced};
use workflow::RunReport;

use sim_core::time::SimTime;

/// Supervised tiny workflow under the uncoordinated (logging) protocol —
/// logging keeps the replay digest checker live so `digest_mismatches`
/// means something in every test.
fn supervised() -> WorkflowConfig {
    tiny(WorkflowProtocol::Uncoordinated).with_supervision()
}

fn assert_completed(rep: &RunReport, ctx: &str) {
    assert_eq!(rep.finish_times_s.len(), 2, "{ctx}: both components must finish");
    assert_eq!(rep.digest_mismatches, 0, "{ctx}: replay digests must verify clean");
}

/// One mid-run crash of the consumer: supervision restarts it exactly
/// once, by checkpoint rollback, and only the victim pays (no global
/// rollback).
#[test]
fn single_crash_recovers_per_policy() {
    let _wd = common::watchdog("single_crash_recovers_per_policy", Duration::from_secs(120));
    let fail = vec![FailureSpec::At { at: SimTime::from_millis(700), app: 1 }];

    let ck = run(&supervised().with_failures(fail));
    assert_completed(&ck, "checkpoint");
    assert_eq!(ck.restarts(), 1);
    assert_eq!(ck.quarantined(), 0);
    assert_eq!(ck.recoveries(), 1, "checkpoint: only the victim rolls back");
    assert!(ck.mttr_mean_s() > 0.0 && ck.mttr_max_s() >= ck.mttr_mean_s());
}

/// The deterministic poison-put regression. A poisoned step-3 input kills
/// the consumer on every attempt; after `POISON_THRESHOLD` deaths the
/// consumer quarantines the step, skips it, and the rest of the run
/// completes. Two same-seed runs must produce
/// byte-identical reports.
#[test]
fn poison_put_quarantines_and_rest_completes_byte_identically() {
    let _wd = common::watchdog("poison_put_quarantines", Duration::from_secs(120));
    let cfg = supervised().with_failures(vec![FailureSpec::PoisonPut { victim: 1, step: 3 }]);
    let a = run(&cfg);
    assert_completed(&a, "poison-put");
    assert_eq!(a.quarantined(), 1, "the poisoned step must be quarantined");
    assert_eq!(
        a.restarts() as u32,
        supervise::POISON_THRESHOLD,
        "one restart per death until the step is quarantined"
    );
    assert!(a.mttr_mean_s() > 0.0);

    let b = run(&cfg);
    assert_eq!(a.to_json_line(), b.to_json_line(), "same seed, same supervised report");
}

/// The supervision numbers of the three `self_healing` example runs, as
/// their summary lines print them: restarts, quarantines and MTTR mean/max.
#[test]
fn self_healing_numbers_are_pinned() {
    let _wd = common::watchdog("self_healing_numbers", Duration::from_secs(120));
    let ms = SimTime::from_millis;
    let runs = [
        (vec![FailureSpec::At { at: ms(700), app: 1 }], "rst=1 quar=0 mttr=0.141s/max=0.141s"),
        (
            vec![FailureSpec::At { at: ms(700), app: 1 }, FailureSpec::At { at: ms(780), app: 1 }],
            "rst=2 quar=0 mttr=2.221s/max=2.221s",
        ),
        (
            vec![FailureSpec::PoisonPut { victim: 1, step: 3 }],
            "rst=3 quar=1 mttr=1.441s/max=2.091s",
        ),
    ];
    for (failures, want) in runs {
        let summary = run(&supervised().with_failures(failures)).summary();
        assert!(summary.contains(want), "want `{want}` in {summary}");
    }
}

/// Without supervision the same poison-put spec is rejected up front — the
/// config layer refuses a plan that would wedge the run in a crash loop.
#[test]
fn poison_put_without_supervision_is_rejected() {
    let cfg = tiny(WorkflowProtocol::Uncoordinated)
        .with_failures(vec![FailureSpec::PoisonPut { victim: 1, step: 3 }]);
    let err = cfg.validate().unwrap_err();
    assert!(err.contains("supervision"), "unexpected error: {err}");
}

/// The second blow lands while the first recovery is still in flight: the
/// outage extends (one long MTTR streak, growing backoff) instead of
/// deadlocking or double-restarting, and the run still completes.
#[test]
fn crash_during_recovery_extends_the_outage() {
    let _wd = common::watchdog("crash_during_recovery", Duration::from_secs(120));
    let cfg = supervised().with_failures(vec![
        FailureSpec::At { at: SimTime::from_millis(700), app: 1 },
        FailureSpec::At { at: SimTime::from_millis(780), app: 1 },
    ]);
    let rep = run(&cfg);
    assert_completed(&rep, "fail-during-recovery");
    assert_eq!(rep.restarts(), 2, "both deaths must be granted a restart");
    assert_eq!(rep.quarantined(), 0);
    assert!(
        rep.mttr_max_s() > 0.08,
        "the re-death must extend the same outage past the 80 ms lag (mttr_max={})",
        rep.mttr_max_s()
    );

    let again = run(&cfg);
    assert_eq!(rep.to_json_line(), again.to_json_line());
}

/// Cascading (domino: one victim after another, a spread apart) and
/// correlated (same-instant) multi-component failures: every victim
/// recovers independently, recoveries overlap without interfering, and
/// same-seed runs stay byte-identical.
#[test]
fn cascading_and_correlated_failures_recover_deterministically() {
    let _wd = common::watchdog("cascading_and_correlated", Duration::from_secs(120));
    let cascade = supervised().with_failures(vec![
        FailureSpec::At { at: SimTime::from_millis(600), app: 0 },
        FailureSpec::At { at: SimTime::from_millis(720), app: 1 },
    ]);
    let c1 = run(&cascade);
    assert_completed(&c1, "cascading");
    assert_eq!(c1.restarts(), 2, "the failure must spread to both components");
    assert_eq!(c1.to_json_line(), run(&cascade).to_json_line());

    let correlated = supervised().with_failures(vec![
        FailureSpec::At { at: SimTime::from_millis(650), app: 0 },
        FailureSpec::At { at: SimTime::from_millis(650), app: 1 },
    ]);
    let r1 = run(&correlated);
    assert_completed(&r1, "correlated");
    assert_eq!(r1.restarts(), 2, "both victims must restart");
    assert_eq!(r1.to_json_line(), run(&correlated).to_json_line());
}

/// A replicated component's fail-stop counts under supervision as an
/// *outage*, not a restart: the replica is already serving, so failover
/// semantics are unchanged (one failover, no rollback, same completion),
/// but the component opens an MTTR window around the failover pause and
/// closes it when it next resumes compute.
#[test]
fn replicated_failover_routes_through_the_supervisor() {
    let _wd = common::watchdog("replicated_failover", Duration::from_secs(120));
    // Hybrid replicates the consumer; fail it mid-run.
    let fail = vec![FailureSpec::At { at: SimTime::from_millis(700), app: 1 }];

    let unsup = run(&tiny(WorkflowProtocol::Hybrid).with_failures(fail.clone()));
    assert_eq!(unsup.failovers(), 1);
    assert_eq!(unsup.restarts(), 0);
    assert_eq!(unsup.mttr_mean_s(), 0.0, "no supervisor, no MTTR accounting");

    let cfg = tiny(WorkflowProtocol::Hybrid).with_supervision().with_failures(fail);
    let sup = run(&cfg);
    assert_eq!(sup.finish_times_s.len(), 2);
    assert_eq!(sup.failovers(), 1, "failover semantics unchanged under supervision");
    assert_eq!(sup.recoveries(), unsup.recoveries(), "replication still absorbs the death");
    assert_eq!(sup.digest_mismatches, 0);
    assert_eq!(sup.restarts(), 1, "the outage is accounted by the policy machine");
    assert_eq!(sup.quarantined(), 0);
    assert!(
        sup.mttr_mean_s() > 0.0,
        "the supervisor must time the failover outage (mttr={})",
        sup.mttr_mean_s()
    );
    assert!(
        (sup.total_time_s - unsup.total_time_s).abs() < 1e-9,
        "accounting must not change the run ({} vs {})",
        sup.total_time_s,
        unsup.total_time_s
    );

    let again = run(&cfg);
    assert_eq!(sup.to_json_line(), again.to_json_line(), "same seed, same supervised report");
}

/// A second death 20 ms after the first lands inside the first one's 50 ms
/// restart backoff, while the consumer is already dead: it is coalesced
/// into the open outage — no second restart, no second recovery.
#[test]
fn a_death_during_the_backoff_is_coalesced() {
    let _wd = common::watchdog("death_during_backoff", Duration::from_secs(120));
    let cfg = supervised().with_failures(vec![
        FailureSpec::At { at: SimTime::from_millis(700), app: 1 },
        FailureSpec::At { at: SimTime::from_millis(720), app: 1 },
    ]);
    let rep = run(&cfg);
    assert_completed(&rep, "death during the backoff");
    assert_eq!(rep.metrics.counter("wf.failures_coalesced"), 1, "the second death is coalesced");
    assert_eq!(rep.restarts(), 1, "one outage, one restart");
    assert_eq!(rep.recoveries(), 1, "one ULFM repair");
}

/// The `self_healing` poison run, fully traced.
fn traced_poison_run() -> (RunReport, obs::Trace) {
    let mut cfg = supervised().with_failures(vec![FailureSpec::PoisonPut { victim: 1, step: 3 }]);
    cfg.trace = Some(TraceCfg::full());
    run_traced(&cfg)
}

/// The victim's `quarantine` instants: `(track name, args)`.
fn quarantines(trace: &obs::Trace) -> Vec<(&str, Vec<(&str, &str)>)> {
    trace
        .records
        .iter()
        .filter(|r| r.k == obs::RecordKind::Instant && r.name == "quarantine")
        .map(|r| {
            let args = r.args.iter().map(|a| (a.k.as_str(), a.v.as_str())).collect();
            (trace.tracks[r.track as usize].as_str(), args)
        })
        .collect()
}

/// A supervised trace explains itself: it is well formed, no supervisor
/// track stands beside the components, and the quarantine is an instant on
/// the victim's own track.
#[test]
fn a_supervised_trace_explains_itself() {
    let _wd = common::watchdog("supervised_trace", Duration::from_secs(120));
    let (rep, trace) = traced_poison_run();
    assert_completed(&rep, "traced poison-put");
    let report = obs::analyze::validate(&trace).unwrap_or_else(|e| panic!("invalid trace: {e:?}"));
    assert!(report.instants > 0);
    assert!(
        trace.tracks.iter().all(|t| t != "supervisor"),
        "no supervisor track: {:?}",
        trace.tracks
    );
    assert_eq!(quarantines(&trace).len(), 1, "one quarantine instant");
}

/// A quarantined poison step leaves one `quarantine` instant on its
/// victim's track, with victim, step, death count and cause intact.
#[test]
fn dead_letter_queue_persists_across_restart() {
    let _wd = common::watchdog("dlq_letter", Duration::from_secs(120));
    let (rep, trace) = traced_poison_run();
    assert_eq!(rep.quarantined(), 1);

    let letters = quarantines(&trace);
    assert_eq!(letters.len(), 1, "exactly one letter must be quarantined");
    let (track, args) = &letters[0];
    let threshold = supervise::POISON_THRESHOLD.to_string();
    assert!(track.starts_with("app1:"), "the victim's own track, not {track}");
    assert!(args.contains(&("step", "3")), "{args:?}");
    assert!(args.contains(&("deaths", threshold.as_str())), "{args:?}");
    assert!(args.contains(&("cause", "poison-put")), "{args:?}");
}

/// One soak cell's failure list: `shape` striking at `at`, its second
/// blow (if any) `lag` later.
fn soak_failures(shape: &str, at: SimTime, lag: SimTime) -> Vec<FailureSpec> {
    match shape {
        "cascading" => {
            vec![FailureSpec::At { at, app: 0 }, FailureSpec::At { at: at + lag, app: 1 }]
        }
        "correlated" => vec![FailureSpec::At { at, app: 0 }, FailureSpec::At { at, app: 1 }],
        "fail-during-recovery" => {
            vec![FailureSpec::At { at, app: 1 }, FailureSpec::At { at: at + lag, app: 1 }]
        }
        "poison-put" => vec![FailureSpec::PoisonPut { victim: 1, step: 3 }],
        _ => unreachable!("unknown soak shape {shape}"),
    }
}

/// The supervision soak: four failure shapes × onsets {600, 700} ms × lag
/// 80 ms × seeds {7, 11}, every cell run twice, requiring completion, clean
/// digests and byte-identical reports. Each cell is armed with a watchdog
/// that dumps the obs flight recorder on hang, so a wedged cell dies with
/// its evidence attached. Alone:
/// `cargo test -q --release -p workflow --test supervision supervision_soak`.
#[test]
fn supervision_soak() {
    let ms = SimTime::from_millis;
    let lag = ms(80);
    let mut cells = 0;
    for shape in ["cascading", "correlated", "fail-during-recovery", "poison-put"] {
        for at_ms in [600, 700] {
            for seed in [7, 11] {
                let label = format!("{shape}@{at_ms}+80ms/s{seed}");
                let mut cfg = supervised()
                    .with_failures(soak_failures(shape, ms(at_ms), lag))
                    .with_seed(seed);
                cfg.trace = Some(TraceCfg { flight_cap: Some(2048) });
                cfg.validate().unwrap_or_else(|e| panic!("{label}: invalid cfg: {e}"));

                let mut built = workflow::runner::build(&cfg);
                let wd = common::watchdog_with_dump(
                    "supervision_soak",
                    Duration::from_secs(120),
                    common::dump_tracer(built.tracer.clone()),
                );
                built.engine.run_limited(200_000_000);
                let rep = workflow::runner::harvest(&mut built);
                drop(wd);

                assert_completed(&rep, &label);
                assert!(rep.restarts() > 0, "{label}: supervision must have acted");
                let again = run(&cfg);
                assert_eq!(
                    rep.to_json_line(),
                    again.to_json_line(),
                    "{label}: same seed, same report"
                );
                cells += 1;
            }
        }
    }
    eprintln!("supervision_soak: {cells} cells green");
}
