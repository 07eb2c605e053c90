//! Model-checker end-to-end tests: bounded-exhaustive exploration of the
//! micro workflow, seeded-violation detection with ddmin minimization, a
//! byte-identical stored-schedule regression and the DPOR-vs-DFS equivalence
//! property.

use mcheck::{ExploreConfig, Explorer, Schedule};
use sim_core::time::SimTime;
use std::path::PathBuf;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::micro;
use workflow::mcheck_mode::{self, CrashChoice, McheckOptions, WorkflowModel};

/// The options used both to generate and to replay the stored regression
/// schedule: seeded replay-version skew plus one candidate consumer crash
/// routed through a Timing choice point.
fn seeded_opts() -> McheckOptions {
    McheckOptions {
        replay_version_skew: 1,
        crash_choices: vec![CrashChoice { at: SimTime::from_millis(5), app: 1 }],
        ..Default::default()
    }
}

fn small_explore(por: bool) -> ExploreConfig {
    ExploreConfig {
        max_branch_points: 4,
        max_schedules: 2_000,
        por,
        state_prune: false,
        stop_on_first: false,
        minimize: true,
    }
}

fn stored_schedule_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/schedules/micro_skew.schedule")
}

#[test]
fn bounded_exploration_of_clean_micro_is_violation_free() {
    // No version skew: the scheduler may crash the consumer at any candidate
    // point and recovery must stay consistent on every explored schedule.
    let cfg = micro(WorkflowProtocol::Uncoordinated);
    let opts = McheckOptions {
        crash_choices: vec![CrashChoice { at: SimTime::from_millis(5), app: 1 }],
        ..Default::default()
    };
    let out = mcheck_mode::explore(&cfg, opts, small_explore(true));
    assert!(out.violations.is_empty(), "clean micro violated: {:?}", out.violated_oracles());
    assert!(out.schedules_explored > 1, "same-time batches must branch the tree");
    assert!(!out.truncated, "bounded micro tree must be fully explored");
}

#[test]
fn seeded_skew_violation_is_found_minimized_and_replayable() {
    let cfg = micro(WorkflowProtocol::Uncoordinated);
    let ex = Explorer::new(small_explore(true));
    let model = WorkflowModel::new(cfg.clone(), seeded_opts());
    let out = ex.explore(&model);
    assert!(
        out.violated_oracles().contains(&"replay-version-fidelity".to_string()),
        "seeded skew must trip the fidelity oracle, got {:?}",
        out.violated_oracles()
    );
    let v = out
        .violations
        .iter()
        .find(|v| v.oracle == "replay-version-fidelity")
        .expect("fidelity violation present");

    // The counterexample is a real crash schedule: it forces the Timing pick.
    assert!(
        v.schedule.choices.iter().any(|c| c.kind == "timing" && c.picked > 0),
        "counterexample must include the crash-timing pick: {:?}",
        v.schedule.choices
    );

    // It replays deterministically to the same violation...
    let replayed = mcheck_mode::replay_schedule(&cfg, seeded_opts(), &v.schedule);
    assert_eq!(
        replayed.as_ref().map(|(o, _)| o.as_str()),
        Some("replay-version-fidelity"),
        "minimized schedule must reproduce the violation"
    );

    // ...and it is 1-minimal: weakening any non-default pick loses it.
    let picks = v.schedule.picks();
    for i in 0..picks.len() {
        if picks[i] == 0 {
            continue;
        }
        let mut weaker = picks.clone();
        weaker[i] = 0;
        let weaker_sched = Schedule {
            format: mcheck::schedule::FORMAT,
            label: v.schedule.label.clone(),
            choices: v
                .schedule
                .choices
                .iter()
                .zip(&weaker)
                .map(|(c, &p)| mcheck::Choice { picked: p, ..c.clone() })
                .collect(),
        };
        assert_eq!(
            mcheck_mode::replay_schedule(&cfg, seeded_opts(), &weaker_sched),
            None,
            "pick {i} is redundant in the minimized schedule"
        );
    }
}

/// Regenerates the stored regression schedule. Run explicitly after an
/// intentional format or exploration-order change:
/// `cargo test -p workflow --test mcheck_explore -- --ignored regenerate`
#[test]
#[ignore = "writes tests/schedules/micro_skew.schedule; run on intentional format changes"]
fn regenerate_stored_schedule() {
    let cfg = micro(WorkflowProtocol::Uncoordinated);
    let out = Explorer::new(small_explore(true)).explore(&WorkflowModel::new(cfg, seeded_opts()));
    let v = out
        .violations
        .iter()
        .find(|v| v.oracle == "replay-version-fidelity")
        .expect("fidelity violation present");
    let path = stored_schedule_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    v.schedule.save(&path).unwrap();
}

#[test]
fn stored_schedule_replays_byte_identically() {
    let path = stored_schedule_path();
    let stored_bytes = std::fs::read_to_string(&path).expect("stored regression schedule");
    let sched = Schedule::from_json(&stored_bytes).expect("valid schedule document");
    // The stored document is in canonical form (a serialization fixed point).
    assert_eq!(sched.to_json(), stored_bytes, "stored schedule must be canonical");

    // Replaying it reproduces the recorded violation, deterministically.
    let cfg = micro(WorkflowProtocol::Uncoordinated);
    let replayed = mcheck_mode::replay_schedule(&cfg, seeded_opts(), &sched);
    assert_eq!(
        replayed.as_ref().map(|(o, _)| o.as_str()),
        Some("replay-version-fidelity"),
        "stored schedule must still reproduce its violation"
    );

    // And a fresh exploration re-derives the identical minimized schedule:
    // exploration, minimization, and serialization are all deterministic.
    let ex = Explorer::new(small_explore(true));
    let out = ex.explore(&WorkflowModel::new(cfg, seeded_opts()));
    let v = out
        .violations
        .iter()
        .find(|v| v.oracle == "replay-version-fidelity")
        .expect("fidelity violation present");
    assert_eq!(v.schedule.to_json(), stored_bytes, "re-derived schedule diverged from stored");
}

#[test]
fn dpor_reduced_exploration_matches_full_dfs() {
    // The DPOR-vs-DFS equivalence on the seeded micro model: the reduced
    // search must find exactly the violations the full search finds, without
    // enlarging the tree.
    let cfg = micro(WorkflowProtocol::Uncoordinated);
    let full = Explorer::new(ExploreConfig { minimize: false, ..small_explore(false) })
        .explore(&WorkflowModel::new(cfg.clone(), seeded_opts()));
    let por = Explorer::new(ExploreConfig { minimize: false, ..small_explore(true) })
        .explore(&WorkflowModel::new(cfg, seeded_opts()));
    assert_eq!(full.violated_oracles(), por.violated_oracles());
    assert!(
        por.schedules_explored <= full.schedules_explored,
        "POR must not enlarge the search: {} vs {}",
        por.schedules_explored,
        full.schedules_explored
    );
}

mod dpor_property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// On arbitrary small (2-component, ≤3-step) workflows with a
        /// scheduler-chosen crash, DPOR-reduced exploration finds the same
        /// set of violated oracles as full DFS.
        #[test]
        fn dpor_equals_dfs(seed in 0u64..8, crash_ms in 4u64..7, skew in 0u32..2) {
            let mut cfg = micro(WorkflowProtocol::Uncoordinated);
            cfg.seed = seed;
            let opts = McheckOptions {
                replay_version_skew: skew,
                crash_choices: vec![CrashChoice {
                    at: SimTime::from_millis(crash_ms),
                    app: 1,
                }],
                ..Default::default()
            };
            let ecfg = ExploreConfig {
                max_branch_points: 3,
                max_schedules: 500,
                state_prune: false,
                stop_on_first: false,
                minimize: false,
                por: false,
            };
            let full = Explorer::new(ecfg.clone())
                .explore(&WorkflowModel::new(cfg.clone(), opts.clone()));
            let por = Explorer::new(ExploreConfig { por: true, ..ecfg })
                .explore(&WorkflowModel::new(cfg, opts));
            prop_assert_eq!(full.violated_oracles(), por.violated_oracles());
            prop_assert!(por.schedules_explored <= full.schedules_explored);
        }
    }
}

/// Full-depth exploration for the nightly `mcheck-deep` CI job (or the
/// `mcheck-deep` PR label): deeper branching, a message-fault budget, and
/// two candidate crash points — every reachable schedule must stay
/// consistent. Run with:
/// `cargo test -q --release -- --ignored mcheck_deep`
#[test]
#[ignore = "widest exploration budget; nightly CI job"]
fn mcheck_deep_exploration_is_violation_free() {
    let cfg = micro(WorkflowProtocol::Uncoordinated);
    let opts = McheckOptions {
        fault_space: Some(faultplane::FaultSpace::new(1, 1)),
        crash_choices: vec![
            CrashChoice { at: SimTime::from_millis(3), app: 0 },
            CrashChoice { at: SimTime::from_millis(5), app: 1 },
        ],
        ..Default::default()
    };
    let ecfg = ExploreConfig {
        max_branch_points: 8,
        max_schedules: 200_000,
        por: true,
        state_prune: true,
        stop_on_first: false,
        minimize: true,
    };
    let out = mcheck_mode::explore(&cfg, opts, ecfg);
    assert!(out.violations.is_empty(), "deep exploration violated: {:?}", out.violated_oracles());
    assert!(out.schedules_explored > 10, "deep space must branch widely");
}
