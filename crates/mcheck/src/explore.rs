//! Stateless DFS exploration of the schedule tree.
//!
//! Every run starts from a fresh engine ([`Model::build`]), replays a forced
//! prefix of picks, then takes canonical defaults; the cursor records the
//! choice points it passed. After a completed run the explorer branches: for
//! each recorded choice point at or beyond the forced prefix, and each
//! alternative pick at that point (as reduced by the POR filter), a new
//! prefix is pushed. Branching is restricted to the first
//! [`ExploreConfig::max_branch_points`] choice points of a run — the
//! "bounded depth" within which exploration is exhaustive.

use crate::cursor::{shared, CursorSource, RecordedChoice, Recorder};
use crate::minimize::ddmin;
use crate::oracle::Oracle;
use crate::schedule::Schedule;
use sim_core::engine::Engine;
use std::collections::BTreeSet;

/// Something the explorer can repeatedly instantiate and run.
pub trait Model {
    /// A fresh, fully wired engine with kickoff events scheduled. Two calls
    /// must produce identical engines (the determinism contract).
    fn build(&self) -> Engine;

    /// Fresh oracles for one run.
    fn oracles(&self) -> Vec<Box<dyn Oracle>>;

    /// Per-run event budget (wedge guard).
    fn max_events(&self) -> u64 {
        1_000_000
    }

    /// Label stamped into emitted schedules.
    fn label(&self) -> String {
        "model".into()
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Branch only at the first N choice points of each run. Within this
    /// window exploration is exhaustive (modulo POR).
    pub max_branch_points: usize,
    /// Hard cap on schedules run; hitting it sets
    /// [`ExploreOutcome::truncated`].
    pub max_schedules: u64,
    /// Target-partitioned partial-order reduction (see
    /// [`crate::cursor::Recorder::new`]).
    pub por: bool,
    /// Stop at the first violation instead of mapping all violating oracles.
    pub stop_on_first: bool,
    /// ddmin-minimize violating schedules before reporting them.
    pub minimize: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_branch_points: 8,
            max_schedules: 20_000,
            por: true,
            stop_on_first: false,
            minimize: true,
        }
    }
}

/// One oracle violation, with its (minimized) reproducing schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the violated oracle.
    pub oracle: String,
    /// Violation description from the oracle.
    pub message: String,
    /// Replayable counterexample.
    pub schedule: Schedule,
}

/// Aggregate result of an exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreOutcome {
    /// Schedules fully run (excludes ddmin replays).
    pub schedules_explored: u64,
    /// Extra runs spent minimizing counterexamples.
    pub minimize_replays: u64,
    /// First violation found per oracle.
    pub violations: Vec<Violation>,
    /// True if `max_schedules` stopped the search early.
    pub truncated: bool,
    /// True if some run had choice points beyond the branch window — i.e.
    /// the tree continues past the explored depth.
    pub depth_bounded: bool,
}

impl ExploreOutcome {
    /// Violated oracle names, sorted — the comparison key for the
    /// DPOR-vs-DFS equivalence property.
    pub fn violated_oracles(&self) -> Vec<String> {
        let mut v: Vec<String> = self.violations.iter().map(|x| x.oracle.clone()).collect();
        v.sort();
        v
    }
}

struct RunResult {
    violation: Option<(String, String)>,
    recorded: Vec<RecordedChoice>,
    beyond: bool,
}

/// The DFS driver.
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    /// Exploration parameters.
    pub cfg: ExploreConfig,
}

impl Explorer {
    /// An explorer with the given parameters.
    pub fn new(cfg: ExploreConfig) -> Explorer {
        Explorer { cfg }
    }

    /// Run one schedule: replay `prefix`, then defaults.
    fn run_one<M: Model>(&self, model: &M, prefix: &[u32]) -> RunResult {
        let mut engine = model.build();
        let rec = shared(Recorder::new(prefix.to_vec(), self.cfg.max_branch_points, self.cfg.por));
        engine.set_choice_source(Box::new(CursorSource(rec.clone())));
        let mut oracles = model.oracles();
        let mut violation = None;
        let mut steps = 0u64;
        let max_events = model.max_events();

        'run: loop {
            if steps >= max_events || engine.run_limited(1) == 0 {
                break 'run;
            }
            steps += 1;
            for o in oracles.iter_mut() {
                if let Err(msg) = o.check(&engine) {
                    violation = Some((o.name().to_string(), msg));
                    break 'run;
                }
            }
        }
        if violation.is_none() {
            for o in oracles.iter_mut() {
                if let Err(msg) = o.at_end(&engine) {
                    violation = Some((o.name().to_string(), msg));
                    break;
                }
            }
        }
        let r = rec.borrow();
        RunResult { violation, recorded: r.recorded().to_vec(), beyond: r.saw_beyond_limit() }
    }

    /// Replay `picks` and report the violated oracle, if any. Public so
    /// regression tests can re-execute a stored `.schedule`.
    pub fn check_picks<M: Model>(&self, model: &M, picks: &[u32]) -> Option<(String, String)> {
        self.run_one(model, picks).violation
    }

    /// Re-run `picks` and serialize the choice points actually taken as a
    /// [`Schedule`] (arity/kind come from the live run, so clamped or
    /// re-shaped picks are recorded as what they resolved to).
    fn schedule_of<M: Model>(&self, model: &M, picks: &[u32]) -> Schedule {
        let mut engine = model.build();
        let rec = shared(Recorder::new(picks.to_vec(), picks.len(), self.cfg.por));
        engine.set_choice_source(Box::new(CursorSource(rec.clone())));
        let mut steps = 0u64;
        while steps < model.max_events() && !rec.borrow().past_prefix() {
            if engine.run_limited(1) == 0 {
                break;
            }
            steps += 1;
        }
        let s = rec.borrow().schedule(model.label());
        s
    }

    /// Explore the schedule tree of `model`.
    pub fn explore<M: Model>(&self, model: &M) -> ExploreOutcome {
        let mut out = ExploreOutcome::default();
        let mut violated: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<Vec<u32>> = vec![Vec::new()];

        while let Some(prefix) = stack.pop() {
            if out.schedules_explored >= self.cfg.max_schedules {
                out.truncated = true;
                break;
            }
            let r = self.run_one(model, &prefix);
            out.schedules_explored += 1;
            out.depth_bounded |= r.beyond;

            if let Some((oracle, message)) = r.violation {
                if violated.insert(oracle.clone()) {
                    let picks: Vec<u32> = r.recorded.iter().map(|c| c.picked as u32).collect();
                    let min_picks = if self.cfg.minimize {
                        let mut replays = 0u64;
                        let m = ddmin(&picks, &mut |cand: &[u32]| {
                            replays += 1;
                            self.check_picks(model, cand).map(|(o, _)| o == oracle).unwrap_or(false)
                        });
                        out.minimize_replays += replays;
                        m
                    } else {
                        picks
                    };
                    let schedule = self.schedule_of(model, &min_picks);
                    out.violations.push(Violation { oracle, message, schedule });
                }
                if self.cfg.stop_on_first {
                    break;
                }
                // A violating run is aborted mid-flight; its recorded tail
                // is partial, so do not expand it. Sibling branches pushed
                // by its ancestors keep the search complete for other
                // interleavings.
                continue;
            }

            // Branch: alternatives at every choice point from the divergence
            // depth down, pushed in reverse for left-to-right DFS order.
            for i in (prefix.len()..r.recorded.len()).rev() {
                for &alt in r.recorded[i].alts.iter().rev() {
                    let mut p: Vec<u32> = r.recorded[..i].iter().map(|c| c.picked as u32).collect();
                    p.push(alt as u32);
                    stack.push(p);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CounterZero;
    use sim_core::engine::{Actor, Ctx, Event};
    use sim_core::time::SimTime;

    /// Forwards every tick to a judge after a fixed delay.
    struct Relay {
        judge: usize,
        tag: u32,
    }
    impl Actor for Relay {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
            ctx.send_after(SimTime::from_nanos(10), self.judge, self.tag);
        }
    }

    /// Flags a metrics violation if tag 1 arrives before tag 0.
    #[derive(Default)]
    struct Judge {
        seen: Vec<u32>,
    }
    impl Actor for Judge {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Ok((_, tag)) = ev.downcast::<u32>() {
                if tag == 1 && !self.seen.contains(&0) {
                    ctx.metrics().inc("order.inverted", 1);
                }
                self.seen.push(tag);
            }
        }
    }

    /// Two relays racing into a judge; the inversion only shows on some
    /// schedules.
    struct RaceModel;
    impl Model for RaceModel {
        fn build(&self) -> Engine {
            let mut eng = Engine::new(5);
            let judge = eng.add_actor(Box::<Judge>::default());
            let x = eng.add_actor(Box::new(Relay { judge, tag: 0 }));
            let y = eng.add_actor(Box::new(Relay { judge, tag: 1 }));
            eng.schedule_at(SimTime::from_nanos(1), x, ());
            eng.schedule_at(SimTime::from_nanos(1), y, ());
            eng
        }
        fn oracles(&self) -> Vec<Box<dyn Oracle>> {
            vec![Box::new(CounterZero::new("delivery-order", "order.inverted"))]
        }
    }

    #[test]
    fn dfs_finds_the_inversion() {
        let ex = Explorer::new(ExploreConfig { por: false, ..Default::default() });
        let out = ex.explore(&RaceModel);
        assert_eq!(out.violated_oracles(), vec!["delivery-order"]);
        assert!(!out.truncated);
    }

    #[test]
    fn por_finds_the_same_violations_cheaper() {
        let full = Explorer::new(ExploreConfig { por: false, ..Default::default() });
        let por = Explorer::new(ExploreConfig { por: true, ..Default::default() });
        let a = full.explore(&RaceModel);
        let b = por.explore(&RaceModel);
        assert_eq!(a.violated_oracles(), b.violated_oracles());
        assert!(
            b.schedules_explored <= a.schedules_explored,
            "POR must not enlarge the search: {} vs {}",
            b.schedules_explored,
            a.schedules_explored
        );
    }

    #[test]
    fn minimized_schedule_replays_to_the_same_violation() {
        let ex = Explorer::new(ExploreConfig { por: false, ..Default::default() });
        let out = ex.explore(&RaceModel);
        let v = &out.violations[0];
        let got = ex.check_picks(&RaceModel, &v.schedule.picks());
        assert_eq!(got.map(|(o, _)| o), Some("delivery-order".into()));
        // 1-minimality: resetting any non-default pick loses the violation.
        let picks = v.schedule.picks();
        for i in 0..picks.len() {
            if picks[i] == 0 {
                continue;
            }
            let mut weaker = picks.clone();
            weaker[i] = 0;
            assert_eq!(
                ex.check_picks(&RaceModel, &weaker),
                None,
                "pick {i} is redundant in the minimized schedule"
            );
        }
    }

    /// Three same-time messages into one actor: the full tree has 3! leaves.
    struct Permute3;
    impl Model for Permute3 {
        fn build(&self) -> Engine {
            let mut eng = Engine::new(1);
            let judge = eng.add_actor(Box::<Judge>::default());
            for tag in [0u32, 1, 2] {
                eng.schedule_at(SimTime::from_nanos(1), judge, tag);
            }
            eng
        }
        fn oracles(&self) -> Vec<Box<dyn Oracle>> {
            Vec::new()
        }
    }

    #[test]
    fn bounded_dfs_is_exhaustive() {
        let ex = Explorer::new(ExploreConfig { por: false, minimize: false, ..Default::default() });
        let out = ex.explore(&Permute3);
        assert_eq!(out.schedules_explored, 6, "3! interleavings");
        assert!(!out.depth_bounded);
        assert!(!out.truncated);
    }

    #[test]
    fn max_schedules_truncates() {
        let ex = Explorer::new(ExploreConfig {
            por: false,
            minimize: false,
            max_schedules: 2,
            ..Default::default()
        });
        let out = ex.explore(&Permute3);
        assert!(out.truncated);
        assert_eq!(out.schedules_explored, 2);
    }
}
