//! Model-checker runner mode: the workflow engine as an [`mcheck::Model`].
//!
//! [`runner::build`] produces a fully wired engine that has not dispatched a
//! single event yet — exactly what stateless exploration needs. This module
//! wraps it as a [`Model`]: every [`Model::build`] call reconstructs the
//! identical engine, optionally installs the enumerable fault space
//! ([`faultplane::FaultSpace`]) on the network, routes crash timing through a
//! `Timing` choice point, and (for oracle self-tests) arms the seeded
//! replay-version-skew violation. The oracles encode the paper's invariants:
//!
//! * **replay-version-fidelity** — a replayed get must serve data whose
//!   digest matches the logged original (paper §III-A.1's digest check);
//! * **redundant-put-absorption** — a put is absorbed only while its issuer
//!   is replaying; absorbing a normal write would silently lose data;
//! * **gc-safety** — the GC floor never passes any component's checkpoint
//!   mark (collecting above a laggard's mark would break its rollback), and
//!   reclaimed bytes never regress;
//! * **checkpoint-marker-monotonicity** — per-app event-queue checkpoint
//!   markers (`w_chk_id`, covered version) never move backwards, even under
//!   duplicated or reordered control messages;
//! * **cross-shard-conservation** — in a sharded fleet, every logged piece
//!   is owned by exactly one shard: no block double-routed, no rebalance
//!   that leaves a stale owner still accepting writes.

use crate::backend::AnyBackend;
use crate::config::WorkflowConfig;
use crate::runner;
use faultplane::FaultSpace;
use mcheck::{ExploreConfig, ExploreOutcome, Explorer, FnOracle, Model, Oracle, Schedule};
use net::des::Network;
use sim_core::choice::ChoiceKind;
use sim_core::engine::{Actor, Ctx, Engine, Event};
use sim_core::time::SimTime;
use staging::server::StagingServerActor;
use std::collections::BTreeMap;
use wfcr::backend::LoggingBackend;

/// One candidate component crash the controlled scheduler may inject.
#[derive(Debug, Clone, Copy)]
pub struct CrashChoice {
    /// Crash time (relative to the start of the run).
    pub at: SimTime,
    /// Victim component.
    pub app: u32,
}

/// Knobs of a model-checking run, beyond the workflow configuration.
#[derive(Debug, Clone)]
pub struct McheckOptions {
    /// Budgeted message faults surfaced as enumerable `Fault` choice points
    /// on the DES network (`None`: no fault choices).
    pub fault_space: Option<FaultSpace>,
    /// Candidate crashes; each run the scheduler picks at most one via a
    /// `Timing` choice point (pick 0 — the canonical default — is "none").
    pub crash_choices: Vec<CrashChoice>,
    /// Seeded violation: skew the version served for replayed gets by this
    /// much (see [`LoggingBackend::set_replay_version_skew`]). Used to prove
    /// the fidelity oracle actually fires; 0 in real checking runs.
    pub replay_version_skew: u32,
    /// Per-schedule event budget (wedge guard).
    pub max_events: u64,
}

impl Default for McheckOptions {
    fn default() -> Self {
        McheckOptions {
            fault_space: None,
            crash_choices: Vec::new(),
            replay_version_skew: 0,
            max_events: 400_000,
        }
    }
}

/// Kickoff message for the crash injector.
struct InjectorKick;

/// Routes crash/restart timing through the choice plane: on kickoff it asks
/// the scheduler to pick one of the candidate crashes (or none) and schedules
/// the chosen `Fail`. Outside a controlled run the default pick is "none", so
/// the injector is inert in ordinary executions.
struct CrashInjector {
    choices: Vec<CrashChoice>,
    /// `(app, component actor id)` victim lookup.
    targets: Vec<(u32, usize)>,
}

impl Actor for CrashInjector {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
        let pick = ctx.choose(ChoiceKind::Timing, self.choices.len() + 1);
        if pick == 0 {
            return;
        }
        let c = self.choices[pick - 1];
        let target =
            self.targets.iter().find(|&&(app, _)| app == c.app).expect("crash victim exists").1;
        // Kickoff runs at t=0, so the crash time is also the delay.
        ctx.send_after(c.at, target, crate::component::Fail);
    }
}

/// A workflow configuration plus model-checking knobs, explorable by
/// [`mcheck::Explorer`].
pub struct WorkflowModel {
    cfg: WorkflowConfig,
    opts: McheckOptions,
}

impl WorkflowModel {
    /// Wrap `cfg` for exploration.
    pub fn new(cfg: WorkflowConfig, opts: McheckOptions) -> WorkflowModel {
        WorkflowModel { cfg, opts }
    }

    /// Staging-server actor ids, derivable without building: `build`
    /// registers components first, then servers (see [`runner::build`]).
    fn server_actor_ids(&self) -> Vec<usize> {
        let ncomp = self.cfg.components.len();
        (ncomp..ncomp + self.cfg.nservers).collect()
    }
}

/// Visit every logging staging server of `engine`.
fn for_each_logging(
    engine: &Engine,
    server_ids: &[usize],
    mut f: impl FnMut(usize, &LoggingBackend) -> Result<(), String>,
) -> Result<(), String> {
    for &sid in server_ids {
        let s =
            engine.actor_as::<StagingServerActor<AnyBackend>>(sid).expect("staging server actor");
        if let Some(lb) = s.logic().backend().as_logging() {
            f(sid, lb)?;
        }
    }
    Ok(())
}

/// The paper invariants (plus fleet conservation) as oracles over a set of
/// staging servers.
pub fn consistency_oracles(server_ids: Vec<usize>) -> Vec<Box<dyn Oracle>> {
    let ids = server_ids.clone();
    let fidelity = FnOracle::new("replay-version-fidelity", move |e: &Engine| {
        for_each_logging(e, &ids, |sid, lb| {
            let m = lb.digest_mismatches();
            if m > 0 {
                return Err(format!(
                    "server {sid}: {m} replay digest mismatch(es) — a replayed get served \
                     data that does not match the logged original"
                ));
            }
            Ok(())
        })
    });

    let ids = server_ids.clone();
    let mut absorb_state: BTreeMap<usize, (u64, bool)> = BTreeMap::new();
    let absorption = FnOracle::new("redundant-put-absorption", move |e: &Engine| {
        for_each_logging(e, &ids, |sid, lb| {
            let replaying = !lb.replaying_apps().is_empty();
            let absorbed = lb.absorbed_puts();
            let (last, was) = absorb_state.get(&sid).copied().unwrap_or((0, false));
            absorb_state.insert(sid, (absorbed, replaying));
            if absorbed > last && !was && !replaying {
                return Err(format!(
                    "server {sid}: absorbed-put counter grew {last} -> {absorbed} outside \
                     any replay window — a normal write was swallowed"
                ));
            }
            Ok(())
        })
    });

    let ids = server_ids.clone();
    let mut reclaimed_state: BTreeMap<usize, u64> = BTreeMap::new();
    let gc = FnOracle::new("gc-safety", move |e: &Engine| {
        for_each_logging(e, &ids, |sid, lb| {
            let floor = lb.gc_floor();
            for (app, mark) in lb.gc_marks() {
                if floor > mark {
                    return Err(format!(
                        "server {sid}: GC floor {floor} passed app {app}'s checkpoint \
                         mark {mark} — a rollback of {app} could need collected versions"
                    ));
                }
            }
            let r = lb.gc_reclaimed();
            let last = reclaimed_state.get(&sid).copied().unwrap_or(0);
            if r < last {
                return Err(format!("server {sid}: reclaimed bytes regressed {last} -> {r}"));
            }
            reclaimed_state.insert(sid, r);
            Ok(())
        })
    });

    let ids = server_ids.clone();
    let mut marker_state: BTreeMap<(usize, u32), (u64, u32)> = BTreeMap::new();
    let markers = FnOracle::new("checkpoint-marker-monotonicity", move |e: &Engine| {
        for_each_logging(e, &ids, |sid, lb| {
            for app in lb.queue_apps() {
                let Some(q) = lb.queue(app) else { continue };
                let id = q.last_w_chk_id().unwrap_or(0);
                let v = q.checkpoint_version().unwrap_or(0);
                if let Some(&(pid, pv)) = marker_state.get(&(sid, app)) {
                    if id < pid || v < pv {
                        return Err(format!(
                            "server {sid}, app {app}: checkpoint marker regressed \
                             (w_chk_id {pid} -> {id}, version {pv} -> {v})"
                        ));
                    }
                }
                marker_state.insert((sid, app), (id, v));
            }
            Ok(())
        })
    });

    let ids = server_ids.clone();
    let conservation = FnOracle::new("cross-shard-conservation", move |e: &Engine| {
        // Sharded-fleet conservation: every logged piece (app, var, version,
        // block origin) is owned by exactly one shard. A key may legitimately
        // repeat *within* one shard's log — redundant replay writes are
        // logged again for replay verification — but the same key appearing
        // on two different shards means a put was double-routed (or a
        // rebalance migrated a block without retiring the old owner).
        let mut owned: Vec<(usize, wfcr::PieceKey)> = Vec::new();
        for_each_logging(e, &ids, |sid, lb| {
            owned.extend(wfcr::logged_put_keys(lb).into_iter().map(|k| (sid, k)));
            Ok(())
        })?;
        mcheck::disjoint_owners(owned)
    });

    let ids = server_ids;
    let no_lost = FnOracle::new("no-lost-event", move |e: &Engine| {
        for_each_logging(e, &ids, |sid, lb| {
            // Transport-event conservation (the peek-before-commit
            // invariant): every event ever appended to an app's queue is
            // either still live for replay or was committed away by a
            // checkpoint truncation — restarts and quarantines must not
            // leak any third fate.
            for app in lb.queue_apps() {
                let Some(q) = lb.queue(app) else { continue };
                let appended = q.appended_transport();
                let committed = q.committed();
                let live = q.transport_len() as u64;
                if appended != committed + live {
                    return Err(format!(
                        "server {sid}, app {app}: transport-event conservation broken — \
                         appended {appended} != committed {committed} + live {live} \
                         (an event was lost or double-truncated)"
                    ));
                }
            }
            Ok(())
        })
    });

    vec![
        Box::new(fidelity),
        Box::new(absorption),
        Box::new(gc),
        Box::new(markers),
        Box::new(conservation),
        Box::new(no_lost),
    ]
}

impl Model for WorkflowModel {
    fn build(&self) -> Engine {
        let mut b = runner::build(&self.cfg);
        if let Some(space) = self.opts.fault_space {
            b.engine
                .actor_as_mut::<Network>(b.net_id)
                .expect("network actor")
                .set_fault_space(space);
        }
        if self.opts.replay_version_skew > 0 {
            for &sid in &b.server_ids {
                let s = b
                    .engine
                    .actor_as_mut::<StagingServerActor<AnyBackend>>(sid)
                    .expect("staging server actor");
                if let Some(lb) = s.logic_mut().backend_mut().as_logging_mut() {
                    lb.set_replay_version_skew(self.opts.replay_version_skew);
                }
            }
        }
        if !self.opts.crash_choices.is_empty() {
            let targets =
                b.cfg.components.iter().zip(&b.comp_ids).map(|(c, &id)| (c.app, id)).collect();
            let inj = b.engine.add_actor(Box::new(CrashInjector {
                choices: self.opts.crash_choices.clone(),
                targets,
            }));
            b.engine.schedule_at(SimTime::ZERO, inj, InjectorKick);
        }
        b.engine
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        consistency_oracles(self.server_actor_ids())
    }

    fn max_events(&self) -> u64 {
        self.opts.max_events
    }

    fn label(&self) -> String {
        self.cfg.label.clone()
    }
}

/// The mcheck runner mode: explore the schedule tree of `cfg` under `opts`.
/// The all-defaults schedule is the ordinary seeded run, which
/// [`runner::run`] reports.
pub fn explore(cfg: &WorkflowConfig, opts: McheckOptions, ecfg: ExploreConfig) -> ExploreOutcome {
    Explorer::new(ecfg).explore(&WorkflowModel::new(cfg.clone(), opts))
}

/// Re-execute a stored `.schedule` against `cfg`+`opts`. Returns the violated
/// oracle `(name, message)`, or `None` when the schedule runs clean — the
/// entry point regression tests use to replay minimized counterexamples.
pub fn replay_schedule(
    cfg: &WorkflowConfig,
    opts: McheckOptions,
    schedule: &Schedule,
) -> Option<(String, String)> {
    let model = WorkflowModel::new(cfg.clone(), opts);
    let ex = Explorer::new(ExploreConfig { minimize: false, ..ExploreConfig::default() });
    ex.check_picks(&model, &schedule.picks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::micro;
    use wfcr::protocol::WorkflowProtocol;

    #[test]
    fn micro_config_completes_under_plain_run() {
        let r = runner::run(&micro(WorkflowProtocol::Uncoordinated));
        assert_eq!(r.finish_times_s.len(), 2);
        // 3 steps × 1 block per component.
        assert_eq!(r.puts(), 3);
        assert_eq!(r.gets(), 3);
        assert_eq!(r.digest_mismatches, 0);
    }

    #[test]
    fn model_rebuilds_identically() {
        let model = WorkflowModel::new(micro(WorkflowProtocol::Uncoordinated), Default::default());
        let mut a = model.build();
        let mut b = model.build();
        a.run_limited(u64::MAX);
        b.run_limited(u64::MAX);
        assert_eq!(a.dispatched(), b.dispatched());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn crash_injector_is_inert_without_a_controlled_scheduler() {
        let cfg = micro(WorkflowProtocol::Uncoordinated);
        let opts = McheckOptions {
            crash_choices: vec![CrashChoice { at: SimTime::from_millis(5), app: 1 }],
            ..Default::default()
        };
        let model = WorkflowModel::new(cfg.clone(), opts);
        let mut eng = model.build();
        eng.run_limited(u64::MAX);
        // Default pick 0 = no crash: same event count as the plain run plus
        // the injector kickoff itself.
        let mut plain = runner::build(&cfg);
        plain.engine.run_limited(u64::MAX);
        assert_eq!(eng.dispatched(), plain.engine.dispatched() + 1);
    }
}
