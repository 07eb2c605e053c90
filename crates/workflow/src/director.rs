//! Workflow-level orchestration for the coordinated baseline and run-wide
//! bookkeeping.
//!
//! The director plays three roles:
//!
//! 1. **Coordinated checkpoint rendezvous (Co).** Components arriving at a
//!    global checkpoint boundary report [`ComponentReady`] and wait. When the
//!    last one arrives, the director charges the coordination cost — an MPI
//!    barrier over *all* workflow ranks, the contended PFS write (every
//!    component streams its state simultaneously), and the closing barrier —
//!    and releases everyone. The waiting time of early arrivals is exactly
//!    the "interference between components" the paper attributes to
//!    coordinated schemes.
//! 2. **Global rollback (Co).** On [`CoFailure`], the director waits out
//!    failure detection, resets staging to the last coordinated checkpoint
//!    (`GlobalReset`), charges ULFM repair for the failed component and a
//!    *contended* restore for every component, then broadcasts
//!    [`RollbackComplete`].
//! 3. **Completion tracking.** Components report [`Finished`]; when all have,
//!    the director stops the engine — the stop time is the workflow's total
//!    execution time.

use crate::component::{CkptRelease, RollbackComplete};
use crate::config::CkptTarget;
use mpi_sim::collective::CollectiveCosts;
use mpi_sim::comm::Communicator;
use mpi_sim::ulfm::{self, UlfmCosts};
use net::des::{EndpointId, NetworkHandle};
use obs::{arg, TraceCtx};
use sim_core::engine::{Actor, ActorId, Ctx, Event};
use sim_core::time::SimTime;
use staging::proto::{CtlMsg, CtlRequest, Request, DIRECTOR_APP};
use std::collections::{HashMap, HashSet};

/// Component → director: ready at coordinated checkpoint boundary `step`.
pub struct ComponentReady {
    /// Reporting component.
    pub app: u32,
    /// Boundary step.
    pub step: u32,
}

/// Component → director: failure under the Co protocol.
pub struct CoFailure {
    /// Failed component.
    pub app: u32,
}

/// Component → director: all steps complete.
pub struct Finished {
    /// Finishing component.
    pub app: u32,
}

/// Timer: coordinated checkpoint write (incl. barriers) done.
struct CoCkptDone {
    step: u32,
}

/// Timer: global rollback delay elapsed.
struct CoRollbackDone {
    resume_step: u32,
}

/// Per-component info the director needs.
#[derive(Debug, Clone)]
pub struct DirectorComponent {
    /// Component/app id.
    pub app: u32,
    /// Engine actor of the component.
    pub actor: ActorId,
    /// Rank count (barrier sizing).
    pub ranks: usize,
    /// Spare pool size (Co ULFM cost).
    pub spares: usize,
    /// Checkpoint state bytes (contended restore sizing).
    pub state_bytes: u64,
}

/// The director actor.
pub struct Director {
    components: Vec<DirectorComponent>,
    net: NetworkHandle,
    ep: EndpointId,
    server_eps: Vec<EndpointId>,
    collectives: CollectiveCosts,
    ulfm: UlfmCosts,
    pfs: ckpt::PfsModel,
    ckpt_target: CkptTarget,
    node_local: ckpt::NodeLocalModel,
    reconnect_per_rank: SimTime,
    detect: SimTime,

    /// Rendezvous state: step → set of ready apps.
    ready: HashMap<u32, HashSet<u32>>,
    /// Last completed coordinated checkpoint step.
    last_co_ckpt: u32,
    /// A global rollback is in flight (coalesce concurrent failures).
    rolling_back: bool,
    finished: HashSet<u32>,
    finish_times: HashMap<u32, SimTime>,
    /// Control rounds sent to staging: the sequence number of the
    /// director's envelopes in its [`DIRECTOR_APP`] dedup namespace.
    ctl_rounds: u64,

    /// Observability (inert when the tracer is off).
    tracer: obs::Tracer,
    track: obs::TrackId,
    /// Open coordinated-checkpoint span.
    ckpt_span: TraceCtx,
    /// Open global-rollback span.
    rollback_span: TraceCtx,
}

impl Director {
    /// Build a director for the given components and cost models.
    #[allow(clippy::too_many_arguments)] // one-time wiring from the runner
    pub fn new(
        components: Vec<DirectorComponent>,
        collectives: CollectiveCosts,
        ulfm: UlfmCosts,
        pfs: ckpt::PfsModel,
        ckpt_target: CkptTarget,
        node_local: ckpt::NodeLocalModel,
        reconnect_per_rank: SimTime,
    ) -> Self {
        let detect = SimTime::from_nanos(ulfm.detect_ns);
        Director {
            components,
            net: NetworkHandle { actor: 0 },
            ep: 0,
            server_eps: Vec::new(),
            collectives,
            ulfm,
            pfs,
            ckpt_target,
            node_local,
            reconnect_per_rank,
            detect,
            ready: HashMap::new(),
            last_co_ckpt: 0,
            rolling_back: false,
            finished: HashSet::new(),
            finish_times: HashMap::new(),
            ctl_rounds: 0,
            tracer: obs::Tracer::off(),
            track: obs::TrackId(0),
            ckpt_span: TraceCtx::NONE,
            rollback_span: TraceCtx::NONE,
        }
    }

    /// Runner wiring: attach a tracer (the director records coordinated
    /// rendezvous and global rollbacks on its own track).
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.track = tracer.track("director");
        self.tracer = tracer;
    }

    /// Runner wiring: network handle + endpoints (used for `GlobalReset`).
    pub fn wire(&mut self, net: NetworkHandle, ep: EndpointId, server_eps: Vec<EndpointId>) {
        self.net = net;
        self.ep = ep;
        self.server_eps = server_eps;
    }

    /// Finish time per component (after the run).
    pub fn finish_times(&self) -> &HashMap<u32, SimTime> {
        &self.finish_times
    }

    fn total_ranks(&self) -> usize {
        self.components.iter().map(|c| c.ranks).sum()
    }

    fn on_ready(&mut self, ctx: &mut Ctx<'_>, app: u32, step: u32) {
        if self.rolling_back {
            // The rollback broadcast will reset everyone; drop the rendezvous.
            return;
        }
        let set = self.ready.entry(step).or_default();
        set.insert(app);
        if set.len() < self.components.len() {
            return;
        }
        self.ready.remove(&step);
        // All components reached the boundary: barrier + contended write +
        // barrier ("a couple of synchronizing MPI barriers ... before and
        // after taking the process checkpoints").
        let n = self.total_ranks();
        let barrier = self.collectives.barrier(n);
        let writers = self.components.len();
        let write = self
            .components
            .iter()
            .map(|c| match self.ckpt_target {
                CkptTarget::Pfs => self.pfs.write_time(c.state_bytes, writers),
                CkptTarget::TwoLevel => self.node_local.write_time(c.state_bytes, writers),
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        let total = barrier + write + barrier;
        ctx.metrics().observe("wf.co_ckpt_s", total.as_secs_f64());
        if self.tracer.enabled() {
            self.ckpt_span = self.tracer.begin(
                TraceCtx::NONE,
                self.track,
                "co.ckpt",
                ctx.now().as_nanos(),
                ctx.seq(),
                vec![arg("step", step)],
            );
        }
        ctx.timer(total, CoCkptDone { step });
    }

    fn on_co_ckpt_done(&mut self, ctx: &mut Ctx<'_>, step: u32) {
        if self.rolling_back {
            return;
        }
        let s = std::mem::take(&mut self.ckpt_span);
        self.tracer.end(s, self.track, ctx.now().as_nanos(), ctx.seq(), Vec::new());
        self.last_co_ckpt = step;
        for c in &self.components {
            ctx.send_now(c.actor, CkptRelease { step });
        }
    }

    fn on_co_failure(&mut self, ctx: &mut Ctx<'_>, app: u32) {
        if self.rolling_back {
            ctx.metrics().inc("wf.failures_coalesced", 1);
            return;
        }
        self.rolling_back = true;
        self.ready.clear();
        ctx.metrics().inc("wf.recoveries", 1);
        if self.tracer.enabled() {
            // A rollback abandons any rendezvous in flight.
            let s = std::mem::take(&mut self.ckpt_span);
            self.tracer.end(
                s,
                self.track,
                ctx.now().as_nanos(),
                ctx.seq(),
                vec![arg("status", "aborted")],
            );
            self.rollback_span = self.tracer.begin(
                TraceCtx::NONE,
                self.track,
                "co.rollback",
                ctx.now().as_nanos(),
                ctx.seq(),
                vec![arg("failed_app", app), arg("resume_step", self.last_co_ckpt + 1)],
            );
        }

        // Reset staging to the coordinated cut so re-execution repopulates
        // it exactly as the first execution did. The servers' replies are
        // not awaited; this actor drops them.
        self.ctl_rounds += 1;
        let reset = Request::Ctl(CtlMsg {
            app: DIRECTOR_APP,
            seq: self.ctl_rounds,
            req: CtlRequest::GlobalReset { to_version: self.last_co_ckpt },
            tctx: TraceCtx::NONE,
        });
        for &to in &self.server_eps {
            self.net.send(ctx, self.ep, to, reset.wire_bytes(), reset.clone());
        }

        // Timing: detection, then ULFM repair of the failed component, then
        // every component restores its checkpoint simultaneously from the
        // shared PFS.
        let failed = self
            .components
            .iter()
            .find(|c| c.app == app)
            .cloned()
            .unwrap_or_else(|| self.components[0].clone());
        let mut comm = Communicator::new(failed.ranks, failed.spares);
        let breakdown = ulfm::recover(&mut comm, &[0], &self.ulfm, true);
        // `recover` already includes detection; avoid double counting.
        let ulfm_time = breakdown.total().saturating_sub(breakdown.detection);
        // The failed component's node-local copies died with it; healthy
        // components restore from node-local storage when two-level
        // checkpointing is in use.
        let readers = self.components.len();
        let restore = self
            .components
            .iter()
            .map(|c| {
                if c.app == app {
                    self.pfs.read_time(c.state_bytes, readers)
                } else {
                    match self.ckpt_target {
                        CkptTarget::Pfs => self.pfs.read_time(c.state_bytes, readers),
                        CkptTarget::TwoLevel => self.node_local.read_time(c.state_bytes, readers),
                    }
                }
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        // Under global restart every rank of every component re-registers
        // its staging client (registration serializes at the staging master).
        let reconnect = self.reconnect_per_rank.scale(self.total_ranks() as u64);
        let total = self.detect + ulfm_time + restore + reconnect;
        ctx.metrics().observe("wf.co_rollback_s", total.as_secs_f64());
        let resume_step = self.last_co_ckpt + 1;
        ctx.timer(total, CoRollbackDone { resume_step });
    }

    fn on_co_rollback_done(&mut self, ctx: &mut Ctx<'_>, resume_step: u32) {
        self.rolling_back = false;
        let s = std::mem::take(&mut self.rollback_span);
        self.tracer.end(s, self.track, ctx.now().as_nanos(), ctx.seq(), Vec::new());
        for c in &self.components {
            ctx.send_now(c.actor, RollbackComplete { resume_step });
        }
    }

    fn on_finished(&mut self, ctx: &mut Ctx<'_>, app: u32) {
        self.finished.insert(app);
        self.finish_times.insert(app, ctx.now());
        if self.finished.len() == self.components.len() {
            ctx.stop();
        }
    }
}

impl Actor for Director {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let ev = match ev.downcast::<ComponentReady>() {
            Ok((_, m)) => {
                self.on_ready(ctx, m.app, m.step);
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<CoCkptDone>() {
            Ok((_, m)) => {
                self.on_co_ckpt_done(ctx, m.step);
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<CoFailure>() {
            Ok((_, m)) => {
                self.on_co_failure(ctx, m.app);
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<CoRollbackDone>() {
            Ok((_, m)) => {
                self.on_co_rollback_done(ctx, m.resume_step);
                return;
            }
            Err(ev) => ev,
        };
        if let Ok((_, m)) = ev.downcast::<Finished>() {
            self.on_finished(ctx, m.app);
        }
    }

    fn name(&self) -> &str {
        "director"
    }
}
