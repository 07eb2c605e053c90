//! The application-component actor: compute → couple (put/get) → checkpoint,
//! plus the full failure/recovery state machine.
//!
//! One actor models one application component (all its ranks): per-rank
//! detail that matters for the paper's metrics — aggregate data volume,
//! collective costs scaling with rank count, checkpoint state size — is
//! carried in the cost models; per-rank detail that does not (individual
//! compute jitter) is folded into one jittered compute phase per step.
//!
//! ## Normal cycle (per time step)
//!
//! 1. `Computing` — a timer models the solver/analysis kernel;
//! 2. `IoWait` — producers scatter block puts to the staging servers,
//!    consumers issue (blocking) gets; the actor waits for every ack;
//! 3. checkpoint boundary? Under Un/Hy/In the component checkpoints on its
//!    own period (PFS write, then `workflow_check` notification under
//!    logging protocols); under Co it rendezvouses with every other
//!    component through the [`crate::director::Director`], paying barriers
//!    and contended PFS writes;
//! 4. next step.
//!
//! ## Failure handling
//!
//! * C/R component under Un/Hy/In: ULFM repair → contended-free PFS restore
//!   → `workflow_restart` notification (logging only) → re-execution from
//!   the checkpoint, with staging absorbing re-puts / replaying gets;
//! * replicated component under Hy: a fail-over pause, no rollback;
//! * any component under Co: reports to the director, which orchestrates the
//!   global rollback (see `director.rs`).
//!
//! A death in any live phase — recovery included — takes the same path: it
//! kills the current incarnation, aborts what was in flight (an open
//! recovery phase with it) and starts repair again. Only a replica's
//! fail-over and a death of an already dead component cost no repair.
//!
//! ## Supervised failure handling
//!
//! When the run enables supervision
//! ([`crate::config::WorkflowConfig::supervision`]), a death notifies the
//! [`crate::supervisor_actor::SupervisorActor`] and the component parks in
//! `SupervisedWait` until a [`crate::supervisor_actor::RestartGrant`]
//! arrives (after the restart backoff, which grows with the consecutive
//! death count), then starts its ULFM repair. For a poison input that
//! reached the poison threshold the grant carries the step to quarantine.
//! An unsupervised run is the same with no supervisor and no backoff.

use crate::config::{CkptTarget, ComponentConfig, WorkflowConfig};
use faultplane::RetryPolicy;
use mpi_sim::comm::Communicator;
use mpi_sim::ulfm::{self, UlfmCosts};
use net::des::{Delivered, EndpointId, NetworkHandle};
use obs::{arg, TraceCtx};
use sim_core::engine::{Actor, ActorId, Ctx, Event};
use sim_core::metrics::{CounterId, TailId};
use sim_core::rng::Xoshiro256StarStar;
use sim_core::time::SimTime;
use staging::geometry::BBox;
use staging::proto::{CtlMsg, CtlRequest, PutStatus, Reply, Request};
use staging::server::{plan_get_routed, plan_put_virtual_routed};
use staging::Router;
use std::collections::BTreeSet;
use supervise::DeathCause;

/// Kick-off message (runner → component at t=0).
pub struct StartStep;

/// Compute phase finished.
struct ComputeDone {
    step: u32,
    incarnation: u32,
}

/// Independent checkpoint write finished.
struct CkptWriteDone {
    incarnation: u32,
}

/// Injected fail-stop failure (runner → component).
pub struct Fail;

/// Failure-predictor warning (runner → component): a failure is imminent;
/// take an out-of-band checkpoint at the next step boundary (proactive
/// checkpointing).
pub struct FailureWarning;

/// ULFM repair finished.
struct UlfmDone {
    incarnation: u32,
}

/// Checkpoint restore finished.
struct RestoreDone {
    incarnation: u32,
}

/// Director → component: coordinated checkpoint at `step` is complete.
pub struct CkptRelease {
    /// The checkpointed step.
    pub step: u32,
}

/// Director → component: global rollback finished; resume from
/// `resume_step`.
pub struct RollbackComplete {
    /// First step to (re-)execute.
    pub resume_step: u32,
}

/// Self-timer: re-send unacknowledged requests (armed only when network
/// fault injection is active). `incarnation`/`epoch` orphan stale ticks
/// after a rollback or after the wait completed.
struct RetryTick {
    incarnation: u32,
    epoch: u64,
}

/// A request awaiting its reply: kept for redelivery, for the response-time
/// sample, and for its rpc span (the request's own trace context).
struct InFlight {
    to: EndpointId,
    req: Request,
    issued: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Computing,
    IoWait,
    CkptWrite,
    CkptRendezvous,
    CtlWait(AfterCtl),
    RecUlfm,
    RecRestore,
    /// Dead; waiting for the supervisor's restart grant (supervised runs).
    SupervisedWait,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterCtl {
    AdvanceStep,
    ResumeCompute,
}

/// The component actor. Public fields would invite runner-side fiddling;
/// everything is wired through [`ComponentActor::new`] + setters used by the
/// runner during wiring.
pub struct ComponentActor {
    cfg: ComponentConfig,
    protocol: wfcr::protocol::WorkflowProtocol,
    total_steps: u32,
    coordinated_period: u32,
    router: Router,
    domain: BBox,
    /// Variables this component writes each step.
    write_vars: Vec<u32>,
    /// Variables this component reads each step, with the writer's subset
    /// fraction and pattern (readers consume what producers produce, where
    /// they produce it).
    read_vars: Vec<(u32, u64, crate::config::SubsetPattern)>,
    bytes_per_point: u64,
    net: NetworkHandle,
    ep: EndpointId,
    server_eps: Vec<EndpointId>,
    director: ActorId,
    rng: Xoshiro256StarStar,
    comm: Communicator,
    ulfm: UlfmCosts,
    pfs: ckpt::PfsModel,
    ckpt_target: CkptTarget,
    node_local: ckpt::NodeLocalModel,
    failover: SimTime,
    reconnect_per_rank: SimTime,

    step: u32,
    phase: Phase,
    incarnation: u32,
    /// The requests of the current wait (`IoWait` or `CtlWait`) in send
    /// order, `None` once answered. A wait's sequence numbers are contiguous
    /// and end at `seq`, so a request's slot is its `seq` less the first
    /// one's — the reply slots of `staging::threaded::SyncClient`.
    inflight: Vec<Option<InFlight>>,
    /// Slots of `inflight` still unanswered; the wait is over at zero.
    unanswered: usize,
    seq: u64,
    /// Retry policy; `Some` only when the run injects network faults.
    retry: Option<RetryPolicy>,
    /// Orphans stale [`RetryTick`]s when a wait completes.
    retry_epoch: u64,
    /// Re-send rounds performed in the current wait.
    retry_attempt: u32,
    /// Cumulative backoff in the current wait (deadline accounting).
    retry_backoff_ns: u64,
    last_ckpt_step: u32,
    /// Extra delay folded into the next compute phase (replication
    /// fail-over pauses).
    pending_delay: SimTime,
    /// A failure warning arrived: checkpoint at the next step boundary.
    proactive_pending: bool,

    /// Steps executed including re-execution.
    steps_executed: u64,
    /// Handles of `wf.put_response_s` and `wf.puts`, resolved at this
    /// component's first put reply (a component that never wrote registers
    /// neither).
    put_metrics: Option<(TailId, CounterId)>,
    /// Handles of `wf.get_response_s` and `wf.gets`, likewise.
    get_metrics: Option<(TailId, CounterId)>,

    // ---- supervision (all fields inert when `supervisor` is None) -------
    /// The supervisor actor, when the run enables supervision.
    supervisor: Option<ActorId>,
    /// Step whose input is poisoned (crashes this consumer on every attempt).
    poison_step: Option<u32>,
    /// Steps quarantined by the supervisor: their poison no longer fires.
    quarantined_steps: BTreeSet<u32>,
    /// An outage is open (death reported, recovery not yet complete).
    outage_open: bool,

    // ---- observability (all fields inert when the tracer is off) -------
    tracer: obs::Tracer,
    track: obs::TrackId,
    /// Open per-step span.
    step_span: TraceCtx,
    /// Open control-round span.
    ctl_span: TraceCtx,
    /// Open checkpoint span (write or rendezvous).
    ckpt_span: TraceCtx,
    /// Open recovery root span.
    recovery_span: TraceCtx,
    /// Open recovery phase child span (`ulfm`, `restore`, `co_rollback`).
    rec_phase_span: TraceCtx,
    /// Open replay-window child span of the recovery.
    replay_span: TraceCtx,
    /// The step that was executing when the failure hit; the replay window
    /// closes once re-execution advances past it.
    replay_until: u32,
}

impl ComponentActor {
    /// Build a component from the workflow config. Network wiring (`net`,
    /// `ep`, `server_eps`, `director`) is patched by the runner after actor
    /// registration.
    pub fn new(wf: &WorkflowConfig, cfg: ComponentConfig, rng: Xoshiro256StarStar) -> Self {
        let router = wf.build_router();
        let comm = Communicator::new(cfg.ranks, cfg.spares);
        // Variable namespace: every writing component owns the var range
        // [app·nvars, app·nvars + nvars); readers consume the union of every
        // *other* writer's range. A Producer+Consumer pair degenerates to
        // the classic write-then-read coupling; Peer components exchange
        // fields bidirectionally (the Figure 5 scenario).
        let own_range = |app: u32| (app * wf.nvars..(app + 1) * wf.nvars).collect::<Vec<u32>>();
        let write_vars = if cfg.role.writes() { own_range(cfg.app) } else { Vec::new() };
        let read_vars: Vec<(u32, u64, crate::config::SubsetPattern)> = if cfg.role.reads() {
            wf.components
                .iter()
                .filter(|c| c.app != cfg.app && c.role.writes())
                .flat_map(|c| {
                    own_range(c.app)
                        .into_iter()
                        .map(move |v| (v, c.subset_millis, c.subset_pattern))
                })
                .collect()
        } else {
            Vec::new()
        };
        ComponentActor {
            protocol: wf.protocol,
            total_steps: wf.total_steps,
            coordinated_period: wf.coordinated_period,
            router,
            domain: wf.domain_bbox(),
            write_vars,
            read_vars,
            bytes_per_point: wf.bytes_per_point,
            net: NetworkHandle { actor: 0 },
            ep: 0,
            server_eps: Vec::new(),
            director: 0,
            rng,
            comm,
            ulfm: wf.ulfm,
            pfs: wf.pfs,
            ckpt_target: wf.ckpt_target,
            node_local: wf.node_local,
            failover: wf.failover,
            reconnect_per_rank: wf.reconnect_per_rank,
            step: 1,
            phase: Phase::Idle,
            incarnation: 0,
            inflight: Vec::new(),
            unanswered: 0,
            seq: 0,
            retry: None,
            retry_epoch: 0,
            retry_attempt: 0,
            retry_backoff_ns: 0,
            last_ckpt_step: 0,
            pending_delay: SimTime::ZERO,
            proactive_pending: false,
            steps_executed: 0,
            put_metrics: None,
            get_metrics: None,
            supervisor: None,
            poison_step: None,
            quarantined_steps: BTreeSet::new(),
            outage_open: false,
            tracer: obs::Tracer::off(),
            track: obs::TrackId(0),
            step_span: TraceCtx::NONE,
            ctl_span: TraceCtx::NONE,
            ckpt_span: TraceCtx::NONE,
            recovery_span: TraceCtx::NONE,
            rec_phase_span: TraceCtx::NONE,
            replay_span: TraceCtx::NONE,
            replay_until: 0,
            cfg,
        }
    }

    /// Runner wiring: network handle, own endpoint, server endpoints,
    /// director actor id.
    pub fn wire(
        &mut self,
        net: NetworkHandle,
        ep: EndpointId,
        server_eps: Vec<EndpointId>,
        director: ActorId,
    ) {
        self.net = net;
        self.ep = ep;
        self.server_eps = server_eps;
        self.director = director;
    }

    /// This component's app id.
    pub fn app(&self) -> u32 {
        self.cfg.app
    }

    /// Enable bounded retry of staging requests (runner wiring, fault runs
    /// only).
    pub fn enable_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// Runner wiring: place this component under supervision. Failures then
    /// notify `supervisor` instead of self-orchestrating recovery.
    pub fn set_supervisor(&mut self, supervisor: ActorId) {
        self.supervisor = Some(supervisor);
    }

    /// Runner wiring: the input this component consumes at `step` is
    /// poisoned — it kills the component every time it is processed, until
    /// the supervisor quarantines the step.
    pub fn set_poison(&mut self, step: u32) {
        self.poison_step = Some(step);
    }

    /// Steps executed including re-execution.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    // ---- observability --------------------------------------------------

    /// Runner wiring: attach a tracer. The component records onto its own
    /// track (`app<id>:<name>`); requests carry the issuing span's context
    /// so server-side work nests under the client rpc span.
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.track = tracer.track(&format!("app{}:{}", self.cfg.app, self.cfg.name));
        self.tracer = tracer;
    }

    fn span_begin(
        &self,
        ctx: &Ctx<'_>,
        parent: TraceCtx,
        name: &str,
        args: Vec<obs::Arg>,
    ) -> TraceCtx {
        self.tracer.begin(parent, self.track, name, ctx.now().as_nanos(), ctx.seq(), args)
    }

    fn span_end(&self, ctx: &Ctx<'_>, span: TraceCtx, args: Vec<obs::Arg>) {
        self.tracer.end(span, self.track, ctx.now().as_nanos(), ctx.seq(), args);
    }

    fn span_instant(&self, ctx: &Ctx<'_>, parent: TraceCtx, name: &str, args: Vec<obs::Arg>) {
        self.tracer.instant(parent, self.track, name, ctx.now().as_nanos(), ctx.seq(), args);
    }

    /// Discard in-flight work: forget every unanswered request (late replies
    /// then match nothing), orphan pending retry ticks, and close every open
    /// non-recovery span (rpc, ctl, ckpt, step) with an `aborted` marker so
    /// the trace still pairs every `Begin` with one `End`. Called when a
    /// failure or a global rollback tears the current step down.
    fn abort_work(&mut self, ctx: &Ctx<'_>) {
        let dropped = std::mem::take(&mut self.inflight);
        self.unanswered = 0;
        self.cancel_retry();
        if !self.tracer.enabled() {
            return;
        }
        for f in dropped.iter().flatten() {
            // A control round's envelopes share the round's span, closed below.
            if !matches!(f.req, Request::Ctl(_)) {
                self.span_end(ctx, f.req.tctx(), vec![arg("status", "aborted")]);
            }
        }
        for s in [
            std::mem::take(&mut self.ctl_span),
            std::mem::take(&mut self.ckpt_span),
            std::mem::take(&mut self.step_span),
        ] {
            if !s.is_none() {
                self.span_end(ctx, s, vec![arg("status", "aborted")]);
            }
        }
    }

    // ---- step machinery -----------------------------------------------

    fn begin_step(&mut self, ctx: &mut Ctx<'_>) {
        // Resuming compute closes the outage: the component is back in
        // service (MTTR measures death → resumed execution, not death →
        // caught-up re-execution).
        if self.outage_open {
            self.outage_open = false;
            if let Some(sup) = self.supervisor {
                let msg = crate::supervisor_actor::ComponentRecovered { app: self.cfg.app };
                ctx.send_now(sup, msg);
            }
        }
        if self.step > self.total_steps {
            self.finish(ctx);
            return;
        }
        if self.tracer.enabled() {
            // Entering re-execution after a recovery opens the replay
            // window; everything until the failed step re-runs under it.
            if !self.recovery_span.is_none()
                && self.replay_span.is_none()
                && self.step <= self.replay_until
            {
                self.replay_span = self.span_begin(
                    ctx,
                    self.recovery_span,
                    "replay",
                    vec![arg("from_step", self.step), arg("until_step", self.replay_until)],
                );
            }
            if self.step_span.is_none() {
                let parent = self.replay_span;
                self.step_span = self.span_begin(ctx, parent, "step", vec![arg("step", self.step)]);
            }
        }
        self.phase = Phase::Computing;
        let jitter = 1.0 + self.cfg.jitter * (2.0 * self.rng.next_f64() - 1.0);
        let dur = SimTime::from_secs_f64(self.cfg.compute_per_step.as_secs_f64() * jitter)
            + self.pending_delay;
        self.pending_delay = SimTime::ZERO;
        let (step, incarnation) = (self.step, self.incarnation);
        ctx.timer(dur, ComputeDone { step, incarnation });
    }

    fn issue_io(&mut self, ctx: &mut Ctx<'_>) {
        self.steps_executed += 1;
        // Writes first ("write immediately followed by read"): a Peer pair
        // exchanging fields must both have written before either read can
        // complete, and issuing puts first makes that deadlock-free.
        let write_regions = crate::config::coupled_regions(
            &self.domain,
            self.cfg.subset_millis,
            self.cfg.subset_pattern,
            self.step,
        );
        for i in 0..self.write_vars.len() {
            let var = self.write_vars[i];
            for region in &write_regions {
                let reqs = plan_put_virtual_routed(
                    &self.router,
                    self.cfg.app,
                    var,
                    self.step,
                    region,
                    self.bytes_per_point,
                    self.seq,
                );
                self.seq += reqs.len() as u64;
                for (server, mut req) in reqs {
                    req.tctx = self.rpc_span(ctx, "put", var, req.seq, server);
                    self.send_tracked(ctx, server, Request::Put(req));
                }
            }
        }
        for i in 0..self.read_vars.len() {
            let (var, subset_millis, pattern) = self.read_vars[i];
            for region in
                crate::config::coupled_regions(&self.domain, subset_millis, pattern, self.step)
            {
                let reqs =
                    plan_get_routed(&self.router, self.cfg.app, var, self.step, &region, self.seq);
                self.seq += reqs.len() as u64;
                for (server, mut req) in reqs {
                    req.tctx = self.rpc_span(ctx, "get", var, req.seq, server);
                    self.send_tracked(ctx, server, Request::Get(req));
                }
            }
        }
        if self.unanswered == 0 {
            self.step_io_done(ctx);
        } else {
            self.phase = Phase::IoWait;
            self.arm_retry(ctx);
        }
    }

    /// Open the client span of one put/get of this step's version.
    fn rpc_span(&self, ctx: &Ctx<'_>, name: &str, var: u32, seq: u64, server: usize) -> TraceCtx {
        if !self.tracer.enabled() {
            return TraceCtx::NONE;
        }
        let args = vec![
            arg("var", var),
            arg("version", self.step),
            arg("seq", seq),
            arg("server", server),
        ];
        self.span_begin(ctx, self.step_span, name, args)
    }

    /// Send `req` to staging server `server` and await its reply.
    fn send_tracked(&mut self, ctx: &mut Ctx<'_>, server: usize, req: Request) {
        let to = self.server_eps[server];
        self.net.send(ctx, self.ep, to, req.wire_bytes(), req.clone());
        self.inflight.push(Some(InFlight { to, req, issued: ctx.now() }));
        self.unanswered += 1;
    }

    // ---- retry machinery (network-fault runs only) ---------------------

    /// Start a fresh retry window for the wait phase just entered.
    fn arm_retry(&mut self, ctx: &mut Ctx<'_>) {
        let Some(p) = self.retry else { return };
        self.cancel_retry();
        let delay = SimTime::from_nanos(p.backoff_ns(1));
        ctx.timer(delay, RetryTick { incarnation: self.incarnation, epoch: self.retry_epoch });
    }

    /// Leave the current wait: orphan pending ticks.
    fn cancel_retry(&mut self) {
        self.retry_epoch += 1;
        self.retry_attempt = 0;
        self.retry_backoff_ns = 0;
    }

    fn on_retry_tick(&mut self, ctx: &mut Ctx<'_>, tick: &RetryTick) {
        if tick.incarnation != self.incarnation || tick.epoch != self.retry_epoch {
            return;
        }
        let Some(p) = self.retry else { return };
        let window = p.backoff_ns(self.retry_attempt + 1);
        self.retry_attempt += 1;
        self.retry_backoff_ns = self.retry_backoff_ns.saturating_add(window);
        if !p.allows(self.retry_attempt, self.retry_backoff_ns) {
            // Budget exhausted: stop re-sending. The component wedges and
            // the run's completion assertion surfaces it — DES fault runs
            // use an unlimited-attempt policy, so reaching this means the
            // policy was explicitly strict.
            ctx.metrics().inc("wf.retry_exhausted", 1);
            return;
        }
        for f in self.inflight.iter().flatten() {
            if !f.req.tctx().is_none() {
                let args = vec![arg("attempt", self.retry_attempt)];
                self.span_instant(ctx, f.req.tctx(), "resend", args);
            }
            self.net.send(ctx, self.ep, f.to, f.req.wire_bytes(), f.req.clone());
        }
        if self.unanswered > 0 {
            ctx.metrics().inc("wf.net_retries", self.unanswered as u64);
        }
        let delay = SimTime::from_nanos(p.backoff_ns(self.retry_attempt + 1));
        ctx.timer(delay, RetryTick { incarnation: self.incarnation, epoch: self.retry_epoch });
    }

    fn ckpt_due(&self) -> bool {
        use wfcr::protocol::WorkflowProtocol as P;
        match self.protocol {
            P::FailureFree => false,
            P::Coordinated => self.step.is_multiple_of(self.coordinated_period),
            P::Uncoordinated | P::Hybrid | P::Individual => {
                self.cfg.scheme.period().map(|p| self.step.is_multiple_of(p)).unwrap_or(false)
            }
        }
    }

    fn step_io_done(&mut self, ctx: &mut Ctx<'_>) {
        self.cancel_retry();
        // Poison input: the data consumed this step is malformed and kills
        // the component while it processes it — every time, until the
        // supervisor quarantines the step (after which the input is shed
        // and the step completes without it).
        if self.supervisor.is_some()
            && self.poison_step == Some(self.step)
            && !self.quarantined_steps.contains(&self.step)
        {
            self.die(ctx, DeathCause::PoisonPut { step: self.step });
            return;
        }
        // A predictor warning forces an out-of-band checkpoint under the
        // uncoordinated-family protocols (proactive checkpointing).
        let proactive_now = self.proactive_pending
            && !self.protocol.coordinated_checkpoints()
            && self.cfg.scheme.rolls_back();
        if proactive_now {
            self.proactive_pending = false;
            ctx.metrics().inc("wf.proactive_ckpts", 1);
        }
        if !self.ckpt_due() && !proactive_now {
            self.advance_step(ctx);
            return;
        }
        if self.tracer.enabled() {
            let kind = if self.protocol.coordinated_checkpoints() { "rendezvous" } else { "write" };
            self.ckpt_span = self.span_begin(
                ctx,
                self.step_span,
                "ckpt",
                vec![arg("kind", kind), arg("step", self.step)],
            );
        }
        if self.protocol.coordinated_checkpoints() {
            self.phase = Phase::CkptRendezvous;
            let msg = crate::director::ComponentReady { app: self.cfg.app, step: self.step };
            ctx.send_now(self.director, msg);
        } else {
            self.phase = Phase::CkptWrite;
            // Independent checkpoint: sole writer on its target.
            let cost = match self.ckpt_target {
                CkptTarget::Pfs => self.pfs.write_time(self.cfg.state_bytes, 1),
                // Two-level: blocking cost is the node-local write; the PFS
                // flush proceeds asynchronously.
                CkptTarget::TwoLevel => self.node_local.write_time(self.cfg.state_bytes, 1),
            };
            ctx.metrics().observe("wf.ckpt_write_s", cost.as_secs_f64());
            let incarnation = self.incarnation;
            ctx.timer(cost, CkptWriteDone { incarnation });
        }
    }

    fn send_ctl_all(&mut self, ctx: &mut Ctx<'_>, req: CtlRequest, then: AfterCtl) {
        self.phase = Phase::CtlWait(then);
        if self.tracer.enabled() {
            let (name, parent) = match &req {
                CtlRequest::Checkpoint { .. } => ("ckpt_ctl", self.step_span),
                CtlRequest::Recovery { .. } => ("restart_ctl", self.recovery_span),
                _ => ("ctl", TraceCtx::NONE),
            };
            let args = vec![arg("servers", self.server_eps.len())];
            self.ctl_span = self.span_begin(ctx, parent, name, args);
        }
        // Control is not idempotent, so it always rides the sequenced
        // envelope the servers dedup on (app, seq) — one envelope per server,
        // each with its own seq so every ack names the request it answers.
        // The trace context rides the envelope too — the bare CtlRequest is
        // journaled verbatim and must stay identifier-free.
        for server in 0..self.server_eps.len() {
            let msg = CtlMsg { app: self.cfg.app, seq: self.seq, req, tctx: self.ctl_span };
            self.seq += 1;
            self.send_tracked(ctx, server, Request::Ctl(msg));
        }
        self.arm_retry(ctx);
    }

    /// A staging server answered: retire the request it answers (a reply to
    /// nothing in flight is a transport duplicate or predates a rollback),
    /// and leave the wait once nothing is in flight.
    fn on_reply(&mut self, ctx: &mut Ctx<'_>, reply: Reply) {
        let first_seq = self.seq - self.inflight.len() as u64;
        let slot =
            reply.seq().checked_sub(first_seq).and_then(|i| self.inflight.get_mut(i as usize));
        let Some(sent) = slot.and_then(Option::take) else { return };
        self.unanswered -= 1;
        let rt = ctx.now().saturating_sub(sent.issued).as_secs_f64();
        match reply {
            Reply::Put(r) => {
                let (response_s, puts) = *self.put_metrics.get_or_insert_with(|| {
                    let m = ctx.metrics();
                    (m.tail_id("wf.put_response_s"), m.counter_id("wf.puts"))
                });
                ctx.metrics().observe_tail_id(response_s, rt);
                ctx.metrics().inc_id(puts, 1);
                let absorbed = r.status == PutStatus::Absorbed;
                if absorbed {
                    ctx.metrics().inc("wf.puts_absorbed", 1);
                }
                if self.tracer.enabled() {
                    let status = if absorbed { "absorbed" } else { "stored" };
                    self.span_end(ctx, sent.req.tctx(), vec![arg("status", status)]);
                }
            }
            Reply::Get(r) => {
                let (response_s, gets) = *self.get_metrics.get_or_insert_with(|| {
                    let m = ctx.metrics();
                    (m.tail_id("wf.get_response_s"), m.counter_id("wf.gets"))
                });
                ctx.metrics().observe_tail_id(response_s, rt);
                ctx.metrics().inc_id(gets, 1);
                if self.tracer.enabled() {
                    self.span_end(ctx, sent.req.tctx(), vec![arg("pieces", r.pieces.len())]);
                }
            }
            Reply::Ctl(_) => {}
        }
        if self.unanswered > 0 {
            return;
        }
        self.inflight.clear();
        match self.phase {
            Phase::IoWait => self.step_io_done(ctx),
            Phase::CtlWait(then) => {
                self.cancel_retry();
                let s = std::mem::take(&mut self.ctl_span);
                self.span_end(ctx, s, Vec::new());
                match then {
                    AfterCtl::AdvanceStep => self.advance_step(ctx),
                    AfterCtl::ResumeCompute => self.begin_step(ctx),
                }
            }
            _ => {}
        }
    }

    fn advance_step(&mut self, ctx: &mut Ctx<'_>) {
        let s = std::mem::take(&mut self.step_span);
        self.span_end(ctx, s, Vec::new());
        self.step += 1;
        // Re-execution caught up with the failed step: the replay window —
        // and with it the whole recovery — is over.
        if !self.replay_span.is_none() && self.step > self.replay_until {
            let r = std::mem::take(&mut self.replay_span);
            self.span_end(ctx, r, Vec::new());
            let rec = std::mem::take(&mut self.recovery_span);
            self.span_end(ctx, rec, Vec::new());
        }
        self.begin_step(ctx);
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase == Phase::Done {
            return;
        }
        self.abort_work(ctx);
        for s in [
            std::mem::take(&mut self.rec_phase_span),
            std::mem::take(&mut self.replay_span),
            std::mem::take(&mut self.recovery_span),
        ] {
            if !s.is_none() {
                self.span_end(ctx, s, Vec::new());
            }
        }
        self.phase = Phase::Done;
        let msg = crate::director::Finished { app: self.cfg.app };
        ctx.send_now(self.director, msg);
    }

    // ---- failure machinery ---------------------------------------------

    /// A death: an injected fail-stop or a poison input, in any live phase,
    /// recovery included. A replica absorbs a fail-stop by failing over.
    /// Any other death kills the current incarnation (its timers and
    /// replies, a recovery's `UlfmDone`, `RestoreDone` and control replies
    /// among them, then match nothing), aborts its work and any open
    /// recovery phase, and starts repair again: through the director under
    /// Co, after the supervisor's grant in a supervised run, at once
    /// otherwise.
    fn die(&mut self, ctx: &mut Ctx<'_>, cause: DeathCause) {
        match self.phase {
            Phase::Done => return,
            Phase::SupervisedWait => {
                // Already dead and awaiting a grant: a dead component cannot
                // die again.
                ctx.metrics().inc("wf.failures_coalesced", 1);
                return;
            }
            _ => {}
        }
        ctx.metrics().inc("wf.failures", 1);
        let args = vec![arg("step", self.step), arg("cause", cause.label())];
        self.span_instant(ctx, self.step_span, "failure", args);
        let coordinated = self.protocol.coordinated_checkpoints();
        if cause == DeathCause::FailStop && !self.cfg.scheme.rolls_back() && !coordinated {
            // Replication: fail over to the replica; no rollback, no staging
            // recovery. The pause lands on the next compute phase. Under
            // supervision the fail-stop is still *observed*: the supervisor
            // opens an outage (MTTR accounting) that the next step start
            // closes — but it grants no restart, because the replica already
            // took over.
            self.pending_delay += self.failover;
            ctx.metrics().inc("wf.failovers", 1);
            self.span_instant(ctx, self.step_span, "failover", Vec::new());
            if let Some(sup) = self.supervisor {
                self.outage_open = true;
                let msg = crate::supervisor_actor::FailoverNotice { app: self.cfg.app };
                ctx.send_now(sup, msg);
            }
            return;
        }
        self.incarnation += 1;
        self.abort_work(ctx);
        if self.tracer.enabled() {
            // A death during recovery aborts the open phase and replay
            // window; the recovery root stays open until re-execution
            // passes every step that failed.
            for s in
                [std::mem::take(&mut self.rec_phase_span), std::mem::take(&mut self.replay_span)]
            {
                if !s.is_none() {
                    self.span_end(ctx, s, vec![arg("status", "aborted")]);
                }
            }
            if self.recovery_span.is_none() {
                self.replay_until = self.step;
                let args = vec![
                    arg("cause", cause.label()),
                    arg("failed_step", self.step),
                    arg("ckpt_step", self.last_ckpt_step),
                ];
                self.recovery_span = self.span_begin(ctx, TraceCtx::NONE, "recovery", args);
            } else {
                self.replay_until = self.replay_until.max(self.step);
            }
        }
        if coordinated {
            // Co: the director orchestrates the global rollback.
            self.phase = Phase::Idle;
            if self.tracer.enabled() {
                self.rec_phase_span =
                    self.span_begin(ctx, self.recovery_span, "co_rollback", Vec::new());
            }
            let msg = crate::director::CoFailure { app: self.cfg.app };
            ctx.send_now(self.director, msg);
        } else if let Some(sup) = self.supervisor {
            self.outage_open = true;
            self.phase = Phase::SupervisedWait;
            let msg = crate::supervisor_actor::ComponentDown {
                app: self.cfg.app,
                step: self.step,
                cause,
            };
            ctx.send_now(sup, msg);
        } else {
            self.start_ulfm(ctx);
        }
    }

    /// The supervisor granted a restart (after the backoff).
    fn on_restart_grant(
        &mut self,
        ctx: &mut Ctx<'_>,
        grant: &crate::supervisor_actor::RestartGrant,
    ) {
        if self.phase != Phase::SupervisedWait {
            return;
        }
        if let Some(step) = grant.quarantine {
            // The poisoned input is shed: re-execution of `step` completes
            // without it instead of dying again.
            self.quarantined_steps.insert(step);
            ctx.metrics().inc("wf.quarantined_steps", 1);
            self.span_instant(ctx, self.recovery_span, "quarantine", vec![arg("step", step)]);
        }
        self.start_ulfm(ctx);
    }

    /// Count one rollback recovery and start its ULFM repair; restore and
    /// the staging restart follow on `UlfmDone`.
    fn start_ulfm(&mut self, ctx: &mut Ctx<'_>) {
        ctx.metrics().inc("wf.recoveries", 1);
        if self.tracer.enabled() {
            self.rec_phase_span = self.span_begin(ctx, self.recovery_span, "ulfm", Vec::new());
        }
        self.phase = Phase::RecUlfm;
        let victim = self.rng.next_bounded(self.comm.size().max(1) as u64) as usize;
        let breakdown = ulfm::recover(&mut self.comm, &[victim], &self.ulfm, true);
        ctx.metrics().observe("wf.ulfm_s", breakdown.total().as_secs_f64());
        let incarnation = self.incarnation;
        ctx.timer(breakdown.total(), UlfmDone { incarnation });
    }

    /// Move the step pointer back to `resume` and count the steps that
    /// will run again. A recovery that a death aborted before this point
    /// counted nothing, so a restarted one counts its redo once.
    fn rewind(&mut self, ctx: &mut Ctx<'_>, resume: u32) {
        ctx.metrics().inc("wf.rollback_steps", u64::from(self.step.saturating_sub(resume)));
        self.step = resume;
    }

    fn on_ulfm_done(&mut self, ctx: &mut Ctx<'_>) {
        if self.tracer.enabled() {
            let p = std::mem::take(&mut self.rec_phase_span);
            self.span_end(ctx, p, Vec::new());
            self.rec_phase_span = self.span_begin(
                ctx,
                self.recovery_span,
                "restore",
                vec![arg("bytes", self.cfg.state_bytes)],
            );
        }
        self.phase = Phase::RecRestore;
        // Checkpoint restore + staging client re-initialization (every rank
        // of the restarted component re-registers with staging — the
        // `workflow_restart()` client-recovery step of Fig. 7b). The failed
        // component's node-local checkpoint copies died with it, so even
        // under two-level checkpointing its restore reads the PFS.
        let cost = self.pfs.read_time(self.cfg.state_bytes, 1)
            + self.reconnect_per_rank.scale(self.cfg.ranks as u64);
        ctx.metrics().observe("wf.restore_s", cost.as_secs_f64());
        let incarnation = self.incarnation;
        ctx.timer(cost, RestoreDone { incarnation });
    }

    fn on_restore_done(&mut self, ctx: &mut Ctx<'_>) {
        let p = std::mem::take(&mut self.rec_phase_span);
        self.span_end(ctx, p, Vec::new());
        self.rewind(ctx, self.last_ckpt_step + 1);
        if self.protocol.uses_logging() {
            // workflow_restart(): notify staging; servers build the replay
            // script before the component re-issues anything.
            let req =
                CtlRequest::Recovery { app: self.cfg.app, resume_version: self.last_ckpt_step };
            self.send_ctl_all(ctx, req, AfterCtl::ResumeCompute);
        } else {
            self.begin_step(ctx);
        }
    }
}

impl Actor for ComponentActor {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let ev = match ev.downcast::<Delivered>() {
            Ok((_, d)) => {
                // The one wire type a client accepts; anything else is dropped.
                if let Ok(reply) = d.payload.downcast::<Reply>() {
                    self.on_reply(ctx, *reply);
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<RetryTick>() {
            Ok((_, t)) => {
                self.on_retry_tick(ctx, &t);
                return;
            }
            Err(ev) => ev,
        };

        if ev.is::<StartStep>() {
            if self.phase == Phase::Idle {
                self.begin_step(ctx);
            }
            return;
        }
        let ev = match ev.downcast::<ComputeDone>() {
            Ok((_, c)) => {
                if c.incarnation == self.incarnation
                    && c.step == self.step
                    && self.phase == Phase::Computing
                {
                    self.issue_io(ctx);
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<CkptWriteDone>() {
            Ok((_, c)) => {
                if c.incarnation == self.incarnation && self.phase == Phase::CkptWrite {
                    self.last_ckpt_step = self.step;
                    ctx.metrics().inc("wf.ckpts", 1);
                    let s = std::mem::take(&mut self.ckpt_span);
                    self.span_end(ctx, s, Vec::new());
                    if self.protocol.uses_logging() {
                        let req =
                            CtlRequest::Checkpoint { app: self.cfg.app, upto_version: self.step };
                        self.send_ctl_all(ctx, req, AfterCtl::AdvanceStep);
                    } else {
                        self.advance_step(ctx);
                    }
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<CkptRelease>() {
            Ok((_, r)) => {
                if self.phase == Phase::CkptRendezvous {
                    self.last_ckpt_step = r.step;
                    ctx.metrics().inc("wf.ckpts", 1);
                    let s = std::mem::take(&mut self.ckpt_span);
                    self.span_end(ctx, s, Vec::new());
                    self.advance_step(ctx);
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<RollbackComplete>() {
            Ok((_, r)) => {
                // Global coordinated rollback (Co): everyone resumes.
                if self.phase != Phase::Done {
                    self.incarnation += 1;
                    // Bystanders roll back mid-step: abandon their open
                    // work; the failed component closes its `co_rollback`
                    // phase and enters the replay window.
                    self.abort_work(ctx);
                    ctx.metrics().inc("wf.recoveries", 1);
                    let p = std::mem::take(&mut self.rec_phase_span);
                    self.span_end(ctx, p, Vec::new());
                    self.last_ckpt_step = r.resume_step.saturating_sub(1);
                    self.rewind(ctx, r.resume_step);
                    self.begin_step(ctx);
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<UlfmDone>() {
            Ok((_, u)) => {
                if u.incarnation == self.incarnation && self.phase == Phase::RecUlfm {
                    self.on_ulfm_done(ctx);
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<RestoreDone>() {
            Ok((_, r)) => {
                if r.incarnation == self.incarnation && self.phase == Phase::RecRestore {
                    self.on_restore_done(ctx);
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<crate::supervisor_actor::RestartGrant>() {
            Ok((_, g)) => {
                self.on_restart_grant(ctx, &g);
                return;
            }
            Err(ev) => ev,
        };
        if ev.is::<FailureWarning>() {
            self.proactive_pending = true;
            return;
        }
        if ev.is::<Fail>() {
            self.die(ctx, DeathCause::FailStop);
        }
    }

    fn name(&self) -> &str {
        &self.cfg.name
    }
}
