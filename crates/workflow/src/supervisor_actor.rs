//! The supervisor actor: the DES embedding of [`supervise::Supervisor`].
//!
//! One actor per supervised run. Components report deaths, recoveries and
//! failovers; staging servers report fail-stop / rebuild-complete. The
//! actor feeds component deaths to the pure policy machine in the
//! `supervise` crate with virtual-time timestamps and enacts its verdicts
//! as delayed [`RestartGrant`] messages — so backoff and quarantine
//! decisions land on the simulated clock and replay identically for a
//! given seed. A staging server comes back through the resilience layer's
//! rebuild, so the policy machine never sees it: the actor only times its
//! outage. Every outage, component or server, lands in the metrics
//! registry's `sup.outage_s` stream, which is the run's MTTR.

use std::collections::BTreeMap;

use obs::{arg, TraceCtx};
use sim_core::engine::{Actor, ActorId, Ctx, Event};
use sim_core::time::SimTime;
use staging::server::{ServerDownNotice, ServerUpNotice};
use supervise::{DeathCause, DomainKey, Supervisor};

/// Component → supervisor: the component died.
pub struct ComponentDown {
    /// The dead component's app id.
    pub app: u32,
    /// The step it was executing when it died.
    pub step: u32,
    /// Why it died.
    pub cause: DeathCause,
}

/// Component → supervisor: the component resumed executing (closes the
/// outage opened by its first [`ComponentDown`] of the streak).
pub struct ComponentRecovered {
    /// The recovered component's app id.
    pub app: u32,
}

/// Component → supervisor: a replicated component absorbed a fail-stop by
/// failing over to its replica. No restart is needed (the replica already
/// took over), but the supervisor still opens an outage for the failover
/// pause — so MTTR accounting covers replicated domains too — and closes it
/// on the component's next [`ComponentRecovered`].
pub struct FailoverNotice {
    /// The failed-over component's app id.
    pub app: u32,
}

/// Supervisor → component: restart now, rolling back to the last
/// checkpoint. Fires after the backoff chosen by the policy machine.
pub struct RestartGrant {
    /// A step to quarantine before restarting (poison past the threshold).
    pub quarantine: Option<u32>,
}

/// The supervision actor. Build with [`SupervisorActor::new`], then wire
/// components with [`watch_component`](SupervisorActor::watch_component)
/// during runner assembly.
pub struct SupervisorActor {
    sup: Supervisor,
    /// App id → component actor, for grant delivery.
    comp_actor: BTreeMap<u32, ActorId>,
    // Observability (inert when the tracer is off).
    tracer: obs::Tracer,
    track: obs::TrackId,
    /// Open outage span per domain.
    outage_spans: BTreeMap<DomainKey, TraceCtx>,
    /// Outage start (virtual ns) per down domain — always on, unlike the
    /// tracer spans, so the `sup.outage_s` tail histogram (MTTR for the
    /// windowed telemetry series) exists in untraced runs.
    /// Consecutive deaths extend the one open outage.
    outage_since: BTreeMap<DomainKey, u64>,
}

impl SupervisorActor {
    /// A supervisor actor around a fresh policy machine, tracing to its own
    /// `supervisor` track of `tracer`.
    pub fn new(tracer: obs::Tracer) -> SupervisorActor {
        SupervisorActor {
            sup: Supervisor::new(),
            comp_actor: BTreeMap::new(),
            track: tracer.track("supervisor"),
            tracer,
            outage_spans: BTreeMap::new(),
            outage_since: BTreeMap::new(),
        }
    }

    /// Watch the component `app`, delivering grants to `actor`.
    pub fn watch_component(&mut self, app: u32, actor: ActorId) {
        self.sup.watch(DomainKey::Component(app));
        self.comp_actor.insert(app, actor);
    }

    /// The wrapped policy machine; its dead-letter queue is read after the
    /// run.
    pub fn supervisor(&self) -> &Supervisor {
        &self.sup
    }

    fn open_outage(&mut self, ctx: &mut Ctx<'_>, key: DomainKey, cause: DeathCause) {
        self.outage_since.entry(key).or_insert_with(|| ctx.now().as_nanos());
        if !self.tracer.enabled() {
            return;
        }
        let span = self.outage_spans.entry(key).or_insert(TraceCtx::NONE);
        if span.is_none() {
            *span = self.tracer.begin(
                TraceCtx::NONE,
                self.track,
                "outage",
                ctx.now().as_nanos(),
                ctx.seq(),
                vec![arg("domain", key.label()), arg("cause", cause.label())],
            );
        } else {
            let parent = *span;
            self.tracer.instant(
                parent,
                self.track,
                "redeath",
                ctx.now().as_nanos(),
                ctx.seq(),
                vec![arg("cause", cause.label())],
            );
        }
    }

    fn close_outage(&mut self, ctx: &mut Ctx<'_>, key: DomainKey) {
        if let Some(since) = self.outage_since.remove(&key) {
            let dur_s = (ctx.now().as_nanos().saturating_sub(since)) as f64 / 1e9;
            ctx.metrics().observe_tail("sup.outage_s", dur_s);
        }
        if let Some(span) = self.outage_spans.remove(&key) {
            if !span.is_none() {
                self.tracer.end(span, self.track, ctx.now().as_nanos(), ctx.seq(), Vec::new());
            }
        }
    }

    fn on_component_down(&mut self, ctx: &mut Ctx<'_>, msg: &ComponentDown) {
        let key = DomainKey::Component(msg.app);
        let now = ctx.now().as_nanos();
        self.open_outage(ctx, key, msg.cause);
        let verdict = self.sup.on_death(key, now, msg.cause);
        ctx.metrics().inc("sup.deaths", 1);
        ctx.metrics().inc("sup.restarts", 1);
        let quarantine = match verdict {
            supervise::Verdict::Quarantine { step, .. } => {
                ctx.metrics().inc("sup.quarantined", 1);
                if self.tracer.enabled() {
                    let parent = self.outage_spans.get(&key).copied().unwrap_or(TraceCtx::NONE);
                    self.tracer.instant(
                        parent,
                        self.track,
                        "quarantine",
                        ctx.now().as_nanos(),
                        ctx.seq(),
                        vec![arg("domain", key.label()), arg("step", step)],
                    );
                }
                Some(step)
            }
            supervise::Verdict::Restart { .. } => None,
        };
        let target = *self.comp_actor.get(&msg.app).expect("death from unwatched component");
        let delay = SimTime::from_nanos(verdict.delay_ns());
        ctx.send_after(delay, target, RestartGrant { quarantine });
    }
}

impl Actor for SupervisorActor {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let ev = match ev.downcast::<ComponentDown>() {
            Ok((_, d)) => {
                self.on_component_down(ctx, &d);
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<ComponentRecovered>() {
            Ok((_, r)) => {
                let key = DomainKey::Component(r.app);
                self.sup.on_recovered(key);
                self.close_outage(ctx, key);
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<FailoverNotice>() {
            Ok((_, f)) => {
                // Time the outage, grant nothing — the replica is already
                // serving. The death still extends the component's streak,
                // so a poison death before its next recovery backs off
                // further. Failover semantics are unchanged.
                let key = DomainKey::Component(f.app);
                let now = ctx.now().as_nanos();
                self.open_outage(ctx, key, DeathCause::FailStop);
                let _ = self.sup.on_death(key, now, DeathCause::FailStop);
                ctx.metrics().inc("sup.deaths", 1);
                ctx.metrics().inc("sup.failovers", 1);
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<ServerDownNotice>() {
            Ok((_, d)) => {
                // Server restarts ride the resilience rebuild, not a grant:
                // only the outage is timed.
                let key = DomainKey::Server(d.server as u32);
                self.open_outage(ctx, key, DeathCause::FailStop);
                ctx.metrics().inc("sup.deaths", 1);
                ctx.metrics().inc("sup.restarts", 1);
                return;
            }
            Err(ev) => ev,
        };
        if let Ok((_, u)) = ev.downcast::<ServerUpNotice>() {
            self.close_outage(ctx, DomainKey::Server(u.server as u32));
        }
    }

    fn name(&self) -> &str {
        "supervisor"
    }
}
