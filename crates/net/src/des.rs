//! Discrete-event network: a single engine actor that mediates all message
//! delivery and owns the per-endpoint NIC queuing state.
//!
//! Usage pattern:
//!
//! 1. Create the [`Network`] actor and register it with the engine.
//! 2. Register each communicating actor as an endpoint, obtaining an
//!    [`EndpointId`].
//! 3. Senders schedule a [`Transmit`] to the network actor; the network
//!    computes the arrival time from the [`CostModel`] and schedules a
//!    [`Delivered`] to the destination actor.
//!
//! The network actor also counts bytes and messages into the engine metrics
//! (`net.msgs`, `net.bytes`).

use crate::cost::CostModel;
use faultplane::{FaultDecision, FaultInjector, FaultPlan, FaultReport, FaultSpace};
use sim_core::choice::ChoiceKind;
use sim_core::engine::{Actor, ActorId, Ctx, Event};
use sim_core::metrics::CounterId;
use sim_core::time::SimTime;
use std::any::Any;

/// Dense index of a registered endpoint.
pub type EndpointId = usize;

/// A cloneable opaque message payload.
///
/// The fault-injection plane may need to deliver a payload twice
/// (duplication faults), so network payloads must be cloneable behind the
/// type-erased box. The blanket impl covers every `Any + Clone` type, so
/// callers keep writing `Box::new(value)` exactly as before.
pub trait Msg: Any {
    /// Clone into a fresh box (used for duplication faults).
    fn clone_boxed(&self) -> Box<dyn Msg>;
    /// Downgrade to `Box<dyn Any>` for delivery.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + Clone> Msg for T {
    fn clone_boxed(&self) -> Box<dyn Msg> {
        Box::new(self.clone())
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A message handed to the network for delivery.
pub struct Transmit {
    /// Sending endpoint.
    pub from: EndpointId,
    /// Destination endpoint.
    pub to: EndpointId,
    /// Declared wire size in bytes (drives the cost model; the payload itself
    /// is opaque and may be a small handle to large simulated data).
    pub size: u64,
    /// Opaque payload, forwarded verbatim inside [`Delivered`].
    pub payload: Box<dyn Msg>,
}

/// A message delivered to an endpoint actor by the network.
pub struct Delivered {
    /// Originating endpoint.
    pub from: EndpointId,
    /// Wire size in bytes, as declared by the sender.
    pub size: u64,
    /// Opaque payload.
    pub payload: Box<dyn Any>,
}

/// The network actor: routes [`Transmit`]s, models receiver NIC queuing.
pub struct Network {
    model: CostModel,
    /// Destination actor for each endpoint.
    endpoint_actor: Vec<ActorId>,
    /// Time at which each endpoint's NIC becomes free.
    nic_free: Vec<SimTime>,
    /// Optional deterministic fault injector (drop/dup/reorder/delay).
    faults: Option<FaultInjector>,
    /// Endpoints whose traffic bypasses injection (e.g. the coordination
    /// director: the faulted surface is the staging data path).
    fault_exempt: Vec<bool>,
    /// Enumerable fault budget for model checking; consulted only when the
    /// engine runs under a controlled scheduler.
    fault_space: Option<FaultSpace>,
    /// Drops remaining out of `fault_space.max_drops`.
    drops_left: u32,
    /// Duplications remaining out of `fault_space.max_dups`.
    dups_left: u32,
    /// Handles of `net.msgs` and `net.bytes`, resolved when the first
    /// message is carried: a network that carried nothing registers nothing.
    traffic: Option<(CounterId, CounterId)>,
}

impl Network {
    /// Create a network with the given cost model.
    pub fn new(model: CostModel) -> Self {
        Network {
            model,
            endpoint_actor: Vec::new(),
            nic_free: Vec::new(),
            faults: None,
            fault_exempt: Vec::new(),
            fault_space: None,
            drops_left: 0,
            dups_left: 0,
            traffic: None,
        }
    }

    /// Register `actor` as an endpoint; returns its [`EndpointId`].
    pub fn register(&mut self, actor: ActorId) -> EndpointId {
        self.endpoint_actor.push(actor);
        self.nic_free.push(SimTime::ZERO);
        self.fault_exempt.push(false);
        self.endpoint_actor.len() - 1
    }

    /// Number of registered endpoints.
    pub fn endpoints(&self) -> usize {
        self.endpoint_actor.len()
    }

    /// The cost model in use.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Install a deterministic fault plan. Messages between non-exempt
    /// endpoints are dropped / duplicated / reordered / delayed according to
    /// the plan's seeded per-message decision stream.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Exempt an endpoint from fault injection (both directions).
    pub fn exempt_from_faults(&mut self, ep: EndpointId) {
        self.fault_exempt[ep] = true;
    }

    /// Tally of injected faults, if a plan is installed.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.faults.as_ref().map(|f| f.report())
    }

    /// Install an enumerable fault budget. Each non-exempt message then
    /// becomes a [`ChoiceKind::Fault`] choice point — deliver / drop /
    /// duplicate, while the respective budget lasts — enumerated by a
    /// controlled scheduler. Has no effect on uncontrolled runs (the choice
    /// resolves to the canonical pick, i.e. deliver).
    pub fn set_fault_space(&mut self, space: FaultSpace) {
        self.drops_left = space.max_drops;
        self.dups_left = space.max_dups;
        self.fault_space = Some(space);
    }

    /// Resolve one message's enumerable fault decision via the engine's
    /// choice source. Pick 0 is always Deliver; the drop option (if budget
    /// remains) precedes the dup option, so the option list is stable across
    /// schedules that spend their budgets at the same points.
    fn space_decision(&mut self, ctx: &mut Ctx<'_>) -> FaultDecision {
        if self.fault_space.is_none() || !ctx.controlled() {
            return FaultDecision::Deliver;
        }
        let can_drop = self.drops_left > 0;
        let can_dup = self.dups_left > 0;
        let arity = 1 + usize::from(can_drop) + usize::from(can_dup);
        if arity == 1 {
            return FaultDecision::Deliver;
        }
        let pick = ctx.choose(ChoiceKind::Fault, arity);
        match (pick, can_drop) {
            (0, _) => FaultDecision::Deliver,
            (1, true) => {
                self.drops_left -= 1;
                FaultDecision::Drop
            }
            _ => {
                self.dups_left -= 1;
                FaultDecision::Duplicate { extra_delay_ns: 0 }
            }
        }
    }
}

impl Actor for Network {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Ok((_, Transmit { from, to, size, payload })) = ev.downcast::<Transmit>() else {
            return;
        };
        assert!(from < self.endpoint_actor.len(), "unknown endpoint {from}");
        assert!(to < self.endpoint_actor.len(), "unknown endpoint {to}");
        let exempt = self.fault_exempt[from] || self.fault_exempt[to];
        let decision = if exempt {
            FaultDecision::Deliver
        } else if self.fault_space.is_some() && ctx.controlled() {
            self.space_decision(ctx)
        } else {
            match &self.faults {
                Some(inj) => inj.next_decision(),
                None => FaultDecision::Deliver,
            }
        };
        if matches!(decision, FaultDecision::Drop) {
            ctx.metrics().inc("net.fault.dropped", 1);
            return;
        }
        let (arrival, free) = self.model.arrival(ctx.now(), self.nic_free[to], size);
        self.nic_free[to] = free;
        let mut delay = arrival.saturating_sub(ctx.now());
        let target = self.endpoint_actor[to];
        let (msgs, bytes) = *self.traffic.get_or_insert_with(|| {
            (ctx.metrics().counter_id("net.msgs"), ctx.metrics().counter_id("net.bytes"))
        });
        ctx.metrics().inc_id(msgs, 1);
        ctx.metrics().inc_id(bytes, size);
        match decision {
            FaultDecision::Delay { extra_delay_ns } => {
                delay += SimTime::from_nanos(extra_delay_ns);
                ctx.metrics().inc("net.fault.delayed", 1);
            }
            // In a DES, holding a message back past later traffic is
            // exactly a large extra delay: later sends overtake it.
            FaultDecision::Reorder { extra_delay_ns } => {
                delay += SimTime::from_nanos(extra_delay_ns);
                ctx.metrics().inc("net.fault.reordered", 1);
            }
            FaultDecision::Duplicate { extra_delay_ns } => {
                let copy = payload.clone_boxed();
                ctx.metrics().inc("net.fault.duplicated", 1);
                ctx.send_after(
                    delay + SimTime::from_nanos(extra_delay_ns),
                    target,
                    Delivered { from, size, payload: copy.into_any() },
                );
            }
            FaultDecision::Deliver | FaultDecision::Drop => {}
        }
        ctx.send_after(delay, target, Delivered { from, size, payload: payload.into_any() });
    }

    fn name(&self) -> &str {
        "network"
    }
}

/// Convenience handle wrapping the network's actor id, so endpoint code can
/// send without holding a reference to the network actor.
#[derive(Debug, Clone, Copy)]
pub struct NetworkHandle {
    /// Actor id of the [`Network`] in the engine.
    pub actor: ActorId,
}

impl NetworkHandle {
    /// Send `payload` of `size` bytes from `from` to `to` through the network.
    pub fn send<T: Any + Clone>(
        &self,
        ctx: &mut Ctx<'_>,
        from: EndpointId,
        to: EndpointId,
        size: u64,
        payload: T,
    ) {
        ctx.send_now(self.actor, Transmit { from, to, size, payload: Box::new(payload) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::engine::Engine;

    /// Records arrival times of string payloads.
    #[derive(Default)]
    struct Sink {
        arrivals: Vec<(u64, String)>,
    }

    impl Actor for Sink {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Ok((_, d)) = ev.downcast::<Delivered>() {
                let s = d.payload.downcast::<String>().unwrap();
                self.arrivals.push((ctx.now().as_nanos(), *s));
            }
        }
    }

    fn setup(
        model: CostModel,
    ) -> (Engine, ActorId, NetworkHandle, EndpointId, EndpointId, ActorId) {
        let mut eng = Engine::new(7);
        let sink_id = eng.add_actor(Box::<Sink>::default());
        let mut net = Network::new(model);
        // endpoint for an external sender (same sink actor reused)

        let src_ep = net.register(sink_id);
        let dst_ep = net.register(sink_id);
        let net_id = eng.add_actor(Box::new(net));
        (eng, sink_id, NetworkHandle { actor: net_id }, src_ep, dst_ep, sink_id)
    }

    #[test]
    fn delivery_at_unloaded_time() {
        let model = CostModel { latency_ns: 100, ns_per_byte: 1.0, rx_overhead_ns: 10 };
        let (mut eng, sink, _h, src, dst, _) = setup(model);
        let net_actor = 1; // second registered actor
        eng.schedule_now(
            net_actor,
            Transmit { from: src, to: dst, size: 50, payload: Box::new("a".to_string()) },
        );
        eng.run();
        let s = eng.actor_as::<Sink>(sink).unwrap();
        assert_eq!(s.arrivals, vec![(160, "a".to_string())]);
    }

    #[test]
    fn two_messages_queue_at_receiver() {
        let model = CostModel { latency_ns: 100, ns_per_byte: 1.0, rx_overhead_ns: 0 };
        let (mut eng, sink, _h, src, dst, _) = setup(model);
        let net_actor = 1;
        for name in ["a", "b"] {
            eng.schedule_now(
                net_actor,
                Transmit { from: src, to: dst, size: 1_000, payload: Box::new(name.to_string()) },
            );
        }
        eng.run();
        let s = eng.actor_as::<Sink>(sink).unwrap();
        assert_eq!(s.arrivals[0].0, 1_100);
        assert_eq!(s.arrivals[1].0, 2_100, "second message serializes behind first");
    }

    #[test]
    fn messages_to_different_endpoints_do_not_queue() {
        let model = CostModel { latency_ns: 100, ns_per_byte: 1.0, rx_overhead_ns: 0 };
        let (mut eng, sink, _h, src, dst, _) = setup(model);
        let net_actor = 1;
        eng.schedule_now(
            net_actor,
            Transmit { from: src, to: dst, size: 1_000, payload: Box::new("to_dst".to_string()) },
        );
        eng.schedule_now(
            net_actor,
            Transmit { from: dst, to: src, size: 1_000, payload: Box::new("to_src".to_string()) },
        );
        eng.run();
        let s = eng.actor_as::<Sink>(sink).unwrap();
        assert_eq!(s.arrivals.len(), 2);
        assert!(s.arrivals.iter().all(|(t, _)| *t == 1_100));
    }

    fn all_faults(seed: u64, drop: f64, duplicate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: faultplane::FaultRates {
                drop,
                duplicate,
                reorder: 0.0,
                delay: 0.0,
                max_extra_delay_ns: 1_000,
            },
            windows: Vec::new(),
        }
    }

    #[test]
    fn drop_faults_suppress_delivery() {
        let (mut eng, sink, _h, src, dst, _) = setup(CostModel::slow_test());
        let net_actor = 1;
        eng.actor_as_mut::<Network>(net_actor).unwrap().set_fault_plan(all_faults(1, 1.0, 0.0));
        for _ in 0..10 {
            eng.schedule_now(
                net_actor,
                Transmit { from: src, to: dst, size: 10, payload: Box::new("x".to_string()) },
            );
        }
        eng.run();
        assert!(eng.actor_as::<Sink>(sink).unwrap().arrivals.is_empty());
        assert_eq!(eng.metrics().counter("net.fault.dropped"), 10);
        let rep = eng.actor_as::<Network>(net_actor).unwrap().fault_report().unwrap();
        assert_eq!(rep.dropped, 10);
    }

    #[test]
    fn duplicate_faults_deliver_twice() {
        let (mut eng, sink, _h, src, dst, _) = setup(CostModel::slow_test());
        let net_actor = 1;
        eng.actor_as_mut::<Network>(net_actor).unwrap().set_fault_plan(all_faults(2, 0.0, 1.0));
        eng.schedule_now(
            net_actor,
            Transmit { from: src, to: dst, size: 10, payload: Box::new("x".to_string()) },
        );
        eng.run();
        let s = eng.actor_as::<Sink>(sink).unwrap();
        assert_eq!(s.arrivals.len(), 2, "original plus duplicate");
        assert!(s.arrivals.iter().all(|(_, p)| p == "x"));
        assert_eq!(eng.metrics().counter("net.fault.duplicated"), 1);
    }

    #[test]
    fn exempt_endpoints_bypass_faults() {
        let (mut eng, sink, _h, src, dst, _) = setup(CostModel::slow_test());
        let net_actor = 1;
        {
            let net = eng.actor_as_mut::<Network>(net_actor).unwrap();
            net.set_fault_plan(all_faults(3, 1.0, 0.0));
            net.exempt_from_faults(dst);
        }
        eng.schedule_now(
            net_actor,
            Transmit { from: src, to: dst, size: 10, payload: Box::new("x".to_string()) },
        );
        eng.run();
        assert_eq!(eng.actor_as::<Sink>(sink).unwrap().arrivals.len(), 1);
        assert_eq!(eng.metrics().counter("net.fault.dropped"), 0);
    }

    /// Scripted choice source: FIFO deliveries, fault picks from a queue.
    struct FaultScript {
        picks: std::collections::VecDeque<usize>,
    }

    impl sim_core::ChoiceSource for FaultScript {
        fn choose_delivery(
            &mut self,
            _now: SimTime,
            _options: &[sim_core::DeliveryOption],
        ) -> usize {
            0
        }

        fn choose(&mut self, kind: ChoiceKind, _arity: usize) -> usize {
            match kind {
                ChoiceKind::Fault => self.picks.pop_front().unwrap_or(0),
                _ => 0,
            }
        }
    }

    #[test]
    fn fault_space_is_inert_without_a_controlled_scheduler() {
        let (mut eng, sink, _h, src, dst, _) = setup(CostModel::slow_test());
        let net_actor = 1;
        eng.actor_as_mut::<Network>(net_actor).unwrap().set_fault_space(FaultSpace::new(5, 5));
        eng.schedule_now(
            net_actor,
            Transmit { from: src, to: dst, size: 10, payload: Box::new("x".to_string()) },
        );
        eng.run();
        assert_eq!(eng.actor_as::<Sink>(sink).unwrap().arrivals.len(), 1);
        assert_eq!(eng.metrics().counter("net.fault.dropped"), 0);
    }

    #[test]
    fn fault_space_enumerates_budgeted_drops_and_dups() {
        let (mut eng, sink, _h, src, dst, _) = setup(CostModel::slow_test());
        let net_actor = 1;
        eng.actor_as_mut::<Network>(net_actor).unwrap().set_fault_space(FaultSpace::new(1, 1));
        // Message 1: arity 3 (deliver/drop/dup), pick 1 → drop.
        // Message 2: drop budget spent → arity 2 (deliver/dup), pick 1 → dup.
        // Message 3: both budgets spent → arity 1, source never consulted.
        eng.set_choice_source(Box::new(FaultScript { picks: [1, 1].into() }));
        for name in ["a", "b", "c"] {
            eng.schedule_now(
                net_actor,
                Transmit { from: src, to: dst, size: 10, payload: Box::new(name.to_string()) },
            );
        }
        eng.run();
        let s = eng.actor_as::<Sink>(sink).unwrap();
        let payloads: Vec<&str> = s.arrivals.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(payloads, vec!["b", "b", "c"], "a dropped, b duplicated, c plain");
        assert_eq!(eng.metrics().counter("net.fault.dropped"), 1);
        assert_eq!(eng.metrics().counter("net.fault.duplicated"), 1);
    }

    #[test]
    fn fault_space_default_pick_delivers_everything() {
        let (mut eng, sink, _h, src, dst, _) = setup(CostModel::slow_test());
        let net_actor = 1;
        eng.actor_as_mut::<Network>(net_actor).unwrap().set_fault_space(FaultSpace::new(2, 2));
        eng.set_choice_source(Box::new(FaultScript { picks: [].into() }));
        for _ in 0..4 {
            eng.schedule_now(
                net_actor,
                Transmit { from: src, to: dst, size: 10, payload: Box::new("x".to_string()) },
            );
        }
        eng.run();
        assert_eq!(eng.actor_as::<Sink>(sink).unwrap().arrivals.len(), 4);
        assert_eq!(eng.metrics().counter("net.fault.dropped"), 0);
        assert_eq!(eng.metrics().counter("net.fault.duplicated"), 0);
    }

    #[test]
    fn metrics_count_bytes() {
        let model = CostModel::slow_test();
        let (mut eng, _sink, _h, src, dst, _) = setup(model);
        let net_actor = 1;
        eng.schedule_now(
            net_actor,
            Transmit { from: src, to: dst, size: 123, payload: Box::new("x".to_string()) },
        );
        eng.run();
        assert_eq!(eng.metrics().counter("net.msgs"), 1);
        assert_eq!(eng.metrics().counter("net.bytes"), 123);
    }
}
