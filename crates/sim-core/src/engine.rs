//! The discrete-event engine: a virtual clock, an event heap, and a set of
//! actors that exchange dynamically-typed messages.
//!
//! Determinism contract: with the same seed and the same sequence of
//! `add_actor`/`schedule` calls, every run dispatches exactly the same events
//! at the same virtual times in the same order. Ties on time are broken by a
//! monotonically increasing sequence number (i.e. FIFO).

use crate::choice::{ChoiceKind, ChoiceSource, DeliveryOption, Fnv1a};
use crate::metrics::Metrics;
use crate::rng::Xoshiro256StarStar;
use crate::time::SimTime;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Index of an actor registered with the [`Engine`].
pub type ActorId = usize;

/// A delivered event: who sent it and the payload.
///
/// Payloads are `Box<dyn Any>` so that every crate in the workspace can define
/// its own message enums without the engine knowing about them; receivers
/// downcast with [`Event::downcast`].
pub struct Event {
    /// Actor that scheduled the event (or `None` for engine/external events).
    pub from: Option<ActorId>,
    /// Type-erased payload.
    pub payload: Box<dyn Any>,
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event").field("from", &self.from).finish_non_exhaustive()
    }
}

impl Event {
    /// Attempt to downcast the payload to `T`, consuming the event.
    ///
    /// Returns `Err(self)` (unchanged) if the payload is not a `T`, so the
    /// caller can try another type.
    pub fn downcast<T: 'static>(self) -> Result<(Option<ActorId>, T), Event> {
        match self.payload.downcast::<T>() {
            Ok(b) => Ok((self.from, *b)),
            Err(payload) => Err(Event { from: self.from, payload }),
        }
    }

    /// True if the payload is a `T`.
    pub fn is<T: 'static>(&self) -> bool {
        self.payload.is::<T>()
    }
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    target: ActorId,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Behaviour of a simulated entity (a rank, a staging server, a failure
/// injector...). Implementations are state machines: each delivered event
/// advances the machine and may schedule further events through [`Ctx`].
pub trait Actor: Any {
    /// Handle one event delivered at the current virtual time.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event);

    /// Human-readable name for traces; defaults to the type name.
    fn name(&self) -> &str {
        std::any::type_name::<Self>()
    }

    /// Stable digest of the actor's logical state, for state-hash pruning in
    /// a model checker. Two actors with equal fingerprints must behave
    /// identically on all future events. Return `None` (the default) to opt
    /// out — [`Engine::state_fingerprint`] then reports no fingerprint at
    /// all, so pruning stays sound when any actor cannot summarize itself.
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

/// Mutable view of the engine handed to an actor while it processes an event.
pub struct Ctx<'a> {
    core: &'a mut EngineCore,
    /// Id of the actor currently executing.
    pub self_id: ActorId,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Schedule `payload` for `target` after `delay` (from the sending actor).
    pub fn send_after<T: Any>(&mut self, delay: SimTime, target: ActorId, payload: T) {
        let at = self.core.now.saturating_add(delay);
        let from = Some(self.self_id);
        self.core.push(at, target, Event { from, payload: Box::new(payload) });
    }

    /// Schedule `payload` for `target` at the current virtual time (FIFO after
    /// already-queued same-time events).
    pub fn send_now<T: Any>(&mut self, target: ActorId, payload: T) {
        self.send_after(SimTime::ZERO, target, payload);
    }

    /// Schedule a timer event back to the current actor.
    pub fn timer<T: Any>(&mut self, delay: SimTime, payload: T) {
        let id = self.self_id;
        self.send_after(delay, id, payload);
    }

    /// Engine-level PRNG (one shared stream; per-actor streams should be
    /// `split()` off at construction time for stronger determinism).
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.core.rng
    }

    /// Number of events dispatched so far — a deterministic, strictly
    /// monotone stamp that totally orders same-virtual-time occurrences.
    /// Observability spans use it as their sequence component.
    #[inline]
    #[allow(clippy::misnamed_getters)] // the dispatch counter *is* the sequence stamp
    pub fn seq(&self) -> u64 {
        self.core.dispatched
    }

    /// Metrics registry.
    #[inline]
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Request that the engine stop after the current event completes. Events
    /// still in the heap are discarded by `run`.
    pub fn stop(&mut self) {
        self.core.stopped = true;
    }

    /// True once some actor has requested a stop.
    pub fn stopping(&self) -> bool {
        self.core.stopped
    }

    /// Resolve an actor-level nondeterminism point with `arity` alternatives
    /// through the installed [`ChoiceSource`]. Returns 0 (the default
    /// branch) when no source is installed or `arity < 2`, so instrumented
    /// actors behave exactly as before outside a model-checking run.
    pub fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
        match self.core.choice.as_mut() {
            Some(src) if arity > 1 => src.choose(kind, arity).min(arity - 1),
            _ => 0,
        }
    }

    /// True when a controlled scheduler is driving this run. Actors use this
    /// to decide whether to surface enumerable decisions (e.g. budgeted
    /// fault choices) instead of seeded-random ones.
    pub fn controlled(&self) -> bool {
        self.core.choice.is_some()
    }
}

struct EngineCore {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Scheduled>,
    rng: Xoshiro256StarStar,
    metrics: Metrics,
    stopped: bool,
    dispatched: u64,
    choice: Option<Box<dyn ChoiceSource>>,
}

impl EngineCore {
    fn push(&mut self, at: SimTime, target: ActorId, ev: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, target, ev });
    }
}

/// The discrete-event engine. See the crate docs for an end-to-end example.
pub struct Engine {
    core: EngineCore,
    actors: Vec<Option<Box<dyn Actor>>>,
}

impl Engine {
    /// Create an engine whose PRNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Engine {
            core: EngineCore {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                rng: Xoshiro256StarStar::seed_from_u64(seed),
                metrics: Metrics::new(),
                stopped: false,
                dispatched: 0,
                choice: None,
            },
            actors: Vec::new(),
        }
    }

    /// Register an actor; returns its id. Ids are assigned densely from 0 in
    /// registration order.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.actors.push(Some(actor));
        self.actors.len() - 1
    }

    /// Schedule an external (engine-initiated) event at absolute time `at`.
    pub fn schedule_at<T: Any>(&mut self, at: SimTime, target: ActorId, payload: T) {
        self.core.push(at, target, Event { from: None, payload: Box::new(payload) });
    }

    /// Schedule an external event at the current virtual time.
    pub fn schedule_now<T: Any>(&mut self, target: ActorId, payload: T) {
        let now = self.core.now;
        self.schedule_at(now, target, payload);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Total number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.core.dispatched
    }

    /// Metrics registry (for post-run inspection).
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Mutable metrics registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Engine PRNG, e.g. to `split()` per-actor streams during setup.
    pub fn rng_mut(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.core.rng
    }

    /// Borrow a registered actor for inspection after (or between) runs.
    ///
    /// Panics if `id` is out of range; returns `None` if the actor is
    /// currently being dispatched (cannot happen between `run*` calls).
    pub fn actor(&self, id: ActorId) -> Option<&dyn Actor> {
        self.actors[id].as_deref()
    }

    /// Downcast a registered actor to its concrete type for inspection.
    pub fn actor_as<T: Actor>(&self, id: ActorId) -> Option<&T> {
        let a: &dyn Actor = self.actors[id].as_deref()?;
        let any: &dyn Any = a;
        any.downcast_ref::<T>()
    }

    /// Mutable downcast of a registered actor (e.g. to inject configuration
    /// between phases of a scripted test).
    pub fn actor_as_mut<T: Actor>(&mut self, id: ActorId) -> Option<&mut T> {
        let a: &mut dyn Actor = self.actors[id].as_deref_mut()?;
        let any: &mut dyn Any = a;
        any.downcast_mut::<T>()
    }

    /// Run until the heap is empty, an actor calls [`Ctx::stop`], or `limit`
    /// events have been dispatched. Returns the number of events dispatched
    /// by this call.
    pub fn run_limited(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit {
            let sch = if self.core.choice.is_some() {
                match self.pop_chosen() {
                    Some(sch) => sch,
                    None => break,
                }
            } else {
                let Some(sch) = self.core.heap.pop() else { break };
                sch
            };
            debug_assert!(sch.at >= self.core.now, "time went backwards");
            self.core.now = sch.at;
            self.core.dispatched += 1;
            n += 1;
            let target = sch.target;
            let Some(mut actor) = self.actors.get_mut(target).and_then(Option::take) else {
                // No actor registered at `target`: drop the event.
                continue;
            };
            {
                let mut ctx = Ctx { core: &mut self.core, self_id: target };
                actor.on_event(&mut ctx, sch.ev);
            }
            self.actors[target] = Some(actor);
            if self.core.stopped {
                break;
            }
        }
        n
    }

    /// Pop the next event under a controlled scheduler: gather the whole
    /// batch tied at the earliest virtual time, let the [`ChoiceSource`]
    /// pick one, and push the rest back (they keep their original sequence
    /// numbers, so the canonical pick — option 0 — reproduces FIFO order).
    fn pop_chosen(&mut self) -> Option<Scheduled> {
        let first = self.core.heap.pop()?;
        let at = first.at;
        let mut batch = vec![first];
        while let Some(next) = self.core.heap.peek() {
            if next.at != at {
                break;
            }
            batch.push(self.core.heap.pop().expect("peeked"));
        }
        let pick = if batch.len() == 1 {
            0
        } else {
            // Successive pops come out in ascending seq order, so option 0
            // is the FIFO default.
            let opts: Vec<DeliveryOption> = batch
                .iter()
                .map(|s| DeliveryOption { seq: s.seq, target: s.target, from: s.ev.from })
                .collect();
            let src = self.core.choice.as_mut().expect("choice source present");
            src.choose_delivery(at, &opts).min(batch.len() - 1)
        };
        let sch = batch.swap_remove(pick);
        for rest in batch {
            self.core.heap.push(rest);
        }
        Some(sch)
    }

    /// Install a controlled scheduler that resolves every choice point. See
    /// the [`crate::choice`] module docs for the contract.
    pub fn set_choice_source(&mut self, src: Box<dyn ChoiceSource>) {
        self.core.choice = Some(src);
    }

    /// True when a controlled scheduler is installed.
    pub fn controlled(&self) -> bool {
        self.core.choice.is_some()
    }

    /// FNV-1a digest of the engine's logical state: virtual time, pending
    /// events (time/target/sender, *not* sequence numbers — two schedules
    /// reaching the same state differ in seq history) and every actor's
    /// [`Actor::fingerprint`]. Returns `None` unless *all* live actors
    /// provide a fingerprint: pruning on a partial digest would be unsound.
    pub fn state_fingerprint(&self) -> Option<u64> {
        let mut h = Fnv1a::new();
        h.write_u64(self.core.now.as_nanos());
        // Pending events, in a canonical order independent of heap layout.
        // The payload type id distinguishes messages the (time, target,
        // sender) triple cannot; its numeric value is only stable within one
        // process, which is exactly the lifetime of a pruning table.
        let mut pending: Vec<(u64, usize, usize, u64)> = self
            .core
            .heap
            .iter()
            .map(|s| {
                let mut th = Fnv1a::new();
                use std::hash::Hash;
                (*s.ev.payload).type_id().hash(&mut th);
                (s.at.as_nanos(), s.target, s.ev.from.map_or(usize::MAX, |f| f), th.finish())
            })
            .collect();
        pending.sort_unstable();
        h.write_u64(pending.len() as u64);
        for (at, target, from, tid) in pending {
            h.write_u64(at);
            h.write_u64(target as u64);
            h.write_u64(from as u64);
            h.write_u64(tid);
        }
        for (id, slot) in self.actors.iter().enumerate() {
            if let Some(actor) = slot {
                h.write_u64(id as u64);
                h.write_u64(actor.fingerprint()?);
            }
        }
        Some(h.finish())
    }

    /// Run to completion (empty heap or stop request).
    pub fn run(&mut self) -> u64 {
        self.run_limited(u64::MAX)
    }

    /// Run until the virtual clock would pass `deadline`; events at exactly
    /// `deadline` are still dispatched. Returns events dispatched.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        loop {
            match self.core.heap.peek() {
                Some(s) if s.at <= deadline => {}
                _ => break,
            }
            n += self.run_limited(1);
            if self.core.stopped {
                break;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choice::{ChoiceKind, DeliveryOption, Fnv1a};

    enum Msg {
        Tick(u32),
    }

    #[derive(Default)]
    struct Counter {
        seen: Vec<(u64, u32)>,
    }

    impl Actor for Counter {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Ok((_, Msg::Tick(k))) = ev.downcast::<Msg>() {
                self.seen.push((ctx.now().as_nanos(), k));
                if k > 0 {
                    ctx.timer(SimTime::from_nanos(10), Msg::Tick(k - 1));
                }
            }
        }
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut eng = Engine::new(1);
        let a = eng.add_actor(Box::<Counter>::default());
        eng.schedule_at(SimTime::from_nanos(50), a, Msg::Tick(0));
        eng.schedule_at(SimTime::from_nanos(20), a, Msg::Tick(0));
        eng.schedule_at(SimTime::from_nanos(30), a, Msg::Tick(0));
        assert_eq!(eng.run(), 3);
        assert_eq!(eng.now(), SimTime::from_nanos(50));
    }

    #[test]
    fn same_time_is_fifo() {
        let mut eng = Engine::new(1);
        let a = eng.add_actor(Box::<Counter>::default());
        for k in [5u32, 6, 7] {
            eng.schedule_at(SimTime::ZERO, a, Msg::Tick(k));
        }
        // Each tick re-arms with k-1 at +10ns; just check dispatch count:
        // 3 initial chains of length 6,7,8 = 21 events.
        assert_eq!(eng.run(), 21);
    }

    #[test]
    fn timers_chain() {
        let mut eng = Engine::new(1);
        let a = eng.add_actor(Box::<Counter>::default());
        eng.schedule_now(a, Msg::Tick(3));
        eng.run();
        assert_eq!(eng.now(), SimTime::from_nanos(30));
        assert_eq!(eng.dispatched(), 4);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng = Engine::new(1);
        let a = eng.add_actor(Box::<Counter>::default());
        eng.schedule_now(a, Msg::Tick(100));
        eng.run_until(SimTime::from_nanos(55));
        assert_eq!(eng.now(), SimTime::from_nanos(50));
        // Remaining events still pending.
        assert!(eng.run() > 0);
    }

    struct Stopper;
    impl Actor for Stopper {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
            ctx.stop();
        }
    }

    #[test]
    fn stop_halts_run() {
        let mut eng = Engine::new(1);
        let s = eng.add_actor(Box::new(Stopper));
        let c = eng.add_actor(Box::<Counter>::default());
        eng.schedule_at(SimTime::from_nanos(1), s, ());
        eng.schedule_at(SimTime::from_nanos(2), c, Msg::Tick(0));
        eng.run();
        assert_eq!(eng.now(), SimTime::from_nanos(1));
    }

    #[test]
    fn downcast_error_returns_event() {
        let ev = Event { from: None, payload: Box::new(42u32) };
        let ev = ev.downcast::<String>().unwrap_err();
        let (_, v) = ev.downcast::<u32>().unwrap();
        assert_eq!(v, 42);
    }

    struct ReverseSource;
    impl crate::choice::ChoiceSource for ReverseSource {
        fn choose_delivery(&mut self, _now: SimTime, options: &[DeliveryOption]) -> usize {
            options.len() - 1
        }
        fn choose(&mut self, _kind: ChoiceKind, arity: usize) -> usize {
            arity - 1
        }
    }

    struct Recorder {
        order: Vec<u32>,
    }
    impl Actor for Recorder {
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, ev: Event) {
            if let Ok((_, Msg::Tick(k))) = ev.downcast::<Msg>() {
                self.order.push(k);
            }
        }
        fn fingerprint(&self) -> Option<u64> {
            let mut h = Fnv1a::new();
            for &k in &self.order {
                h.write_u64(k as u64);
            }
            Some(h.finish())
        }
    }

    #[test]
    fn choice_source_reorders_same_time_batch() {
        let mut eng = Engine::new(1);
        let a = eng.add_actor(Box::new(Recorder { order: vec![] }));
        for k in [1u32, 2, 3] {
            eng.schedule_at(SimTime::from_nanos(5), a, Msg::Tick(k));
        }
        eng.set_choice_source(Box::new(ReverseSource));
        eng.run();
        let r = eng.actor_as::<Recorder>(a).unwrap();
        assert_eq!(r.order, vec![3, 2, 1], "last-index picks reverse FIFO");
    }

    /// A source that always picks option 0 must be indistinguishable from no
    /// source at all — the contract the whole checker rests on.
    struct CanonicalSource;
    impl crate::choice::ChoiceSource for CanonicalSource {
        fn choose_delivery(&mut self, _now: SimTime, _options: &[DeliveryOption]) -> usize {
            0
        }
        fn choose(&mut self, _kind: ChoiceKind, _arity: usize) -> usize {
            0
        }
    }

    #[test]
    fn canonical_source_matches_uncontrolled_run() {
        let run = |controlled: bool| -> Vec<u32> {
            let mut eng = Engine::new(9);
            let a = eng.add_actor(Box::new(Recorder { order: vec![] }));
            for k in [4u32, 1, 7, 2] {
                eng.schedule_at(SimTime::from_nanos(3), a, Msg::Tick(k));
            }
            eng.schedule_at(SimTime::from_nanos(1), a, Msg::Tick(0));
            if controlled {
                eng.set_choice_source(Box::new(CanonicalSource));
            }
            eng.run();
            eng.actor_as::<Recorder>(a).unwrap().order.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn ctx_choose_defaults_to_zero_without_source() {
        struct Chooser {
            picked: Option<usize>,
        }
        impl Actor for Chooser {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
                self.picked = Some(ctx.choose(ChoiceKind::Fault, 3));
            }
        }
        let mut eng = Engine::new(1);
        let a = eng.add_actor(Box::new(Chooser { picked: None }));
        eng.schedule_now(a, ());
        eng.run();
        assert_eq!(eng.actor_as::<Chooser>(a).unwrap().picked, Some(0));

        let mut eng = Engine::new(1);
        let a = eng.add_actor(Box::new(Chooser { picked: None }));
        eng.schedule_now(a, ());
        eng.set_choice_source(Box::new(ReverseSource));
        eng.run();
        assert_eq!(eng.actor_as::<Chooser>(a).unwrap().picked, Some(2));
    }

    #[test]
    fn state_fingerprint_requires_all_actors() {
        let mut eng = Engine::new(1);
        eng.add_actor(Box::new(Recorder { order: vec![] }));
        assert!(eng.state_fingerprint().is_some());
        // Counter opts out of fingerprinting → engine digest unavailable.
        eng.add_actor(Box::<Counter>::default());
        assert!(eng.state_fingerprint().is_none());
    }

    #[test]
    fn equal_states_hash_equal_across_histories() {
        let run = |order: [u32; 2]| -> u64 {
            let mut eng = Engine::new(1);
            let a = eng.add_actor(Box::new(Recorder { order: vec![] }));
            // Different schedules (seq history differs)...
            for k in order {
                eng.schedule_at(SimTime::from_nanos(2), a, Msg::Tick(k));
            }
            eng.run();
            // ...but force identical logical state before hashing.
            eng.actor_as_mut::<Recorder>(a).unwrap().order = vec![1, 2];
            eng.state_fingerprint().unwrap()
        };
        assert_eq!(run([1, 2]), run([2, 1]));
    }

    #[test]
    fn deterministic_replay() {
        fn run_once() -> Vec<(u64, u32)> {
            let mut eng = Engine::new(77);
            let a = eng.add_actor(Box::<Counter>::default());
            eng.schedule_now(a, Msg::Tick(10));
            // jitter scheduling through the rng to exercise the stream
            let d = eng.rng_mut().next_bounded(100);
            eng.schedule_at(SimTime::from_nanos(d), a, Msg::Tick(2));
            eng.run();
            // Inspect by re-dispatching: instead, return dispatch count/time.
            vec![(eng.now().as_nanos(), eng.dispatched() as u32)]
        }
        assert_eq!(run_once(), run_once());
    }
}
