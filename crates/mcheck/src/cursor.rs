//! The schedule cursor: a [`ChoiceSource`] that replays a forced prefix of
//! picks, takes canonical defaults beyond it, and records what it saw so the
//! explorer can branch.
//!
//! The engine owns its `Box<dyn ChoiceSource>` for the duration of a run, so
//! the recorder state is shared through an `Rc<RefCell<..>>` handle
//! ([`SharedRecorder`]) that the explorer keeps.

use crate::schedule::{Choice, Schedule};
use sim_core::choice::{ChoiceKind, ChoiceSource, DeliveryOption};
use sim_core::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// One choice point as observed during a run.
#[derive(Debug, Clone)]
pub struct RecordedChoice {
    /// Kind of decision.
    pub kind: ChoiceKind,
    /// Alternatives available.
    pub arity: usize,
    /// Index actually taken.
    pub picked: usize,
    /// Alternative picks worth branching to at this point (excludes
    /// `picked`). Under partial-order reduction this is a subset of all
    /// indices — see [`Recorder::new`].
    pub alts: Vec<usize>,
}

impl RecordedChoice {
    /// Convert to the serializable schedule form.
    pub fn to_choice(&self) -> Choice {
        Choice {
            kind: self.kind.as_str().into(),
            arity: self.arity as u32,
            picked: self.picked as u32,
        }
    }
}

/// Recording/replaying cursor state.
#[derive(Debug)]
pub struct Recorder {
    prefix: Vec<u32>,
    pos: usize,
    record_limit: usize,
    por: bool,
    recorded: Vec<RecordedChoice>,
    beyond_limit: bool,
}

impl Recorder {
    /// A cursor that forces `prefix` (positionally, clamped to each point's
    /// arity), records the first `record_limit` choice points, and — when
    /// `por` is on — restricts delivery alternatives to options sharing the
    /// picked option's target actor.
    ///
    /// The POR argument: same-time events bound for *different* actors
    /// commute — an actor handler only touches its own state, and any
    /// same-time messages it emits join the tail of the very batch being
    /// scheduled, where their relative order is itself a later choice point.
    /// Orders of same-target deliveries are the ones an actor can observe,
    /// so only those are enumerated. (Cross-actor couplings that bypass the
    /// message plane — [`sim_core::engine::Ctx::stop`], shared metrics read
    /// by oracles mid-run — fall outside this argument; the DPOR-vs-DFS
    /// property test in `tests/` guards the configurations we rely on.)
    pub fn new(prefix: Vec<u32>, record_limit: usize, por: bool) -> Recorder {
        Recorder { prefix, pos: 0, record_limit, por, recorded: Vec::new(), beyond_limit: false }
    }

    /// Replay-only cursor for a stored schedule: forces the schedule's picks
    /// and records nothing.
    pub fn replay(schedule: &Schedule) -> Recorder {
        Recorder::new(schedule.picks(), 0, false)
    }

    /// True once the run has moved past the forced prefix (everything from
    /// here on is canonical-default territory).
    pub fn past_prefix(&self) -> bool {
        self.pos >= self.prefix.len()
    }

    /// The recorded choice points (at most `record_limit`).
    pub fn recorded(&self) -> &[RecordedChoice] {
        &self.recorded
    }

    /// True if the run had choice points beyond the recording window, i.e.
    /// bounded-depth exploration did not cover the whole tree.
    pub fn saw_beyond_limit(&self) -> bool {
        self.beyond_limit
    }

    /// The run's schedule: every recorded pick, as a serializable prefix.
    pub fn schedule(&self, label: impl Into<String>) -> Schedule {
        Schedule {
            format: crate::schedule::FORMAT,
            label: label.into(),
            choices: self.recorded.iter().map(RecordedChoice::to_choice).collect(),
        }
    }

    fn next_pick(&mut self, arity: usize) -> usize {
        let picked = match self.prefix.get(self.pos) {
            Some(&p) => (p as usize).min(arity - 1),
            None => 0,
        };
        self.pos += 1;
        picked
    }

    fn record(&mut self, kind: ChoiceKind, arity: usize, picked: usize, alts: Vec<usize>) {
        if self.recorded.len() < self.record_limit {
            self.recorded.push(RecordedChoice { kind, arity, picked, alts });
        } else {
            self.beyond_limit = true;
        }
    }
}

/// Shared handle to a [`Recorder`] — clone one half into the engine, keep
/// the other for inspection after the run.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// Wrap a recorder for installation on the engine.
pub fn shared(rec: Recorder) -> SharedRecorder {
    Rc::new(RefCell::new(rec))
}

/// The engine-facing half of a [`SharedRecorder`].
pub struct CursorSource(pub SharedRecorder);

impl ChoiceSource for CursorSource {
    fn choose_delivery(&mut self, _now: SimTime, options: &[DeliveryOption]) -> usize {
        let mut r = self.0.borrow_mut();
        let picked = r.next_pick(options.len());
        let por = r.por;
        let alts: Vec<usize> = options
            .iter()
            .enumerate()
            .filter(|&(i, o)| i != picked && (!por || o.target == options[picked].target))
            .map(|(i, _)| i)
            .collect();
        r.record(ChoiceKind::Delivery, options.len(), picked, alts);
        picked
    }

    fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
        let mut r = self.0.borrow_mut();
        let picked = r.next_pick(arity);
        let alts: Vec<usize> = (0..arity).filter(|&i| i != picked).collect();
        r.record(kind, arity, picked, alts);
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(targets: &[usize]) -> Vec<DeliveryOption> {
        targets
            .iter()
            .enumerate()
            .map(|(i, &t)| DeliveryOption { seq: i as u64, target: t, from: None })
            .collect()
    }

    #[test]
    fn prefix_replays_then_defaults() {
        let rec = shared(Recorder::new(vec![2, 1], 8, false));
        let mut src = CursorSource(rec.clone());
        assert_eq!(src.choose_delivery(SimTime::ZERO, &opts(&[0, 1, 2])), 2);
        assert_eq!(src.choose(ChoiceKind::Fault, 3), 1);
        assert_eq!(src.choose_delivery(SimTime::ZERO, &opts(&[0, 1])), 0, "past prefix → default");
        assert!(rec.borrow().past_prefix());
        assert_eq!(rec.borrow().recorded().len(), 3);
    }

    #[test]
    fn out_of_range_prefix_pick_clamps() {
        let rec = shared(Recorder::new(vec![9], 8, false));
        let mut src = CursorSource(rec);
        assert_eq!(src.choose_delivery(SimTime::ZERO, &opts(&[0, 1])), 1);
    }

    #[test]
    fn por_restricts_alternatives_to_picked_target() {
        let rec = shared(Recorder::new(vec![], 8, true));
        let mut src = CursorSource(rec.clone());
        // Targets: picked option 0 targets actor 7; options 2 and 3 share it.
        src.choose_delivery(SimTime::ZERO, &opts(&[7, 4, 7, 7]));
        let r = rec.borrow();
        assert_eq!(r.recorded()[0].alts, vec![2, 3]);
    }

    #[test]
    fn full_dfs_keeps_all_alternatives() {
        let rec = shared(Recorder::new(vec![], 8, false));
        let mut src = CursorSource(rec.clone());
        src.choose_delivery(SimTime::ZERO, &opts(&[7, 4, 7]));
        assert_eq!(rec.borrow().recorded()[0].alts, vec![1, 2]);
    }

    #[test]
    fn record_limit_bounds_memory() {
        let rec = shared(Recorder::new(vec![], 1, false));
        let mut src = CursorSource(rec.clone());
        src.choose(ChoiceKind::Fault, 2);
        src.choose(ChoiceKind::Fault, 2);
        let r = rec.borrow();
        assert_eq!(r.recorded().len(), 1);
        assert!(r.saw_beyond_limit());
    }
}
