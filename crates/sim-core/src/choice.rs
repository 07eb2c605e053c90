//! Choice points: the engine's hooks for externalizing nondeterminism.
//!
//! A deterministic simulation has no nondeterminism *given a seed*, but the
//! interesting question for a model checker is what happens across *all*
//! resolutions of the points where real systems diverge: which same-time
//! message is delivered first, whether a fault injector drops or duplicates a
//! packet, when a crash lands relative to a checkpoint. Each such point is
//! routed through a [`ChoiceSource`] when one is installed on the engine
//! ([`crate::engine::Engine::set_choice_source`]); with no source installed
//! the engine takes the canonical branch (index 0), which is defined to be
//! bit-for-bit identical to the historical FIFO behaviour.
//!
//! The contract that makes schedule exploration sound:
//!
//! * every call site passes the *full* set of alternatives, and
//! * alternative 0 is always the default the uncontrolled engine would take.
//!
//! A controlled scheduler (see the `mcheck` crate) can then enumerate
//! schedules by recording `(kind, arity, picked)` triples and re-running with
//! a forced prefix.

use crate::time::SimTime;

/// What kind of nondeterministic decision a choice point resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// Which of several same-virtual-time events the engine dispatches next.
    Delivery,
    /// A fault-injection decision (deliver / drop / duplicate ...).
    Fault,
    /// Crash, checkpoint or restart timing.
    Timing,
}

impl ChoiceKind {
    /// Stable textual form used by the `.schedule` file format.
    pub fn as_str(&self) -> &'static str {
        match self {
            ChoiceKind::Delivery => "delivery",
            ChoiceKind::Fault => "fault",
            ChoiceKind::Timing => "timing",
        }
    }

    /// Inverse of [`ChoiceKind::as_str`].
    pub fn parse(s: &str) -> Option<ChoiceKind> {
        match s {
            "delivery" => Some(ChoiceKind::Delivery),
            "fault" => Some(ChoiceKind::Fault),
            "timing" => Some(ChoiceKind::Timing),
            _ => None,
        }
    }
}

/// One schedulable same-time event, as shown to a [`ChoiceSource`] when the
/// engine asks which member of a tied batch to dispatch next.
///
/// Options are presented in ascending `seq` order, so option 0 is the FIFO
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryOption {
    /// Engine-wide scheduling sequence number (FIFO tie-break key).
    pub seq: u64,
    /// Actor the event is addressed to.
    pub target: usize,
    /// Actor that scheduled the event, if any.
    pub from: Option<usize>,
}

/// A controlled scheduler: resolves every nondeterminism point the engine or
/// an actor encounters. Installed with
/// [`crate::engine::Engine::set_choice_source`].
pub trait ChoiceSource {
    /// Pick which of `options` (all scheduled for the same virtual time, in
    /// ascending `seq` order) is dispatched next. Only called when
    /// `options.len() > 1`. Out-of-range returns are clamped by the engine.
    fn choose_delivery(&mut self, now: SimTime, options: &[DeliveryOption]) -> usize;

    /// Resolve a generic enumerated decision with `arity` alternatives
    /// (`arity >= 2`; unary decisions never reach the source). Alternative 0
    /// is the default taken when no source is installed.
    fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize;
}

/// An incremental FNV-1a hasher.
///
/// FNV is not cryptographic — it is small, has no external dependency, and
/// produces the same digest on every platform.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        Fnv1a::finish(self)
    }

    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips() {
        for k in [ChoiceKind::Delivery, ChoiceKind::Fault, ChoiceKind::Timing] {
            assert_eq!(ChoiceKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(ChoiceKind::parse("nope"), None);
    }

    #[test]
    fn fnv_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_incremental_matches_oneshot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
