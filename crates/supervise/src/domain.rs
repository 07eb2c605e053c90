//! One component's failure domain: its consecutive-death count and its
//! poison hits.
//!
//! A *failure domain* is the blast radius of one fault — here, one workflow
//! component, which owns its [`FailureDomain`] and asks it what to do about
//! each death of its own. Each domain counts its own deaths independently
//! so a crash-looping consumer cannot wedge its neighbours.

use std::collections::BTreeMap;

use crate::backoff;
use crate::supervisor::{DeathCause, POISON_THRESHOLD};

/// One failure domain's death streak and poison hits.
#[derive(Debug, Clone, Default)]
pub struct FailureDomain {
    /// Deaths with no intervening recovery (drives exponential backoff).
    consecutive: u32,
    /// Per-step poison hit counts. Deliberately *not* cleared on recovery:
    /// the whole point is counting deaths caused by the same input across
    /// the crash loop.
    poison_hits: BTreeMap<u32, u32>,
}

impl FailureDomain {
    /// Deaths with no intervening recovery.
    pub fn consecutive(&self) -> u32 {
        self.consecutive
    }

    /// A death: extends the streak and returns the restart backoff (ns)
    /// and, once a poisoned step has killed the domain
    /// [`POISON_THRESHOLD`] times, that step, to be quarantined before the
    /// restart.
    pub fn on_death(&mut self, cause: DeathCause) -> (u64, Option<u32>) {
        self.consecutive += 1;
        let delay_ns = backoff::delay_ns(self.consecutive);
        let quarantine = match cause {
            DeathCause::PoisonPut { step } => {
                let hits = self.poison_hits.entry(step).or_insert(0);
                *hits += 1;
                (*hits >= POISON_THRESHOLD).then_some(step)
            }
            DeathCause::FailStop => None,
        };
        (delay_ns, quarantine)
    }

    /// Poison hits recorded against `step`.
    pub fn poison_hits(&self, step: u32) -> u32 {
        self.poison_hits.get(&step).copied().unwrap_or(0)
    }

    /// Recovery completed: the death streak ends, so the next outage's
    /// backoff starts at the base again.
    pub fn on_recovered(&mut self) {
        self.consecutive = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_accounting_spans_consecutive_deaths() {
        let mut d = FailureDomain::default();
        d.on_death(DeathCause::FailStop);
        assert_eq!(d.consecutive(), 1);
        // Dies again during its own recovery: the same streak.
        d.on_death(DeathCause::FailStop);
        assert_eq!(d.consecutive(), 2);
        d.on_recovered();
        assert_eq!(d.consecutive(), 0);
        // A fresh outage starts a fresh streak.
        d.on_death(DeathCause::FailStop);
        assert_eq!(d.consecutive(), 1);
    }

    #[test]
    fn poison_hits_survive_recovery() {
        let mut d = FailureDomain::default();
        d.on_death(DeathCause::PoisonPut { step: 5 });
        assert_eq!(d.poison_hits(5), 1);
        d.on_recovered();
        d.on_death(DeathCause::PoisonPut { step: 5 });
        assert_eq!(d.poison_hits(5), 2, "not reset by recovery");
        assert_eq!(d.poison_hits(6), 0);
        d.on_death(DeathCause::FailStop);
        assert_eq!(d.poison_hits(5), 2, "a fail-stop is no poison hit");
    }
}
