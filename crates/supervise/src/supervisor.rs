//! The supervisor: deaths in, restart verdicts out.
//!
//! The [`Supervisor`] owns one [`FailureDomain`] per watched component and
//! a shared [`DeadLetterQueue`]. The embedding runtime (the DES workflow
//! runner here) reports deaths and recoveries; the supervisor answers with a
//! [`Verdict`] the runtime enacts. The supervisor itself never touches the
//! clock or any RNG — it is a pure, deterministic policy machine.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::backoff;
use crate::dlq::{DeadLetter, DeadLetterQueue};
use crate::domain::{DomainKey, FailureDomain};

/// Deaths the same input may cause before it is quarantined.
pub const POISON_THRESHOLD: u32 = 3;

/// Why a domain died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeathCause {
    /// Plain fail-stop (process crash, injected fault).
    FailStop,
    /// Crash attributed to consuming a poisoned input at `step`.
    PoisonPut {
        /// The workflow step whose input killed the consumer.
        step: u32,
    },
}

impl DeathCause {
    /// Short label for traces and dead letters.
    pub fn label(&self) -> &'static str {
        match self {
            DeathCause::FailStop => "fail-stop",
            DeathCause::PoisonPut { .. } => "poison-put",
        }
    }
}

/// What the runtime should do about a death.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Restart the domain after the backoff `delay_ns`.
    Restart {
        /// Virtual-time delay before the restart grant fires.
        delay_ns: u64,
    },
    /// Quarantine the poisoned step, then restart after `delay_ns`; the
    /// letter has already been pushed to the DLQ.
    Quarantine {
        /// Virtual-time delay before the restart grant fires.
        delay_ns: u64,
        /// The step the restarted consumer must skip.
        step: u32,
    },
}

impl Verdict {
    /// The restart delay regardless of variant.
    pub fn delay_ns(&self) -> u64 {
        match self {
            Verdict::Restart { delay_ns } => *delay_ns,
            Verdict::Quarantine { delay_ns, .. } => *delay_ns,
        }
    }
}

/// Deterministic supervision policy over a set of failure domains.
#[derive(Default)]
pub struct Supervisor {
    slots: BTreeMap<DomainKey, FailureDomain>,
    dlq: DeadLetterQueue,
}

impl Supervisor {
    /// A supervisor watching nothing, with an empty dead-letter queue.
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    /// Register a domain to watch. Idempotent.
    pub fn watch(&mut self, key: DomainKey) {
        self.slots.entry(key).or_default();
    }

    /// A death at `now_ns`; returns the verdict to enact. Panics if `key`
    /// was never watched (a supervision wiring bug, not a runtime state).
    pub fn on_death(&mut self, key: DomainKey, now_ns: u64, cause: DeathCause) -> Verdict {
        let domain = self.slots.get_mut(&key).expect("death for unwatched domain");
        let delay_ns = backoff::delay_ns(domain.on_death());
        if let DeathCause::PoisonPut { step } = cause {
            let hits = domain.on_poison_hit(step);
            if hits >= POISON_THRESHOLD {
                self.dlq.push(DeadLetter {
                    domain: key.label(),
                    step,
                    deaths: hits,
                    reason: cause.label().to_string(),
                    at_ns: now_ns,
                });
                return Verdict::Quarantine { delay_ns, step };
            }
        }
        Verdict::Restart { delay_ns }
    }

    /// `key` finished recovering: its death streak ends, so the next
    /// outage's backoff starts at the base again. Unknown keys are a no-op.
    pub fn on_recovered(&mut self, key: DomainKey) {
        if let Some(domain) = self.slots.get_mut(&key) {
            domain.on_recovered();
        }
    }

    /// The dead-letter queue.
    pub fn dlq(&self) -> &DeadLetterQueue {
        &self.dlq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::{BACKOFF_BASE_NS, BACKOFF_CAP_NS};

    #[test]
    fn single_death_restarts_with_base_backoff() {
        let mut s = Supervisor::new();
        s.watch(DomainKey::Component(0));
        let v = s.on_death(DomainKey::Component(0), 100, DeathCause::FailStop);
        assert_eq!(v, Verdict::Restart { delay_ns: BACKOFF_BASE_NS });
        assert!(s.dlq().is_empty());
    }

    #[test]
    fn death_during_recovery_escalates_backoff() {
        let mut s = Supervisor::new();
        let k = DomainKey::Component(1);
        s.watch(k);
        assert_eq!(s.on_death(k, 0, DeathCause::FailStop).delay_ns(), BACKOFF_BASE_NS);
        // Dies again while restarting: attempt 2, doubled backoff.
        assert_eq!(s.on_death(k, 50, DeathCause::FailStop).delay_ns(), 2 * BACKOFF_BASE_NS);
        // A crash loop is never held back past the cap.
        for t in 0..8 {
            assert!(s.on_death(k, 60 + t, DeathCause::FailStop).delay_ns() <= BACKOFF_CAP_NS);
        }
        // Backoff resets after a clean recovery.
        s.on_recovered(k);
        assert_eq!(s.on_death(k, 900, DeathCause::FailStop).delay_ns(), BACKOFF_BASE_NS);
    }

    #[test]
    fn poison_quarantines_at_threshold() {
        let mut s = Supervisor::new();
        let k = DomainKey::Component(2);
        s.watch(k);
        let step = 7;
        let v1 = s.on_death(k, 0, DeathCause::PoisonPut { step });
        assert!(matches!(v1, Verdict::Restart { .. }));
        s.on_recovered(k);
        let v2 = s.on_death(k, 20, DeathCause::PoisonPut { step });
        assert!(matches!(v2, Verdict::Restart { .. }), "hits survive recovery");
        s.on_recovered(k);
        let v3 = s.on_death(k, 40, DeathCause::PoisonPut { step });
        let Verdict::Quarantine { step: qstep, .. } = v3 else {
            panic!("third hit must quarantine, got {v3:?}");
        };
        assert_eq!(qstep, step);
        assert_eq!(s.dlq().len(), 1);
        let letter = &s.dlq().letters()[0];
        assert_eq!(letter.domain, "comp:2");
        assert_eq!(letter.step, step);
        assert_eq!(letter.deaths, POISON_THRESHOLD);
        assert_eq!(letter.reason, "poison-put");
        assert_eq!(letter.at_ns, 40);
    }
}
