//! The supervisor: deaths in, restart verdicts out.
//!
//! The [`Supervisor`] owns one [`FailureDomain`] per supervised key plus one
//! [`Breaker`] each, and a shared [`DeadLetterQueue`]. The embedding runtime
//! (the DES workflow runner here) reports deaths and recoveries with
//! virtual-time timestamps; the supervisor answers with a
//! [`Verdict`] the runtime enacts. The supervisor itself never touches the
//! clock or any RNG — it is a pure, deterministic policy machine.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::backoff::{BackoffCfg, Breaker};
use crate::dlq::{DeadLetter, DeadLetterQueue};
use crate::domain::{DomainKey, FailureDomain};

/// Supervisor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorCfg {
    /// Backoff + breaker parameters (shared by all domains).
    pub backoff: BackoffCfg,
    /// Deaths the same input may cause before it is quarantined.
    pub poison_threshold: u32,
}

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
    /// Restart the domain after `delay_ns` (backoff + any breaker hold).
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

struct Slot {
    domain: FailureDomain,
    breaker: Breaker,
}

/// Deterministic supervision policy over a set of failure domains.
pub struct Supervisor {
    cfg: SupervisorCfg,
    slots: BTreeMap<DomainKey, Slot>,
    dlq: DeadLetterQueue,
    restarts: u64,
    quarantined: u64,
    mttr_total_ns: u64,
    mttr_max_ns: u64,
    recoveries: u64,
}

impl Supervisor {
    /// A supervisor with an empty dead-letter queue.
    pub fn new(cfg: SupervisorCfg) -> Supervisor {
        Supervisor {
            cfg,
            slots: BTreeMap::new(),
            dlq: DeadLetterQueue::new(),
            restarts: 0,
            quarantined: 0,
            mttr_total_ns: 0,
            mttr_max_ns: 0,
            recoveries: 0,
        }
    }

    /// Register a domain to watch. Idempotent.
    pub fn watch(&mut self, key: DomainKey) {
        self.slots.entry(key).or_insert_with(|| Slot {
            domain: FailureDomain::new(key),
            breaker: Breaker::new(self.cfg.backoff),
        });
    }

    /// The domain for `key`, if watched.
    pub fn domain(&self, key: DomainKey) -> Option<&FailureDomain> {
        self.slots.get(&key).map(|s| &s.domain)
    }

    /// A death at `now_ns`; returns the verdict to enact. Panics if `key`
    /// was never watched (a supervision wiring bug, not a runtime state).
    pub fn on_death(&mut self, key: DomainKey, now_ns: u64, cause: DeathCause) -> Verdict {
        let slot = self.slots.get_mut(&key).expect("death for unwatched domain");
        let attempt = slot.domain.on_death(now_ns);
        let hold = slot.breaker.on_death(now_ns);
        let delay = self.cfg.backoff.delay_ns(attempt).saturating_add(hold);

        if let DeathCause::PoisonPut { step } = cause {
            let hits = slot.domain.on_poison_hit(step);
            if hits >= self.cfg.poison_threshold {
                let letter = DeadLetter {
                    domain: key.label(),
                    step,
                    deaths: hits,
                    reason: cause.label().to_string(),
                    at_ns: now_ns,
                };
                self.dlq.push(letter);
                self.quarantined += 1;
                self.note_grant(key, now_ns, delay);
                return Verdict::Quarantine { delay_ns: delay, step };
            }
        }
        self.note_grant(key, now_ns, delay);
        Verdict::Restart { delay_ns: delay }
    }

    fn note_grant(&mut self, key: DomainKey, now_ns: u64, delay_ns: u64) {
        let slot = self.slots.get_mut(&key).expect("unwatched domain");
        slot.domain.on_restart_granted();
        slot.breaker.on_restart_issued(now_ns.saturating_add(delay_ns));
        self.restarts += 1;
    }

    /// `key` finished recovering at `now_ns`: closes the outage and feeds
    /// MTTR. Unknown or already-healthy keys are a no-op outage-wise.
    pub fn on_recovered(&mut self, key: DomainKey, now_ns: u64) {
        if let Some(slot) = self.slots.get_mut(&key) {
            let dur = slot.domain.on_recovered(now_ns);
            slot.breaker.on_recovered();
            if dur > 0 {
                self.recoveries += 1;
                self.mttr_total_ns += dur;
                self.mttr_max_ns = self.mttr_max_ns.max(dur);
            }
        }
    }

    /// Restart grants issued.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Inputs quarantined to the DLQ.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Sum of outage durations across recoveries.
    pub fn mttr_total_ns(&self) -> u64 {
        self.mttr_total_ns
    }

    /// Longest single outage.
    pub fn mttr_max_ns(&self) -> u64 {
        self.mttr_max_ns
    }

    /// Mean time to repair: total outage time over completed recoveries.
    pub fn mttr_mean_ns(&self) -> u64 {
        self.mttr_total_ns.checked_div(self.recoveries).unwrap_or(0)
    }

    /// The dead-letter queue.
    pub fn dlq(&self) -> &DeadLetterQueue {
        &self.dlq
    }

    /// Supervisor configuration.
    pub fn cfg(&self) -> &SupervisorCfg {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorCfg {
        SupervisorCfg {
            backoff: BackoffCfg {
                base_ns: 10,
                cap_ns: 80,
                threshold: 10, // keep the breaker quiet unless a test wants it
                window_ns: 1_000,
                cooldown_ns: 500,
            },
            poison_threshold: 3,
        }
    }

    #[test]
    fn single_death_restarts_with_base_backoff() {
        let mut s = Supervisor::new(cfg());
        s.watch(DomainKey::Component(0));
        let v = s.on_death(DomainKey::Component(0), 100, DeathCause::FailStop);
        assert_eq!(v, Verdict::Restart { delay_ns: 10 });
        assert_eq!(s.restarts(), 1);
        s.on_recovered(DomainKey::Component(0), 300);
        assert_eq!(s.mttr_total_ns(), 200);
        assert_eq!(s.mttr_mean_ns(), 200);
        assert_eq!(s.mttr_max_ns(), 200);
    }

    #[test]
    fn death_during_recovery_escalates_backoff() {
        let mut s = Supervisor::new(cfg());
        s.watch(DomainKey::Component(1));
        let v1 = s.on_death(DomainKey::Component(1), 0, DeathCause::FailStop);
        assert_eq!(v1.delay_ns(), 10);
        // Dies again while restarting: attempt 2, doubled backoff.
        let v2 = s.on_death(DomainKey::Component(1), 50, DeathCause::FailStop);
        assert_eq!(v2.delay_ns(), 20);
        s.on_recovered(DomainKey::Component(1), 500);
        assert_eq!(s.restarts(), 2);
        assert_eq!(s.mttr_total_ns(), 500, "one outage, first death to recovery");
        // Backoff resets after a clean recovery.
        let v3 = s.on_death(DomainKey::Component(1), 900, DeathCause::FailStop);
        assert_eq!(v3.delay_ns(), 10);
    }

    #[test]
    fn poison_quarantines_at_threshold() {
        let mut s = Supervisor::new(cfg());
        let k = DomainKey::Component(2);
        s.watch(k);
        let step = 7;
        let v1 = s.on_death(k, 0, DeathCause::PoisonPut { step });
        assert!(matches!(v1, Verdict::Restart { .. }));
        s.on_recovered(k, 10);
        let v2 = s.on_death(k, 20, DeathCause::PoisonPut { step });
        assert!(matches!(v2, Verdict::Restart { .. }), "hits survive recovery");
        s.on_recovered(k, 30);
        let v3 = s.on_death(k, 40, DeathCause::PoisonPut { step });
        let Verdict::Quarantine { step: qstep, .. } = v3 else {
            panic!("third hit must quarantine, got {v3:?}");
        };
        assert_eq!(qstep, step);
        assert_eq!(s.quarantined(), 1);
        assert_eq!(s.dlq().len(), 1);
        let letter = &s.dlq().letters()[0];
        assert_eq!(letter.domain, "comp:2");
        assert_eq!(letter.step, step);
        assert_eq!(letter.deaths, 3);
        assert_eq!(letter.reason, "poison-put");
        assert_eq!(letter.at_ns, 40);
    }

    #[test]
    fn breaker_hold_adds_to_backoff() {
        let mut s = Supervisor::new(SupervisorCfg {
            backoff: BackoffCfg {
                base_ns: 10,
                cap_ns: 80,
                threshold: 2,
                window_ns: 1_000,
                cooldown_ns: 500,
            },
            ..cfg()
        });
        let k = DomainKey::Server(0);
        s.watch(k);
        assert_eq!(s.on_death(k, 0, DeathCause::FailStop).delay_ns(), 10);
        // Second death inside the window trips the breaker: backoff(2)=20
        // plus the 500ns cooldown hold.
        assert_eq!(s.on_death(k, 5, DeathCause::FailStop).delay_ns(), 520);
    }
}
