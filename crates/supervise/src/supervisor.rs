//! The supervision policy's vocabulary: why a component died, and how many
//! deaths make its input poison.
//!
//! The policy itself is [`crate::FailureDomain::on_death`]: a death in, the
//! restart backoff and (at [`POISON_THRESHOLD`]) the step to quarantine out.
//! The component that died enacts it; nothing here touches the clock or any
//! RNG.

use serde::{Deserialize, Serialize};

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
    /// Short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            DeathCause::FailStop => "fail-stop",
            DeathCause::PoisonPut { .. } => "poison-put",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::{BACKOFF_BASE_NS, BACKOFF_CAP_NS};
    use crate::FailureDomain;

    #[test]
    fn single_death_restarts_with_base_backoff() {
        let mut d = FailureDomain::default();
        assert_eq!(d.on_death(DeathCause::FailStop), (BACKOFF_BASE_NS, None));
    }

    #[test]
    fn death_during_recovery_escalates_backoff() {
        let mut d = FailureDomain::default();
        assert_eq!(d.on_death(DeathCause::FailStop).0, BACKOFF_BASE_NS);
        // Dies again while restarting: attempt 2, doubled backoff.
        assert_eq!(d.on_death(DeathCause::FailStop).0, 2 * BACKOFF_BASE_NS);
        // A crash loop is never held back past the cap.
        for _ in 0..8 {
            assert!(d.on_death(DeathCause::FailStop).0 <= BACKOFF_CAP_NS);
        }
        // Backoff resets after a clean recovery.
        d.on_recovered();
        assert_eq!(d.on_death(DeathCause::FailStop).0, BACKOFF_BASE_NS);
    }

    #[test]
    fn poison_quarantines_at_threshold() {
        let mut d = FailureDomain::default();
        let step = 7;
        assert_eq!(d.on_death(DeathCause::PoisonPut { step }).1, None);
        d.on_recovered();
        assert_eq!(d.on_death(DeathCause::PoisonPut { step }).1, None, "hits survive recovery");
        d.on_recovered();
        let (delay_ns, quarantine) = d.on_death(DeathCause::PoisonPut { step });
        assert_eq!(quarantine, Some(step), "the third hit quarantines");
        assert_eq!(delay_ns, BACKOFF_BASE_NS, "a quarantine still restarts after the backoff");
        assert_eq!(d.poison_hits(step), POISON_THRESHOLD);
    }
}
