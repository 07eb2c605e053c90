//! Per-component failure domains: the consecutive-death count and the
//! poison hits.
//!
//! A *failure domain* is the blast radius of one fault — here, one workflow
//! component. Each domain counts its own deaths independently so a
//! crash-looping consumer cannot wedge its neighbours; the
//! [`crate::Supervisor`] owns one [`FailureDomain`] per key and consults it
//! when deciding a restart verdict.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Identity of a failure domain. `Ord` so supervisor iteration is
/// deterministic (domains live in a `BTreeMap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DomainKey {
    /// A workflow component, by app id.
    Component(u32),
    /// A staging server, by server index.
    Server(u32),
}

impl DomainKey {
    /// Short label for traces and dead letters, e.g. `comp:2` / `srv:0`.
    pub fn label(&self) -> String {
        match self {
            DomainKey::Component(app) => format!("comp:{app}"),
            DomainKey::Server(idx) => format!("srv:{idx}"),
        }
    }
}

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

    /// Record a death. Returns the consecutive-death count (1-based restart
    /// attempt number for backoff).
    pub fn on_death(&mut self) -> u32 {
        self.consecutive += 1;
        self.consecutive
    }

    /// Record a poison hit against `step`; returns how many times this step
    /// has now killed the domain.
    pub fn on_poison_hit(&mut self, step: u32) -> u32 {
        let n = self.poison_hits.entry(step).or_insert(0);
        *n += 1;
        *n
    }

    /// Poison hits recorded against `step`.
    pub fn poison_hits(&self, step: u32) -> u32 {
        self.poison_hits.get(&step).copied().unwrap_or(0)
    }

    /// Recovery completed: the death streak ends.
    pub fn on_recovered(&mut self) {
        self.consecutive = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ordering_and_labels() {
        let mut m = BTreeMap::new();
        m.insert(DomainKey::Server(1), ());
        m.insert(DomainKey::Component(2), ());
        m.insert(DomainKey::Component(0), ());
        let keys: Vec<_> = m.keys().copied().collect();
        assert_eq!(
            keys,
            vec![DomainKey::Component(0), DomainKey::Component(2), DomainKey::Server(1)]
        );
        assert_eq!(DomainKey::Component(2).label(), "comp:2");
        assert_eq!(DomainKey::Server(0).label(), "srv:0");
    }

    #[test]
    fn outage_accounting_spans_consecutive_deaths() {
        let mut d = FailureDomain::default();
        assert_eq!(d.on_death(), 1);
        // Dies again during its own recovery: the same streak.
        assert_eq!(d.on_death(), 2);
        d.on_recovered();
        assert_eq!(d.consecutive(), 0);
        // A fresh outage starts a fresh streak.
        assert_eq!(d.on_death(), 1);
    }

    #[test]
    fn poison_hits_survive_recovery() {
        let mut d = FailureDomain::default();
        d.on_death();
        assert_eq!(d.on_poison_hit(5), 1);
        d.on_recovered();
        d.on_death();
        assert_eq!(d.on_poison_hit(5), 2, "not reset by recovery");
        assert_eq!(d.poison_hits(5), 2);
        assert_eq!(d.poison_hits(6), 0);
    }
}
