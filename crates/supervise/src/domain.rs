//! Per-component failure domains: the restart state machine and
//! outage/MTTR accounting.
//!
//! A *failure domain* is the blast radius of one fault — here, one workflow
//! component or one staging server. Each domain tracks its own health
//! independently so a crash-looping consumer cannot wedge its neighbours;
//! the [`crate::Supervisor`] owns one [`FailureDomain`] per key and consults
//! it when deciding a restart verdict.

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

/// Restart state machine position of one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainHealth {
    /// Alive and making progress.
    Healthy,
    /// Dead; no restart granted yet (backoff or breaker cool-down pending).
    Down,
    /// A restart grant is out; the domain is recovering.
    Restarting,
}

/// One failure domain's health, death history, and outage bookkeeping.
#[derive(Debug, Clone)]
pub struct FailureDomain {
    key: DomainKey,
    health: DomainHealth,
    /// Deaths with no intervening recovery (drives exponential backoff).
    consecutive: u32,
    /// Lifetime deaths.
    deaths: u64,
    /// Lifetime completed recoveries.
    recovered: u64,
    /// Virtual time the *current* outage began (first death of the streak).
    outage_start_ns: Option<u64>,
    /// Per-step poison hit counts. Deliberately *not* cleared on recovery:
    /// the whole point is counting deaths caused by the same input across
    /// the crash loop.
    poison_hits: BTreeMap<u32, u32>,
    /// Sum of outage durations (death → recovery), for MTTR.
    outage_total_ns: u64,
    /// Longest single outage.
    outage_max_ns: u64,
    /// Virtual time of the last progress beacon (wedge detection).
    last_progress_ns: u64,
    /// Set when the domain has finished its work (exempt from wedge scans).
    finished: bool,
}

impl FailureDomain {
    /// A healthy domain for `key`.
    pub fn new(key: DomainKey) -> FailureDomain {
        FailureDomain {
            key,
            health: DomainHealth::Healthy,
            consecutive: 0,
            deaths: 0,
            recovered: 0,
            outage_start_ns: None,
            poison_hits: BTreeMap::new(),
            outage_total_ns: 0,
            outage_max_ns: 0,
            last_progress_ns: 0,
            finished: false,
        }
    }

    /// This domain's key.
    pub fn key(&self) -> DomainKey {
        self.key
    }

    /// Current health.
    pub fn health(&self) -> DomainHealth {
        self.health
    }

    /// Deaths with no intervening recovery.
    pub fn consecutive(&self) -> u32 {
        self.consecutive
    }

    /// Lifetime deaths.
    pub fn deaths(&self) -> u64 {
        self.deaths
    }

    /// Lifetime completed recoveries.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Record a death at `now_ns`. Returns the consecutive-death count
    /// (1-based restart attempt number for backoff).
    pub fn on_death(&mut self, now_ns: u64) -> u32 {
        self.deaths += 1;
        self.consecutive += 1;
        if self.outage_start_ns.is_none() {
            self.outage_start_ns = Some(now_ns);
        }
        self.health = DomainHealth::Down;
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

    /// A restart grant went out.
    pub fn on_restart_granted(&mut self) {
        self.health = DomainHealth::Restarting;
    }

    /// Recovery completed at `now_ns`; closes the outage and returns its
    /// duration (0 if no outage was open).
    pub fn on_recovered(&mut self, now_ns: u64) -> u64 {
        self.health = DomainHealth::Healthy;
        self.consecutive = 0;
        self.recovered += 1;
        self.last_progress_ns = now_ns;
        match self.outage_start_ns.take() {
            Some(start) => {
                let dur = now_ns.saturating_sub(start);
                self.outage_total_ns += dur;
                self.outage_max_ns = self.outage_max_ns.max(dur);
                dur
            }
            None => 0,
        }
    }

    /// Progress beacon at `now_ns` (step advanced, put absorbed, ...).
    pub fn on_progress(&mut self, now_ns: u64) {
        self.last_progress_ns = self.last_progress_ns.max(now_ns);
    }

    /// Mark the domain's work complete (exempts it from wedge scans).
    pub fn on_finished(&mut self, now_ns: u64) {
        self.finished = true;
        self.on_progress(now_ns);
    }

    /// Has the domain finished its work?
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Is the domain wedged at `now_ns`: healthy on paper, unfinished, but
    /// silent for longer than `timeout_ns`? Down/restarting domains are
    /// exempt — they are *supposed* to be silent.
    pub fn wedged(&self, now_ns: u64, timeout_ns: u64) -> bool {
        self.health == DomainHealth::Healthy
            && !self.finished
            && now_ns.saturating_sub(self.last_progress_ns) > timeout_ns
    }

    /// Sum of closed-outage durations.
    pub fn outage_total_ns(&self) -> u64 {
        self.outage_total_ns
    }

    /// Longest single closed outage.
    pub fn outage_max_ns(&self) -> u64 {
        self.outage_max_ns
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
        let mut d = FailureDomain::new(DomainKey::Component(0));
        assert_eq!(d.on_death(100), 1);
        d.on_restart_granted();
        // Dies again during its own recovery: same outage.
        assert_eq!(d.on_death(150), 2);
        d.on_restart_granted();
        let dur = d.on_recovered(400);
        assert_eq!(dur, 300, "outage measured from FIRST death");
        assert_eq!(d.outage_total_ns(), 300);
        assert_eq!(d.outage_max_ns(), 300);
        assert_eq!(d.consecutive(), 0);
        assert_eq!(d.deaths(), 2);
        assert_eq!(d.recovered(), 1);
        // A fresh outage accumulates separately.
        d.on_death(1_000);
        assert_eq!(d.on_recovered(1_100), 100);
        assert_eq!(d.outage_total_ns(), 400);
        assert_eq!(d.outage_max_ns(), 300);
    }

    #[test]
    fn poison_hits_survive_recovery() {
        let mut d = FailureDomain::new(DomainKey::Component(1));
        d.on_death(10);
        assert_eq!(d.on_poison_hit(5), 1);
        d.on_recovered(20);
        d.on_death(30);
        assert_eq!(d.on_poison_hit(5), 2, "not reset by recovery");
        assert_eq!(d.poison_hits(5), 2);
        assert_eq!(d.poison_hits(6), 0);
    }

    #[test]
    fn wedge_detection_exempts_down_and_finished() {
        let mut d = FailureDomain::new(DomainKey::Component(0));
        d.on_progress(1_000);
        assert!(!d.wedged(1_500, 1_000), "within timeout");
        assert!(d.wedged(2_500, 1_000), "silent past timeout");
        d.on_death(2_600);
        assert!(!d.wedged(9_999, 1_000), "down domains are supposed to be silent");
        d.on_recovered(3_000);
        d.on_finished(3_100);
        assert!(!d.wedged(99_999, 1_000), "finished domains exempt");
    }
}
