//! Turning a [`FaultPlan`] into per-message decisions.

use crate::plan::FaultPlan;
use serde::{Deserialize, Serialize};
use sim_core::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// What to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver twice; the second copy lands `extra_delay_ns` later.
    Duplicate {
        /// Extra latency of the duplicate copy, nanoseconds.
        extra_delay_ns: u64,
    },
    /// Hold the message back so later traffic overtakes it. In the DES
    /// transport this materialises as `extra_delay_ns` of added latency; the
    /// threaded transport uses a real hold-back slot.
    Reorder {
        /// Extra latency while held back, nanoseconds.
        extra_delay_ns: u64,
    },
    /// Deliver with `extra_delay_ns` of added latency.
    Delay {
        /// Extra latency, nanoseconds.
        extra_delay_ns: u64,
    },
}

/// The decision for message index `i` under `plan` — a pure function, so the
/// fault schedule is reproducible from `{seed, rates, windows}` alone.
pub fn decide(plan: &FaultPlan, i: u64) -> FaultDecision {
    if !plan.active(i) {
        return FaultDecision::Deliver;
    }
    // One private SplitMix64 stream per message index: mixing the index
    // through an odd multiplier decorrelates neighbouring streams.
    let mut rng = SplitMix64::new(plan.seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407));
    let unit = |x: u64| (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let r = plan.rates;
    let roll = unit(rng.next_u64());
    let extra = |rng: &mut SplitMix64| {
        if r.max_extra_delay_ns == 0 {
            0
        } else {
            rng.next_u64() % r.max_extra_delay_ns
        }
    };
    if roll < r.drop {
        FaultDecision::Drop
    } else if roll < r.drop + r.duplicate {
        FaultDecision::Duplicate { extra_delay_ns: extra(&mut rng) }
    } else if roll < r.drop + r.duplicate + r.reorder {
        // Bias reorder delays toward the top of the range so overtaking
        // actually happens in the DES transport.
        let e = extra(&mut rng);
        FaultDecision::Reorder { extra_delay_ns: r.max_extra_delay_ns / 2 + e / 2 }
    } else if roll < r.drop + r.duplicate + r.reorder + r.delay {
        FaultDecision::Delay { extra_delay_ns: extra(&mut rng) }
    } else {
        FaultDecision::Deliver
    }
}

/// The full fault schedule for the first `n` messages — used by the
/// determinism tests to assert byte-identical schedules across runs.
pub fn schedule(plan: &FaultPlan, n: u64) -> Vec<FaultDecision> {
    (0..n).map(|i| decide(plan, i)).collect()
}

/// Counters describing what an injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Messages for which a decision was taken.
    pub decided: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages reordered.
    pub reordered: u64,
    /// Messages delayed.
    pub delayed: u64,
}

/// Stateful wrapper: assigns each message the next index in the decision
/// stream and keeps tally counters. Thread-safe (the threaded mesh shares one
/// injector across all endpoints).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    next: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    delayed: AtomicU64,
}

impl FaultInjector {
    /// Wrap a plan. The plan should already be validated.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decision for the next message.
    pub fn next_decision(&self) -> FaultDecision {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let d = decide(&self.plan, i);
        match d {
            FaultDecision::Deliver => {}
            FaultDecision::Drop => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            FaultDecision::Duplicate { .. } => {
                self.duplicated.fetch_add(1, Ordering::Relaxed);
            }
            FaultDecision::Reorder { .. } => {
                self.reordered.fetch_add(1, Ordering::Relaxed);
            }
            FaultDecision::Delay { .. } => {
                self.delayed.fetch_add(1, Ordering::Relaxed);
            }
        }
        d
    }

    /// Snapshot of the tally counters.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            decided: self.next.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultRates, FaultWindow};
    use proptest::prelude::*;

    fn lossy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: FaultRates {
                drop: 0.15,
                duplicate: 0.1,
                reorder: 0.1,
                delay: 0.2,
                max_extra_delay_ns: 1_000,
            },
            windows: Vec::new(),
        }
    }

    #[test]
    fn decision_is_pure_in_index() {
        let plan = lossy(7);
        for i in 0..1_000 {
            assert_eq!(decide(&plan, i), decide(&plan, i));
        }
    }

    #[test]
    fn injector_matches_pure_schedule() {
        let plan = lossy(9);
        let inj = FaultInjector::new(plan.clone());
        let live: Vec<_> = (0..500).map(|_| inj.next_decision()).collect();
        assert_eq!(live, schedule(&plan, 500));
        let rep = inj.report();
        assert_eq!(rep.decided, 500);
        assert_eq!(
            rep.dropped + rep.duplicated + rep.reordered + rep.delayed,
            live.iter().filter(|d| !matches!(d, FaultDecision::Deliver)).count() as u64
        );
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = lossy(21);
        let sched = schedule(&plan, 20_000);
        let drops = sched.iter().filter(|d| matches!(d, FaultDecision::Drop)).count() as f64;
        let frac = drops / 20_000.0;
        assert!((0.10..0.20).contains(&frac), "drop fraction {frac} far from 0.15");
    }

    #[test]
    fn windows_suppress_faults_outside() {
        let mut plan = lossy(3);
        plan.windows = vec![FaultWindow { from_msg: 100, to_msg: 199 }];
        let sched = schedule(&plan, 300);
        assert!(sched[..100].iter().all(|d| *d == FaultDecision::Deliver));
        assert!(sched[200..].iter().all(|d| *d == FaultDecision::Deliver));
        assert!(sched[100..200].iter().any(|d| *d != FaultDecision::Deliver));
    }

    #[test]
    fn quiescent_plan_never_faults() {
        let sched = schedule(&FaultPlan::quiescent(5), 1_000);
        assert!(sched.iter().all(|d| *d == FaultDecision::Deliver));
    }

    proptest! {
        /// Same `{seed, rates, windows}` twice ⇒ byte-identical schedule.
        #[test]
        fn schedule_is_deterministic(seed: u64) {
            let plan = lossy(seed);
            prop_assert_eq!(schedule(&plan, 256), schedule(&plan, 256));
            let inj_a = FaultInjector::new(plan.clone());
            let inj_b = FaultInjector::new(plan);
            let a: Vec<_> = (0..256).map(|_| inj_a.next_decision()).collect();
            let b: Vec<_> = (0..256).map(|_| inj_b.next_decision()).collect();
            prop_assert_eq!(a, b);
            prop_assert_eq!(inj_a.report(), inj_b.report());
        }
    }
}
