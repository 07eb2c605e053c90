//! Fault plans: the serializable description of what to inject.

use serde::{Deserialize, Serialize};

/// Per-message fault probabilities plus the delay bound.
///
/// Rates are independent Bernoulli draws evaluated in a fixed priority order
/// (drop ≻ duplicate ≻ reorder ≻ delay); at most one fault applies to a
/// message. All rates must lie in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is reordered past later traffic.
    pub reorder: f64,
    /// Probability a message is delayed (without reordering intent; in the
    /// DES transport delay and reorder both materialise as extra latency).
    pub delay: f64,
    /// Upper bound on injected extra latency, nanoseconds.
    pub max_extra_delay_ns: u64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            max_extra_delay_ns: 1_000_000,
        }
    }
}

/// An inclusive `[from_msg, to_msg]` range of message indices during which
/// injection is active. An empty window (`from_msg > to_msg`) is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First message index (0-based) the window covers.
    pub from_msg: u64,
    /// Last message index the window covers, inclusive.
    pub to_msg: u64,
}

impl FaultWindow {
    /// Does the window cover message index `i`?
    pub fn contains(&self, i: u64) -> bool {
        self.from_msg <= i && i <= self.to_msg
    }
}

/// A complete, reproducible fault-injection plan: `{seed, rates, windows}`.
///
/// With `windows` empty the rates apply to every message; otherwise only to
/// messages whose index falls inside at least one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-message decision stream.
    pub seed: u64,
    /// Fault probabilities.
    pub rates: FaultRates,
    /// Active message-index windows; empty means "always active".
    #[serde(default)]
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a config default).
    pub fn quiescent(seed: u64) -> Self {
        FaultPlan { seed, rates: FaultRates::default(), windows: Vec::new() }
    }

    /// Is message index `i` inside an active window?
    pub fn active(&self, i: u64) -> bool {
        self.windows.is_empty() || self.windows.iter().any(|w| w.contains(i))
    }

    /// Validate the plan: every rate must be a real number in `[0, 1]` and
    /// every window non-empty.
    pub fn validate(&self) -> Result<(), PlanError> {
        let rates = [
            ("drop", self.rates.drop),
            ("duplicate", self.rates.duplicate),
            ("reorder", self.rates.reorder),
            ("delay", self.rates.delay),
        ];
        for (name, r) in rates {
            if !(0.0..=1.0).contains(&r) || r.is_nan() {
                return Err(PlanError::RateOutOfRange { name, value: r });
            }
        }
        for (idx, w) in self.windows.iter().enumerate() {
            if w.from_msg > w.to_msg {
                return Err(PlanError::EmptyWindow { idx });
            }
        }
        Ok(())
    }
}

/// An *enumerable* fault budget, for model checking.
///
/// Where [`FaultPlan`] resolves each message by a seeded coin flip, a
/// `FaultSpace` turns every message into an explicit choice point — deliver,
/// drop (while the drop budget lasts), or duplicate (while the dup budget
/// lasts) — that a controlled scheduler enumerates. Budgets keep the search
/// space finite: `k` drops over an `n`-message run is `C(n, k)`-ish, not
/// `2^n`. Delay/reorder need no entry here — delivery-order choice points
/// already enumerate every same-time ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSpace {
    /// Maximum messages the checker may drop along one schedule.
    pub max_drops: u32,
    /// Maximum messages the checker may duplicate along one schedule.
    pub max_dups: u32,
}

impl FaultSpace {
    /// A space allowing up to `drops` drops and `dups` duplications.
    pub fn new(drops: u32, dups: u32) -> FaultSpace {
        FaultSpace { max_drops: drops, max_dups: dups }
    }

    /// True when no fault can ever be chosen (the space is pointless).
    pub fn is_empty(&self) -> bool {
        self.max_drops == 0 && self.max_dups == 0
    }
}

/// Why a [`FaultPlan`] failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A rate was negative, above one, or NaN.
    RateOutOfRange {
        /// Which rate field.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A window had `from_msg > to_msg`.
    EmptyWindow {
        /// Index of the offending window in `windows`.
        idx: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::RateOutOfRange { name, value } => {
                write!(f, "fault rate `{name}` = {value} outside [0, 1]")
            }
            PlanError::EmptyWindow { idx } => {
                write!(f, "fault window #{idx} is empty (from_msg > to_msg)")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> FaultPlan {
        FaultPlan {
            seed: 42,
            rates: FaultRates {
                drop: 0.1,
                duplicate: 0.05,
                reorder: 0.02,
                delay: 0.2,
                max_extra_delay_ns: 500_000,
            },
            windows: vec![FaultWindow { from_msg: 10, to_msg: 99 }],
        }
    }

    #[test]
    fn serde_round_trip_preserves_plan() {
        let plan = lossy();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn validate_accepts_sane_plans() {
        assert!(lossy().validate().is_ok());
        assert!(FaultPlan::quiescent(0).validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_rates() {
        let mut p = lossy();
        p.rates.drop = -0.1;
        assert!(matches!(p.validate(), Err(PlanError::RateOutOfRange { name: "drop", .. })));
        p.rates.drop = 1.5;
        assert!(p.validate().is_err());
        p.rates.drop = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_windows() {
        let mut p = lossy();
        p.windows.push(FaultWindow { from_msg: 5, to_msg: 4 });
        assert_eq!(p.validate(), Err(PlanError::EmptyWindow { idx: 1 }));
    }

    #[test]
    fn windows_gate_activity() {
        let p = lossy();
        assert!(!p.active(9));
        assert!(p.active(10));
        assert!(p.active(99));
        assert!(!p.active(100));
        assert!(FaultPlan::quiescent(1).active(12345), "no windows = always active");
    }
}
