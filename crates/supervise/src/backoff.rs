//! Capped-exponential restart backoff and the crash-loop breaker.
//!
//! Backoff answers "how long before the next restart attempt"; the breaker
//! answers "should we keep hot-restarting at all". A domain that dies once
//! restarts after the base delay. Consecutive deaths (no recovery between
//! them) double the delay up to a cap. Deaths arriving faster than the
//! breaker's rolling window tolerates trip the breaker: restarts are then
//! held back for a cool-down period (the breaker is *open*), after which one
//! probe restart is allowed (*half-open*); a clean recovery closes it again.

use serde::{Deserialize, Serialize};

/// Backoff and breaker parameters. All times are nanoseconds of the caller's
/// clock (virtual time under the DES).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackoffCfg {
    /// Delay before the first restart of an outage.
    pub base_ns: u64,
    /// Ceiling on the per-restart delay.
    pub cap_ns: u64,
    /// Deaths within [`BackoffCfg::window_ns`] that trip the breaker.
    pub threshold: u32,
    /// Rolling window the threshold counts within.
    pub window_ns: u64,
    /// How long a tripped breaker holds restarts back.
    pub cooldown_ns: u64,
}

impl BackoffCfg {
    /// The capped-exponential delay for restart attempt `n` (1-based).
    pub fn delay_ns(&self, attempt: u32) -> u64 {
        if attempt <= 1 {
            return self.base_ns.min(self.cap_ns);
        }
        let shift = (attempt - 1).min(32);
        self.base_ns.saturating_shl(shift).min(self.cap_ns)
    }
}

/// Saturating left shift (u64 lacks one in stable std).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: restarts flow with exponential backoff.
    Closed,
    /// Tripped: restarts held until the cool-down expires (timestamp ns).
    Open {
        /// When the cool-down ends and a probe restart may go out.
        until_ns: u64,
    },
    /// One probe restart is in flight; a recovery closes the breaker, a
    /// death re-opens it.
    HalfOpen,
}

/// Crash-loop breaker over a rolling death window.
#[derive(Debug, Clone)]
pub struct Breaker {
    cfg: BackoffCfg,
    state: BreakerState,
    /// Recent death timestamps (ns), pruned to the rolling window.
    deaths: Vec<u64>,
    /// Times the breaker tripped (diagnostics).
    trips: u64,
}

impl Breaker {
    /// A closed breaker with `cfg`'s window and threshold.
    pub fn new(cfg: BackoffCfg) -> Breaker {
        Breaker { cfg, state: BreakerState::Closed, deaths: Vec::new(), trips: 0 }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Record a death at `now_ns`; returns the restart delay the breaker
    /// imposes *on top of* exponential backoff (0 when closed).
    pub fn on_death(&mut self, now_ns: u64) -> u64 {
        self.deaths.push(now_ns);
        let floor = now_ns.saturating_sub(self.cfg.window_ns);
        self.deaths.retain(|&t| t >= floor);
        match self.state {
            BreakerState::HalfOpen => {
                // The probe died: straight back to open.
                self.trips += 1;
                let until = now_ns + self.cfg.cooldown_ns;
                self.state = BreakerState::Open { until_ns: until };
                self.cfg.cooldown_ns
            }
            BreakerState::Open { until_ns } => until_ns.saturating_sub(now_ns),
            BreakerState::Closed => {
                if self.deaths.len() as u32 >= self.cfg.threshold {
                    self.trips += 1;
                    let until = now_ns + self.cfg.cooldown_ns;
                    self.state = BreakerState::Open { until_ns: until };
                    self.cfg.cooldown_ns
                } else {
                    0
                }
            }
        }
    }

    /// The restart scheduled after an open cool-down is the probe: move to
    /// half-open. No-op when closed.
    pub fn on_restart_issued(&mut self, now_ns: u64) {
        if let BreakerState::Open { until_ns } = self.state {
            if now_ns >= until_ns {
                self.state = BreakerState::HalfOpen;
            }
        }
    }

    /// A recovery closes the breaker and clears the rolling window.
    pub fn on_recovered(&mut self) {
        self.state = BreakerState::Closed;
        self.deaths.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BackoffCfg {
        BackoffCfg { base_ns: 10, cap_ns: 80, threshold: 3, window_ns: 1_000, cooldown_ns: 500 }
    }

    #[test]
    fn backoff_caps() {
        let c = cfg();
        assert_eq!(c.delay_ns(1), 10);
        assert_eq!(c.delay_ns(2), 20);
        assert_eq!(c.delay_ns(3), 40);
        assert_eq!(c.delay_ns(4), 80);
        assert_eq!(c.delay_ns(5), 80, "capped");
        assert_eq!(c.delay_ns(64), 80, "shift saturates");
    }

    #[test]
    fn breaker_trips_on_threshold_within_window() {
        let mut b = Breaker::new(cfg());
        assert_eq!(b.on_death(0), 0);
        assert_eq!(b.on_death(100), 0);
        let extra = b.on_death(200); // third death inside the window
        assert_eq!(extra, 500, "cooldown imposed");
        assert!(matches!(b.state(), BreakerState::Open { until_ns: 700 }));
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn slow_deaths_never_trip() {
        let mut b = Breaker::new(cfg());
        assert_eq!(b.on_death(0), 0);
        assert_eq!(b.on_death(2_000), 0);
        assert_eq!(b.on_death(4_000), 0, "window pruned; never 3 at once");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_cycle() {
        let mut b = Breaker::new(cfg());
        b.on_death(0);
        b.on_death(10);
        b.on_death(20); // trips; open until 520
        b.on_restart_issued(520);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe dies: re-open with a fresh cooldown.
        assert_eq!(b.on_death(530), 500);
        assert!(matches!(b.state(), BreakerState::Open { until_ns: 1030 }));
        b.on_restart_issued(1030);
        b.on_recovered();
        assert_eq!(b.state(), BreakerState::Closed);
        // Window cleared: the next death starts a fresh count.
        assert_eq!(b.on_death(1040), 0);
    }

    #[test]
    fn restart_before_cooldown_stays_open() {
        let mut b = Breaker::new(cfg());
        b.on_death(0);
        b.on_death(1);
        b.on_death(2); // open until 502
        b.on_restart_issued(100); // too early: not the probe
        assert!(matches!(b.state(), BreakerState::Open { .. }));
    }
}
