//! LogGP-style interconnect cost model.
//!
//! The classic LogGP parameters are latency `L`, overhead `o`, gap `g`, and
//! per-byte gap `G`. For the granularity this reproduction needs we fold the
//! sender/receiver overheads into `L` and model:
//!
//! ```text
//! arrival(msg) = max(send_time + L, nic_free(dst)) + size * G
//! nic_free(dst) <- arrival(msg)
//! ```
//!
//! i.e. the destination NIC drains one message at a time at bandwidth `1/G`.
//! This reproduces the first-order contention effect at staging servers when
//! thousands of simulation ranks write concurrently — the effect behind the
//! cumulative write-response-time curves in Figure 9(a)/(b).

use serde::{Deserialize, Serialize};
use sim_core::time::SimTime;

/// Interconnect parameters. All fields are plain data so experiment configs
/// can be serialized alongside results.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModel {
    /// One-way message latency (time of flight + software overheads), ns.
    pub latency_ns: u64,
    /// Per-byte time at the bottleneck NIC, in nanoseconds per byte.
    /// `1.0` ≙ 1 GB/s; `0.125` ≙ 8 GB/s (Aries-class per-node injection).
    pub ns_per_byte: f64,
    /// Fixed per-message processing cost at the receiver (request parsing,
    /// index lookup), ns.
    pub rx_overhead_ns: u64,
}

impl CostModel {
    /// An Aries/Cori-flavoured default: 1.5 µs latency, 8 GB/s per endpoint,
    /// 500 ns receive processing.
    pub fn cori_like() -> Self {
        CostModel { latency_ns: 1_500, ns_per_byte: 0.125, rx_overhead_ns: 500 }
    }

    /// A deliberately slow network for tests that need visible queuing.
    pub fn slow_test() -> Self {
        CostModel { latency_ns: 1_000, ns_per_byte: 1.0, rx_overhead_ns: 100 }
    }

    /// Time of flight for a message (latency only, no serialization).
    pub fn flight(&self) -> SimTime {
        SimTime::from_nanos(self.latency_ns)
    }

    /// Serialization time for `size` bytes at the bottleneck NIC.
    pub fn serialization(&self, size: u64) -> SimTime {
        SimTime::from_secs_f64(size as f64 * self.ns_per_byte / 1e9).max(SimTime::ZERO)
    }

    /// Receiver-side fixed processing time.
    pub fn rx_overhead(&self) -> SimTime {
        SimTime::from_nanos(self.rx_overhead_ns)
    }

    /// Compute the arrival time of a message sent at `sent`, given the
    /// destination NIC is busy until `nic_free`. Returns `(arrival,
    /// new_nic_free)`.
    pub fn arrival(&self, sent: SimTime, nic_free: SimTime, size: u64) -> (SimTime, SimTime) {
        let start = (sent + self.flight()).max(nic_free);
        let done = start + self.serialization(size) + self.rx_overhead();
        (done, done)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::cori_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_linearly() {
        let m = CostModel { latency_ns: 0, ns_per_byte: 1.0, rx_overhead_ns: 0 };
        assert_eq!(m.serialization(1_000), SimTime::from_micros(1));
        assert_eq!(m.serialization(0), SimTime::ZERO);
    }

    #[test]
    fn queuing_delays_behind_busy_nic() {
        let m = CostModel { latency_ns: 100, ns_per_byte: 1.0, rx_overhead_ns: 0 };
        // First message: arrives at 100, drains 1000 bytes -> done at 1100.
        let (a1, free1) = m.arrival(SimTime::ZERO, SimTime::ZERO, 1_000);
        assert_eq!(a1, SimTime::from_nanos(1_100));
        // Second message sent at t=0 as well: waits for the NIC.
        let (a2, _) = m.arrival(SimTime::ZERO, free1, 1_000);
        assert_eq!(a2, SimTime::from_nanos(2_100));
    }

    #[test]
    fn idle_nic_no_extra_delay() {
        let m = CostModel { latency_ns: 100, ns_per_byte: 1.0, rx_overhead_ns: 0 };
        let (a, _) = m.arrival(SimTime::from_nanos(10_000), SimTime::from_nanos(5), 10);
        assert_eq!(a, SimTime::from_nanos(10_000 + 100 + 10));
    }

    #[test]
    fn cori_like_order_of_magnitude() {
        let m = CostModel::cori_like();
        // 1 MiB at 8 GB/s ≈ 131 µs + 2 µs overheads.
        let t = m.flight() + m.serialization(1 << 20) + m.rx_overhead();
        let us = t.as_secs_f64() * 1e6;
        assert!((100.0..200.0).contains(&us), "got {us} µs");
    }
}
