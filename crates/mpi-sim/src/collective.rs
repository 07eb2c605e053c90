//! Cost models for MPI collectives (log-tree algorithms).
//!
//! Coordinated checkpointing pays cross-component barriers before and after
//! every snapshot ("a couple of synchronizing MPI barriers can be used,
//! before and after taking the process checkpoints"); the recovery path pays
//! agreement and allreduce costs. These grow with process count — one of the
//! reasons the coordinated baseline falls behind at 11k cores in Figure 10.

use serde::{Deserialize, Serialize};
use sim_core::time::SimTime;

/// Parameters of the collective cost model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CollectiveCosts {
    /// Per-hop latency (one tree level), ns.
    pub hop_ns: u64,
    /// Per-byte cost on each hop, ns/B (for payload-carrying collectives).
    pub ns_per_byte: f64,
    /// Fixed software overhead per collective call, ns.
    pub call_overhead_ns: u64,
}

impl Default for CollectiveCosts {
    fn default() -> Self {
        // MPI-over-Aries flavoured: ~1.5 µs hops, ~10 GB/s per-hop payload.
        CollectiveCosts { hop_ns: 1_500, ns_per_byte: 0.1, call_overhead_ns: 2_000 }
    }
}

impl CollectiveCosts {
    /// Tree depth for `n` processes.
    fn depth(n: usize) -> u64 {
        if n <= 1 {
            0
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as u64
        }
    }

    /// Barrier over `n` processes: gather + release, two log-depth sweeps.
    pub fn barrier(&self, n: usize) -> SimTime {
        let hops = 2 * Self::depth(n);
        SimTime::from_nanos(self.call_overhead_ns + hops * self.hop_ns)
    }

    /// Allreduce of `bytes` over `n` processes (reduce + broadcast).
    pub fn allreduce(&self, n: usize, bytes: u64) -> SimTime {
        let d = Self::depth(n);
        let per_hop = self.hop_ns as f64 + bytes as f64 * self.ns_per_byte;
        SimTime::from_nanos(self.call_overhead_ns)
            + SimTime::from_secs_f64(2.0 * d as f64 * per_hop / 1e9)
    }

    /// ULFM agreement over `n` processes — empirically ~3× an allreduce of a
    /// word (multiple consensus rounds).
    pub fn agree(&self, n: usize) -> SimTime {
        let one = self.allreduce(n, 8);
        SimTime::from_nanos(one.as_nanos() * 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_values() {
        assert_eq!(CollectiveCosts::depth(1), 0);
        assert_eq!(CollectiveCosts::depth(2), 1);
        assert_eq!(CollectiveCosts::depth(3), 2);
        assert_eq!(CollectiveCosts::depth(4), 2);
        assert_eq!(CollectiveCosts::depth(1024), 10);
        assert_eq!(CollectiveCosts::depth(8192), 13);
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let c = CollectiveCosts::default();
        let b256 = c.barrier(256);
        let b8192 = c.barrier(8192);
        assert!(b8192 > b256);
        // log2(8192)/log2(256) = 13/8; ratio of hop parts must match.
        let hop_part = |n: usize| c.barrier(n).as_nanos() - c.call_overhead_ns;
        assert_eq!(hop_part(8192) * 8, hop_part(256) * 13);
    }

    #[test]
    fn single_process_collectives_nearly_free() {
        let c = CollectiveCosts::default();
        assert_eq!(c.barrier(1), SimTime::from_nanos(c.call_overhead_ns));
        assert_eq!(c.allreduce(1, 1 << 20), SimTime::from_nanos(c.call_overhead_ns));
    }

    #[test]
    fn allreduce_is_two_sweeps() {
        let c = CollectiveCosts::default();
        // One log-depth sweep carrying the payload.
        let per_hop = c.hop_ns as f64 + 1024.0 * c.ns_per_byte;
        let b =
            SimTime::from_secs_f64(CollectiveCosts::depth(256) as f64 * per_hop / 1e9).as_nanos();
        let a = c.allreduce(256, 1024).as_nanos() - c.call_overhead_ns;
        assert_eq!(a, 2 * b);
    }

    #[test]
    fn agree_more_expensive_than_allreduce() {
        let c = CollectiveCosts::default();
        assert!(c.agree(512) > c.allreduce(512, 8));
    }
}
