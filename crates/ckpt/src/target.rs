//! Storage-target cost models for checkpoint traffic.
//!
//! The decisive difference between the coordinated baseline and the paper's
//! uncoordinated scheme shows up here: under coordinated C/R *every*
//! component checkpoints (and after a failure, restores) through the shared
//! parallel file system at the same moment, so each gets `1/writers` of the
//! aggregate bandwidth; under uncoordinated C/R only the failed component
//! restores, at full bandwidth, while the others keep computing.

use serde::{Deserialize, Serialize};
use sim_core::time::SimTime;

/// Centralized parallel file system with shared aggregate bandwidth.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PfsModel {
    /// Aggregate bandwidth, bytes/second (e.g. Cori's Lustre ~700 GB/s for
    /// the whole machine; per-job slices are far smaller).
    pub aggregate_bw: f64,
    /// Per-operation latency (metadata + open/close), seconds.
    pub latency_s: f64,
}

impl Default for PfsModel {
    fn default() -> Self {
        // A modest per-job PFS slice: 50 GB/s aggregate, 20 ms latency.
        PfsModel { aggregate_bw: 50e9, latency_s: 0.02 }
    }
}

impl PfsModel {
    /// Time for one writer to persist `bytes` while `concurrent_writers`
    /// total writers (including this one) share the aggregate bandwidth.
    pub fn write_time(&self, bytes: u64, concurrent_writers: usize) -> SimTime {
        let w = concurrent_writers.max(1) as f64;
        SimTime::from_secs_f64(self.latency_s + bytes as f64 * w / self.aggregate_bw)
    }

    /// Time for one reader to restore `bytes` with `concurrent_readers`
    /// total readers.
    pub fn read_time(&self, bytes: u64, concurrent_readers: usize) -> SimTime {
        self.write_time(bytes, concurrent_readers)
    }
}

/// Node-local storage (NVRAM/SSD): no cross-writer contention.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NodeLocalModel {
    /// Per-node bandwidth, bytes/second.
    pub bw: f64,
    /// Per-operation latency, seconds.
    pub latency_s: f64,
}

impl Default for NodeLocalModel {
    fn default() -> Self {
        // NVMe-class: 3 GB/s, 0.5 ms.
        NodeLocalModel { bw: 3e9, latency_s: 0.0005 }
    }
}

impl NodeLocalModel {
    /// Time for one writer to persist `bytes`; other writers do not contend.
    pub fn write_time(&self, bytes: u64, _concurrent_writers: usize) -> SimTime {
        SimTime::from_secs_f64(self.latency_s + bytes as f64 / self.bw)
    }

    /// Time for one reader to restore `bytes`; other readers do not contend.
    pub fn read_time(&self, bytes: u64, concurrent_readers: usize) -> SimTime {
        self.write_time(bytes, concurrent_readers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pfs_contention_scales_linearly() {
        let pfs = PfsModel { aggregate_bw: 10e9, latency_s: 0.0 };
        let one = pfs.write_time(1 << 30, 1);
        let four = pfs.write_time(1 << 30, 4);
        let ratio = four.as_secs_f64() / one.as_secs_f64();
        assert!((ratio - 4.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn pfs_latency_floor() {
        let pfs = PfsModel { aggregate_bw: 10e9, latency_s: 0.02 };
        let t = pfs.write_time(0, 1);
        assert_eq!(t, SimTime::from_millis(20));
    }

    #[test]
    fn node_local_ignores_contention() {
        let nl = NodeLocalModel::default();
        assert_eq!(nl.write_time(1 << 20, 1), nl.write_time(1 << 20, 1000));
    }

    #[test]
    fn node_local_faster_than_pfs_under_contention() {
        let nl = NodeLocalModel::default();
        let pfs = PfsModel::default();
        let bytes = 4 << 30; // 4 GiB per writer
                             // Alone the PFS wins (50 GB/s vs 3 GB/s)...
        assert!(pfs.write_time(bytes, 1) < nl.write_time(bytes, 1));
        // ...but with 64 concurrent writers node-local wins.
        assert!(nl.write_time(bytes, 64) < pfs.write_time(bytes, 64));
    }
}
