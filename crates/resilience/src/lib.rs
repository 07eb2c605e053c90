#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # resilience — staged-data protection (the CoREC substrate)
//!
//! The paper's framework is implemented on CoREC (Duan et al., IPDPS'18), a
//! DataSpaces branch that protects the *staging area itself* against staging
//! process/node failures by replication and erasure coding. The
//! crash-consistency layer assumes staged/logged data survives staging
//! failures ("to guarantee the data availability in staging, the data staging
//! can contain data resilience mechanisms such as data replication or erasure
//! coding"), and the paper evaluates only that layer.
//!
//! The reproduction therefore models the substrate by its cost alone: a
//! failed staging server is back after a fixed failover delay plus the time
//! to pull `rs_k` surviving shards' worth of its bytes over the NIC. This
//! crate holds the one parameter of that model; the workflow runner, which
//! no configuration overrides, reads it as a constant of its own, and the
//! crate stays only because the benchmark package's lock file records the
//! `workflow → resilience` edge.

use serde::{Deserialize, Serialize};

/// Erasure-coding geometry of the staged data, as the rebuild cost model
/// reads it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProtectConfig {
    /// Reed–Solomon data shards: rebuilding one lost shard reads `rs_k`
    /// survivors, so a rebuild moves `rs_k` times the lost bytes.
    pub rs_k: usize,
}

impl Default for ProtectConfig {
    fn default() -> Self {
        // CoREC-flavoured RS(8, m) for bulk data.
        ProtectConfig { rs_k: 8 }
    }
}
