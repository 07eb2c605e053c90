#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ckpt — checkpoint/restart substrate
//!
//! Models the paper's checkpoint storage options: "checkpoints can be stored
//! through a centralized parallel file system, assumed to be fault-free.
//! Other options include storing the checkpoints in the node-local storage
//! (such as NVRAM and SSD) or burst-buffer".
//!
//! * [`snapshot`] — what a synthetic component's checkpoint *is*: logical
//!   progress (step counter, RNG state, pending coupling position) plus the
//!   size of the process state it stands for.
//! * [`target`] — storage-target cost models: a shared-bandwidth PFS (the
//!   coordinated baseline's bottleneck — all components restore through it
//!   simultaneously) and unshared node-local storage.
//! * [`store`] — the checkpoint directory: save/restore with retention.
//! * [`durable`] — the PFS tier made concrete: snapshots journaled through a
//!   `logstore::LogStore` (real files via `FsMedia`), recovered after full
//!   process death without re-sealing.

pub mod durable;
pub mod snapshot;
pub mod store;
pub mod target;

/// Shared integrity primitives (re-exported from `logstore` so existing
/// `ckpt`-only users keep one import path).
pub use logstore::checksum;

pub use durable::DurableTier;
pub use snapshot::Snapshot;
pub use store::CheckpointStore;
pub use target::{NodeLocalModel, PfsModel};
