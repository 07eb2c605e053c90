#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # staging — a DataSpaces-like in-memory data staging service
//!
//! [DataSpaces](https://doi.org/10.1145/1851476.1851481) (Docan, Parashar,
//! Klasky, HPDC'10) provides a shared N-dimensional tuple space for coupled
//! scientific applications: producers `put` versioned multi-dimensional
//! regions of named variables, consumers `get` arbitrary regions, and a set
//! of staging server processes cooperatively store and index the data,
//! partitioned by a space-filling curve over the global domain.
//!
//! This crate rebuilds that substrate in Rust:
//!
//! * [`geometry`] — axis-aligned bounding boxes over an up-to-3-D integer
//!   domain, with the intersection/containment algebra `put`/`get` need.
//! * [`sfc`] — Morton (Z-order) encoding, used to linearize the block grid so
//!   contiguous SFC ranges map to servers (DataSpaces' distribution scheme).
//! * [`dist`] — the domain decomposition: global domain → fixed-size blocks →
//!   server ownership via SFC range partitioning.
//! * [`router`] — shard-aware routing: the decomposition composed with an
//!   explicit versioned partition map (`shardmap`), so block ownership can
//!   be rebalanced across a fleet without touching the geometry.
//! * [`payload`] — real (`Bytes`) or *virtual* (size + digest only) payloads,
//!   so laptop-scale tests can verify content while Cori-scale simulations
//!   only account bytes.
//! * [`store`] — a versioned object store with per-variable retention,
//!   byte-accurate memory accounting (the "original data staging" baseline
//!   whose memory usage Figure 9(c)/(d) compares against), and a block-keyed
//!   spatial index over each version's pieces.
//! * [`service`] — transport-agnostic server logic shared by the DES server
//!   actor and the threaded server, pluggable via [`service::StoreBackend`]
//!   so the crash-consistency layer (`wfcr`) can substitute its logging
//!   backend without forking the server, and the [`service::JournalStats`]
//!   every backend reports through [`service::StoreBackend::journal_stats`].
//!   The plain backend keeps no journal: no restart path could read one.
//! * [`server`] — the discrete-event staging server actor (request queuing +
//!   CPU cost model) and client-side request planning.
//! * [`threaded`] — a real-thread staging server over `net::ThreadedNet`.
//! * [`wire`] — little-endian binary codec primitives for journal entries
//!   (`wfcr`'s `JournalEntry`, which has no other encoding); a body without
//!   the magic first byte is rejected.

pub mod dist;
pub mod geometry;
pub mod payload;
pub mod proto;
pub mod router;
pub mod server;
pub mod service;
pub mod sfc;
pub mod store;
pub mod threaded;
pub mod wire;

pub use dist::Distribution;
pub use geometry::BBox;
pub use payload::Payload;
pub use proto::{GetRequest, GetResponse, ObjDesc, PutRequest, PutResponse, VarId, Version};
pub use router::Router;
pub use service::{PlainBackend, ServerLogic, StoreBackend};
pub use store::VersionedStore;
