#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # net — simulated HPC interconnect
//!
//! The paper's system runs over Cray Aries RDMA between compute nodes and
//! staging servers. This crate substitutes two interchangeable transports:
//!
//! * [`des::Network`] — a discrete-event network actor with a LogGP-style
//!   cost model ([`cost::CostModel`]): per-message latency `L`, per-byte time
//!   `G` (inverse bandwidth), and *receiver NIC serialization* — messages
//!   destined for the same endpoint queue behind each other, which is what
//!   produces the contention behaviour at staging servers that Figure 9's
//!   write-response-time curves depend on.
//! * [`threaded::ThreadedNet`] — a real message-passing mesh over
//!   `crossbeam::channel` (the workspace's offline stand-in under `vendor/`,
//!   which follows the real crate's blocking protocol: a sender wakes only a
//!   parked receiver, and a receiver yields once before it parks), used by
//!   the examples, the concurrency tests and the host-time benchmark to run
//!   the exact same protocol logic under genuine parallelism.
//!
//! Both transports carry opaque payloads; serialization is not simulated
//! (payload bytes are counted through message sizes declared by senders).
//!
//! Both transports also accept a deterministic [`faultplane::FaultPlan`]
//! that injects message drop, duplication, reordering, and bounded extra
//! delay from a seeded per-message decision stream — the adversarial surface
//! the crash-consistency tests run against.

pub mod cost;
pub mod des;
pub mod threaded;

pub use cost::CostModel;
pub use des::{Delivered, EndpointId, Msg, Network, NetworkHandle, Transmit};
pub use threaded::{NetMsg, ThreadEndpoint, ThreadedNet};
