#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # wfcr — workflow-level checkpoint/restart with data logging
//!
//! This crate is the paper's contribution: a loosely-coupled crash-consistency
//! layer for staging-based in-situ workflows. Application components keep
//! using whatever fault-tolerance scheme suits them (independent C/R periods,
//! process replication, ...); the staging area logs every data-transport
//! event, and when one component rolls back, staging **replays** that
//! component's event history so it observes exactly the data the original
//! execution observed — without touching any other component.
//!
//! ## Module map (paper § → module)
//!
//! * §III-A.1 "Data Logging in Staging" → [`event`], [`queue`], [`backend`]
//! * §III-A.1 "queue based data consistency algorithm" → [`replay`]
//! * §III-A.2 "Storage Cost and Garbage Collection" → [`gc`] (driven from
//!   [`backend`])
//! * §III-B "Hybrid Checkpointing" → [`protocol`]
//! * §III-C "Global User Interface" (Table 1) → [`iface`]
//!
//! ## The consistency argument
//!
//! Both failure anomalies of Figure 2 are closed by the same queue mechanism:
//!
//! * **Case 1 (consumer fails):** the rolled-back analytics re-issues `get`s
//!   for steps it already processed. The producer has moved on, so the
//!   *current* version in staging is newer — but the logged `Get` events
//!   record which version each original read served, and the data log still
//!   holds those versions (GC only deletes what no possible rollback can
//!   need), so the replay serves the historical versions.
//! * **Case 2 (producer fails):** the rolled-back simulation re-executes and
//!   re-issues `put`s for steps already staged. The logged `Put` events let
//!   staging recognize them as redundant and absorb them (after verifying
//!   the payload digest matches, which deterministic re-execution from the
//!   checkpointed RNG state guarantees), so consumers never see a version
//!   regress or duplicate.

pub mod backend;
pub mod conservation;
pub mod event;
pub mod gc;
pub mod iface;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod replay;

pub use backend::LoggingBackend;
pub use conservation::{logged_put_keys, PieceKey};
pub use event::LogEvent;
pub use iface::WorkflowClient;
pub use journal::JournalEntry;
pub use protocol::{FtScheme, WorkflowProtocol};
pub use queue::EventQueue;
