#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # workflow — the synthetic in-situ workflow engine
//!
//! Reproduces the paper's evaluation vehicle: a coupled workflow where a
//! simulation component writes versioned regions of a 3-D domain into data
//! staging each time step and an analytics component reads them right after
//! ("write immediately followed by read" — Table II's data access pattern),
//! under one of five fault-tolerance protocols (Ds/Co/Un/Hy/In), with
//! MTBF-driven fail-stop failures.
//!
//! Everything runs on the `sim-core` discrete-event engine:
//!
//! * [`component::ComponentActor`] — one per application component; drives
//!   the compute → write/read → (maybe) checkpoint cycle and the full
//!   recovery path (ULFM repair → restore → `workflow_restart` notification
//!   → re-execution with replay).
//! * [`director::Director`] — workflow-level orchestration: coordinated-
//!   checkpoint rendezvous (with its barrier and PFS-contention costs),
//!   global rollback broadcast for the Co baseline, completion tracking.
//! * [`backend::AnyBackend`] — runtime choice between the plain staging
//!   backend (Ds/Co/In) and the crash-consistency logging backend (Un/Hy).
//! * [`runner`] — builds the engine from a [`config::WorkflowConfig`], runs
//!   it, and distills a [`report::RunReport`] with exactly the quantities
//!   the paper's figures plot.
//! * [`config`] — experiment configurations, including Table II
//!   ([`config::table2`]) and Table III ([`config::table3`]).

pub mod backend;
pub mod coldstart;
pub mod component;
pub mod config;
pub mod director;
pub mod mcheck_mode;
pub mod report;
pub mod runner;
pub mod telemetry_actor;

pub use config::{ComponentConfig, DurabilityCfg, FailureSpec, Role, TelemetryCfg, WorkflowConfig};
pub use mcheck_mode::{CrashChoice, McheckOptions, WorkflowModel};
pub use report::RunReport;
pub use runner::{build, harvest, run, BuiltWorkflow};
