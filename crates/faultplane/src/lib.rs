#![forbid(unsafe_code)]
//! Deterministic fault-injection plane for the staging workflow repro.
//!
//! The paper's crash-consistency protocols are only credible if they survive
//! the messy failure modes a real staging deployment sees: lost, duplicated,
//! reordered, and delayed messages; torn, flipped and unsynced media writes.
//! This crate provides the *plan* layer shared by both transports:
//!
//! * [`plan::FaultPlan`] — a serde-serializable description of what to
//!   inject: per-message rates, a bound on extra delay, and optional message
//!   windows during which injection is active.
//! * [`inject::FaultInjector`] — turns a plan into per-message
//!   [`inject::FaultDecision`]s. The decision for message *i* is a pure
//!   function of `(plan.seed, i)` (SplitMix64-mixed), so the schedule is
//!   byte-identical across runs regardless of thread interleaving or call
//!   order — the property the determinism tests pin down.
//! * [`retry::RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter and a deadline, used by the staging clients to survive the
//!   injected faults with bounded effort.
//!
//! The transports in `net::des` / `net::threaded` consume the decisions, and
//! `logstore`'s faulty media consumes [`media`]'s. None of this crate knows
//! about those layers — it only hands out reproducible randomness.

pub mod inject;
pub mod media;
pub mod plan;
pub mod retry;
pub mod scenario;

pub use inject::{schedule, FaultDecision, FaultInjector, FaultReport};
pub use media::{
    decide_media, media_schedule, MediaFaultDecision, MediaFaultPlan, MediaFaultRates,
};
pub use plan::{FaultPlan, FaultRates, FaultSpace, FaultWindow, PlanError};
pub use retry::RetryPolicy;
pub use scenario::{Scenario, ScenarioKind};
