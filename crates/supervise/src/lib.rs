#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # supervise — self-healing supervision for staged workflows
//!
//! The paper's failed component recovers itself: its `workflow_restart()`
//! runs repair, restore, re-attach and replay, and nothing outside it
//! decides when. This crate holds the two decisions supervision adds to
//! that path — *when* to restart (a capped-exponential backoff) and
//! *whether* to skip the input that killed it (quarantine of a poisoned
//! step) — as a deterministic policy the dying component asks and then
//! enacts. Every component is its own **failure domain**, so one domain's
//! misbehaviour cannot wedge the rest of the workflow.
//!
//! The pieces:
//!
//! * [`backoff`] — the capped-exponential restart delay.
//! * [`domain`] — [`FailureDomain`]: one component's consecutive-death
//!   count and per-step poison hits; its
//!   [`on_death`](FailureDomain::on_death) returns the backoff and, when a
//!   poisoned input has killed its consumer [`POISON_THRESHOLD`] times, the
//!   step to quarantine, so the workflow completes without that input
//!   instead of crash-looping forever.
//! * [`supervisor`] — [`DeathCause`] and [`POISON_THRESHOLD`].
//!
//! Every setting is a constant: the backoff starts at [`BACKOFF_BASE_NS`]
//! and doubles per consecutive death up to [`BACKOFF_CAP_NS`]. Outage
//! durations, restart and quarantine counts are not kept here: the embedding
//! runtime records them in its metrics registry.
//!
//! The crate is engine-agnostic on purpose: delays are plain `u64`
//! nanoseconds of the caller's clock (the DES runner's virtual one), there
//! is no wallclock, no ambient RNG, and iteration is ordered — the whole
//! layer is deterministic and replayable, so same-seed supervised runs
//! produce byte-identical reports.

pub mod backoff;
pub mod domain;
pub mod supervisor;

pub use backoff::{BACKOFF_BASE_NS, BACKOFF_CAP_NS};
pub use domain::FailureDomain;
pub use supervisor::{DeathCause, POISON_THRESHOLD};
