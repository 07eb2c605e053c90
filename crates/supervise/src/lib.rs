#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # supervise — self-healing supervision for staged workflows
//!
//! The paper's recovery story has the director orchestrate each protocol by
//! hand. This crate extracts the two decisions a supervisor makes about a
//! dead workflow component — *when* to restart it and *whether* to skip the
//! input that killed it — into a deterministic policy machine. Every
//! component lives in its own **failure domain**, so one domain's
//! misbehaviour cannot wedge the rest of the workflow.
//!
//! The pieces:
//!
//! * [`backoff`] — the capped-exponential restart delay.
//! * [`domain`] — one domain's consecutive-death count (which drives the
//!   capped-exponential restart backoff) and its per-step poison hits.
//! * [`dlq`] — the dead-letter queue: a poison input that kills its consumer
//!   [`POISON_THRESHOLD`] times is *quarantined* — recorded in memory as a
//!   [`dlq::DeadLetter`] — so the workflow completes without it instead of
//!   crash-looping forever.
//! * [`supervisor`] — the policy tying it together: feed it deaths and
//!   recoveries, get back a [`supervisor::Verdict`] (restart after a
//!   delay, or quarantine the poison and then restart).
//!
//! Every setting is a constant: the backoff starts at [`BACKOFF_BASE_NS`]
//! and doubles per consecutive death up to [`BACKOFF_CAP_NS`]. Outage
//! durations, restart and quarantine counts are not kept here: the embedding
//! runtime records them in its metrics registry.
//!
//! The crate is engine-agnostic on purpose: timestamps are plain `u64`
//! nanoseconds supplied by the caller (the DES runner passes its virtual
//! clock), there is no wallclock, no ambient RNG, and iteration is ordered —
//! the whole layer is deterministic and replayable, so same-seed supervised
//! runs produce byte-identical reports.

pub mod backoff;
pub mod dlq;
pub mod domain;
pub mod supervisor;

pub use backoff::{BACKOFF_BASE_NS, BACKOFF_CAP_NS};
pub use dlq::{DeadLetter, DeadLetterQueue};
pub use domain::{DomainKey, FailureDomain};
pub use supervisor::{DeathCause, Supervisor, Verdict, POISON_THRESHOLD};
