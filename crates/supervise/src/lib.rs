#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # supervise — self-healing supervision for staged workflows
//!
//! The paper's recovery story has the director orchestrate each protocol by
//! hand. This crate extracts that into a *supervision layer* in the
//! steady-state-robust idiom: every component (and staging server) lives in
//! its own **failure domain**; a [`Supervisor`] watches the domains, decides
//! how a dead one comes back, and keeps one domain's misbehaviour from
//! wedging the rest of the workflow.
//!
//! The pieces:
//!
//! * [`backoff`] — capped-exponential restart backoff plus a crash-loop
//!   **breaker**: a domain that keeps dying within a rolling window gets its
//!   restarts held back for a cool-down instead of hot-looping.
//! * [`domain`] — the per-domain restart state machine
//!   (`Healthy → Down → Restarting → Healthy`), outage/MTTR accounting, and
//!   poison-input hit tracking.
//! * [`dlq`] — the dead-letter queue: a poison input that kills its consumer
//!   `N` times is *quarantined* — recorded as a [`dlq::DeadLetter`] persisted
//!   through `logstore` — so the workflow completes without it instead of
//!   crash-looping forever.
//! * [`supervisor`] — the brain tying it together: feed it deaths and
//!   recoveries (with virtual-time timestamps), get back a
//!   [`supervisor::Verdict`] (restart after a delay, or quarantine the
//!   poison and then restart).
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

pub use backoff::{BackoffCfg, Breaker, BreakerState};
pub use dlq::{DeadLetter, DeadLetterQueue};
pub use domain::{DomainHealth, DomainKey, FailureDomain};
pub use supervisor::{DeathCause, Supervisor, SupervisorCfg, Verdict};
