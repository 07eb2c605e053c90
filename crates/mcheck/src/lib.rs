#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mcheck — systematic schedule exploration for the deterministic engine
//!
//! The DES runs one schedule per seed. The paper's correctness claims
//! (replay-version fidelity, redundant-put absorption, GC safety,
//! checkpoint-marker monotonicity) should hold on *every* schedule, and
//! rollback-recovery bugs notoriously hide in rare delivery/crash
//! interleavings. This crate turns the engine into a stateless model checker
//! in the CHESS tradition:
//!
//! * every nondeterminism point is routed through
//!   [`sim_core::choice::ChoiceSource`];
//! * a run is identified by the vector of picks at its choice points — the
//!   engine replays a recorded prefix, then takes canonical defaults;
//! * [`explore::Explorer`] drives a DFS over prefixes, branching at the
//!   first `max_branch_points` choice points (bounded-depth exhaustiveness),
//!   with target-partitioned partial-order reduction and optional FNV
//!   state-hash pruning;
//! * [`oracle::Oracle`]s are checked after every transition; on violation the
//!   offending schedule is [`minimize::ddmin`]-minimized and serialized as a
//!   replayable [`schedule::Schedule`] (`.schedule` file).
//!
//! The crate knows nothing about the workflow layer: models implement
//! [`explore::Model`] and supply their own oracles, so `workflow` depends on
//! `mcheck` and not the other way round.

pub mod cursor;
pub mod explore;
pub mod minimize;
pub mod oracle;
pub mod schedule;

pub use cursor::{CursorSource, RecordedChoice, Recorder, SharedRecorder};
pub use explore::{ExploreConfig, ExploreOutcome, Explorer, Model, Violation};
pub use minimize::ddmin;
pub use oracle::{disjoint_owners, CounterZero, FnOracle, Oracle};
pub use schedule::{Choice, Schedule};
