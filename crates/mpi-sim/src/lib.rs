#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mpi-sim — simulated MPI process-group machinery
//!
//! The paper's recovery path (Fig. 7b) is: failure detection → delete failed
//! processes and repair the communicator via **ULFM** (revoke / shrink /
//! agree) → have spare processes join the new communicator → restore from the
//! latest checkpoint → re-attach the staging client. There is no real MPI in
//! this reproduction, so this crate models that machinery at the level the
//! paper uses it:
//!
//! * [`comm`] — communicator state: rank liveness, epochs, revocation,
//!   shrink, and spare-process adoption, as an explicit (testable) state
//!   machine.
//! * [`ulfm`] — the recovery sequence with a calibrated cost model: each step
//!   (detect, revoke, shrink, respawn/adopt, agree) contributes a virtual-
//!   time cost, returned as a [`ulfm::RecoveryBreakdown`] for the workflow
//!   engine to charge against the failed component.
//! * [`collective`] — log-tree cost models for barrier / agreement /
//!   allreduce, used both by the recovery model and by the coordinated-
//!   checkpoint protocol (whose cross-component barriers are one of the
//!   costs the paper's uncoordinated scheme avoids).

pub mod collective;
pub mod comm;
pub mod ulfm;

pub use collective::CollectiveCosts;
pub use comm::{Communicator, RankState};
pub use ulfm::{RecoveryBreakdown, UlfmCosts};
