#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sim-core — deterministic discrete-event simulation substrate
//!
//! This crate is the execution substrate used to model an HPC machine (compute
//! ranks, staging servers, interconnect, parallel file system) on a laptop.
//! Everything in the reproduction that involves *time* — message latency,
//! bandwidth queuing, checkpoint I/O, compute phases, failure clocks — runs on
//! the virtual clock provided here.
//!
//! ## Design
//!
//! * [`engine::Engine`] owns a binary heap of scheduled events and a set of
//!   [`engine::Actor`]s. Events are dispatched in `(time, sequence)` order, so
//!   same-time events are delivered FIFO and every run with the same seed is
//!   bit-for-bit reproducible.
//! * [`time::SimTime`] is an integer number of nanoseconds. Integer virtual
//!   time avoids floating-point tie-break nondeterminism across platforms.
//! * [`rng`] implements SplitMix64 and xoshiro256\*\* from the reference
//!   specifications. We deliberately do not depend on the `rand` crate: the
//!   simulation requires stable streams across crate-version bumps.
//! * [`metrics`] is a lightweight named-counter/statistics registry that the
//!   benchmark harness reads after a run.
//!
//! ## Example
//!
//! ```
//! use sim_core::engine::{Actor, Ctx, Engine, Event};
//! use sim_core::time::SimTime;
//!
//! struct Ping { peer: usize, remaining: u32 }
//!
//! impl Actor for Ping {
//!     fn on_event(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
//!         if self.remaining > 0 {
//!             self.remaining -= 1;
//!             ctx.send_after(SimTime::from_micros(5), self.peer, ());
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(42);
//! let a = eng.add_actor(Box::new(Ping { peer: 1, remaining: 3 }));
//! let b = eng.add_actor(Box::new(Ping { peer: 0, remaining: 3 }));
//! assert_eq!((a, b), (0, 1));
//! eng.schedule_now(a, ());
//! eng.run();
//! // 1 kick-off + 6 ping-pong hops, 5us apart
//! assert_eq!(eng.now(), SimTime::from_micros(30));
//! ```

pub mod choice;
pub mod engine;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod time;

pub use choice::{ChoiceKind, ChoiceSource, DeliveryOption};
pub use engine::{Actor, ActorId, Ctx, Engine, Event};
pub use metrics::Metrics;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::StreamStats;
pub use time::SimTime;
