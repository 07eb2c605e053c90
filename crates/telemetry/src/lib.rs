#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # telemetry — deterministic time-series telemetry
//!
//! The measurement substrate for the reproduction's quantitative claims.
//! Everything in this crate is a pure, deterministic data structure — no
//! clocks, no I/O, no randomness — so it sits inside the determinism
//! envelope and every derived artifact (series, export, SLO report, bench
//! report) is a byte-stable function of the run.
//!
//! * [`hist`] — exact, mergeable log-linear (HDR-style) [`Histogram`]s:
//!   exact bucket counts, so p50/p99/p999 are available with a proven
//!   `2^-g` relative error bound and merging
//!   (threaded per-thread registries, per-shard series) is lossless.
//! * [`family`] — labeled metric families parsed from the registry's
//!   dotted-name convention (`staging.server3.bytes` →
//!   `staging_server_bytes{domain="staging",shard="3"}`).
//! * [`series`] — the windowed [`Series`] a virtual-time scraper builds:
//!   per-window counter deltas, gauge closes, and latency histograms.
//! * [`slo`] — [`SloCfg`] objectives with windowed error budgets and
//!   burn-rate [`Breach`] detection, evaluated online (breach instants
//!   land in the obs trace) and offline (`wf-metrics slo-check`).
//! * [`export`] — OpenMetrics text exposition and JSONL, both
//!   byte-deterministic.
//! * [`mod@bench`] — canonical `BENCH_*.json` run reports plus the
//!   tolerance-band [`bench::compare`] gate CI runs against the committed
//!   baseline.

pub mod bench;
pub mod export;
pub mod family;
pub mod hist;
pub mod series;
pub mod slo;

pub use bench::{BenchReport, Direction, Regression};
pub use family::MetricKey;
pub use hist::{ns_to_secs, secs_to_ns, Histogram};
pub use series::{Series, SeriesBuilder, Window};
pub use slo::{Breach, Objective, SloCfg, SloEval, SloReport, Target};
