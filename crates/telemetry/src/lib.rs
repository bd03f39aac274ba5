//! # mtp-telemetry — an allocation-free metrics substrate
//!
//! Every figure in the paper is a time series or a distribution harvested
//! from the simulator, so the counters feeding them must be trustworthy.
//! This crate gives the workspace one uniform substrate:
//!
//! * a [`Registry`] of typed **counters**, **gauges**, and HDR-style
//!   **histograms**, addressed by static ids ([`Metric`], [`Gauge`],
//!   [`HistId`]) so recording is a bounds-check-free array add — zero
//!   allocation, branch-cheap, and safe to leave in the hottest paths;
//! * [`Snapshot`]s with a stable [`digest`](Snapshot::digest) so two runs
//!   at the same seed can be proven to account identically.
//!
//! There is one build: recording is always on, and what it costs is a
//! number the benchmark records per commit (`telemetry.registry.count_ns`,
//! `telemetry.hist.record_ns`). [`results_dir`] is where every binary that
//! writes a result file puts it.
//!
//! The conservation *laws* that consume these counters live next to the
//! engine (`mtp_sim::audit`); this crate is deliberately free of any
//! simulator dependency so every layer of the workspace can record into it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod metric;
pub mod registry;
mod results;

pub use hist::{Hist, HistSummary};
pub use metric::{Gauge, HistId, Metric};
pub use registry::{Registry, Snapshot};
pub use results::results_dir;
