//! # mtp-workload — workload generators and experiment statistics
//!
//! The paper's experiments need heavy-tailed message-size mixes ("skewed
//! toward short messages", §5.2), Poisson arrival processes at controlled
//! load, and tail-latency summaries. This crate provides:
//!
//! * [`size::SizeDist`] — fixed / bounded-Pareto / empirical size
//!   distributions, with presets for the paper's Fig. 6 mix and a
//!   web-search-like CDF;
//! * [`arrivals`] — open-loop Poisson schedules at a target fraction of
//!   link capacity;
//! * [`stats`] — percentile and size-bucketed FCT summaries (the 99th
//!   percentile is what Fig. 6 reports).
//!
//! Everything is seeded and deterministic: the same seed reproduces the
//! same schedule, so every figure regenerates identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod size;
pub mod stats;

pub use arrivals::poisson_schedule;
pub use size::SizeDist;
pub use stats::{mean_std, percentile, FctCollector, FctSample, FctSummary};
