//! # mtp-benchmark — the repository's one benchmark
//!
//! Six named workloads over the simulator, the sans-IO cores and the
//! UDP session layer; four end-to-end metrics every workload reports;
//! and, in a separate traced run, time and counts attributed to each
//! layer **from outside**: spans around the harness's own calls into
//! each layer's public functions, the layers' public counters, a
//! counting allocator, and `/proc`. `README.md` beside this package
//! defines every metric and states which layer should move which.
//!
//! The harness calls only public items of the library crates and passes
//! them only inputs it generated from `--seed`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc;
pub mod cli;
pub mod compare;
pub mod fabric;
#[allow(unsafe_code)]
pub mod host;
pub mod json;
pub mod meter;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads {
    //! The seven workloads.
    pub mod core;
    pub mod scn;
    pub mod sim;
    pub mod wire;
}

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
