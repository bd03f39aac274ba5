//! # mtp-scenario — the declarative scenario harness
//!
//! Each paper figure used to be a hand-written Rust program in
//! `mtp-bench`: topology, workload, fault script, contenders, and
//! pass/fail checks all fused together. This crate splits that fusion
//! into data + one engine, and every figure is now a scenario file:
//!
//! * [`toml`] — a strict, never-panicking TOML-subset parser (the build
//!   environment vendors no `toml` crate);
//! * [`schema`] — the typed scenario model: topology selection and
//!   parameters, workload mix, fault schedule, protocol matrix, and a
//!   typed `[assert]` block (exactly-once ledger, conservation audit,
//!   corruption accounting, completion counts, FCT percentile bounds,
//!   pinned digests). Each type lists its keys once, with their ranges
//!   and defaults, in a key function over the [`schema::Keys`] trait;
//!   decoding is that trait's one implementation here, and refuses
//!   unknown keys and out-of-range values with errors naming the
//!   offending field. The property suite's emitter and generator are the
//!   others;
//! * [`run`] — executes each scenario × protocol × seed cell against the
//!   existing `mtp-sim` / `mtp-faults` / `mtp-workload` APIs and checks
//!   every assertion, reporting violations as data (never panicking);
//! * [`report`] — per-scenario JSON plus a collated machine-readable
//!   report under `results/scenarios/`.
//!
//! The `scn` binary loads a file or a directory of `.toml` scenarios and
//! runs the whole matrix; the checked-in `scenarios/` corpus is the CI
//! regression suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod run;
pub mod schema;
pub mod toml;

pub use run::{run_scenario, CellResult, ScenarioResult};
pub use schema::{Scenario, SchemaError};
