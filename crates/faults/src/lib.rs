//! # mtp-faults — deterministic fault injection
//!
//! The paper argues (§2, §4) that a message transport must ride through
//! in-network failures that TCP's connection abstraction cannot: a dead
//! pathlet should cost one failover, not a stalled flow. This crate is
//! the test rig for that claim:
//!
//! * [`schedule`] — the builder for fault scripts: [`mtp_sim::FaultEvent`]s
//!   (link down/up in blackhole or drain mode, rate/delay degradation,
//!   bit-flip and truncation bursts and steady corruption rates, node
//!   crash/restart) as plain sorted data;
//! * [`driver`] — replays a schedule against a running [`mtp_sim`]
//!   simulation at exact virtual times, so `(seed, schedule)` determines
//!   the entire packet-level execution — reruns are byte-identical;
//! * [`topo`] — the two-parallel-path network (the failure study's
//!   diamond, the figures' two-path) around a caller-supplied endpoint
//!   pair, with every link and switch addressable by fault scripts;
//! * [`ledger`] — the exactly-once delivery ledger every failure
//!   experiment must balance.
//!
//! The endpoint half of the story — loss attribution, feedback-silence
//! detection, quarantine with exponential-backoff re-probe, and in-flight
//! evacuation — lives in `mtp-core` ([`mtp_core::MtpConfig::with_failover`]) and is
//! exercised end to end by this crate's fault-matrix tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod ledger;
pub mod schedule;
pub mod topo;

pub use driver::FaultDriver;
pub use ledger::Ledger;
pub use mtp_sim::{FaultEvent, FaultKind};
pub use schedule::FaultSchedule;
pub use topo::{
    mtp_pair, parallel_paths, tcp_pair, LinkSpec, ParallelPaths, ParallelSpec, PATHLET_A, PATHLET_B,
};
