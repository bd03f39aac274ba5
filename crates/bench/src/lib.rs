//! # mtp-bench — the experiment harness
//!
//! No binaries: every figure of the paper's evaluation is a scenario
//! file. Figs. 2, 3, 5, 6 and 7, Fig. 5 across start phases, Fig. 6 on a
//! leaf-spine fabric and the §4 ablations are
//! `scn scenarios/{fig2_*,fig3_*,fig5_*,fig6_*,fig7_*,leafspine_*,abl_*}.toml`;
//! the §4 header-overhead ablation is `mtp-net`'s `header_overhead` test.
//!
//! Table 1 runs no simulator: `tests/table1.rs` rebuilds it from the
//! transports' capability records and compares it with
//! `results/table1.json` byte for byte.
//!
//! What the scenario runner shares with this crate is deterministic:
//! the topology builders ([`topo`]: `dumbbell`, `leaf_spine`, and the
//! two-parallel-path network, [`topo::parallel_paths`], which is also the
//! failure study's diamond) and the measurement helpers in [`study`]. The
//! failure and corruption studies are scenario files too
//! (`scn scenarios/{failover,corruption}_diamond.toml`).
//!
//! [`hotpath`], [`endpoint`] and [`fabric`] are the fixed-seed workloads
//! behind the golden-digest and sharded == serial tests in `tests/`, the
//! latter up to [`fabric::FabricCfg::figure`]'s 10 240 hosts;
//! [`fabric::fault_schedule`] is an ordinary `mtp_faults::FaultSchedule`,
//! replayed by the `FaultDriver` serially and by `schedule_admin` sharded.
//! [`parallel`] fans seeds out over threads; only its own tests call it.
//! Timing lives in the repository's one benchmark, `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod fabric;
pub mod hotpath;
pub mod parallel;
pub mod study;
pub mod topo;
