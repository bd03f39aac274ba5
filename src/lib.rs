//! # mtp — an offload-friendly Message Transport Protocol
//!
//! Facade crate for the MTP workspace, a from-scratch Rust implementation
//! of *"TCP is Harmful to In-Network Computing: Designing a Message
//! Transport Protocol (MTP)"* (HotNets'21):
//!
//! * [`wire`] — the byte-exact MTP header codec (paper Fig. 4);
//! * [`sim`] — a deterministic discrete-event network simulator (the ns-3
//!   substitute);
//! * [`core`] — the MTP endpoint: message transport + pathlet congestion
//!   control;
//! * [`tcp`] — TCP NewReno / DCTCP baselines;
//! * [`net`] — in-network devices: switches, load balancers, proxy, cache
//!   offload, fair-share enforcement;
//! * [`workload`] — workload generators and FCT statistics;
//! * [`mod@bench`] — experiment topologies and the golden and sharded
//!   workloads.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and `mtp-bench`'s
//! `table1` test and the `scenarios/fig{2,3,5,6,7}_*` and
//! `scenarios/abl_*` files (run by `mtp-scenario`'s `scn`) to regenerate
//! every table, figure and §4 ablation of the paper.

#![forbid(unsafe_code)]

pub use mtp_bench as bench;
pub use mtp_core as core;
pub use mtp_net as net;
pub use mtp_sim as sim;
pub use mtp_tcp as tcp;
pub use mtp_wire as wire;
pub use mtp_workload as workload;
