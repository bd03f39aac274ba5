//! # mtp-sim — a deterministic discrete-event network simulator
//!
//! This crate is the workspace's substitute for ns-3: a single-threaded,
//! deterministic, packet-level discrete-event simulator. It models
//!
//! * **nodes** (hosts, switches, proxies, offload boxes) implementing the
//!   [`Node`] trait, connected by
//! * **links** with a bandwidth, a propagation delay, and a per-direction
//!   egress **queue discipline** — drop-tail, DCTCP-style ECN marking,
//!   deficit-round-robin over bands, strict priority, or NDP-style payload
//!   trimming ([`queue`]),
//! * **timers** and a seeded random source for reproducible workloads,
//! * per-link **counters** and binned **time series** for measurement
//!   ([`trace`]).
//!
//! Time is measured in picoseconds ([`time::Time`]) so the paper's exact
//! parameters — 100 Gbps serialization, 1 µs link delays, a 384 µs path-
//! alternation period, 32 µs goodput sampling — are all represented without
//! rounding.
//!
//! The transports built on top live in sibling crates: `mtp-tcp` (TCP
//! NewReno / DCTCP baselines) and `mtp-core` (the MTP endpoint). In-network
//! devices (load balancers, proxies, caches, policy enforcers) live in
//! `mtp-net`.
//!
//! ## Example
//!
//! ```
//! use mtp_sim::{Simulator, Node, Ctx, PortId, Packet, Headers};
//! use mtp_sim::time::{Bandwidth, Duration};
//!
//! struct Blaster;
//! impl Node for Blaster {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(PortId(0), Packet::new(Headers::Raw, 1500));
//!     }
//!     fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
//! }
//!
//! #[derive(Default)]
//! struct Sink { got: usize }
//! impl Node for Sink {
//!     fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) { self.got += 1; }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node(Box::new(Blaster));
//! let b = sim.add_node(Box::new(Sink::default()));
//! sim.connect_symmetric(a, PortId(0), b, PortId(0),
//!     Bandwidth::from_gbps(100), Duration::from_micros(1), 64);
//! sim.run();
//! assert_eq!(sim.node_as::<Sink>(b).got, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod corrupt;
pub mod dctcp;
pub mod engine;
pub mod fault;
pub mod loss;
pub mod node;
pub mod packet;
pub mod pool;
pub mod queue;
pub mod rtt;
pub mod shard;
pub mod time;
pub mod trace;
pub mod tracefile;
mod wheel;

pub use audit::{assert_conservation, AuditReport};
pub use corrupt::sanitize;
pub use dctcp::DctcpAlpha;
pub use engine::{pkt_id, BoundaryKind, DirLinkId, LinkCfg, LinkFailMode, LinkStats, Simulator};
pub use fault::{FaultEvent, FaultKind};
pub use loss::{stream_seed, LossyQueue, ReorderQueue};
pub use node::{Ctx, Node, NodeAuditCounters, NodeFault, NodeId, PortId, TimerId};
pub use packet::{AppData, Headers, Packet, PacketId, WireProto};
pub use queue::{
    Classifier, DropTailQueue, DrrQueue, EcnQueue, EnqueueVerdict, PriorityQueue, Qdisc,
    TrimmingQueue,
};
pub use rtt::RttEstimator;
pub use shard::{
    digest_parts, monolithic_digest, render_digest, BoundaryRoute, DigestParts, ShardBuildPlan,
    ShardPlan, ShardedSimulator,
};
pub use time::{Bandwidth, Duration, Time};
pub use trace::BinSeries;
pub use tracefile::{TraceEvent, TraceKind, TraceRing};

/// The per-simulation metrics layer (re-exported from `mtp-telemetry`).
/// Recording is zero-allocation and always on.
pub use mtp_telemetry as telemetry;
pub use mtp_telemetry::{results_dir, Gauge, HistId, Metric, Registry, Snapshot};
