//! # mtp-net — in-network devices
//!
//! Everything that lives *inside* the network in the paper's Figure 1:
//!
//! * [`switch`] — the switch node: pluggable [`switch::Forwarder`],
//!   per-egress **pathlet stamps** that append `(pathlet, TC, feedback)`
//!   TLVs to passing MTP packets (growing them on the wire, as §4's
//!   header-overhead discussion anticipates), and pluggable ingress
//!   policies;
//! * [`strategies`] — forwarding strategies: static routes, flow-level
//!   ECMP, per-packet spraying, time-driven path alternation (the optical
//!   switch of Fig. 5), and the **message-aware MTP load balancer** that
//!   pins each message to the lightest path using the message length
//!   advertised in its header (Fig. 6);
//! * [`fairshare`] — the per-entity fair-share ingress enforcer that gives
//!   Fig. 7's "MTP-enabled shared queue" its equal split without per-tenant
//!   queues;
//! * [`proxy`] — the TCP-terminating proxy whose buffering/HOL-blocking
//!   trade-off is Fig. 2;
//! * [`cache`] — a NetCache-style in-network KV cache offload plus backend
//!   server and client nodes (Fig. 1 ①);
//! * [`compress`] — a message-mutating compression offload demonstrating
//!   the data-mutation requirement end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cache;
pub mod compress;
pub mod fairshare;
pub mod partition;
pub mod proxy;
pub mod replica;
pub mod routes;
pub mod strategies;
pub mod switch;

pub use aggregate::{AggregateStats, AggregatorNode};
pub use cache::{CacheStats, KvCacheNode, KvClientNode, KvServerNode};
pub use compress::{CompressStats, CompressorNode};
pub use fairshare::FairShareEnforcer;
pub use partition::{CfgFactory, LinkOp, NodeFactory, PartitionLayout, ShardLayout, TopoGraph};
pub use proxy::TcpProxyNode;
pub use replica::{ReplicaLbNode, ReplicaLbStats, ReplicaPolicy};
pub use routes::{dst_addr, src_addr, RouteError, StaticRoutes};
pub use strategies::{conga_decode, conga_pathlet, FanoutForwarder, StaticForwarder, Strategy};
pub use switch::{
    Forwarder, IngressPolicy, MarkAllPolicy, Stamp, StampKind, SwitchNode, SwitchStats,
};
