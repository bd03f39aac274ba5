//! Reusable experiment topologies.
//!
//! All of the paper's evaluation scenarios are instances of two shapes:
//!
//! * **two-path**: sender — sw1 ═(path A / path B)═ sw2 — receiver, with a
//!   pluggable fan-out strategy at sw1 (alternation for Fig. 5, ECMP /
//!   spray / MTP-LB for Fig. 6) — the same network as the failure study's
//!   diamond, so its one builder lives in `mtp-faults` and is re-exported
//!   here ([`parallel_paths`]);
//! * **dumbbell**: N senders — sw1 —(shared link)— sw2 — receiver(s)
//!   (Figs. 3 and 7, whose scenario files `mtp-scenario` builds here).

use mtp_net::{FanoutForwarder, Stamp, StampKind, StaticRoutes, Strategy, SwitchNode};
use mtp_sim::{LinkCfg, NodeId, PortId, Simulator};
use mtp_wire::PathletId;

pub use mtp_faults::topo::{
    mtp_pair, parallel_paths, tcp_pair, ParallelPaths, ParallelSpec, CLIENT_ADDR, SERVER_ADDR,
};

/// One link's parameters — the same spec the fault-study topologies use
/// ([`mtp_faults::LinkSpec`]): rate + delay over the paper's standard
/// 128-packet ECN(20) queue.
pub type PathSpec = mtp_faults::LinkSpec;

/// Handle to a built dumbbell.
pub struct Dumbbell {
    /// The simulator.
    pub sim: Simulator,
    /// Sending hosts (addresses `1..=n`).
    pub senders: Vec<NodeId>,
    /// Receiving hosts, one per sender (addresses `100 + i`).
    pub sinks: Vec<NodeId>,
    /// The shared bottleneck (left → right).
    pub bottleneck: mtp_sim::DirLinkId,
    /// The left switch (carries the ingress policy, if any).
    pub left_switch: NodeId,
}

/// Sender address for dumbbell host `i` (0-based).
pub fn dumbbell_src(i: usize) -> u16 {
    1 + i as u16
}

/// Receiver address for dumbbell host `i` (0-based).
pub fn dumbbell_dst(i: usize) -> u16 {
    100 + i as u16
}

/// Build an N-pair dumbbell: each sender `i` talks to its own receiver
/// through one shared link. `senders[i]` is built by the caller-provided
/// closure (so TCP and MTP hosts, or mixes, are all expressible);
/// `edge`/`shared` give the link specs; `policy` optionally installs an
/// ingress policy on the left switch; `shared_queue` overrides the shared
/// link's egress queue (e.g. per-tenant DRR).
#[allow(clippy::too_many_arguments)]
pub fn dumbbell(
    seed: u64,
    n: usize,
    mut make_sender: impl FnMut(usize) -> Box<dyn mtp_sim::Node>,
    mut make_sink: impl FnMut(usize) -> Box<dyn mtp_sim::Node>,
    edge: PathSpec,
    shared: PathSpec,
    policy: Option<Box<dyn mtp_net::IngressPolicy>>,
    shared_queue: Option<Box<dyn mtp_sim::Qdisc>>,
) -> Dumbbell {
    let mut sim = Simulator::new(seed);
    let senders: Vec<NodeId> = (0..n).map(|i| sim.add_node(make_sender(i))).collect();
    let sinks: Vec<NodeId> = (0..n).map(|i| sim.add_node(make_sink(i))).collect();

    // Left switch: ports 0..n face senders, port n is the shared link.
    let mut left_routes = StaticRoutes::new();
    for (i, _) in senders.iter().enumerate() {
        left_routes = left_routes.add(dumbbell_src(i), PortId(i));
    }
    let mut left = SwitchNode::new(
        "left",
        Box::new(FanoutForwarder::new(
            left_routes,
            vec![PortId(n)],
            Strategy::Fixed,
        )),
    );
    if let Some(p) = policy {
        left = left.with_policy(p);
    }
    let left = sim.add_node(Box::new(left));

    let mut right_routes = StaticRoutes::new();
    for (i, _) in sinks.iter().enumerate() {
        right_routes = right_routes.add(dumbbell_dst(i), PortId(i));
    }
    let right = sim.add_node(Box::new(SwitchNode::new(
        "right",
        Box::new(FanoutForwarder::new(
            right_routes,
            vec![PortId(n)],
            Strategy::Fixed,
        )),
    )));

    for (i, &s) in senders.iter().enumerate() {
        sim.connect(
            s,
            PortId(0),
            left,
            PortId(i),
            edge.link_cfg(),
            edge.link_cfg(),
        );
    }
    for (i, &r) in sinks.iter().enumerate() {
        sim.connect(
            right,
            PortId(i),
            r,
            PortId(0),
            edge.link_cfg(),
            edge.link_cfg(),
        );
    }
    let forward = match shared_queue {
        Some(queue) => LinkCfg {
            rate: shared.rate,
            delay: shared.delay,
            queue,
        },
        None => shared.link_cfg(),
    };
    let (bottleneck, _) = sim.connect(
        left,
        PortId(n),
        right,
        PortId(n),
        forward,
        shared.link_cfg(),
    );
    Dumbbell {
        sim,
        senders,
        sinks,
        bottleneck,
        left_switch: left,
    }
}

/// Handle to a built leaf-spine fabric.
pub struct LeafSpine {
    /// The simulator.
    pub sim: Simulator,
    /// Host nodes, indexed `leaf * hosts_per_leaf + i`.
    pub hosts: Vec<NodeId>,
    /// Leaf switches.
    pub leaves: Vec<NodeId>,
    /// Spine switches.
    pub spines: Vec<NodeId>,
}

/// Host address in a leaf-spine fabric (1-based, dense).
pub fn ls_addr(leaf: usize, hosts_per_leaf: usize, i: usize) -> u16 {
    (leaf * hosts_per_leaf + i + 1) as u16
}

/// Build a 2-tier leaf-spine (Clos) fabric:
///
/// * `n_leaves` leaf switches, each with `hosts_per_leaf` hosts;
/// * `n_spines` spine switches, each connected to every leaf;
/// * cross-leaf traffic fans over the spines using `make_strategy()`
///   (one strategy instance per leaf), with each uplink stamped as
///   pathlet `spine + 1`;
/// * spines route by destination leaf; with `spine_stamps` set, every
///   spine also stamps its per-destination-leaf downlink queue depth as
///   `QueueDepth` feedback under a [`mtp_net::strategies::conga_pathlet`]
///   id, which [`Strategy::conga_lb`] leaves snoop from passing ACKs.
///
/// Host node `leaf * hosts_per_leaf + i` is produced by
/// `make_host(leaf, i, addr)` and attaches on its port 0.
///
/// Leaf port map: ports `0..hosts_per_leaf` face hosts, ports
/// `hosts_per_leaf..hosts_per_leaf + n_spines` face spines. Spine port map:
/// port `l` faces leaf `l`.
#[allow(clippy::too_many_arguments)] // topology knobs are clearer positionally
pub fn leaf_spine(
    seed: u64,
    n_leaves: usize,
    n_spines: usize,
    hosts_per_leaf: usize,
    mut make_host: impl FnMut(usize, usize, u16) -> Box<dyn mtp_sim::Node>,
    mut make_strategy: impl FnMut(usize) -> Strategy,
    host_link: PathSpec,
    spine_link: PathSpec,
    spine_stamps: bool,
) -> LeafSpine {
    let mut sim = Simulator::new(seed);
    let mut hosts = Vec::new();
    for leaf in 0..n_leaves {
        for i in 0..hosts_per_leaf {
            let addr = ls_addr(leaf, hosts_per_leaf, i);
            hosts.push(sim.add_node(make_host(leaf, i, addr)));
        }
    }
    let leaves: Vec<NodeId> = (0..n_leaves)
        .map(|leaf| {
            let mut routes = StaticRoutes::new();
            for i in 0..hosts_per_leaf {
                routes = routes.add(ls_addr(leaf, hosts_per_leaf, i), PortId(i));
            }
            let fan: Vec<PortId> = (0..n_spines).map(|s| PortId(hosts_per_leaf + s)).collect();
            let mut sw = SwitchNode::new(
                format!("leaf{leaf}"),
                Box::new(FanoutForwarder::new(
                    routes,
                    fan.clone(),
                    make_strategy(leaf),
                )),
            );
            for (s, port) in fan.iter().enumerate() {
                sw = sw.with_stamp(
                    *port,
                    Stamp::new(PathletId(s as u16 + 1), StampKind::Presence),
                );
            }
            sim.add_node(Box::new(sw))
        })
        .collect();
    let spines: Vec<NodeId> = (0..n_spines)
        .map(|s| {
            // Spine routes every host of leaf `l` out port `l`.
            let mut routes = StaticRoutes::new();
            for leaf in 0..n_leaves {
                for i in 0..hosts_per_leaf {
                    routes = routes.add(ls_addr(leaf, hosts_per_leaf, i), PortId(leaf));
                }
            }
            let mut sw = SwitchNode::new(
                format!("spine{s}"),
                Box::new(FanoutForwarder::new(routes, vec![], Strategy::Fixed)),
            );
            if spine_stamps {
                for leaf in 0..n_leaves {
                    sw = sw.with_stamp(
                        PortId(leaf),
                        Stamp::new(
                            mtp_net::strategies::conga_pathlet(s as u16, leaf as u16),
                            StampKind::QueueDepth,
                        ),
                    );
                }
            }
            sim.add_node(Box::new(sw))
        })
        .collect();

    for leaf in 0..n_leaves {
        for i in 0..hosts_per_leaf {
            let h = hosts[leaf * hosts_per_leaf + i];
            sim.connect(
                h,
                PortId(0),
                leaves[leaf],
                PortId(i),
                host_link.link_cfg(),
                host_link.link_cfg(),
            );
        }
        for (s, &spine) in spines.iter().enumerate() {
            sim.connect(
                leaves[leaf],
                PortId(hosts_per_leaf + s),
                spine,
                PortId(leaf),
                spine_link.link_cfg(),
                spine_link.link_cfg(),
            );
        }
    }
    LeafSpine {
        sim,
        hosts,
        leaves,
        spines,
    }
}
