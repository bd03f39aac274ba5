//! The two-parallel-path network.
//!
//! One sender, one sink, and two parallel switch-to-switch paths:
//! sender — sw1 ═(A/B)═ sw2 — sink. It is the smallest topology in which
//! "route around the failure" is even possible, which makes it the right
//! microscope for the MTP-vs-TCP comparison: MTP's pathlet machinery can
//! steer messages onto the better or surviving path, while a TCP flow is
//! pinned to whatever path its five-tuple hashes to. The failure study
//! (the *diamond*) and the paper's Figs. 5–6 (the *two-path*) are this one
//! graph under two conventions, both spelled as a [`ParallelSpec`]:
//!
//! * **diamond** — equal paths; `forward` is the message-aware balancer
//!   for MTP ([`Strategy::mtp_lb`] over [`PATHLET_A`]/[`PATHLET_B`]) or
//!   [`Strategy::Fixed`] for TCP (the deterministic stand-in for ECMP: a
//!   flow hashes onto path A and stays there, which is exactly the
//!   failure-response handicap the study measures); `reverse` is per-packet
//!   spray, so a single-path cut never silences the ACK channel — otherwise
//!   every experiment would measure the ACK path, not the protocol. A
//!   sprayed reverse cut still kills every other ACK for the whole outage,
//!   so the MTP sink is built with SACK redundancy 8 ([`mtp_pair`]): the
//!   survivors cover for the casualties instead of stranding packets until
//!   an RTO.
//! * **two-path** — unequal paths, a named `forward` strategy (alternation
//!   for Fig. 5, ECMP / spray / MTP-LB for Fig. 6), `reverse` fixed on
//!   path A.
//!
//! [`parallel_paths`] returns every directed-link handle so fault
//! schedules can cut, degrade, or corrupt any segment, plus both switch
//! ids for crash/restart scripts.

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_net::{FanoutForwarder, Stamp, StampKind, StaticRoutes, Strategy, SwitchNode};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{DirLinkId, LinkCfg, Node, NodeId, PortId, Simulator};
use mtp_tcp::{TcpConfig, TcpSenderNode, TcpSinkNode, TcpWorkloadMode};
use mtp_wire::{EntityId, PathletId};

/// Sender host address.
pub const CLIENT_ADDR: u16 = 1;
/// Sink host address.
pub const SERVER_ADDR: u16 = 2;
/// Pathlet id stamped on path A.
pub const PATHLET_A: PathletId = PathletId(1);
/// Pathlet id stamped on path B.
pub const PATHLET_B: PathletId = PathletId(2);

/// Link parameters for one segment.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Link rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Queue capacity in packets.
    pub cap_pkts: usize,
    /// ECN marking threshold in packets.
    pub ecn_k: usize,
}

impl LinkSpec {
    /// A spec with the standard 128-packet ECN(20) queue.
    pub fn new(rate: Bandwidth, delay: Duration) -> LinkSpec {
        LinkSpec {
            rate,
            delay,
            cap_pkts: 128,
            ecn_k: 20,
        }
    }

    /// The default inter-switch path: 10 Gbps, 5 us.
    pub fn path_default() -> LinkSpec {
        LinkSpec::new(Bandwidth::from_gbps(10), Duration::from_micros(5))
    }

    /// The default host NIC: 100 Gbps, 1 us.
    pub fn host_default() -> LinkSpec {
        LinkSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1))
    }

    /// The link configuration this spec describes.
    pub fn link_cfg(&self) -> LinkCfg {
        LinkCfg::ecn(self.rate, self.delay, self.cap_pkts, self.ecn_k)
    }
}

/// The knobs of a two-parallel-path network.
pub struct ParallelSpec {
    /// Path A, both directions.
    pub a: LinkSpec,
    /// Path B, both directions.
    pub b: LinkSpec,
    /// Both host–switch links.
    pub host: LinkSpec,
    /// How sw1 fans client traffic over the two paths.
    pub forward: Strategy,
    /// How sw2 fans server traffic (ACKs) back.
    pub reverse: Strategy,
    /// The pathlet sw1 stamps on path B: [`PATHLET_B`], or [`PATHLET_A`]
    /// to make both paths one pathlet.
    pub b_pathlet: PathletId,
}

/// Handle to a built two-parallel-path network, with every
/// fault-injectable element named.
pub struct ParallelPaths {
    /// The simulator.
    pub sim: Simulator,
    /// The sending host.
    pub sender: NodeId,
    /// The receiving host.
    pub sink: NodeId,
    /// Near switch (fans data over the two paths, stamps pathlets).
    pub sw1: NodeId,
    /// Far switch (fans ACKs back).
    pub sw2: NodeId,
    /// Path A, sw1 -> sw2.
    pub a_fwd: DirLinkId,
    /// Path A, sw2 -> sw1.
    pub a_rev: DirLinkId,
    /// Path B, sw1 -> sw2.
    pub b_fwd: DirLinkId,
    /// Path B, sw2 -> sw1.
    pub b_rev: DirLinkId,
}

/// Build sender — sw1 ═(A/B)═ sw2 — sink around the caller's endpoint
/// pair, which must speak from [`CLIENT_ADDR`] to [`SERVER_ADDR`] on port
/// 0 ([`mtp_pair`] and [`tcp_pair`] do). sw1 stamps path A as
/// [`PATHLET_A`] and path B as the spec's `b_pathlet` into passing MTP
/// data packets; other traffic passes unstamped.
///
/// Node and link creation order is part of the contract, since every
/// pinned digest hashes it: sender, sink, sw1, sw2; then host–sw1, path A,
/// path B, sw2–host.
pub fn parallel_paths(
    seed: u64,
    (sender, sink): (Box<dyn Node>, Box<dyn Node>),
    spec: ParallelSpec,
) -> ParallelPaths {
    let ParallelSpec {
        a,
        b,
        host,
        forward,
        reverse,
        b_pathlet,
    } = spec;
    let mut sim = Simulator::new(seed);
    let sender = sim.add_node(sender);
    let sink = sim.add_node(sink);
    let fan = vec![PortId(1), PortId(2)];
    let sw1 = sim.add_node(Box::new(
        SwitchNode::new(
            "sw1",
            Box::new(FanoutForwarder::new(
                StaticRoutes::new().add(CLIENT_ADDR, PortId(0)),
                fan.clone(),
                forward,
            )),
        )
        .with_stamp(PortId(1), Stamp::new(PATHLET_A, StampKind::Presence))
        .with_stamp(PortId(2), Stamp::new(b_pathlet, StampKind::Presence)),
    ));
    let sw2 = sim.add_node(Box::new(SwitchNode::new(
        "sw2",
        Box::new(FanoutForwarder::new(
            StaticRoutes::new().add(SERVER_ADDR, PortId(0)),
            fan,
            reverse,
        )),
    )));
    sim.connect(
        sender,
        PortId(0),
        sw1,
        PortId(0),
        host.link_cfg(),
        host.link_cfg(),
    );
    let (a_fwd, a_rev) = sim.connect(sw1, PortId(1), sw2, PortId(1), a.link_cfg(), a.link_cfg());
    let (b_fwd, b_rev) = sim.connect(sw1, PortId(2), sw2, PortId(2), b.link_cfg(), b.link_cfg());
    sim.connect(
        sw2,
        PortId(0),
        sink,
        PortId(0),
        host.link_cfg(),
        host.link_cfg(),
    );
    ParallelPaths {
        sim,
        sender,
        sink,
        sw1,
        sw2,
        a_fwd,
        a_rev,
        b_fwd,
        b_rev,
    }
}

/// An MTP sender/sink pair for [`parallel_paths`]: the sender submits
/// `schedule`, the sink bins goodput every `goodput_bin` and repeats each
/// SACK block in `sack_redundancy` ACKs (1 is the receiver's default; the
/// diamond's sprayed reverse path wants 8).
pub fn mtp_pair(
    cfg: MtpConfig,
    schedule: Vec<ScheduledMsg>,
    goodput_bin: Duration,
    sack_redundancy: usize,
) -> (Box<dyn Node>, Box<dyn Node>) {
    (
        Box::new(MtpSenderNode::new(
            cfg,
            CLIENT_ADDR,
            SERVER_ADDR,
            EntityId(0),
            1 << 40,
            schedule,
        )),
        Box::new(MtpSinkNode::new(SERVER_ADDR, goodput_bin).with_sack_redundancy(sack_redundancy)),
    )
}

/// A TCP (or DCTCP) sender/sink pair for [`parallel_paths`]: one
/// persistent connection carrying `schedule`'s `(start, bytes)` transfers.
pub fn tcp_pair(
    cfg: TcpConfig,
    schedule: Vec<(Time, u64)>,
    goodput_bin: Duration,
) -> (Box<dyn Node>, Box<dyn Node>) {
    (
        Box::new(TcpSenderNode::with_addrs(
            cfg.clone(),
            TcpWorkloadMode::Persistent,
            100,
            schedule,
            CLIENT_ADDR,
            SERVER_ADDR,
        )),
        Box::new(TcpSinkNode::new(cfg, goodput_bin)),
    )
}
