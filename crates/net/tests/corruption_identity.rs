//! The corruption identity at every terminating node, MTP and TCP: with
//! both directions of every link corrupting frames, each damaged frame is
//! counted exactly once, by the node that refuses it or by the engine
//! that destroyed it first:
//!
//! Σ node `malformed` + `corrupted_destroyed` = Σ link `corrupted_pkts`.
//!
//! A frame whose only damage is its payload or its 4-byte checksum
//! trailer verifies its header but fails its payload checksum; a node
//! that acts on it, or drops it without counting, breaks the identity.

use mtp_core::{MtpConfig, MtpDuplexHost, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_net::{
    AggregatorNode, CompressorNode, KvCacheNode, KvClientNode, KvServerNode, TcpProxyNode,
};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{DirLinkId, LinkCfg, Metric, NodeId, PortId, Simulator};
use mtp_tcp::{TcpConfig, TcpSenderNode, TcpSinkNode, TcpWorkloadMode};
use mtp_wire::EntityId;

/// One in ten frames damaged on every direction, one flipped bit each.
const PPM: u32 = 100_000;
const SEEDS: u64 = 10;

fn link() -> LinkCfg {
    LinkCfg::ecn(Bandwidth::from_gbps(10), Duration::from_micros(1), 256, 40)
}

fn schedule(n: u64, bytes: u32) -> Vec<ScheduledMsg> {
    (0..n)
        .map(|i| ScheduledMsg::new(Time::ZERO + Duration::from_micros(20 * i), bytes))
        .collect()
}

fn sender(addr: u16, dst: u16, msgs: u64) -> MtpSenderNode {
    MtpSenderNode::new(
        MtpConfig::default(),
        addr,
        dst,
        EntityId(addr),
        (addr as u64) << 40,
        schedule(msgs, 20_000),
    )
}

fn sink(addr: u16) -> MtpSinkNode {
    MtpSinkNode::new(addr, Duration::from_micros(100))
}

/// Connect `a` and `b` and corrupt both directions, each from its own
/// seed stream.
fn corrupted_link(sim: &mut Simulator, a: (NodeId, usize), b: (NodeId, usize), seed: u64) {
    let (fwd, rev): (DirLinkId, DirLinkId) =
        sim.connect(a.0, PortId(a.1), b.0, PortId(b.1), link(), link());
    sim.set_corrupt_rate(fwd, PPM, 1, seed);
    sim.set_corrupt_rate(rev, PPM, 1, seed ^ 0x5A5A);
}

/// Run to quiescence, so that no damaged frame is still queued or in
/// flight when the identity is checked.
fn run_to_quiescence(sim: &mut Simulator) {
    assert!(
        !sim.run_until(Time::ZERO + Duration::from_millis(500)),
        "still running after 500 ms"
    );
}

fn assert_identity(sim: &Simulator, what: &str, seed: u64) {
    sim.audit().assert_ok();
    let reg = sim.telemetry();
    let corrupted = reg.get(Metric::PktsCorrupted);
    let malformed = reg.get(Metric::PktsMalformed);
    let destroyed = sim.corrupted_destroyed();
    assert!(corrupted > 0, "{what} seed {seed}: nothing was corrupted");
    assert_eq!(
        malformed + destroyed,
        corrupted,
        "{what} seed {seed}: malformed {malformed} + destroyed {destroyed} != corrupted {corrupted}"
    );
}

/// The sender must count an ACK whose trailer alone was damaged.
#[test]
fn sender_to_sink_counts_every_damaged_frame() {
    for seed in 1..=SEEDS {
        let mut sim = Simulator::new(seed);
        let snd = sim.add_node(Box::new(sender(1, 2, 10)));
        let rcv = sim.add_node(Box::new(sink(2)));
        corrupted_link(&mut sim, (snd, 0), (rcv, 0), seed);
        run_to_quiescence(&mut sim);
        assert!(sim.node_as::<MtpSenderNode>(snd).all_done());
        assert_eq!(sim.node_as::<MtpSinkNode>(rcv).delivered.len(), 10);
        assert_identity(&sim, "sender -> sink", seed);
    }
}

/// The duplex host must verify a frame before it dispatches on its type.
#[test]
fn duplex_hosts_count_every_damaged_frame() {
    let duplex = |addr: u16, peer: u16| MtpDuplexHost {
        sender: sender(addr, peer, 10),
        sink: sink(addr),
    };
    for seed in 1..=SEEDS {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node(Box::new(duplex(1, 2)));
        let b = sim.add_node(Box::new(duplex(2, 1)));
        corrupted_link(&mut sim, (a, 0), (b, 0), seed);
        run_to_quiescence(&mut sim);
        for host in [a, b] {
            let host = sim.node_as::<MtpDuplexHost>(host);
            assert!(host.sender.all_done());
            assert_eq!(host.sink.delivered.len(), 10);
        }
        assert_identity(&sim, "duplex <-> duplex", seed);
    }
}

/// The compressor must verify what it terminates and re-originates.
#[test]
fn compressor_counts_every_damaged_frame() {
    for seed in 1..=SEEDS {
        let mut sim = Simulator::new(seed);
        let snd = sim.add_node(Box::new(sender(1, 2, 10)));
        let comp = sim.add_node(Box::new(CompressorNode::new(
            MtpConfig::default(),
            5,
            0.5,
            5 << 40,
        )));
        let rcv = sim.add_node(Box::new(sink(2)));
        corrupted_link(&mut sim, (snd, 0), (comp, 0), seed);
        corrupted_link(&mut sim, (comp, 1), (rcv, 0), seed + 100);
        run_to_quiescence(&mut sim);
        assert!(sim.node_as::<MtpSenderNode>(snd).all_done());
        assert_eq!(sim.node_as::<CompressorNode>(comp).stats.msgs, 10);
        assert_eq!(sim.node_as::<MtpSinkNode>(rcv).delivered.len(), 10);
        assert_identity(&sim, "sender -> compressor -> sink", seed);
    }
}

/// The aggregator must verify what it terminates and re-originates.
#[test]
fn aggregator_counts_every_damaged_frame() {
    for seed in 1..=SEEDS {
        let mut sim = Simulator::new(seed);
        let agg = sim.add_node(Box::new(AggregatorNode::new(
            MtpConfig::default(),
            50,
            60,
            2,
            20_000,
            9 << 40,
        )));
        let ps = sim.add_node(Box::new(sink(60)));
        corrupted_link(&mut sim, (agg, 0), (ps, 0), seed);
        let workers: Vec<_> = (1..=2u16)
            .map(|w| {
                let node = sim.add_node(Box::new(sender(w, 50, 10)));
                corrupted_link(
                    &mut sim,
                    (node, 0),
                    (agg, w as usize),
                    seed + 100 * w as u64,
                );
                node
            })
            .collect();
        run_to_quiescence(&mut sim);
        for w in workers {
            assert!(sim.node_as::<MtpSenderNode>(w).all_done());
        }
        assert_eq!(sim.node_as::<AggregatorNode>(agg).stats.gradients_in, 20);
        assert_eq!(sim.node_as::<MtpSinkNode>(ps).delivered.len(), 10);
        assert_identity(&sim, "workers -> aggregator -> sink", seed);
    }
}

/// The KV cache relays cold GETs and the server's replies, and consumes
/// hot GETs and the ACKs for its own replies: it must refuse a damaged
/// frame in each role it consumes.
#[test]
fn cache_counts_every_damaged_frame() {
    for seed in 1..=SEEDS {
        let mut sim = Simulator::new(seed);
        let cfg = MtpConfig::default();
        // Hot key 7 alternates with cold keys.
        let schedule: Vec<(Time, u64)> = (0..40)
            .map(|i| {
                let key = if i % 2 == 0 { 7 } else { 100 + i };
                (Time::ZERO + Duration::from_micros(5 * i), key)
            })
            .collect();
        let client = sim.add_node(Box::new(KvClientNode::new(
            cfg.clone(),
            1,
            2,
            4_000,
            1 << 32,
            schedule,
        )));
        let cache = sim.add_node(Box::new(KvCacheNode::new(
            cfg.clone(),
            5,
            [7u64],
            4_000,
            2 << 32,
        )));
        let server = sim.add_node(Box::new(KvServerNode::new(
            cfg,
            2,
            4_000,
            Duration::from_micros(2),
            3 << 32,
        )));
        corrupted_link(&mut sim, (client, 0), (cache, 0), seed);
        corrupted_link(&mut sim, (cache, 1), (server, 0), seed + 100);
        run_to_quiescence(&mut sim);
        assert_eq!(sim.node_as::<KvClientNode>(client).done(), 40);
        assert_identity(&sim, "client -> cache -> server", seed);
    }
}

/// The TCP proxy terminates the client's stream and re-originates it.
#[test]
fn proxy_counts_every_damaged_frame() {
    let cfg = TcpConfig {
        handshake: false,
        ..TcpConfig::default()
    };
    for seed in 1..=SEEDS {
        let mut sim = Simulator::new(seed);
        let schedule = (0..10)
            .map(|i| (Time::ZERO + Duration::from_micros(20 * i), 20_000))
            .collect();
        let snd = sim.add_node(Box::new(TcpSenderNode::new(
            cfg.clone(),
            TcpWorkloadMode::Persistent,
            1,
            schedule,
        )));
        let proxy = sim.add_node(Box::new(TcpProxyNode::new(
            cfg.clone(),
            cfg.clone(),
            1,
            2,
            None,
        )));
        let rcv = sim.add_node(Box::new(TcpSinkNode::new(
            cfg.clone(),
            Duration::from_micros(100),
        )));
        corrupted_link(&mut sim, (snd, 0), (proxy, 0), seed);
        corrupted_link(&mut sim, (proxy, 1), (rcv, 0), seed + 100);
        run_to_quiescence(&mut sim);
        assert!(sim.node_as::<TcpSenderNode>(snd).all_done());
        assert_eq!(sim.node_as::<TcpSinkNode>(rcv).total_delivered, 200_000);
        assert_identity(&sim, "tcp sender -> proxy -> tcp sink", seed);
    }
}
