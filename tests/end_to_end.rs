//! Workspace integration tests: scenarios that span every crate at once.

use mtp::core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp::net::{
    CompressorNode, FanoutForwarder, KvCacheNode, KvClientNode, KvServerNode, Stamp, StampKind,
    StaticForwarder, StaticRoutes, Strategy, SwitchNode,
};
use mtp::sim::time::{Bandwidth, Duration, Time};
use mtp::sim::{LinkCfg, PortId, Simulator};
use mtp::wire::{EntityId, PathletId};

fn ecn(rate: Bandwidth, d: Duration) -> LinkCfg {
    LinkCfg::ecn(rate, d, 256, 40)
}

/// The paper's Figure 1 in one simulation: a client whose requests pass
/// through an in-network cache, with the backend reached over a
/// load-balanced two-path fabric, pathlets stamped along the way.
#[test]
fn figure1_cache_plus_multipath_fabric() {
    let mut sim = Simulator::new(99);
    let cfg = MtpConfig::default();

    // Client (addr 1) -> cache (addr 5) -> fabric (2 paths) -> server (addr 2).
    let schedule: Vec<(Time, u64)> = (0..200u64)
        .map(|i| {
            let key = if i % 3 == 0 { 7 } else { 1000 + i }; // 1/3 hot
            (Time::ZERO + Duration::from_micros(3 * i), key)
        })
        .collect();
    let client = sim.add_node(Box::new(KvClientNode::new(
        cfg.clone(),
        1,
        2,
        512,
        1 << 32,
        schedule,
    )));
    let cache = sim.add_node(Box::new(KvCacheNode::new(
        cfg.clone(),
        5,
        [7u64],
        2048,
        2 << 32,
    )));
    let sw1 = sim.add_node(Box::new(
        SwitchNode::new(
            "fabric-in",
            Box::new(FanoutForwarder::new(
                StaticRoutes::new().add(1, PortId(0)),
                vec![PortId(1), PortId(2)],
                Strategy::mtp_lb(2, vec![Some(PathletId(1)), Some(PathletId(2))]),
            )),
        )
        .with_stamp(PortId(1), Stamp::new(PathletId(1), StampKind::Presence))
        .with_stamp(PortId(2), Stamp::new(PathletId(2), StampKind::QueueDepth)),
    ));
    let sw2 = sim.add_node(Box::new(SwitchNode::new(
        "fabric-out",
        Box::new(FanoutForwarder::new(
            StaticRoutes::new().add(2, PortId(0)),
            vec![PortId(1), PortId(2)],
            Strategy::Fixed,
        )),
    )));
    let server = sim.add_node(Box::new(KvServerNode::new(
        cfg,
        2,
        2048,
        Duration::from_micros(1),
        3 << 32,
    )));

    let fast = Bandwidth::from_gbps(100);
    let d = Duration::from_micros(1);
    sim.connect(
        client,
        PortId(0),
        cache,
        PortId(0),
        ecn(fast, d),
        ecn(fast, d),
    );
    sim.connect(cache, PortId(1), sw1, PortId(0), ecn(fast, d), ecn(fast, d));
    sim.connect(sw1, PortId(1), sw2, PortId(1), ecn(fast, d), ecn(fast, d));
    sim.connect(
        sw1,
        PortId(2),
        sw2,
        PortId(2),
        ecn(fast, Duration::from_micros(2)),
        ecn(fast, Duration::from_micros(2)),
    );
    sim.connect(
        sw2,
        PortId(0),
        server,
        PortId(0),
        ecn(fast, d),
        ecn(fast, d),
    );

    sim.run_until(Time::ZERO + Duration::from_millis(50));
    mtp::sim::assert_conservation(&sim);

    let client = sim.node_as::<KvClientNode>(client);
    assert_eq!(client.done(), 200, "every request answered");
    let cache_stats = sim.node_as::<KvCacheNode>(cache).stats;
    assert_eq!(
        cache_stats.hits, 67,
        "hot key answered in-network (ceil(200/3))"
    );
    assert_eq!(cache_stats.misses, 133);
    assert_eq!(sim.node_as::<KvServerNode>(server).served, 133);
    // Hits beat misses on latency.
    let mean = |cache_flag: bool| {
        let v: Vec<f64> = client
            .completions
            .iter()
            .filter(|(_, _, c)| *c == cache_flag)
            .map(|(_, l, _)| l.as_micros_f64())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    assert!(mean(true) < mean(false), "cache hits are faster");
}

/// Mutation + reliability across a chain: sender -> compressor -> switch ->
/// sink, with loss on the compressed leg repaired by NACKs against the
/// *mutated* message.
#[test]
fn compressed_messages_survive_loss_downstream() {
    let mut sim = Simulator::new(5);
    let cfg = MtpConfig::default();
    let schedule: Vec<ScheduledMsg> = (0..20)
        .map(|i| ScheduledMsg::new(Time::ZERO + Duration::from_micros(20 * i), 100_000))
        .collect();
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        cfg.clone(),
        1,
        2,
        EntityId(0),
        1 << 32,
        schedule,
    )));
    let comp = sim.add_node(Box::new(CompressorNode::new(cfg.clone(), 5, 0.5, 2 << 32)));
    let sw = sim.add_node(Box::new(SwitchNode::new(
        "sw",
        Box::new(StaticForwarder(
            StaticRoutes::new()
                .add(5, PortId(0))
                .add(1, PortId(0))
                .add(2, PortId(1)),
        )),
    )));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(100))));

    let bw = Bandwidth::from_gbps(100);
    let d = Duration::from_micros(1);
    sim.connect(snd, PortId(0), comp, PortId(0), ecn(bw, d), ecn(bw, d));
    sim.connect(comp, PortId(1), sw, PortId(0), ecn(bw, d), ecn(bw, d));
    // Tiny queue on the last hop: drops are certain.
    sim.connect(
        sw,
        PortId(1),
        sink,
        PortId(0),
        LinkCfg::drop_tail(Bandwidth::from_gbps(10), d, 6),
        LinkCfg::drop_tail(Bandwidth::from_gbps(10), d, 64),
    );
    sim.run_until(Time::ZERO + Duration::from_millis(60));
    mtp::sim::assert_conservation(&sim);

    assert!(
        sim.node_as::<MtpSenderNode>(snd).all_done(),
        "upstream complete"
    );
    let comp = sim.node_as::<CompressorNode>(comp);
    assert_eq!(comp.stats.msgs, 20);
    let sink_node = sim.node_as::<MtpSinkNode>(sink);
    assert_eq!(
        sink_node.delivered.len(),
        20,
        "all mutated messages delivered"
    );
    assert_eq!(sink_node.total_goodput(), 20 * 50_000);
}

/// Determinism across the whole stack: same seed, same figure.
#[test]
fn full_stack_runs_are_deterministic() {
    let run = || {
        let mut sim = Simulator::new(1234);
        let snd = sim.add_node(Box::new(MtpSenderNode::new(
            MtpConfig::default(),
            1,
            2,
            EntityId(0),
            1,
            (0..50)
                .map(|i| ScheduledMsg::new(Time::ZERO + Duration::from_micros(i), 30_000))
                .collect(),
        )));
        let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(10))));
        let bw = Bandwidth::from_gbps(25);
        let d = Duration::from_micros(1);
        sim.connect(snd, PortId(0), sink, PortId(0), ecn(bw, d), ecn(bw, d));
        sim.run_until(Time::ZERO + Duration::from_millis(10));
        mtp::sim::assert_conservation(&sim);
        let s = sim.node_as::<MtpSenderNode>(snd);
        let fcts: Vec<_> = s.msgs.iter().map(|m| m.completed).collect();
        (
            fcts,
            sim.node_as::<MtpSinkNode>(sink).goodput.sums().to_vec(),
        )
    };
    assert_eq!(run(), run());
}

/// The facade crate re-exports fit together type-wise.
#[test]
fn facade_reexports_are_usable() {
    let hdr = mtp::wire::MtpHeader::default();
    let bytes = hdr.to_sealed_bytes().expect("encodable");
    assert_eq!(
        bytes.len(),
        mtp::wire::FIXED_HEADER_LEN + mtp::wire::PAYLOAD_CSUM_LEN
    );
    let caps = mtp::core::capabilities::mtp();
    assert_eq!(caps.score(), 5);
    let d = mtp::workload::SizeDist::web_search();
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    assert!(d.sample(&mut rng) > 0);
}

/// A leaf-spine fabric built from the bench topology helpers carries a
/// permutation workload to completion with per-spine pathlet state at
/// every sender.
#[test]
fn leaf_spine_fabric_completes_permutation() {
    use mtp::bench::topo::{leaf_spine, ls_addr, PathSpec};
    use mtp::net::Strategy;
    use mtp::wire::PathletId;

    const LEAVES: usize = 2;
    const SPINES: usize = 2;
    const HPL: usize = 2;
    // Leaf 0 hosts send; leaf 1 hosts sink: sender (0, i) -> sink (1, i),
    // so every message crosses the spine layer.
    let mut ls = leaf_spine(
        5,
        LEAVES,
        SPINES,
        HPL,
        |leaf, i, addr| {
            if leaf == 0 {
                let dst = ls_addr(1, HPL, i);
                Box::new(MtpSenderNode::new(
                    MtpConfig::default(),
                    addr,
                    dst,
                    mtp::wire::EntityId(i as u16),
                    ((i + 1) as u64) << 40,
                    (0..10)
                        .map(|m| {
                            ScheduledMsg::new(Time::ZERO + Duration::from_micros(5 * m), 40_000)
                        })
                        .collect(),
                ))
            } else {
                Box::new(MtpSinkNode::new(addr, Duration::from_micros(100)))
            }
        },
        |_| {
            Strategy::mtp_lb(
                SPINES,
                (0..SPINES).map(|s| Some(PathletId(s as u16 + 1))).collect(),
            )
        },
        PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1)),
        PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1)),
        false,
    );
    ls.sim.run_until(Time::ZERO + Duration::from_millis(20));
    mtp::sim::assert_conservation(&ls.sim);
    let mut goodput = 0;
    for (k, &h) in ls.hosts.iter().enumerate() {
        if k < HPL {
            let s = ls.sim.node_as::<MtpSenderNode>(h);
            assert!(s.all_done(), "sender {k} incomplete");
            assert!(
                !s.sender.pathlets().is_empty(),
                "sender {k} learned spine pathlets"
            );
        } else {
            goodput += ls.sim.node_as::<MtpSinkNode>(h).total_goodput();
        }
    }
    assert_eq!(goodput, HPL as u64 * 10 * 40_000);
}
