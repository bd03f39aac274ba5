//! End-to-end tests of the in-network devices: fair-share enforcement,
//! the TCP-terminating proxy, the KV cache offload, and the compressing
//! (data-mutating) offload.

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_net::{
    CompressorNode, FairShareEnforcer, KvCacheNode, KvClientNode, KvServerNode, StaticForwarder,
    StaticRoutes, SwitchNode, TcpProxyNode,
};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{LinkCfg, PortId, Simulator};
use mtp_tcp::{TcpConfig, TcpSenderNode, TcpSinkNode, TcpWorkloadMode};
use mtp_wire::EntityId;

/// Fig. 7 mechanism: two tenants share one queue; the enforcer equalizes
/// them even though tenant 2 offers 8x the messages.
#[test]
fn fairshare_enforcer_equalizes_unequal_tenants() {
    let mut sim = Simulator::new(7);
    let mk_sched = |n: u64, bytes: u32| -> Vec<ScheduledMsg> {
        (0..n)
            .map(|i| ScheduledMsg::new(Time::ZERO + Duration::from_micros(i / 8), bytes))
            .collect()
    };
    // Tenant 1: 50 messages; tenant 2: 400 messages, same sizes.
    let t1 = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        1,
        10,
        EntityId(1),
        1 << 32,
        mk_sched(50, 100_000),
    )));
    let t2 = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        2,
        11,
        EntityId(2),
        2 << 32,
        mk_sched(400, 100_000),
    )));
    let sw = sim.add_node(Box::new(
        SwitchNode::new(
            "shared",
            Box::new(StaticForwarder(
                StaticRoutes::new()
                    .add(1, PortId(0))
                    .add(2, PortId(1))
                    .add(10, PortId(2))
                    .add(11, PortId(2)),
            )),
        )
        .with_policy(Box::new(FairShareEnforcer::new(
            Bandwidth::from_gbps(100),
            Duration::from_micros(20),
        ))),
    ));
    let sw2 = sim.add_node(Box::new(SwitchNode::new(
        "right",
        Box::new(StaticForwarder(
            StaticRoutes::new()
                .add(10, PortId(1))
                .add(11, PortId(2))
                .add(1, PortId(0))
                .add(2, PortId(0)),
        )),
    )));
    let r1 = sim.add_node(Box::new(MtpSinkNode::new(10, Duration::from_micros(100))));
    let r2 = sim.add_node(Box::new(MtpSinkNode::new(11, Duration::from_micros(100))));

    let host = Bandwidth::from_gbps(100);
    let d = Duration::from_micros(1);
    sim.connect(
        t1,
        PortId(0),
        sw,
        PortId(0),
        LinkCfg::ecn(host, d, 256, 40),
        LinkCfg::ecn(host, d, 256, 40),
    );
    sim.connect(
        t2,
        PortId(0),
        sw,
        PortId(1),
        LinkCfg::ecn(host, d, 256, 40),
        LinkCfg::ecn(host, d, 256, 40),
    );
    // The shared bottleneck: one 100 Gbps / 10 us link, single ECN queue.
    sim.connect(
        sw,
        PortId(2),
        sw2,
        PortId(0),
        LinkCfg::ecn(host, Duration::from_micros(10), 256, 40),
        LinkCfg::ecn(host, Duration::from_micros(10), 256, 40),
    );
    sim.connect(
        sw2,
        PortId(1),
        r1,
        PortId(0),
        LinkCfg::ecn(host, d, 256, 40),
        LinkCfg::ecn(host, d, 256, 40),
    );
    sim.connect(
        sw2,
        PortId(2),
        r2,
        PortId(0),
        LinkCfg::ecn(host, d, 256, 40),
        LinkCfg::ecn(host, d, 256, 40),
    );

    let horizon = Time::ZERO + Duration::from_micros(600);
    sim.run_until(horizon);
    mtp_sim::assert_conservation(&sim);
    let g1 = sim.node_as::<MtpSinkNode>(r1).total_goodput() as f64;
    let g2 = sim.node_as::<MtpSinkNode>(r2).total_goodput() as f64;
    assert!(g1 > 0.0 && g2 > 0.0);
    let ratio = g2 / g1;
    assert!(
        ratio < 2.5,
        "tenant 2 must not get ~8x share; goodput ratio {ratio:.2} ({g1} vs {g2})"
    );
}

/// The Fig. 2 line: one persistent NewReno connection streaming 100 MB
/// from a 100 Gbps client through the proxy to a 40 Gbps server.
fn proxy_setup(relay_cap: Option<u64>) -> (Simulator, mtp_sim::NodeId) {
    let mut sim = Simulator::new(2);
    let cfg = TcpConfig {
        handshake: false,
        ..TcpConfig::default()
    };
    let client = sim.add_node(Box::new(TcpSenderNode::new(
        cfg.clone(),
        TcpWorkloadMode::Persistent,
        1,
        vec![(Time::ZERO, 100_000_000)],
    )));
    let proxy = sim.add_node(Box::new(TcpProxyNode::new(
        cfg.clone(),
        cfg.clone(),
        1,
        2,
        relay_cap,
    )));
    let sink = sim.add_node(Box::new(TcpSinkNode::new(cfg, Duration::from_micros(100))));
    let d = Duration::from_micros(2);
    // Client side 100 Gbps, server side 40 Gbps: the Fig. 2 mismatch.
    sim.connect(
        client,
        PortId(0),
        proxy,
        PortId(0),
        LinkCfg::drop_tail(Bandwidth::from_gbps(100), d, 1024),
        LinkCfg::drop_tail(Bandwidth::from_gbps(100), d, 1024),
    );
    sim.connect(
        proxy,
        PortId(1),
        sink,
        PortId(0),
        LinkCfg::drop_tail(Bandwidth::from_gbps(40), d, 1024),
        LinkCfg::drop_tail(Bandwidth::from_gbps(40), d, 1024),
    );
    (sim, proxy)
}

/// Fig. 2(a): unlimited window -> the proxy buffer grows with time.
#[test]
fn proxy_unlimited_window_buffers_grow() {
    let (mut sim, proxy) = proxy_setup(None);
    sim.run_until(Time::ZERO + Duration::from_micros(300));
    let early = sim.node_as::<TcpProxyNode>(proxy).buffered_bytes();
    sim.run_until(Time::ZERO + Duration::from_micros(1500));
    mtp_sim::assert_conservation(&sim);
    let late = sim.node_as::<TcpProxyNode>(proxy).buffered_bytes();
    assert!(
        late > early + 100_000,
        "buffer must keep growing at the 60 Gbps mismatch: {early} -> {late}"
    );
}

/// Fig. 2(b): a bounded relay keeps the proxy buffer flat (the client is
/// throttled by the advertised window instead).
#[test]
fn proxy_bounded_window_caps_buffer() {
    let cap = 64 * 1024;
    let (mut sim, proxy) = proxy_setup(Some(cap));
    sim.run_until(Time::ZERO + Duration::from_millis(2));
    mtp_sim::assert_conservation(&sim);
    let p = sim.node_as::<TcpProxyNode>(proxy);
    assert!(
        p.max_buffered <= 2 * cap + 64 * 1460,
        "relay must stay near the cap: max {}",
        p.max_buffered
    );
    assert!(
        p.relayed > 1_000_000,
        "data still flows through: {}",
        p.relayed
    );
}

/// The Fig. 1 cache scenario: hot keys answered by the cache, cold keys by
/// the (slower) backend.
#[test]
fn cache_answers_hot_keys_faster() {
    let mut sim = Simulator::new(3);
    let cfg = MtpConfig::default();
    // Client at 1, cache at 5 (inline), server at 2.
    // Requests: alternate hot key 7 and cold keys.
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
        256,
        1 << 32,
        schedule,
    )));
    let cache = sim.add_node(Box::new(KvCacheNode::new(
        cfg.clone(),
        5,
        [7u64],
        1024,
        2 << 32,
    )));
    let server = sim.add_node(Box::new(KvServerNode::new(
        cfg,
        2,
        1024,
        Duration::from_micros(2),
        3 << 32,
    )));
    let d = Duration::from_micros(1);
    let fast = Bandwidth::from_gbps(100);
    let slow = Bandwidth::from_gbps(10);
    sim.connect(
        client,
        PortId(0),
        cache,
        PortId(0),
        LinkCfg::ecn(fast, d, 256, 40),
        LinkCfg::ecn(fast, d, 256, 40),
    );
    // Backend is behind a slower link (the paper's differing-throughput
    // resources).
    sim.connect(
        cache,
        PortId(1),
        server,
        PortId(0),
        LinkCfg::ecn(slow, Duration::from_micros(5), 256, 40),
        LinkCfg::ecn(slow, Duration::from_micros(5), 256, 40),
    );
    sim.run_until(Time::ZERO + Duration::from_millis(20));
    mtp_sim::assert_conservation(&sim);

    let cache_stats = sim.node_as::<KvCacheNode>(cache).stats;
    assert_eq!(cache_stats.hits, 20, "every hot GET hits");
    assert_eq!(cache_stats.misses, 20);
    let client = sim.node_as::<KvClientNode>(client);
    assert_eq!(client.done(), 40, "all requests answered");
    let hot: Vec<Duration> = client
        .completions
        .iter()
        .filter(|(_, _, from_cache)| *from_cache)
        .map(|(_, l, _)| *l)
        .collect();
    let cold: Vec<Duration> = client
        .completions
        .iter()
        .filter(|(_, _, from_cache)| !*from_cache)
        .map(|(_, l, _)| *l)
        .collect();
    assert_eq!(hot.len(), 20);
    assert_eq!(cold.len(), 20);
    let mean = |v: &[Duration]| v.iter().map(|d| d.0).sum::<u64>() as f64 / v.len() as f64;
    assert!(
        mean(&hot) * 1.5 < mean(&cold),
        "cache hits must be clearly faster: hot {:.1}us cold {:.1}us",
        mean(&hot) / 1e6,
        mean(&cold) / 1e6
    );
}

/// Data mutation end to end: messages shrink in flight and still deliver.
#[test]
fn compressor_mutates_messages_in_flight() {
    let mut sim = Simulator::new(4);
    let cfg = MtpConfig::default();
    let schedule: Vec<ScheduledMsg> = (0..10)
        .map(|i| ScheduledMsg::new(Time::ZERO + Duration::from_micros(10 * i), 50_000))
        .collect();
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        cfg.clone(),
        1,
        2,
        EntityId(0),
        1 << 32,
        schedule,
    )));
    let comp = sim.add_node(Box::new(CompressorNode::new(cfg.clone(), 5, 0.4, 2 << 32)));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(100))));
    let d = Duration::from_micros(1);
    let bw = Bandwidth::from_gbps(100);
    sim.connect(
        snd,
        PortId(0),
        comp,
        PortId(0),
        LinkCfg::ecn(bw, d, 256, 40),
        LinkCfg::ecn(bw, d, 256, 40),
    );
    sim.connect(
        comp,
        PortId(1),
        sink,
        PortId(0),
        LinkCfg::ecn(bw, d, 256, 40),
        LinkCfg::ecn(bw, d, 256, 40),
    );
    sim.run_until(Time::ZERO + Duration::from_millis(20));
    mtp_sim::assert_conservation(&sim);

    let sender = sim.node_as::<MtpSenderNode>(snd);
    assert!(sender.all_done(), "upstream legs all acked");
    let comp = sim.node_as::<CompressorNode>(comp);
    assert_eq!(comp.stats.msgs, 10);
    assert_eq!(comp.stats.bytes_in, 500_000);
    assert_eq!(comp.stats.bytes_out, 200_000);
    // Buffering bounded by one message (the compressor knows sizes ahead).
    assert!(
        comp.stats.max_buffered <= 50_000,
        "bounded reassembly buffer, got {}",
        comp.stats.max_buffered
    );
    let sink = sim.node_as::<MtpSinkNode>(sink);
    assert_eq!(sink.total_goodput(), 200_000, "compressed bytes delivered");
    assert_eq!(sink.delivered.len(), 10);
    // Delivered messages are the *mutated* sizes.
    assert!(sink.delivered.iter().all(|m| m.bytes == 20_000));
}
