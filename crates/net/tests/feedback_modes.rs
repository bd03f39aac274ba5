//! Pathlet feedback, end to end: what the switch stamps reaches the
//! sender's per-pathlet controllers, and two TLV types from two switches
//! share one ACK (paper §3.1.3).

use mtp_core::{CcKind, MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_net::{Stamp, StampKind, StaticForwarder, StaticRoutes, SwitchNode};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{LinkCfg, NodeId, PortId, Simulator};
use mtp_wire::{EntityId, PathletId, TrafficClass};

const SRC: u16 = 1;
const DST: u16 = 2;

/// sender — switch (stamping) — sink, bottleneck 10 Gbps.
fn build(cfg: MtpConfig, stamp: Stamp, bytes: u32) -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(31);
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        cfg,
        SRC,
        DST,
        EntityId(0),
        1 << 40,
        vec![ScheduledMsg::new(Time::ZERO, bytes)],
    )));
    let sw = sim.add_node(Box::new(
        SwitchNode::new(
            "sw",
            Box::new(StaticForwarder(
                StaticRoutes::new().add(SRC, PortId(0)).add(DST, PortId(1)),
            )),
        )
        .with_stamp(PortId(1), stamp),
    ));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(DST, Duration::from_micros(100))));
    let host = Bandwidth::from_gbps(100);
    let bottleneck = Bandwidth::from_gbps(10);
    let d = Duration::from_micros(2);
    sim.connect(
        snd,
        PortId(0),
        sw,
        PortId(0),
        LinkCfg::ecn(host, d, 256, 40),
        LinkCfg::ecn(host, d, 256, 40),
    );
    sim.connect(
        sw,
        PortId(1),
        sink,
        PortId(0),
        LinkCfg::ecn(bottleneck, d, 256, 40),
        LinkCfg::ecn(bottleneck, d, 256, 40),
    );
    (sim, snd, sink)
}

#[test]
fn fixed_window_ignores_all_feedback() {
    let cfg = MtpConfig {
        cc: CcKind::Fixed { window: 30_000 },
        ..MtpConfig::default()
    };
    let stamp = Stamp::new(PathletId(5), StampKind::Presence);
    let (mut sim, snd, _sink) = build(cfg, stamp, 5_000_000);
    sim.run_until(Time::ZERO + Duration::from_millis(60));
    mtp_sim::assert_conservation(&sim);
    let sender = sim.node_as::<MtpSenderNode>(snd);
    assert!(sender.all_done());
    let entry = sender
        .sender
        .pathlets()
        .get(PathletId(5), TrafficClass::BEST_EFFORT)
        .expect("pathlet tracked");
    assert_eq!(
        entry.cc.window(),
        30_000,
        "window pinned regardless of marks"
    );
}

/// Two pathlets in series, one reporting its queue depth and one
/// speaking ECN marks, both echoed in one ACK and consumed by one sender.
#[test]
fn queue_depth_and_ecn_pathlets_coexist_in_one_ack() {
    let mut sim = Simulator::new(32);
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        SRC,
        DST,
        EntityId(0),
        1 << 40,
        vec![ScheduledMsg::new(Time::ZERO, 5_000_000)],
    )));
    let sw1 = sim.add_node(Box::new(
        SwitchNode::new(
            "sw1",
            Box::new(StaticForwarder(
                StaticRoutes::new().add(SRC, PortId(0)).add(DST, PortId(1)),
            )),
        )
        .with_stamp(PortId(1), Stamp::new(PathletId(10), StampKind::QueueDepth)),
    ));
    let sw2 = sim.add_node(Box::new(
        SwitchNode::new(
            "sw2",
            Box::new(StaticForwarder(
                StaticRoutes::new().add(SRC, PortId(0)).add(DST, PortId(1)),
            )),
        )
        .with_stamp(PortId(1), Stamp::new(PathletId(11), StampKind::Presence)),
    ));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(DST, Duration::from_micros(100))));
    let host = Bandwidth::from_gbps(100);
    let mid = Bandwidth::from_gbps(10);
    let d = Duration::from_micros(1);
    sim.connect(
        snd,
        PortId(0),
        sw1,
        PortId(0),
        LinkCfg::ecn(host, d, 256, 40),
        LinkCfg::ecn(host, d, 256, 40),
    );
    sim.connect(
        sw1,
        PortId(1),
        sw2,
        PortId(0),
        LinkCfg::ecn(mid, d, 256, 40),
        LinkCfg::ecn(mid, d, 256, 40),
    );
    sim.connect(
        sw2,
        PortId(1),
        sink,
        PortId(0),
        LinkCfg::ecn(mid, d, 128, 20),
        LinkCfg::ecn(mid, d, 128, 20),
    );
    sim.run_until(Time::ZERO + Duration::from_millis(60));
    mtp_sim::assert_conservation(&sim);

    let sender = sim.node_as::<MtpSenderNode>(snd);
    assert!(sender.all_done());
    let table = sender.sender.pathlets();
    // Both pathlets exist, each fed its own feedback type through the
    // default DCTCP-like controller.
    assert!(table
        .get(PathletId(10), TrafficClass::BEST_EFFORT)
        .is_some());
    assert!(table
        .get(PathletId(11), TrafficClass::BEST_EFFORT)
        .is_some());
    assert_eq!(sim.node_as::<MtpSinkNode>(sink).total_goodput(), 5_000_000);
}
