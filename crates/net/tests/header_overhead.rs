//! Header overhead as feedback hops append entries (paper §4, "Packet
//! Header Overheads"): a 10 MB message crosses two switches, of which
//! the first 0, 1 or 2 stamp, the first a `Presence` entry and the
//! second a larger `QueueDepth` one. Every byte the sink-side link
//! carries beyond the delivered payload is header, so the bytes per
//! packet are the header each data packet carries.

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_net::{Stamp, StampKind, StaticForwarder, StaticRoutes, SwitchNode};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{LinkCfg, PortId, Simulator};
use mtp_wire::{EntityId, PathletId};

const SRC: u16 = 1;
const DST: u16 = 2;

/// `(header bytes per packet, header bytes as % of goodput)` with the
/// first `hops` of the two switches stamping.
fn overhead(hops: usize) -> (f64, f64) {
    let mut sim = Simulator::new(13);
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        SRC,
        DST,
        EntityId(0),
        1 << 40,
        vec![ScheduledMsg::new(Time::ZERO, 10_000_000)],
    )));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(DST, Duration::from_micros(100))));
    let switches: Vec<_> = (0..2)
        .map(|i| {
            let routes = StaticRoutes::new().add(SRC, PortId(0)).add(DST, PortId(1));
            let mut sw = SwitchNode::new(format!("sw{i}"), Box::new(StaticForwarder(routes)));
            if i < hops {
                let kind = [StampKind::Presence, StampKind::QueueDepth][i];
                sw = sw.with_stamp(PortId(1), Stamp::new(PathletId(i as u16 + 1), kind));
            }
            sim.add_node(Box::new(sw))
        })
        .collect();
    let link = || LinkCfg::ecn(Bandwidth::from_gbps(100), Duration::from_micros(1), 128, 20);
    sim.connect(snd, PortId(0), switches[0], PortId(0), link(), link());
    sim.connect(
        switches[0],
        PortId(1),
        switches[1],
        PortId(0),
        link(),
        link(),
    );
    let (to_sink, _) = sim.connect(switches[1], PortId(1), sink, PortId(0), link(), link());
    sim.run_until(Time::ZERO + Duration::from_millis(20));
    mtp_sim::assert_conservation(&sim);

    let goodput = sim.node_as::<MtpSinkNode>(sink).total_goodput();
    assert_eq!(goodput, 10_000_000, "{hops} hops: the message must arrive");
    let stats = sim.link_stats(to_sink);
    let hdr_bytes = (stats.tx_bytes - goodput) as f64;
    (
        hdr_bytes / stats.tx_pkts as f64,
        hdr_bytes / goodput as f64 * 100.0,
    )
}

#[test]
fn each_feedback_hop_adds_its_entry_to_every_packet() {
    assert_eq!(overhead(0), (44.0, 3.0140000000000002));
    assert_eq!(overhead(1), (50.0, 3.4250000000000003));
    assert_eq!(overhead(2), (59.0, 4.0415));
}
