//! Quickstart: send one MTP message across a two-switch network and watch
//! the pieces work — fragmentation, pathlet stamping, SACKs, completion.
//!
//! Run with: `cargo run --example quickstart`

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_net::{Stamp, StampKind, StaticForwarder, StaticRoutes, SwitchNode};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{LinkCfg, PortId, Simulator};
use mtp_wire::{EntityId, MtpHeader, PathletId};

fn main() {
    // 1. The wire format itself: build a header, seal it (header CRC plus
    //    payload-checksum trailer), verify and parse it back.
    let hdr = MtpHeader {
        src_port: 1,
        dst_port: 2,
        msg_id: mtp_wire::MsgId(42),
        msg_len_bytes: 64 * 1024,
        msg_len_pkts: 45,
        ..MtpHeader::default()
    };
    let bytes = hdr.to_sealed_bytes().expect("encodable");
    let (parsed, used, payload_ok) = MtpHeader::parse_sealed(&bytes).expect("decodable");
    assert_eq!(parsed, hdr);
    assert!(payload_ok);
    println!("wire format: {} sealed header bytes round-trip ok", used);

    // 2. A small network: sender - switch - sink, with the switch stamping
    //    pathlet feedback into every data packet.
    let mut sim = Simulator::new(1);
    let sender = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        1, // our address
        2, // destination address
        EntityId(7),
        1000, // message-id base
        vec![ScheduledMsg::new(Time::ZERO, 1_000_000)],
    )));
    let sw = sim.add_node(Box::new(
        SwitchNode::new(
            "sw",
            Box::new(StaticForwarder(
                StaticRoutes::new().add(1, PortId(0)).add(2, PortId(1)),
            )),
        )
        .with_stamp(PortId(1), Stamp::new(PathletId(1), StampKind::Presence)),
    ));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(10))));

    let rate = Bandwidth::from_gbps(100);
    let d = Duration::from_micros(1);
    sim.connect(
        sender,
        PortId(0),
        sw,
        PortId(0),
        LinkCfg::ecn(rate, d, 128, 20),
        LinkCfg::ecn(rate, d, 128, 20),
    );
    sim.connect(
        sw,
        PortId(1),
        sink,
        PortId(0),
        LinkCfg::ecn(rate, d, 128, 20),
        LinkCfg::ecn(rate, d, 128, 20),
    );

    // 3. Run to completion.
    sim.run();

    let snd = sim.node_as::<MtpSenderNode>(sender);
    let rcv = sim.node_as::<MtpSinkNode>(sink);
    let fct = snd.msgs[0].fct().expect("message completed");
    println!("sent 1 MB as {} packets", snd.sender.stats.pkts_sent);
    println!("delivered {} bytes in {}", rcv.total_goodput(), fct);
    println!(
        "sender now tracks {} pathlet controller(s); active = {:?}",
        snd.sender.pathlets().len(),
        snd.sender.active_pathlet().0
    );
    let mean_gbps = rcv.total_goodput() as f64 * 8.0 / fct.as_secs_f64() / 1e9;
    println!("effective goodput {mean_gbps:.1} Gbps on a 100 Gbps path");
    assert_eq!(rcv.total_goodput(), 1_000_000);
}
