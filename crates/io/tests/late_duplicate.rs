//! A copy of a delivered message's data frame that reaches the listener
//! long after the message completed is a duplicate, however late: the
//! receiver core keeps the ids of completed messages, not their records,
//! so there is no record to expire and nothing to deliver twice.
//!
//! A session delivers one one-frame message; then a plain UDP socket,
//! standing in for a network that held a copy back, sends a hand-sealed
//! copy of that frame to the listener's data socket 150 ms later, after a
//! listener turn at that age. Skips VISIBLY (a NOTICE on stderr) when UDP
//! loopback is unavailable.

mod common;

use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

use common::{assert_exactly_once, close, connect};
use mtp_io::{append_frame, loopback_available, SessionConfig, DEFAULT_DATAGRAM_BUDGET};
use mtp_telemetry::{Gauge, Metric};
use mtp_wire::types::flags;
use mtp_wire::{MsgId, MtpHeader, PktNum, PktType};

const MSG_LEN: usize = 512;
const WALL: Duration = Duration::from_secs(10);

#[test]
fn a_duplicate_after_the_old_linger_is_a_duplicate() {
    if !loopback_available() {
        eprintln!("NOTICE: UDP loopback unavailable; skipping a_duplicate_after_the_old_linger_is_a_duplicate");
        return;
    }
    let deadline = Instant::now() + WALL;
    let scfg = SessionConfig::default();
    let (mut listener, mut sess) = connect(&scfg);

    let id = sess.next_msg_id();
    let body = common::message(id, MSG_LEN);
    sess.try_send(body.clone()).expect("send");
    while sess.completions().is_empty() {
        assert!(Instant::now() < deadline, "the message never completed");
        listener.poll_once().expect("listener turn");
        sess.poll().expect("session turn");
    }
    assert_eq!(listener.delivered_snapshot(), [(id, MSG_LEN as u32)]);

    // The copy a slow path held back, sealed by hand.
    let hdr = MtpHeader {
        src_port: scfg.client_port,
        dst_port: scfg.server_port,
        pkt_type: PktType::Data,
        flags: flags::LAST_PKT,
        msg_id: MsgId(id),
        msg_len_pkts: 1,
        msg_len_bytes: MSG_LEN as u32,
        pkt_num: PktNum(0),
        pkt_len: MSG_LEN as u16,
        pkt_offset: 0,
        ..MtpHeader::default()
    };
    let mut dgram = Vec::new();
    assert!(append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &hdr, &body).expect("seal"));

    // Older than the 100 ms a completed record used to be kept for, and a
    // listener turn at that age, when the record used to be collected.
    std::thread::sleep(Duration::from_millis(150));
    listener.poll_once().expect("listener turn");
    let core = listener.core().expect("session held");
    let duplicates = core.stats.duplicates;
    let frames = listener.registry().get(Metric::WireFramesRx);

    let net = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("bind");
    net.send_to(&dgram, listener.pathlet_addrs()[0])
        .expect("send the late copy");
    while listener.registry().get(Metric::WireFramesRx) == frames {
        assert!(
            Instant::now() < deadline,
            "the listener never read the copy"
        );
        listener.poll_once().expect("listener turn");
    }

    let core = listener.core().expect("session held");
    assert_eq!(
        listener.delivered_snapshot(),
        [(id, MSG_LEN as u32)],
        "delivered twice"
    );
    assert_eq!(core.stats.duplicates, duplicates + 1, "not a duplicate");
    assert_eq!(core.in_reassembly(), 0, "a record for a completed message");
    assert_eq!(core.buffered_bytes(), 0);
    assert_eq!(listener.registry().gauge(Gauge::SessionReasmBytes), 0);

    let report = close("late_duplicate", &mut listener, &mut sess, deadline);
    assert_exactly_once("late_duplicate", id, 1, MSG_LEN, &report);
}
