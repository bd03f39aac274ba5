//! The listener reassembles each message into 64 KiB pieces and folds
//! delivered messages' content digests a piece at a time, up to four
//! messages in lockstep. Each message's digest must still be its own:
//! folded beside messages of any other length, across piece boundaries,
//! from frames that arrived out of order, folded when the session
//! finalizes with some left over, and dropped without a report when the
//! session dies with some waiting. The bytes waiting to fold
//! (`Gauge::SessionDigestBytes`) stay within twice the message delivered
//! last and return to 0 at finalize and at death.
//!
//! Skips VISIBLY (a NOTICE on stderr) when UDP loopback is unavailable.

// Mixed sizes: the digests are checked here, not by `assert_exactly_once`.
#[allow(dead_code)]
mod common;

use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

use mtp_io::{
    append_frame, loopback_available, payload, ChaosConfig, Listener, LossyRelay, RelayConfig,
    SenderSession, SessionConfig, SessionReport, DEFAULT_DATAGRAM_BUDGET,
};
use mtp_sim::time::Duration as SimDuration;
use mtp_telemetry::{Gauge, Metric};
use mtp_wire::{MsgId, MtpHeader, PktNum, PktType};

const WALL: Duration = Duration::from_secs(30);

fn loopback(test: &str) -> bool {
    if loopback_available() {
        return true;
    }
    eprintln!("NOTICE: UDP loopback unavailable; skipping {test}");
    false
}

/// Message lengths on both sides of the 64 KiB piece boundaries.
const STRADDLING: [u32; 4] = [65_535, 65_536, 65_537, 131_073];

/// One listener turn, then the digest backlog's bound: at most twice the
/// message delivered last.
fn listener_turn(listener: &mut Listener) {
    listener.poll_once().expect("listener turn");
    let last = listener.delivered_snapshot().last().map_or(0, |d| d.1);
    let waiting = listener.registry().gauge(Gauge::SessionDigestBytes);
    assert!(
        waiting <= 2 * i64::from(last),
        "{waiting} bytes wait to fold, last delivery {last} B"
    );
}

/// Send `sizes` on `sess`, serve until each completes, close, and check
/// every delivered message's digest and the emptied backlog.
fn deliver_and_check(
    ctx: &str,
    listener: &mut Listener,
    sess: &mut SenderSession,
    sizes: &[u32],
) -> SessionReport {
    let base = sess.next_msg_id();
    for &len in sizes {
        sess.try_send(common::message(sess.next_msg_id(), len as usize))
            .expect("submit");
    }
    let deadline = Instant::now() + WALL;
    while sess.completions().len() < sizes.len() {
        assert!(Instant::now() < deadline, "{ctx}: the session stalled");
        listener_turn(listener);
        sess.poll().expect("session turn");
    }
    let report = common::close(ctx, listener, sess, deadline);
    assert_eq!(listener.registry().gauge(Gauge::SessionDigestBytes), 0);

    let mut scratch = Vec::new();
    let want: Vec<(u64, u32, u64)> = (base..)
        .zip(sizes.iter().copied())
        .map(|(id, len)| {
            let digest = payload::synth_message_digest(MsgId(id), len, &mut scratch);
            (id, len, digest)
        })
        .collect();
    assert_eq!(report.digests, want, "{ctx}: per-message digests");
    report
}

/// An odd number of messages of unequal sizes, some straddling piece
/// boundaries: lanes fold unequal lengths, and what is left is folded at
/// finalize.
#[test]
fn every_digest_is_its_own_message_s_paired_or_left_over() {
    if !loopback("every_digest_is_its_own_message_s_paired_or_left_over") {
        return;
    }
    let mut sizes = vec![1, 1_460, 256 * 1024, 7, 70_001, 512, 3];
    sizes.extend(STRADDLING);
    let cfg = SessionConfig::default();
    let (mut listener, mut sess) = common::connect(&cfg);
    deliver_and_check("paired digests", &mut listener, &mut sess, &sizes);
}

/// Frames that a relay drops, duplicates and reorders land in their
/// pieces: messages straddling piece boundaries still digest as their
/// own.
#[test]
fn reordered_frames_land_in_their_pieces() {
    if !loopback("reordered_frames_land_in_their_pieces") {
        return;
    }
    let cfg = SessionConfig::default();
    let mut listener = Listener::bind(&cfg).expect("bind listener");
    let faults = RelayConfig {
        reorder_ppm: 100_000,
        ..RelayConfig::lossy(52)
    };
    let hello = listener.hello_addr().expect("ctrl addr");
    let relay = LossyRelay::start_session(
        faults,
        ChaosConfig::default(),
        hello,
        listener.pathlet_addrs(),
    )
    .expect("relay");
    let server = relay.ctrl_addr().expect("a session relay has a ctrl lane");
    let mut sess = common::served(&mut listener, || SenderSession::connect(&cfg, server))
        .expect("connect through the relay");
    let mut sizes = STRADDLING.repeat(3);
    sizes.push(256 * 1024);
    deliver_and_check("relayed digests", &mut listener, &mut sess, &sizes);
    let stats = relay.stop();
    assert!(
        stats.reordered > 0,
        "the relay reordered nothing: {stats:?}"
    );
}

/// A session that dies with a delivered message still waiting for its
/// digest partner reports nothing, and the listener's gauges return to
/// zero.
#[test]
fn a_death_with_a_digest_waiting_reports_nothing() {
    if !loopback("a_death_with_a_digest_waiting_reports_nothing") {
        return;
    }
    let cfg = SessionConfig {
        idle_timeout: SimDuration::from_micros(200_000),
        ..SessionConfig::default()
    };
    let (mut listener, mut sess) = common::connect(&cfg);
    // Three messages: the bytes of the last two wait to fold.
    for len in [4_000, 900, 12_345] {
        sess.try_send(common::message(sess.next_msg_id(), len))
            .expect("submit");
    }
    let deadline = Instant::now() + WALL;
    while sess.completions().len() < 3 {
        assert!(Instant::now() < deadline, "the session stalled");
        listener_turn(&mut listener);
        sess.poll().expect("session turn");
    }
    assert_eq!(listener.delivered_snapshot().len(), 3);
    let waiting = listener.registry().gauge(Gauge::SessionDigestBytes);
    assert!(waiting > 0, "no digest waits; the death tests nothing");
    drop(sess);
    while listener.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "the silent peer never died");
        listener.wait(Duration::from_millis(50)).expect("wait");
        listener.poll_once().expect("listener turn");
    }
    assert!(listener.take_finished().is_empty(), "a death is no finish");
    let registry = listener.registry();
    assert_eq!(registry.get(Metric::SessionPeerDeaths), 1);
    assert_eq!(registry.gauge(Gauge::SessionsActive), 0);
    assert_eq!(registry.gauge(Gauge::SessionReasmBytes), 0);
    assert_eq!(registry.gauge(Gauge::SessionDigestBytes), 0);
}

/// A message's first frame sizes its pieces, so a later frame that gives
/// the same message a different length is refused as a parse error,
/// unacknowledged, and the message is not delivered from it.
#[test]
fn a_frame_that_resizes_its_message_is_refused() {
    if !loopback("a_frame_that_resizes_its_message_is_refused") {
        return;
    }
    let cfg = SessionConfig::default();
    let (mut listener, mut sess) = common::connect(&cfg);
    let id = 7 << 48;
    let frame = |msg_len_bytes: u32, pkt: u32, offset: u32| {
        let hdr = MtpHeader {
            src_port: cfg.client_port,
            dst_port: cfg.server_port,
            pkt_type: PktType::Data,
            msg_id: MsgId(id),
            msg_len_pkts: 2,
            msg_len_bytes,
            pkt_num: PktNum(pkt),
            pkt_len: 1_000,
            pkt_offset: offset,
            ..MtpHeader::default()
        };
        let mut dgram = Vec::new();
        let body = vec![0xA5; 1_000];
        assert!(append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &hdr, &body).expect("seal"));
        dgram
    };
    let net = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("bind");
    let deadline = Instant::now() + WALL;
    // A 100 000-byte message begins, then its last packet claims 200 000
    // bytes and lands past the first length.
    for (dgram, refused) in [(frame(100_000, 0, 0), 0), (frame(200_000, 1, 150_000), 1)] {
        let (frames, errors) = (
            listener.registry().get(Metric::WireFramesRx),
            listener.registry().get(Metric::WireParseErrors),
        );
        net.send_to(&dgram, listener.pathlet_addrs()[0])
            .expect("send a hand-sealed frame");
        while listener.registry().get(Metric::WireFramesRx) == frames {
            assert!(Instant::now() < deadline, "the listener never read it");
            listener.poll_once().expect("listener turn");
        }
        let errors = listener.registry().get(Metric::WireParseErrors) - errors;
        assert_eq!(errors, refused, "parse errors");
    }
    assert!(
        listener.delivered_snapshot().is_empty(),
        "delivered from a refused frame"
    );
    let report = common::close("resized message", &mut listener, &mut sess, deadline);
    assert!(report.digests.is_empty());
}
