//! The control plane's acceptance rules, one endpoint at a time, against
//! a fake peer: a loopback socket that seals `SessionCtrl` frames by
//! hand. Both ends run every control frame through one check — it
//! parses and fills its frame exactly (else `wire_parse_errors`), it is
//! of this wire version and a HELLO-ACK advertises usable ports (else
//! `session_ctrl_rejected`) — and then through the endpoint's own rule
//! for whose session it names and what state that session is in.
//!
//! Each case asserts the counter the frame lands in and that it never
//! established, closed or killed a session. Loopback queues a datagram
//! before its send returns, so one turn that reads a datagram has read
//! the frame. Skips VISIBLY (a NOTICE on stderr) when UDP loopback is
//! unavailable.

mod common;

use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::{Duration, Instant};

use mtp_io::socket::wait_readable;
use mtp_io::{
    append_ctrl_frame, loopback_available, BatchSocket, FrameIter, FrameKind, Listener,
    SenderSession, SessionConfig, SessionError, SessionState, DEFAULT_DATAGRAM_BUDGET,
    HANDSHAKE_TRIES,
};
use mtp_sim::time::Duration as SimDuration;
use mtp_telemetry::{Metric, Registry};
use mtp_wire::{CtrlKind, SessionCtrl};

const WALL: Duration = Duration::from_secs(10);
/// The listener session id the fake peer hands out when it means it.
const SERVER_SID: u64 = 0x5E2F_0001;

fn loopback(test: &str) -> bool {
    if loopback_available() {
        return true;
    }
    eprintln!("NOTICE: UDP loopback unavailable; skipping {test}");
    false
}

/// `(wire_parse_errors, session_ctrl_rejected)`.
fn refused(registry: &Registry) -> (u64, u64) {
    (
        registry.get(Metric::WireParseErrors),
        registry.get(Metric::SessionCtrlRejected),
    )
}

/// `ctrl` sealed into a datagram of its own, as either end sends it.
fn datagram(ctrl: &SessionCtrl) -> Vec<u8> {
    let mut dgram = Vec::new();
    assert!(append_ctrl_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, ctrl).expect("seal"));
    dgram
}

/// `ctrl`'s datagram with one byte more in its frame, after the CRC.
fn with_trailing_byte(ctrl: &SessionCtrl) -> Vec<u8> {
    let mut dgram = datagram(ctrl);
    let len = u16::from_be_bytes([dgram[0], dgram[1]]) + 1;
    dgram[..2].copy_from_slice(&len.to_be_bytes());
    dgram.push(0);
    dgram
}

/// The other end, played by hand.
struct Peer {
    sock: BatchSocket,
}

impl Peer {
    fn bind() -> Peer {
        let sock = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("bind");
        Peer { sock }
    }

    fn addr(&self) -> SocketAddrV4 {
        self.sock.local_addr().expect("local addr")
    }

    fn send(&self, to: SocketAddrV4, dgram: &[u8]) {
        self.sock.send_batch(&[(to, dgram)]).expect("send");
    }

    /// The control frames queued, waiting up to `within` for the first.
    fn recv(&self, within: Duration) -> Vec<(SessionCtrl, SocketAddrV4)> {
        let deadline = Instant::now() + within;
        loop {
            let mut dgrams = Vec::new();
            self.sock.recv_batch(2048, &mut dgrams).expect("recv");
            let got: Vec<_> = dgrams
                .iter()
                .flat_map(|(bytes, src)| {
                    FrameIter::new(bytes).filter_map(move |frame| match frame {
                        Ok((FrameKind::Ctrl, body)) => {
                            Some((SessionCtrl::parse_sealed(body).expect("sealed").0, *src))
                        }
                        _ => None,
                    })
                })
                .collect();
            let now = Instant::now();
            if !got.is_empty() || now >= deadline {
                return got;
            }
            wait_readable([&self.sock], deadline - now).expect("wait");
        }
    }

    /// The next HELLO, and where it came from.
    fn hello(&self) -> (SessionCtrl, SocketAddrV4) {
        loop {
            let got = self.recv(WALL);
            assert!(!got.is_empty(), "no HELLO within {WALL:?}");
            if let Some(hello) = got.into_iter().find(|(c, _)| c.kind == CtrlKind::Hello) {
                return hello;
            }
        }
    }

    /// The HELLO-ACK a listener at this address would send for `hello`.
    fn ack(&self, hello: &SessionCtrl) -> SessionCtrl {
        let mut ack = SessionCtrl::new(CtrlKind::HelloAck, hello.session_id, SERVER_SID);
        (ack.src_port, ack.dst_port, ack.seq) = (hello.dst_port, hello.src_port, hello.seq);
        ack.ports = vec![self.addr().port()];
        ack
    }
}

/// Handshake rounds long enough that an answer to one HELLO always
/// lands in its own round.
fn slow_rounds() -> SessionConfig {
    SessionConfig {
        handshake_rto: SimDuration::from_micros(20_000),
        handshake_rto_max: SimDuration::from_micros(20_000),
        ..SessionConfig::default()
    }
}

/// Serve `sess` until it has read one more datagram.
fn sender_reads_one(sess: &mut SenderSession) {
    let before = sess.registry().get(Metric::WireDatagramsRx);
    let deadline = Instant::now() + WALL;
    while sess.registry().get(Metric::WireDatagramsRx) == before {
        assert!(Instant::now() < deadline, "the session never read it");
        sess.poll().expect("a refused frame fails nothing");
    }
}

/// Serve `listener` until it has read one more datagram.
fn listener_reads_one(listener: &mut Listener) {
    let before = listener.registry().get(Metric::WireDatagramsRx);
    let deadline = Instant::now() + WALL;
    while listener.registry().get(Metric::WireDatagramsRx) == before {
        assert!(Instant::now() < deadline, "the listener never read it");
        listener.poll_once().expect("a refused frame fails nothing");
    }
}

/// A HELLO-ACK the connector cannot use does not establish: the answer
/// to the next HELLO does.
#[test]
fn a_hello_ack_the_connector_cannot_use_is_refused() {
    if !loopback("a_hello_ack_the_connector_cannot_use_is_refused") {
        return;
    }
    type Spoil = fn(&mut SessionCtrl);
    let cases: [(&str, Spoil, bool, (u64, u64)); 5] = [
        ("wrong version", |a| a.version = 2, false, (0, 1)),
        ("foreign session id", |a| a.session_id ^= 2, false, (0, 1)),
        ("empty port list", |a| a.ports.clear(), false, (0, 1)),
        ("port 0", |a| a.ports.push(0), false, (0, 1)),
        ("trailing byte after the CRC", |_| {}, true, (1, 0)),
    ];
    for (case, spoil, trailing, counted) in cases {
        let peer = Peer::bind();
        let cfg = slow_rounds();
        let sess = std::thread::scope(|s| {
            s.spawn(|| {
                let (hello, from) = peer.hello();
                let mut bad = peer.ack(&hello);
                bad.peer_session_id = SERVER_SID + 1;
                spoil(&mut bad);
                let dgram = if trailing {
                    with_trailing_byte(&bad)
                } else {
                    datagram(&bad)
                };
                peer.send(from, &dgram);
                let (hello, from) = peer.hello();
                peer.send(from, &datagram(&peer.ack(&hello)));
            });
            SenderSession::connect(&cfg, peer.addr())
        })
        .unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(refused(sess.registry()), counted, "{case}: counted as");
        assert_eq!(sess.handshake_rounds(), 2, "{case}: established early");
        assert_eq!(sess.peer_session_id(), SERVER_SID, "{case}");
        assert_eq!(sess.state(), SessionState::Established, "{case}");
    }
}

/// UDP cannot send to port 0: a listener that only ever advertises it
/// leaves the connector retrying to its typed timeout, not established
/// with a first flush bound to fail.
#[test]
fn a_hello_ack_advertising_port_zero_ends_in_a_handshake_timeout() {
    if !loopback("a_hello_ack_advertising_port_zero_ends_in_a_handshake_timeout") {
        return;
    }
    let peer = Peer::bind();
    let cfg = SessionConfig {
        handshake_rto: SimDuration::from_micros(2_000),
        handshake_rto_max: SimDuration::from_micros(4_000),
        ..slow_rounds()
    };
    let (hellos, connected) = std::thread::scope(|s| {
        let answering = s.spawn(|| {
            let mut hellos = 0;
            while hellos < HANDSHAKE_TRIES {
                let (hello, from) = peer.hello();
                let mut ack = peer.ack(&hello);
                ack.ports = vec![0];
                peer.send(from, &datagram(&ack));
                hellos += 1;
            }
            hellos
        });
        let connected = SenderSession::connect(&cfg, peer.addr());
        (answering.join().expect("peer"), connected)
    });
    assert_eq!(hellos, HANDSHAKE_TRIES);
    match connected {
        Err(SessionError::HandshakeTimeout { tries, .. }) => assert_eq!(tries, HANDSHAKE_TRIES),
        Err(e) => panic!("expected a handshake timeout, got {e}"),
        Ok(_) => panic!("established on a HELLO-ACK advertising port 0"),
    }
}

/// Once established, a duplicate HELLO-ACK is proof of life and nothing
/// more (it re-establishes nothing, even naming other ports and another
/// listener session); a frame of a foreign session or another version is
/// refused. None of them fails or closes the session.
#[test]
fn an_established_connector_takes_a_duplicate_hello_ack_as_proof_of_life() {
    if !loopback("an_established_connector_takes_a_duplicate_hello_ack") {
        return;
    }
    let peer = Peer::bind();
    let cfg = slow_rounds();
    let (mut sess, hello, from) = std::thread::scope(|s| {
        let answering = s.spawn(|| {
            let (hello, from) = peer.hello();
            peer.send(from, &datagram(&peer.ack(&hello)));
            (hello, from)
        });
        let sess = SenderSession::connect(&cfg, peer.addr()).expect("connect");
        let (hello, from) = answering.join().expect("peer");
        (sess, hello, from)
    });
    let mut duplicate = peer.ack(&hello);
    duplicate.peer_session_id = SERVER_SID + 1;
    duplicate.ports = vec![1, 2, 3];
    let foreign = SessionCtrl::new(CtrlKind::Pong, hello.session_id ^ 2, SERVER_SID);
    let mut other_version = SessionCtrl::new(CtrlKind::Pong, hello.session_id, SERVER_SID);
    other_version.version = 2;
    for (case, frame, counted) in [
        ("duplicate HELLO-ACK", duplicate, (0, 0)),
        ("foreign session id", foreign, (0, 1)),
        ("wrong version", other_version, (0, 1)),
    ] {
        let before = refused(sess.registry());
        let heard = sess.registry().get(Metric::WireFramesRx);
        peer.send(from, &datagram(&frame));
        sender_reads_one(&mut sess);
        let after = refused(sess.registry());
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            counted,
            "{case}: counted as"
        );
        assert_eq!(
            sess.registry().get(Metric::WireFramesRx),
            heard + 1,
            "{case}"
        );
        assert_eq!(sess.peer_session_id(), SERVER_SID, "{case}: re-established");
        assert_eq!(sess.state(), SessionState::Established, "{case}");
    }
}

/// What a listener refuses, each on a listener that keeps serving: the
/// last HELLO, a good one, still opens a session. Then another
/// connector's HELLO is refused too, answered with a BUSY while the
/// session is established and with silence once it is in TIME-WAIT.
#[test]
fn the_listener_refuses_what_it_cannot_accept() {
    if !loopback("the_listener_refuses_what_it_cannot_accept") {
        return;
    }
    let cfg = SessionConfig::default();
    let mut listener = Listener::bind(&cfg).expect("bind listener");
    let ctrl = listener.hello_addr().expect("ctrl addr");
    let data = listener.pathlet_addrs()[0];
    let peer = Peer::bind();
    let frame_of = |kind, client_sid| {
        let mut c = SessionCtrl::new(kind, client_sid, 0);
        (c.src_port, c.dst_port) = (cfg.client_port, cfg.server_port);
        c
    };
    let frame = |kind| frame_of(kind, 0xC11E_0001);
    let mut other_version = frame(CtrlKind::Hello);
    other_version.version = 2;
    for (case, to, dgram, counted) in [
        ("wrong version", ctrl, datagram(&other_version), (0, 1)),
        (
            "trailing byte after the CRC",
            ctrl,
            with_trailing_byte(&frame(CtrlKind::Hello)),
            (1, 0),
        ),
        (
            "on a data socket",
            data,
            datagram(&frame(CtrlKind::Hello)),
            (0, 1),
        ),
        (
            "PING of no session",
            ctrl,
            datagram(&frame(CtrlKind::Ping)),
            (0, 1),
        ),
        (
            "FIN of no session",
            ctrl,
            datagram(&frame(CtrlKind::Fin)),
            (0, 1),
        ),
        (
            "HELLO-ACK",
            ctrl,
            datagram(&peer.ack(&frame(CtrlKind::Hello))),
            (0, 1),
        ),
    ] {
        let before = refused(listener.registry());
        peer.send(to, &dgram);
        listener_reads_one(&mut listener);
        let after = refused(listener.registry());
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            counted,
            "{case}: counted as"
        );
        assert_eq!(listener.active_sessions(), 0, "{case}: opened a session");
        assert!(peer.recv(Duration::ZERO).is_empty(), "{case}: answered");
    }
    peer.send(ctrl, &datagram(&frame(CtrlKind::Hello)));
    listener_reads_one(&mut listener);
    assert_eq!(listener.active_sessions(), 1);
    let answers = peer.recv(Duration::ZERO);
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].0.kind, CtrlKind::HelloAck);
    let ports: Vec<u16> = listener.pathlet_addrs().iter().map(|a| a.port()).collect();
    assert_eq!(answers[0].0.ports, ports);
    let server_sid = answers[0].0.peer_session_id;

    let another = frame_of(CtrlKind::Hello, 0xC11E_0005);
    let mut fin = frame(CtrlKind::Fin);
    fin.peer_session_id = server_sid;
    for (case, dgram, answer) in [
        (
            "another connector",
            datagram(&another),
            Some(CtrlKind::Busy),
        ),
        (
            "the held session's FIN",
            datagram(&fin),
            Some(CtrlKind::FinAck),
        ),
        ("another connector in TIME-WAIT", datagram(&another), None),
    ] {
        let before = refused(listener.registry());
        peer.send(ctrl, &dgram);
        listener_reads_one(&mut listener);
        let after = refused(listener.registry());
        let refusal = u64::from(answer != Some(CtrlKind::FinAck));
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (0, refusal),
            "{case}"
        );
        assert_eq!(
            listener.active_sessions(),
            1,
            "{case}: opened or dropped one"
        );
        let answers = peer.recv(Duration::ZERO);
        assert_eq!(answers.iter().map(|a| a.0.kind).next(), answer, "{case}");
        assert!(answers.len() <= 1, "{case}: answered twice");
        if let [(busy, _)] = &answers[..] {
            let sids = (busy.session_id, busy.peer_session_id);
            let want = if answer == Some(CtrlKind::Busy) {
                (0xC11E_0005, 0)
            } else {
                (0xC11E_0001, server_sid)
            };
            assert_eq!(sids, want, "{case}: the answer names");
        }
    }
}

/// A duplicate HELLO and a duplicate FIN are answered again from the
/// session held; a FIN once the session is finalized is refused and
/// unanswered, and finalizes nothing twice.
#[test]
fn a_fin_for_a_finalized_session_is_refused() {
    if !loopback("a_fin_for_a_finalized_session_is_refused") {
        return;
    }
    let cfg = SessionConfig {
        linger: SimDuration::from_micros(2_000),
        ..SessionConfig::default()
    };
    let mut listener = Listener::bind(&cfg).expect("bind listener");
    let ctrl = listener.hello_addr().expect("ctrl addr");
    let peer = Peer::bind();
    let frame = |kind| {
        let mut c = SessionCtrl::new(kind, 0xC11E_0003, 0);
        (c.src_port, c.dst_port) = (cfg.client_port, cfg.server_port);
        c
    };
    // Each frame twice: the second is a duplicate, answered alike.
    let mut server_sid = None;
    for (kind, answer) in [
        (CtrlKind::Hello, CtrlKind::HelloAck),
        (CtrlKind::Hello, CtrlKind::HelloAck),
        (CtrlKind::Fin, CtrlKind::FinAck),
        (CtrlKind::Fin, CtrlKind::FinAck),
    ] {
        peer.send(ctrl, &datagram(&frame(kind)));
        listener_reads_one(&mut listener);
        let got = peer.recv(Duration::ZERO);
        assert_eq!(got.len(), 1, "{kind:?} answered once");
        assert_eq!(got[0].0.kind, answer);
        let sid = *server_sid.get_or_insert(got[0].0.peer_session_id);
        assert_eq!(
            got[0].0.peer_session_id, sid,
            "{kind:?} opened another session"
        );
        assert_eq!(listener.active_sessions(), 1, "TIME-WAIT holds the session");
    }
    let deadline = Instant::now() + WALL;
    while listener.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "the linger never expired");
        listener.poll_once().expect("listener turn");
    }
    assert_eq!(listener.take_finished().len(), 1);

    let before = refused(listener.registry());
    peer.send(ctrl, &datagram(&frame(CtrlKind::Fin)));
    listener_reads_one(&mut listener);
    assert_eq!(refused(listener.registry()), (before.0, before.1 + 1));
    assert!(
        peer.recv(Duration::ZERO).is_empty(),
        "a FIN-ACK from nothing"
    );
    assert_eq!(listener.active_sessions(), 0);
    assert!(listener.take_finished().is_empty(), "finalized twice");
    assert_eq!(listener.registry().get(Metric::SessionPeerDeaths), 0);
}

/// A second connector to a listener holding an established session hears
/// BUSY on its first HELLO and fails typed within that round — not after
/// its whole backoff (about 0.8 s of silence at the default timers) —
/// and the first session still completes, exactly once.
#[test]
fn a_second_connector_hears_busy_within_one_round() {
    if !loopback("a_second_connector_hears_busy_within_one_round") {
        return;
    }
    const MESSAGES: usize = 16;
    let cfg = SessionConfig::default();
    let (mut listener, mut first) = common::connect(&cfg);
    let server = listener.hello_addr().expect("ctrl addr");
    // One round long enough that a retry inside it would be a bug.
    let round = SimDuration::from_micros(200_000);
    let second = SessionConfig {
        handshake_rto: round,
        handshake_rto_max: round,
        seed: 1,
        ..cfg.clone()
    };
    let began = Instant::now();
    let refused = common::served(&mut listener, || SenderSession::connect(&second, server));
    let took = began.elapsed();
    match refused {
        Err(e @ SessionError::Busy) => assert_eq!(e.kind(), "busy"),
        Err(e) => panic!("expected BUSY, got {e}"),
        Ok(_) => panic!("a second session opened"),
    }
    assert!(took < Duration::from_millis(200), "BUSY took {took:?}");
    let refused = listener.registry().get(Metric::SessionCtrlRejected);
    assert_eq!(refused, 1, "one HELLO, one BUSY");
    assert_eq!(listener.active_sessions(), 1);

    let base = first.next_msg_id();
    for _ in 0..MESSAGES {
        first
            .try_send(common::message(first.next_msg_id(), 512))
            .expect("submit");
    }
    let deadline = Instant::now() + WALL;
    while first.completions().len() < MESSAGES {
        assert!(Instant::now() < deadline, "the first session stalled");
        listener.poll_once().expect("listener turn");
        first.poll().expect("session turn");
    }
    let report = common::close("busy", &mut listener, &mut first, deadline);
    common::assert_exactly_once("busy", base, MESSAGES, 512, &report);
    assert!(listener.take_finished().is_empty(), "finished twice");
}

/// `Listener::wait` sleeps no later than the held session's idle death: a
/// connector dropped without a FIN leaves a listener blocked in
/// `wait(5 s)` for at most the idle timeout, and the next turn reaps the
/// session as a peer death.
#[test]
fn a_listener_wait_wakes_for_a_silent_peer_s_death() {
    if !loopback("a_listener_wait_wakes_for_a_silent_peer_s_death") {
        return;
    }
    let idle = Duration::from_millis(300);
    let cfg = SessionConfig {
        idle_timeout: SimDuration::from_micros(idle.as_micros() as u64),
        ..SessionConfig::default()
    };
    let (mut listener, sess) = common::connect(&cfg);
    drop(sess);
    listener.poll_once().expect("listener turn");
    let began = Instant::now();
    listener.wait(Duration::from_secs(5)).expect("wait");
    let waited = began.elapsed();
    assert!(
        waited <= idle + Duration::from_millis(100),
        "waited {waited:?}"
    );
    listener.poll_once().expect("listener turn");
    assert_eq!(listener.active_sessions(), 0, "the dead session is held");
    assert_eq!(listener.registry().get(Metric::SessionPeerDeaths), 1);
    assert!(listener.take_finished().is_empty(), "a death is no finish");
}
