//! UDP segmentation offload on real loopback sockets: a run of equal
//! datagrams leaves as one kernel packet (`UDP_SEGMENT`) and may come
//! back as one (`UDP_GRO`), yet every receiver sees the datagrams that
//! were sent — each boundary, each byte, in order.
//!
//! * the same run at a plain receiver and at a `UDP_GRO` one;
//! * no run across a change of length or destination;
//! * the benchmark's socket probe shape (8 × ~9 000 B read with 64 B of
//!   slack) is never truncated, although a coalesced run is 63 000 B;
//! * a socket whose kernel refuses to segment (`SO_NO_CHECK`) switches
//!   segmentation off and resends;
//! * what the kernel's drop count counts once runs stay whole;
//! * a bulk session counts the datagrams it sent and received in runs.
//!
//! Skips VISIBLY (a NOTICE on stderr) when UDP loopback is unavailable
//! or the kernel offers no segmentation offload.

#![cfg(target_os = "linux")]

mod common;

use std::net::{Ipv4Addr, SocketAddrV4};
use std::os::fd::AsRawFd;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::{assert_exactly_once, close, connect, message};
use mtp_io::socket::{wait_readable, SendReport};
use mtp_io::sys::{self, run_len};
use mtp_io::{loopback_available, BatchSocket, SessionConfig, DEFAULT_DATAGRAM_BUDGET};
use mtp_telemetry::Metric;

/// The drop-count test starves a receive queue; the session test must
/// not share the host's two CPUs with anything else.
static SERIAL: Mutex<()> = Mutex::new(());

fn bind() -> BatchSocket {
    BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("bind")
}

/// Loopback with segmentation offload on a fresh socket; `false` after a
/// NOTICE naming `ctx` otherwise.
fn offload_available(ctx: &str) -> bool {
    if !loopback_available() {
        eprintln!("NOTICE: UDP loopback unavailable; skipping {ctx}");
        return false;
    }
    let probe = bind();
    if !probe.gso_enabled() || !probe.enable_gro() {
        eprintln!("NOTICE: no UDP_SEGMENT/UDP_GRO on this kernel; skipping {ctx}");
        return false;
    }
    true
}

/// `count` datagrams of `len` bytes, each filled with its own index so a
/// misplaced boundary shows.
fn datagrams(count: usize, len: usize, first: u8) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            (0..len)
                .map(|b| first.wrapping_add(i as u8) ^ b as u8)
                .collect()
        })
        .collect()
}

/// Read from `rx` until `want` datagrams arrived (or a second passed),
/// keeping each and adding up what the drains reported.
fn receive(rx: &BatchSocket, max_size: usize, want: usize) -> (Vec<Vec<u8>>, SendReport) {
    let (mut got, mut total) = (Vec::new(), SendReport::default());
    let deadline = Instant::now() + Duration::from_secs(1);
    while got.len() < want && Instant::now() < deadline {
        wait_readable([rx], Duration::from_millis(10)).expect("poll");
        let mut batch = Vec::new();
        let report = rx.recv_batch(max_size, &mut batch).expect("receive");
        got.extend(batch.into_iter().map(|(bytes, _src)| bytes));
        total.datagrams += report.datagrams;
        total.offloaded += report.offloaded;
        total.syscalls += report.syscalls;
    }
    (got, total)
}

#[test]
fn a_run_arrives_as_its_datagrams_at_a_plain_and_at_a_gro_receiver() {
    if !offload_available("a_run_arrives_as_its_datagrams") {
        return;
    }
    let (tx, plain, gro) = (bind(), bind(), bind());
    assert!(!plain.gro_enabled(), "UDP_GRO waits for a run");
    assert!(gro.enable_gro());
    // Six full datagrams and a 100 B tail: one run, one kernel packet.
    let mut sent = datagrams(6, DEFAULT_DATAGRAM_BUDGET, 1);
    sent.extend(datagrams(1, 100, 7));
    for rx in [&plain, &gro] {
        let to = rx.local_addr().unwrap();
        let batch: Vec<(SocketAddrV4, &[u8])> = sent.iter().map(|d| (to, &d[..])).collect();
        let report = tx.send_batch(&batch).expect("send");
        assert_eq!(
            (report.datagrams, report.offloaded, report.syscalls),
            (7, 7, 1)
        );
    }
    // The kernel cut the run for the plain receiver: seven packets.
    let (got, report) = receive(&plain, DEFAULT_DATAGRAM_BUDGET + 64, 7);
    assert_eq!(got, sent, "plain receiver");
    assert_eq!(report.offloaded, 0, "plain receiver");
    assert!(plain.gro_enabled(), "a drained run switches UDP_GRO on");
    // It kept it whole for the other: one packet, lent as seven.
    let (got, report) = receive(&gro, DEFAULT_DATAGRAM_BUDGET + 64, 7);
    assert_eq!(got, sent, "GRO receiver");
    assert_eq!((report.offloaded, report.syscalls), (7, 1), "GRO receiver");
}

#[test]
fn no_run_crosses_a_change_of_length_or_destination() {
    let (a, b) = (
        SocketAddrV4::new(Ipv4Addr::LOCALHOST, 1),
        SocketAddrV4::new(Ipv4Addr::LOCALHOST, 2),
    );
    let (full, short, tiny) = ([0u8; 9000], [0u8; 8000], [0u8; 100]);
    let dgrams: [(SocketAddrV4, &[u8]); 9] = [
        (a, &full),
        (a, &full),
        (a, &short), // a shorter one ends its run
        (a, &full),
        (b, &full), // another destination starts one
        (b, &full),
        (a, &tiny),
        (a, &full), // a longer one starts one
        (a, &[]),   // an empty one never joins
    ];
    let mut runs = Vec::new();
    let mut rest = &dgrams[..];
    while !rest.is_empty() {
        let run = run_len(rest, sys::GSO_MAX_SEGMENTS);
        runs.push(run);
        rest = &rest[run..];
    }
    assert_eq!(runs, [3, 1, 2, 1, 1, 1]);
    // Nothing joins a socket that will not segment.
    assert_eq!(run_len(&dgrams, 1), 1);
    // A run stops at 65 507 B and at 64 datagrams.
    let seven: Vec<(SocketAddrV4, &[u8])> = vec![(a, &full); 8];
    assert_eq!(run_len(&seven, sys::GSO_MAX_SEGMENTS), 7);
    let many: Vec<(SocketAddrV4, &[u8])> = vec![(a, &tiny); 100];
    assert_eq!(run_len(&many, sys::GSO_MAX_SEGMENTS), 64);

    if !offload_available("no_run_crosses_a_change") {
        return;
    }
    // The same shapes on the wire: each receiver gets its datagrams, in
    // order, at their lengths.
    let (tx, rx_a, rx_b) = (bind(), bind(), bind());
    assert!(rx_a.enable_gro() && rx_b.enable_gro());
    let (to_a, to_b) = (rx_a.local_addr().unwrap(), rx_b.local_addr().unwrap());
    let send: Vec<(SocketAddrV4, &[u8])> = dgrams[..8]
        .iter()
        .map(|&(to, d)| (if to == a { to_a } else { to_b }, d))
        .collect();
    let report = tx.send_batch(&send).expect("send");
    assert_eq!((report.datagrams, report.offloaded), (8, 5));
    let lens = |got: Vec<Vec<u8>>| got.iter().map(Vec::len).collect::<Vec<_>>();
    let (got, report) = receive(&rx_a, DEFAULT_DATAGRAM_BUDGET + 64, 6);
    assert_eq!(lens(got), [9000, 9000, 8000, 9000, 100, 9000]);
    assert_eq!(report.offloaded, 3);
    let (got, report) = receive(&rx_b, DEFAULT_DATAGRAM_BUDGET + 64, 2);
    assert_eq!(lens(got), [9000, 9000]);
    assert_eq!(report.offloaded, 2);
}

/// What the benchmark's `io.socket` probe does: 8 datagrams of a
/// session's typical size through `send_batch`, read back with
/// `recv_batch(len + 64)`. Seven of them are one 63 000 B packet at a
/// `UDP_GRO` receiver, far past `max_size`; none may lose a byte.
#[test]
fn the_socket_probe_shape_comes_back_whole() {
    if !offload_available("the_socket_probe_shape") {
        return;
    }
    let (tx, rx) = (bind(), bind());
    let to = rx.local_addr().unwrap();
    let dgram: Vec<u8> = (0..8_962u32).map(|i| (i % 251) as u8).collect();
    let batch: Vec<(SocketAddrV4, &[u8])> = (0..8).map(|_| (to, &dgram[..])).collect();
    let mut offloaded = 0;
    for round in 0..20 {
        tx.send_batch(&batch).expect("send");
        let (got, report) = receive(&rx, dgram.len() + 64, 8);
        assert_eq!(got.len(), 8, "round {round}");
        assert!(
            got.iter().all(|d| *d == dgram),
            "round {round}: a datagram changed"
        );
        offloaded += report.offloaded;
    }
    // The first round's drain saw a run and switched UDP_GRO on.
    assert!(rx.gro_enabled());
    assert_eq!(offloaded, 19 * 7, "every later round coalesced its run");
}

/// `SO_NO_CHECK` makes this kernel refuse a segmented send with
/// `EINVAL`: the socket must switch segmentation off for good and send
/// the same datagrams one per packet.
#[test]
fn a_refused_run_switches_segmentation_off_and_is_resent() {
    const SOL_SOCKET: i32 = 1;
    const SO_NO_CHECK: i32 = 11;
    if !offload_available("a_refused_run_switches_segmentation_off") {
        return;
    }
    let (tx, rx) = (bind(), bind());
    sys::set_option(tx.as_raw_fd(), SOL_SOCKET, SO_NO_CHECK, 1).expect("SO_NO_CHECK");
    assert!(tx.gso_enabled());
    let sent = datagrams(7, DEFAULT_DATAGRAM_BUDGET, 3);
    let to = rx.local_addr().unwrap();
    let batch: Vec<(SocketAddrV4, &[u8])> = sent.iter().map(|d| (to, &d[..])).collect();
    let report = tx.send_batch(&batch).expect("a refused run is resent");
    assert!(!tx.gso_enabled(), "the refusal latches");
    assert_eq!(
        (report.datagrams, report.offloaded, report.syscalls),
        (7, 0, 1)
    );
    let (got, _) = receive(&rx, DEFAULT_DATAGRAM_BUDGET + 64, 7);
    assert_eq!(got, sent);
    // Later sends go straight to one datagram per packet.
    let report = tx.send_batch(&batch).expect("send");
    assert_eq!(
        (report.datagrams, report.offloaded, report.syscalls),
        (7, 0, 1)
    );
}

/// `SO_MEMINFO`'s drop count counts kernel packets. Three runs of
/// 7 × 9 000 B at a receiver with the smallest queue the kernel allows,
/// which admits one packet: with `UDP_GRO` on that packet is a whole run
/// (7 datagrams in, 2 drops counted); without, the kernel cuts each run
/// first (1 datagram in, 20 drops). `wire_kernel_drops` is this count.
#[test]
fn kernel_drops_count_packets_a_gro_run_is_one() {
    if !offload_available("kernel_drops_count_packets") {
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sent = datagrams(21, DEFAULT_DATAGRAM_BUDGET, 5);
    let mut seen = Vec::new();
    for gro in [true, false] {
        let (tx, rx) = (bind(), bind());
        rx.set_recv_buffer(0).expect("SO_RCVBUF");
        if gro {
            assert!(rx.enable_gro());
        }
        let to = rx.local_addr().unwrap();
        let batch: Vec<(SocketAddrV4, &[u8])> = sent.iter().map(|d| (to, &d[..])).collect();
        let report = tx.send_batch(&batch).expect("send");
        assert_eq!((report.datagrams, report.offloaded), (21, 21));
        let (got, _) = receive(&rx, DEFAULT_DATAGRAM_BUDGET + 64, 21);
        assert_eq!(
            got[..],
            sent[..got.len()],
            "gro {gro}: the head arrives intact"
        );
        seen.push((gro, got.len(), rx.meminfo().expect("SO_MEMINFO").drops));
    }
    assert_eq!(seen, [(true, 7, 2), (false, 1, 20)]);
}

/// Both new counters read non-zero on a bulk loopback session: its
/// datagrams left in runs and arrived coalesced.
#[test]
fn a_bulk_session_counts_its_runs_at_both_ends() {
    const MESSAGES: usize = 40;
    const MSG_LEN: usize = 256 * 1024;
    if !offload_available("a_bulk_session_counts_its_runs") {
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut listener, mut sess) = connect(&SessionConfig::default());
    let base = sess.next_msg_id();
    let (mut submitted, mut completed) = (0, 0);
    while completed < MESSAGES {
        assert!(
            Instant::now() < deadline,
            "{completed} of {MESSAGES} at the wall limit"
        );
        while submitted < MESSAGES && submitted - completed < 2 {
            sess.try_send(message(base + submitted as u64, MSG_LEN))
                .expect("submit");
            submitted += 1;
        }
        listener.poll_once().expect("listener turn");
        sess.poll().expect("session turn");
        completed = sess.completions().len();
    }
    let report = close("bulk", &mut listener, &mut sess, deadline);
    assert_exactly_once("bulk", base, MESSAGES, MSG_LEN, &report);
    let (tx, rx) = (
        sess.registry().get(Metric::WireGsoSegmentsTx),
        listener.registry().get(Metric::WireGroSegmentsRx),
    );
    let sent = sess.registry().get(Metric::WireDatagramsTx);
    eprintln!("bulk: {sent} datagrams sent, {tx} of them in runs; {rx} received coalesced");
    assert!(tx > 0, "no datagram left in a run");
    assert!(rx > 0, "no datagram arrived coalesced");
    assert!(tx <= sent);
}
