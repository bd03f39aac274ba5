//! A lossless loopback loses nothing: no retransmission, no timeout, no
//! duplicate, no datagram dropped by the kernel.
//!
//! Loopback never drops a datagram on its own, so every loss a session
//! sees there is one it inflicted on itself by overrunning a receive
//! queue between two listener turns. Three sessions, one thread
//! alternating `Listener::poll_once` and `SenderSession::poll` as the
//! benchmark's wire workloads do, each checked by counts, never by
//! speed:
//!
//! * bulk-shaped — 200 caller-owned messages of 256 KiB, 2 outstanding;
//! * rpc-shaped — 5 000 caller-owned messages of 512 B, 16 outstanding;
//! * heavy — 100 caller-owned messages of 1 MiB, 8 outstanding: enough in
//!   flight to outgrow any queue unless the listener's CE stamp holds the
//!   sender's pathlet windows back. Besides the zeros it must show marks,
//!   and once marking has begun no socket's queue may be found deeper
//!   than twice the marking threshold (plus framing).
//!
//! The listener acknowledges a drain's frames in one ACK, so it may send
//! no more frames than it reads datagrams, and on the bulk shape no more
//! than one per twenty data frames.
//!
//! The sessions run one at a time: each spins a thread, and three at
//! once on a two-CPU host keep the kernel's deferred loopback delivery
//! waiting longer than the 3 ms retransmission timeout — scheduler
//! noise, which the zeros here are not about.
//!
//! Skips VISIBLY (a NOTICE on stderr) when UDP loopback is unavailable.

mod common;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::{assert_exactly_once, close, connect, message};
use mtp_io::{loopback_available, SessionConfig, SessionError, DEFAULT_DATAGRAM_BUDGET};
use mtp_telemetry::{Gauge, Metric};

const WALL: Duration = Duration::from_secs(120);

static SERIAL: Mutex<()> = Mutex::new(());

struct Shape {
    name: &'static str,
    messages: usize,
    msg_len: usize,
    outstanding: usize,
}

/// What the session's queues did, as the listener's gauges showed it
/// turn by turn, and how many frames each end sent.
struct Queues {
    /// The listener's marking threshold (`usize::MAX`: none).
    threshold: usize,
    ce_marked: u64,
    /// Deepest drain seen on any turn after the first turn that marked.
    deepest_after_first_mark: usize,
    /// The sender's data frames and the listener's frames (ACKs and
    /// control answers).
    data_frames: u64,
    listener_frames: u64,
}

fn run(shape: &Shape) -> Option<Queues> {
    if !loopback_available() {
        eprintln!(
            "NOTICE: UDP loopback unavailable; skipping clean_loopback {}",
            shape.name
        );
        return None;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = shape.name;
    let deadline = Instant::now() + WALL;
    let scfg = SessionConfig::default();
    let (mut listener, mut sess) = connect(&scfg);

    let base = sess.next_msg_id();
    let (mut submitted, mut completed) = (0usize, 0usize);
    let mut marking_began = false;
    let mut deepest_after_first_mark = 0usize;
    while completed < shape.messages {
        assert!(
            Instant::now() < deadline,
            "{ctx}: {completed} of {} done at the wall limit",
            shape.messages
        );
        while submitted < shape.messages && submitted - completed < shape.outstanding {
            let id = base + submitted as u64;
            match sess.try_send(message(id, shape.msg_len)) {
                Ok(got) => assert_eq!(got.0, id, "{ctx}: ids are sequential"),
                Err(SessionError::Backpressure { .. }) => break,
                Err(e) => panic!("{ctx}: submit: {e}"),
            }
            submitted += 1;
        }
        listener.poll_once().expect("listener turn");
        if marking_began {
            let drained = listener.registry().gauge(Gauge::WireDrainBytes) as usize;
            deepest_after_first_mark = deepest_after_first_mark.max(drained);
        }
        marking_began |= listener.registry().get(Metric::WireCeMarked) > 0;
        sess.poll().expect("session turn");
        completed = sess.completions().len();
    }

    let stats = sess.core().stats;
    assert_eq!(stats.retransmissions, 0, "{ctx}: retransmissions");
    assert_eq!(stats.timeouts, 0, "{ctx}: retransmission timeouts");
    let duplicates = listener.core().expect("session is live").stats.duplicates;
    assert_eq!(duplicates, 0, "{ctx}: duplicate data packets");

    let report = close(ctx, &mut listener, &mut sess, deadline);
    assert_exactly_once(ctx, base, shape.messages, shape.msg_len, &report);
    // Both ends read their sockets' drop counts when the session ended.
    for (end, registry) in [
        ("listener", listener.registry()),
        ("sender", sess.registry()),
    ] {
        assert_eq!(
            registry.get(Metric::WireKernelDrops),
            0,
            "{ctx}: datagrams the kernel dropped at the {end}'s sockets"
        );
    }
    // A datagram is stamped whole and comes from one peer, so all the
    // frames it carries share one ACK unless a list fills: at most one
    // frame back per datagram in, control answers included.
    let ce_marked = listener.registry().get(Metric::WireCeMarked);
    let listener_frames = listener.registry().get(Metric::WireFramesTx);
    let listener_datagrams = listener.registry().get(Metric::WireDatagramsRx);
    assert!(
        listener_frames <= listener_datagrams,
        "{ctx}: the listener sent {listener_frames} frames for {listener_datagrams} datagrams"
    );
    eprintln!(
        "{ctx}: {} data frames, {ce_marked} marked CE, threshold {} B of {} B granted, \
         deepest drain once marking began {deepest_after_first_mark} B, \
         {} datagrams in {} sends ({} refused once); listener: {listener_frames} frames \
         for {listener_datagrams} datagrams",
        stats.pkts_sent,
        listener.ce_threshold(),
        listener.registry().gauge(Gauge::WireRcvbufBytes),
        sess.registry().get(Metric::WireDatagramsTx),
        sess.registry().get(Metric::WireSendBatches),
        sess.registry().get(Metric::WireSendWouldBlock),
    );
    Some(Queues {
        threshold: listener.ce_threshold(),
        ce_marked,
        deepest_after_first_mark,
        data_frames: stats.pkts_sent,
        listener_frames,
    })
}

#[test]
fn bulk_shaped_session_loses_nothing() {
    let Some(seen) = run(&Shape {
        name: "bulk (200 x 256 KiB, 2 outstanding)",
        messages: 200,
        msg_len: 256 * 1024,
        outstanding: 2,
    }) else {
        return;
    };
    // One ACK per drain, not per frame: a 256 KiB message is 180 data
    // frames, and was 180 ACK frames when each frame had its own.
    assert!(
        seen.listener_frames * 20 <= seen.data_frames,
        "{} listener frames for {} data frames: ACKs are not coalesced",
        seen.listener_frames,
        seen.data_frames
    );
}

#[test]
fn rpc_shaped_session_loses_nothing() {
    run(&Shape {
        name: "rpc (5000 x 512 B, 16 outstanding)",
        messages: 5_000,
        msg_len: 512,
        outstanding: 16,
    });
}

#[test]
fn heavy_session_is_held_back_by_marks_not_by_loss() {
    let shape = Shape {
        name: "heavy (100 x 1 MiB, 8 outstanding)",
        messages: 100,
        msg_len: 1 << 20,
        outstanding: 8,
    };
    let Some(queues) = run(&shape) else {
        return;
    };
    // The threshold is a share of what this host granted; a platform
    // that cannot say how much leaves no marks to assert.
    let threshold = queues.threshold;
    if threshold == usize::MAX {
        eprintln!("NOTICE: receive-queue size unknown on this platform; marks not asserted");
        return;
    }
    assert!(
        queues.ce_marked > 0,
        "8 MiB outstanding never met the {threshold} B marking threshold"
    );
    // Slow start answers the K bytes of unmarked ACKs that precede the
    // first marked one with 2K of payload, which lands a turn after
    // marking began; from then on the windows only shrink or creep. The
    // queue counts datagram bytes, 3.5 % more than payload (sealed
    // headers, frame prefixes), and a datagram is marked whole, so "K"
    // is K plus up to a datagram: hence 5 % and four datagrams of slack.
    let bound = (2 * threshold + 4 * DEFAULT_DATAGRAM_BUDGET) * 21 / 20;
    assert!(
        queues.deepest_after_first_mark <= bound,
        "a queue was found {} B deep after marking began; threshold {threshold} B, bound {bound} B",
        queues.deepest_after_first_mark
    );
}
