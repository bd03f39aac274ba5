//! When a submission leaves: the first one after a turn at once, the
//! rest with the next turn's flush, nothing ever across a sleep — and
//! the sender core's clock for a message starts when it leaves.
//!
//! One thread holds both ends, so "is it on the listener's socket yet"
//! is answered by a listener turn: loopback queues a datagram before its
//! send returns, and what a turn did not receive had not been sent. The
//! counters say the rest — `wire_datagrams_tx` moves when the kernel is
//! handed a datagram and at no other time.
//!
//! Skips VISIBLY (a NOTICE on stderr) when UDP loopback is unavailable.

mod common;

use std::time::{Duration, Instant};

use common::{assert_exactly_once, close, connect, message};
use mtp_io::{loopback_available, Listener, SenderSession, SessionConfig};
use mtp_telemetry::Metric;

const MSG_LEN: usize = 512;

/// A connected pair whose sender has just finished a turn, or `None`
/// (after a NOTICE) without loopback.
fn fresh_turn(test: &str) -> Option<(Listener, SenderSession)> {
    if !loopback_available() {
        eprintln!("NOTICE: no UDP loopback; skipping {test}");
        return None;
    }
    let (listener, mut sess) = connect(&SessionConfig::default());
    sess.poll().expect("session turn");
    Some((listener, sess))
}

fn datagrams_tx(sess: &SenderSession) -> u64 {
    sess.registry().get(Metric::WireDatagramsTx)
}

fn frames_tx(sess: &SenderSession) -> u64 {
    sess.registry().get(Metric::WireFramesTx)
}

/// Data frames a listener turn finds queued.
fn frames_received_by_a_turn(listener: &mut Listener) -> u64 {
    let before = listener.registry().get(Metric::WireFramesRx);
    listener.poll_once().expect("listener turn");
    listener.registry().get(Metric::WireFramesRx) - before
}

#[test]
fn the_first_submission_after_a_turn_leaves_at_once() {
    let Some((mut listener, mut sess)) = fresh_turn("the_first_submission_after_a_turn") else {
        return;
    };
    let sent = datagrams_tx(&sess);
    sess.try_send(message(sess.next_msg_id(), MSG_LEN))
        .expect("submit");
    assert_eq!(datagrams_tx(&sess), sent + 1, "transmitted by try_send");
    // On the listener's socket before the sender polls again.
    assert_eq!(frames_received_by_a_turn(&mut listener), 1);
}

#[test]
fn further_submissions_share_the_next_turn_s_flush() {
    let Some((mut listener, mut sess)) = fresh_turn("further_submissions_share") else {
        return;
    };
    sess.try_send(message(sess.next_msg_id(), MSG_LEN))
        .expect("first submission");
    assert_eq!(frames_received_by_a_turn(&mut listener), 1);

    // Eight more before the next turn: two for each of the four pathlets
    // (a message's pathlet is its id modulo the live ones).
    let (sent, framed) = (datagrams_tx(&sess), frames_tx(&sess));
    for _ in 0..8 {
        sess.try_send(message(sess.next_msg_id(), MSG_LEN))
            .expect("parked submission");
    }
    assert_eq!(datagrams_tx(&sess), sent, "a parked submission transmitted");
    assert_eq!(frames_received_by_a_turn(&mut listener), 0);

    sess.poll().expect("session turn");
    assert_eq!(
        frames_tx(&sess),
        framed + 8,
        "the turn's flush took them all"
    );
    assert_eq!(
        datagrams_tx(&sess),
        sent + 4,
        "two frames of one pathlet share a datagram"
    );
    assert_eq!(frames_received_by_a_turn(&mut listener), 8);

    // The turn is over: the next submission is a first one again.
    let sent = datagrams_tx(&sess);
    sess.try_send(message(sess.next_msg_id(), MSG_LEN))
        .expect("submit");
    assert_eq!(datagrams_tx(&sess), sent + 1);
}

#[test]
fn wait_transmits_what_is_parked_before_it_sleeps() {
    let Some((mut listener, mut sess)) = fresh_turn("wait_transmits_what_is_parked") else {
        return;
    };
    sess.try_send(message(sess.next_msg_id(), MSG_LEN))
        .expect("first submission");
    sess.try_send(message(sess.next_msg_id(), MSG_LEN))
        .expect("parked submission");
    let sent = datagrams_tx(&sess);
    assert_eq!(frames_received_by_a_turn(&mut listener), 1);

    // Whether the wait sleeps or finds the first message's ACK already
    // queued, the parked frame is on the listener's socket before it
    // returns.
    sess.wait(Duration::from_millis(1)).expect("wait");
    assert_eq!(datagrams_tx(&sess), sent + 1, "transmitted by wait");
    assert_eq!(frames_received_by_a_turn(&mut listener), 1);
}

#[test]
fn a_parked_submission_is_not_timed_until_it_leaves() {
    let Some((mut listener, mut sess)) = fresh_turn("a_parked_submission_is_not_timed") else {
        return;
    };
    sess.try_send(message(sess.next_msg_id(), MSG_LEN))
        .expect("first submission");
    assert_eq!(frames_received_by_a_turn(&mut listener), 1);
    sess.try_send(message(sess.next_msg_id(), MSG_LEN))
        .expect("parked submission");

    // A caller (or a preempted thread) that takes several retransmission
    // timeouts to come back to `poll()`: the parked message must leave
    // once, not be "repaired" before it was ever sent.
    let framed = frames_tx(&sess);
    std::thread::sleep(4 * Duration::from_millis(3));
    sess.poll().expect("session turn");
    assert_eq!(frames_tx(&sess), framed + 1, "sent once");
    assert_eq!(sess.core().stats.timeouts, 0, "timed before it left");
    assert_eq!(sess.core().stats.retransmissions, 0);
    assert_eq!(frames_received_by_a_turn(&mut listener), 1);
}

#[test]
fn close_after_a_burst_delivers_every_message_once() {
    const BURST: usize = 64;
    let Some((mut listener, mut sess)) = fresh_turn("close_after_a_burst") else {
        return;
    };
    let base = sess.next_msg_id();
    for _ in 0..BURST {
        sess.try_send(message(sess.next_msg_id(), MSG_LEN))
            .expect("submit");
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let report = close("burst then close", &mut listener, &mut sess, deadline);
    assert_exactly_once("burst then close", base, BURST, MSG_LEN, &report);
    assert_eq!(sess.completions().len(), BURST);
}
