//! The listener folds delivered messages' content digests two at a time.
//! Each message's digest must still be its own: paired with a message of
//! any other length, folded alone when the session finalizes with one
//! left over, and dropped without a report when the session dies with
//! one waiting.
//!
//! Skips VISIBLY (a NOTICE on stderr) when UDP loopback is unavailable.

// Mixed sizes: the digests are checked here, not by `assert_exactly_once`.
#[allow(dead_code)]
mod common;

use std::time::{Duration, Instant};

use mtp_io::{loopback_available, payload, SessionConfig};
use mtp_sim::time::Duration as SimDuration;
use mtp_telemetry::{Gauge, Metric};
use mtp_wire::MsgId;

const WALL: Duration = Duration::from_secs(30);

fn loopback(test: &str) -> bool {
    if loopback_available() {
        return true;
    }
    eprintln!("NOTICE: UDP loopback unavailable; skipping {test}");
    false
}

/// An odd number of messages of unequal sizes: every pair folds two
/// lengths, and the last message is folded alone at finalize.
#[test]
fn every_digest_is_its_own_message_s_paired_or_left_over() {
    if !loopback("every_digest_is_its_own_message_s_paired_or_left_over") {
        return;
    }
    let sizes: [u32; 7] = [1, 1_460, 256 * 1024, 7, 70_001, 512, 3];
    let cfg = SessionConfig::default();
    let (mut listener, mut sess) = common::connect(&cfg);
    let base = sess.next_msg_id();
    for len in sizes {
        sess.try_send(common::message(sess.next_msg_id(), len as usize))
            .expect("submit");
    }
    let deadline = Instant::now() + WALL;
    while sess.completions().len() < sizes.len() {
        assert!(Instant::now() < deadline, "the session stalled");
        listener.poll_once().expect("listener turn");
        sess.poll().expect("session turn");
    }
    let report = common::close("paired digests", &mut listener, &mut sess, deadline);

    let mut scratch = Vec::new();
    let want: Vec<(u64, u32, u64)> = (base..)
        .zip(sizes)
        .map(|(id, len)| {
            let digest = payload::synth_message_digest(MsgId(id), len, &mut scratch);
            (id, len, digest)
        })
        .collect();
    assert_eq!(report.digests, want, "per-message digests");
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
    // Three messages: two fold together, the third waits.
    for len in [4_000, 900, 12_345] {
        sess.try_send(common::message(sess.next_msg_id(), len))
            .expect("submit");
    }
    let deadline = Instant::now() + WALL;
    while sess.completions().len() < 3 {
        assert!(Instant::now() < deadline, "the session stalled");
        listener.poll_once().expect("listener turn");
        sess.poll().expect("session turn");
    }
    assert_eq!(listener.delivered_snapshot().len(), 3);
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
}
