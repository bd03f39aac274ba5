//! A wire session's resident state follows the messages in flight, not
//! the session's age.
//!
//! 20 000 one-frame messages move through one loopback session at 16
//! outstanding, one thread alternating the two ends as the benchmark's
//! `wire_rpc` does. Checked by counts, never by speed:
//!
//! * the sender core holds no more message records than the admission
//!   cap allows outstanding — at message 20 000 as at message 1;
//! * the receiver core holds no more records than were delivered within
//!   the last `gc_linger` (plus those in reassembly);
//! * the process's live heap grows, per thousand messages, by no more
//!   than the cumulative ledgers the API obliges both ends to keep;
//! * every message is delivered exactly once with the submitted bytes.
//!
//! Skips VISIBLY (a NOTICE on stderr) when UDP loopback is unavailable.
//! The `unsafe` counting allocator lives here, outside the library's
//! `deny(unsafe_code)`, as in `chaos_soak.rs`.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use common::{assert_exactly_once, close, connect};
use mtp_io::{loopback_available, payload, SessionConfig, SessionError};
use mtp_sim::time::Duration as SimDuration;
use mtp_wire::MsgId;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MESSAGES: usize = 20_000;
const MSG_LEN: usize = 512;
const OUTSTANDING: usize = 16;
/// Messages between samples of the resident counts and the live heap.
const SAMPLE_EVERY: usize = 1_000;
/// Samples skipped before the heap baseline: buffers, pools and the
/// receiver's linger set reach their steady size first.
const WARMUP_SAMPLES: usize = 4;
/// Both ends keep cumulative ledgers by contract — `completions()` at
/// 16 B a message, `SessionReport::{delivered, digests}` at 16 + 24 —
/// and a growing `Vec` holds up to twice what it stores: 112 KiB per
/// thousand messages at worst (this test's own buffers are sized first).
/// The never-pruned sender slab alone added as much again.
const HEAP_PER_KMSG: usize = 128 * 1024;
const WALL: Duration = Duration::from_secs(120);

fn message(id: u64) -> Vec<u8> {
    let mut buf = vec![0u8; MSG_LEN];
    payload::fill(MsgId(id), 0, &mut buf);
    buf
}

#[test]
fn session_state_and_heap_stay_flat_over_20k_messages() {
    if !loopback_available() {
        eprintln!(
            "NOTICE: UDP loopback unavailable; skipping \
             session_state_and_heap_stay_flat_over_20k_messages"
        );
        return;
    }
    let deadline = Instant::now() + WALL;
    let mut scfg = SessionConfig::default();
    // A linger the run outlasts many times over, so the receiver's
    // collected set reaches a steady size well inside the session.
    let linger = Duration::from_millis(5);
    scfg.io.gc_linger = SimDuration::from_micros(linger.as_micros() as u64);

    let (mut listener, mut sess) = connect(&scfg);

    let base = sess.next_msg_id();
    let (mut submitted, mut consumed) = (0usize, 0usize);
    // (when, completions seen by then): the count-based clock that turns
    // `gc_linger` into "messages delivered within the last linger".
    let mut turns: VecDeque<(Instant, usize)> = VecDeque::with_capacity(1 << 16);
    let mut heap: Vec<usize> = Vec::with_capacity(MESSAGES / SAMPLE_EVERY + 1);
    let (mut peak_sender, mut peak_receiver_excess) = (0usize, 0isize);

    while consumed < MESSAGES {
        assert!(
            Instant::now() < deadline,
            "{consumed} of {MESSAGES} done at the wall limit"
        );
        while submitted < MESSAGES && submitted - consumed < OUTSTANDING {
            match sess.try_send(message(base + submitted as u64)) {
                Ok(id) => assert_eq!(id.0, base + submitted as u64, "ids are sequential"),
                Err(SessionError::Backpressure { .. }) => break,
                Err(e) => panic!("try_send: {e}"),
            }
            submitted += 1;
        }
        peak_sender = peak_sender.max(sess.core().resident());
        let turn_began = Instant::now();
        listener.poll_once().expect("listener turn");
        sess.poll().expect("session turn");
        let before = consumed;
        consumed = sess.completions().len();

        // Records the receiver may still hold: everything delivered
        // since one linger before its turn began, plus what is in
        // reassembly. Deliveries lead completions by at most what is
        // outstanding.
        while turns.len() > 1 && turn_began.duration_since(turns[1].0) > linger {
            turns.pop_front();
        }
        let since = turns.front().map_or(0, |&(_, n)| n);
        let admitted = consumed - since + 2 * OUTSTANDING;
        let resident = listener.core().map_or(0, |r| r.resident());
        peak_receiver_excess = peak_receiver_excess.max(resident as isize - admitted as isize);
        if turns.len() < turns.capacity() {
            turns.push_back((Instant::now(), consumed));
        }

        if consumed / SAMPLE_EVERY > before / SAMPLE_EVERY {
            heap.push(LIVE.load(Ordering::Relaxed));
        }
    }

    let retransmissions = sess.core().stats.retransmissions;
    assert_eq!(
        sess.core().resident(),
        0,
        "a drained sender holds no records"
    );
    let report = close("session_age", &mut listener, &mut sess, deadline);

    assert_exactly_once("session_age", base, MESSAGES, MSG_LEN, &report);
    // A message stuck behind a lost datagram keeps its successors'
    // records resident until it is repaired; loopback loses nothing
    // unless the kernel's buffers overflow, which the counters show.
    if retransmissions == 0 {
        assert!(
            peak_sender <= scfg.caps.max_inflight_msgs,
            "sender held {peak_sender} records with {OUTSTANDING} outstanding \
             (cap {})",
            scfg.caps.max_inflight_msgs
        );
    } else {
        eprintln!(
            "NOTICE: {retransmissions} retransmissions on loopback; sender bound not asserted"
        );
    }
    assert!(
        peak_receiver_excess <= 0,
        "receiver held {peak_receiver_excess} records more than gc_linger admits"
    );
    let steady = &heap[WARMUP_SAMPLES..];
    let grown = steady[steady.len() - 1].saturating_sub(steady[0]);
    let per_kmsg = grown / (steady.len() - 1);
    eprintln!(
        "sender peak {peak_sender} records, receiver within its linger, \
         live heap +{per_kmsg} B per {SAMPLE_EVERY} messages"
    );
    assert!(
        per_kmsg <= HEAP_PER_KMSG,
        "live heap grew {per_kmsg} B per {SAMPLE_EVERY} messages (bound {HEAP_PER_KMSG} B)"
    );
}
