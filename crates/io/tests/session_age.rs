//! A wire session's resident state follows the messages in flight, not
//! the session's age.
//!
//! 20 000 one-frame messages move through one loopback session at 16
//! outstanding, one thread alternating the two ends as the benchmark's
//! `wire_rpc` does; then 4 000 more through a second session whose loop
//! sleeps every 16 messages, a small fraction of the first one's rate.
//! Checked by counts, never by speed:
//!
//! * the sender core holds no more message records than the admission
//!   cap allows outstanding — at message 20 000 as at message 1;
//! * the receiver core holds one record per message in reassembly and
//!   one run per stretch of completed ids, which the messages outstanding
//!   bound — the same bound at both rates;
//! * the process's live heap grows, per thousand messages, by no more
//!   than the cumulative ledgers the API obliges both ends to keep;
//! * every message is delivered exactly once with the submitted bytes.
//!
//! Skips VISIBLY (a NOTICE on stderr) when UDP loopback is unavailable.
//! The `unsafe` counting allocator lives here, outside the library's
//! `deny(unsafe_code)`, as in `chaos_soak.rs`.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use common::{assert_exactly_once, close, connect};
use mtp_io::{loopback_available, SessionConfig, SessionError};

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
/// The throttled session: fewer messages, and a pause every
/// `OUTSTANDING` of them.
const THROTTLED_MESSAGES: usize = 4_000;
const PAUSE: Duration = Duration::from_millis(1);
/// Receiver state units at most, at any rate. Each of the `OUTSTANDING`
/// messages not yet complete at the sender is, at the receiver, complete,
/// in reassembly (a record), or not yet arrived; each of the last two
/// splits the completed ids into one more run. So records plus runs stay
/// within `OUTSTANDING` plus `OUTSTANDING + 1`, below the admission cap's
/// 64 outstanding.
const RECEIVER_RESIDENT: usize = 2 * OUTSTANDING + 1;
/// Messages between samples of the live heap.
const SAMPLE_EVERY: usize = 1_000;
/// Samples skipped before the heap baseline: buffers and pools reach
/// their steady size first.
const WARMUP_SAMPLES: usize = 4;
/// Both ends keep cumulative ledgers by contract — `completions()` at
/// 16 B a message, `SessionReport::{delivered, digests}` at 16 + 24 —
/// and a growing `Vec` holds up to twice what it stores: 112 KiB per
/// thousand messages at worst (this test's own buffers are sized first).
/// The never-pruned sender slab alone added as much again.
const HEAP_PER_KMSG: usize = 128 * 1024;
const WALL: Duration = Duration::from_secs(120);

/// What one session held at its peak, and the live heap every
/// `SAMPLE_EVERY` messages.
struct Peaks {
    sender: usize,
    receiver: usize,
    retransmissions: u64,
    heap: Vec<usize>,
}

/// Move `messages` through a fresh session, sleeping `pause` after
/// every `OUTSTANDING` submissions if one is given.
fn run_session(ctx: &str, messages: usize, pause: Option<Duration>) -> Peaks {
    let deadline = Instant::now() + WALL;
    let scfg = SessionConfig::default();
    let (mut listener, mut sess) = connect(&scfg);

    let base = sess.next_msg_id();
    let (mut submitted, mut consumed) = (0usize, 0usize);
    let mut peaks = Peaks {
        sender: 0,
        receiver: 0,
        retransmissions: 0,
        heap: Vec::with_capacity(messages / SAMPLE_EVERY + 1),
    };

    while consumed < messages {
        assert!(
            Instant::now() < deadline,
            "{ctx}: {consumed} of {messages} done at the wall limit"
        );
        while submitted < messages && submitted - consumed < OUTSTANDING {
            match sess.try_send(common::message(base + submitted as u64, MSG_LEN)) {
                Ok(id) => assert_eq!(id.0, base + submitted as u64, "ids are sequential"),
                Err(SessionError::Backpressure { .. }) => break,
                Err(e) => panic!("{ctx}: try_send: {e}"),
            }
            submitted += 1;
            if let Some(pause) = pause.filter(|_| submitted % OUTSTANDING == 0) {
                std::thread::sleep(pause);
            }
        }
        peaks.sender = peaks.sender.max(sess.core().resident());
        listener.poll_once().expect("listener turn");
        let resident = listener.core().map_or(0, |r| r.resident());
        peaks.receiver = peaks.receiver.max(resident);
        sess.poll().expect("session turn");
        let before = consumed;
        consumed = sess.completions().len();
        if consumed / SAMPLE_EVERY > before / SAMPLE_EVERY {
            peaks.heap.push(LIVE.load(Ordering::Relaxed));
        }
    }

    peaks.retransmissions = sess.core().stats.retransmissions;
    assert_eq!(
        sess.core().resident(),
        0,
        "{ctx}: a drained sender holds no records"
    );
    let report = close(ctx, &mut listener, &mut sess, deadline);
    assert_exactly_once(ctx, base, messages, MSG_LEN, &report);
    // A message stuck behind a lost datagram keeps its successors'
    // records resident until it is repaired; loopback loses nothing
    // unless the kernel's buffers overflow, which the counters show.
    if peaks.retransmissions == 0 {
        assert!(
            peaks.sender <= scfg.caps.max_inflight_msgs,
            "{ctx}: sender held {} records with {OUTSTANDING} outstanding (cap {})",
            peaks.sender,
            scfg.caps.max_inflight_msgs
        );
    } else {
        eprintln!(
            "NOTICE: {ctx}: {} retransmissions on loopback; sender bound not asserted",
            peaks.retransmissions
        );
    }
    assert!(
        peaks.receiver <= RECEIVER_RESIDENT,
        "{ctx}: receiver held {} records and runs (bound {RECEIVER_RESIDENT})",
        peaks.receiver
    );
    peaks
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
    let fast = run_session("full speed", MESSAGES, None);
    let slow = run_session("throttled", THROTTLED_MESSAGES, Some(PAUSE));

    let steady = &fast.heap[WARMUP_SAMPLES..];
    let grown = steady[steady.len() - 1].saturating_sub(steady[0]);
    let per_kmsg = grown / (steady.len() - 1);
    eprintln!(
        "sender peak {} / {} records, receiver peak {} / {} records and runs \
         (full speed / throttled), live heap +{per_kmsg} B per {SAMPLE_EVERY} messages",
        fast.sender, slow.sender, fast.receiver, slow.receiver
    );
    assert!(
        per_kmsg <= HEAP_PER_KMSG,
        "live heap grew {per_kmsg} B per {SAMPLE_EVERY} messages (bound {HEAP_PER_KMSG} B)"
    );
}
