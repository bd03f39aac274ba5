//! The wire path allocates per session, not per packet.
//!
//! Once a loopback session is warm — datagram buffers, receive slots,
//! the pooled headers and the reassembly buffers all at their working
//! size — moving a message costs the allocator almost nothing: received
//! datagrams are lent out of reused slots, every frame is parsed into one
//! caller-owned header, and outgoing datagrams are built in buffers kept
//! from turn to turn. What is left is the growth of the cumulative
//! ledgers the API obliges both ends to keep (`completions()`,
//! `SessionReport::{delivered, digests}`), a handful of reallocations
//! over thousands of messages.
//!
//! Counted with a global allocator over two sessions, one thread
//! alternating the two ends as the benchmark's wire workloads do, the
//! message buffers allocated before counting begins: 512 B messages at 16
//! outstanding (one frame each) and 256 KiB messages at 2 outstanding
//! (180 frames each; before the receive path stopped allocating, about
//! 590 allocations a message; then the one the receiver core made for a
//! message's packet bitmap, until it reused them).
//!
//! Skips VISIBLY (a NOTICE on stderr) when UDP loopback is unavailable.
//! The `unsafe` counting allocator lives here, outside the library's
//! `deny(unsafe_code)`, as in `session_age.rs`.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use common::{assert_exactly_once, close, connect};
use mtp_io::{loopback_available, SessionConfig};

struct CountingAlloc;

/// Calls that obtain memory: `alloc` and `realloc`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WALL: Duration = Duration::from_secs(120);

/// Move `warm + counted` messages of `msg_len` bytes at `outstanding`
/// and return the allocations per message over the last `counted`.
fn allocs_per_message(msg_len: usize, outstanding: usize, warm: usize, counted: usize) -> f64 {
    let deadline = Instant::now() + WALL;
    let scfg = SessionConfig::default();
    let (mut listener, mut sess) = connect(&scfg);

    let total = warm + counted;
    let base = sess.next_msg_id();
    // Every message exists before counting starts; submitting one moves
    // it, completing it frees it.
    let mut messages: Vec<Vec<u8>> = (0..total as u64)
        .rev()
        .map(|k| common::message(base + k, msg_len))
        .collect();
    let (mut submitted, mut completed) = (0usize, 0usize);
    let mut at_warm = None;
    while completed < total {
        assert!(
            Instant::now() < deadline,
            "{completed} of {total} done at the wall limit"
        );
        while submitted < total && submitted - completed < outstanding {
            let buf = messages.pop().expect("one buffer per message");
            match sess.try_send(buf) {
                Ok(id) => assert_eq!(id.0, base + submitted as u64, "ids are sequential"),
                // Far below the caps: even backpressure would be a bug.
                Err(e) => panic!("try_send: {e}"),
            }
            submitted += 1;
        }
        listener.poll_once().expect("listener turn");
        sess.poll().expect("session turn");
        completed = sess.completions().len();
        if at_warm.is_none() && completed >= warm {
            at_warm = Some((ALLOCS.load(Ordering::Relaxed), completed));
        }
    }
    let (allocs_at_warm, completed_at_warm) = at_warm.expect("the session outlasts its warm-up");
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_at_warm;
    let per_message = allocs as f64 / (total - completed_at_warm) as f64;

    assert_eq!(
        sess.core().stats.retransmissions,
        0,
        "a repair would allocate; the count is of the clean path"
    );
    let report = close("session_alloc", &mut listener, &mut sess, deadline);
    assert_exactly_once("session_alloc", base, total, msg_len, &report);
    per_message
}

#[test]
fn a_warm_session_allocates_per_session_not_per_packet() {
    if !loopback_available() {
        eprintln!(
            "NOTICE: UDP loopback unavailable; skipping \
             a_warm_session_allocates_per_session_not_per_packet"
        );
        return;
    }
    let rpc = allocs_per_message(512, 16, 2_000, 8_000);
    // A bulk session warms slowly: its windows creep up after the first
    // marks, and every deeper drain needs one more ACK datagram buffer.
    let bulk = allocs_per_message(256 * 1024, 2, 400, 160);
    eprintln!("allocations per message once warm: {rpc:.4} at 512 B, {bulk:.4} at 256 KiB");
    assert!(
        rpc <= RPC_ALLOCS_PER_MSG,
        "{rpc:.4} allocations per 512 B message (bound {RPC_ALLOCS_PER_MSG})"
    );
    assert!(
        bulk <= BULK_ALLOCS_PER_MSG,
        "{bulk:.4} allocations per 256 KiB message (bound {BULK_ALLOCS_PER_MSG})"
    );
}

/// Measured 0.0014 – 0.0021 (11 – 17 allocations in 8 000 messages: the
/// ledgers doubling); bound at twice that.
const RPC_ALLOCS_PER_MSG: f64 = 0.004;
/// Measured 0.1125: 18 allocations in 160 messages, identical run to run,
/// and still 18 when 480 messages are counted, so none of them is per
/// message. The receiver core's one allocation a message, the heap bitmap
/// of a message of more than 128 packets, is gone: a completed message's
/// bitmap is reused by the next. Bound at about twice that; the same
/// session made 1.11 with the bitmap and some 590 before.
const BULK_ALLOCS_PER_MSG: f64 = 0.25;
