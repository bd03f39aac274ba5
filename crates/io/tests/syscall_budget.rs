//! A system call moves datagrams or it is not made: the budget, as
//! exact counts.
//!
//! One thread alternates `Listener::poll_once` and `SenderSession::poll`
//! as the benchmark's wire workloads do, and every system call either
//! end makes while messages move is counted by the identity DESIGN.md
//! gives: the sum of `wire_send_batches`, `wire_recv_batches`,
//! `wire_recv_empty` and `wire_ready_polls` over both ends. Loopback
//! queues a datagram before its send returns, so the counts are exact
//! and repeat run to run:
//!
//! * pingpong-shaped — 512 B, 1 outstanding: **6** calls a message (the
//!   request's send; the listener's readiness question, receive and ACK
//!   send; the sender's question and receive). When every turn read every
//!   socket it was 11, seven of them receives that found nothing.
//! * rpc-shaped — 512 B, 16 outstanding: a burst of submissions shares
//!   the turn's flush, so the sender makes about a third of a send call
//!   per message (it was one) and a datagram carries nearly three frames
//!   (it was one).
//!
//! Counts only, never speed. The sessions run one at a time: two busy
//! threads on a two-CPU host can hold a loopback delivery past the 3 ms
//! retransmission timeout, and a repair is extra calls. Skips VISIBLY (a
//! NOTICE on stderr) when UDP loopback is unavailable or the platform
//! has no `poll(2)` binding to count.

mod common;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::{assert_exactly_once, close, connect};
use mtp_io::{loopback_available, SessionConfig};
use mtp_telemetry::{Metric, Registry};

const WALL: Duration = Duration::from_secs(120);
const MSG_LEN: usize = 512;

static SERIAL: Mutex<()> = Mutex::new(());

/// The four counters whose sum is an end's system calls.
const SYSCALLS: [Metric; 4] = [
    Metric::WireSendBatches,
    Metric::WireRecvBatches,
    Metric::WireRecvEmpty,
    Metric::WireReadyPolls,
];

/// What both ends counted while the messages moved (handshake and close
/// are outside: their blocking waits depend on the helper thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    /// By the identity, both ends summed.
    syscalls: u64,
    /// `wire_recv_empty`, both ends summed.
    recv_empty: u64,
    /// The sender's `wire_send_batches`.
    sender_sends: u64,
    /// The sender's `wire_frames_tx` and `wire_datagrams_tx`.
    sender_frames: u64,
    sender_datagrams: u64,
}

fn read(sender: &Registry, listener: &Registry) -> Counts {
    let both = |m: Metric| sender.get(m) + listener.get(m);
    Counts {
        syscalls: SYSCALLS.iter().map(|&m| both(m)).sum(),
        recv_empty: both(Metric::WireRecvEmpty),
        sender_sends: sender.get(Metric::WireSendBatches),
        sender_frames: sender.get(Metric::WireFramesTx),
        sender_datagrams: sender.get(Metric::WireDatagramsTx),
    }
}

/// Move `messages` messages at `outstanding` and return what
/// it took; `None` (after a NOTICE) where the counts cannot be made.
fn run(ctx: &str, messages: usize, outstanding: usize) -> Option<Counts> {
    if !loopback_available() || !cfg!(target_os = "linux") {
        eprintln!("NOTICE: no UDP loopback or no poll(2) to count; skipping syscall_budget {ctx}");
        return None;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let deadline = Instant::now() + WALL;
    let (mut listener, mut sess) = connect(&SessionConfig::default());

    let base = sess.next_msg_id();
    let before = read(sess.registry(), listener.registry());
    let (mut submitted, mut completed) = (0usize, 0usize);
    while completed < messages {
        assert!(
            Instant::now() < deadline,
            "{ctx}: {completed} of {messages} done at the wall limit"
        );
        while submitted < messages && submitted - completed < outstanding {
            // Far below the caps: even backpressure would be a bug.
            sess.try_send(common::message(sess.next_msg_id(), MSG_LEN))
                .expect("submit");
            submitted += 1;
        }
        listener.poll_once().expect("listener turn");
        sess.poll().expect("session turn");
        completed = sess.completions().len();
    }
    let after = read(sess.registry(), listener.registry());

    let stats = sess.core().stats;
    assert_eq!(stats.retransmissions, 0, "{ctx}: a repair is extra calls");
    assert_eq!(stats.timeouts, 0, "{ctx}: retransmission timeouts");
    let report = close(ctx, &mut listener, &mut sess, deadline);
    assert_exactly_once(ctx, base, messages, MSG_LEN, &report);

    let took = Counts {
        syscalls: after.syscalls - before.syscalls,
        recv_empty: after.recv_empty - before.recv_empty,
        sender_sends: after.sender_sends - before.sender_sends,
        sender_frames: after.sender_frames - before.sender_frames,
        sender_datagrams: after.sender_datagrams - before.sender_datagrams,
    };
    eprintln!(
        "{ctx}: {messages} messages in {} system calls ({:.3} a message; {} receives found \
         nothing); sender: {} sends, {} frames in {} datagrams",
        took.syscalls,
        took.syscalls as f64 / messages as f64,
        took.recv_empty,
        took.sender_sends,
        took.sender_frames,
        took.sender_datagrams,
    );
    Some(took)
}

#[test]
fn an_unloaded_request_costs_six_system_calls() {
    let shape = |messages| run(&format!("pingpong x {messages}"), messages, 1);
    let (Some(short), Some(long), Some(again)) = (shape(1_000), shape(2_000), shape(1_000)) else {
        return;
    };
    assert_eq!(short, again, "two runs of one session counted differently");
    // Whatever the first and last turns add, they add it once.
    let edge = |c: Counts, messages: u64| c.syscalls as i64 - 6 * messages as i64;
    assert_eq!(
        edge(short, 1_000),
        edge(long, 2_000),
        "system calls beyond six a message grew with the session: {short:?} vs {long:?}"
    );
    assert!(
        edge(short, 1_000).abs() <= 6,
        "first and last turns cost more than a message: {short:?}"
    );
    assert_eq!(
        short.recv_empty, long.recv_empty,
        "receives that found nothing grew with the session"
    );
}

#[test]
fn a_burst_of_submissions_shares_the_turn_s_flush() {
    const MESSAGES: usize = 5_000;
    let shape = || run("rpc (5000 x 512 B, 16 outstanding)", MESSAGES, 16);
    // A thread's receive scratch grows to the deepest receive it has
    // seen, each step one receive that finds nothing more: the first
    // session on this thread pays those, the counts repeat from the next.
    let (Some(_warm), Some(first), Some(again)) = (shape(), shape(), shape()) else {
        return;
    };
    assert_eq!(first, again, "two runs of one session counted differently");
    let sends_per_message = first.sender_sends as f64 / MESSAGES as f64;
    assert!(
        sends_per_message <= 0.40,
        "{sends_per_message:.3} send calls a message; a call per submission is 1.0"
    );
    let frames_per_datagram = first.sender_frames as f64 / first.sender_datagrams as f64;
    assert!(
        frames_per_datagram >= 2.5,
        "{frames_per_datagram:.2} frames a datagram; a datagram per submission is 1.0"
    );
}
