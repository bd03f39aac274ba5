//! Proof that the endpoint hot path stops allocating once warm.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase (which grows the sender's slab, scratch tables, and ready list,
//! the receiver's reassembly slab and probe map, and the thread-local
//! header pool to steady-state sizes), a sustained data → SACK-echo → ACK
//! churn loop — receiver building ACKs in pooled headers, sender crediting
//! windows and admitting replacement packets — must perform **zero** heap
//! allocations. This pins the endpoint-design guarantees: per-ACK
//! accounting runs on reusable scratch, ACK headers are built in place in
//! recycled pool headers, and event delivery appends into caller-owned
//! buffers.
//!
//! The two streaming tests keep first contact with a *new* message outside
//! their measured windows (they predate the recycling below and still pin
//! the per-packet path on its own). The churn tests measure whole message
//! lifetimes — submission, reassembly, completion, retirement at both
//! ends — thousands of times over: a retired message's packet table is
//! reused by the next submission, inline bitmaps need no heap, a heap
//! bitmap (a message of more than 128 packets) is reused by the next
//! such message, and the receiver's slab and probe map stop growing once
//! they hold what is in reassembly.
//!
//! The allocator also keeps a live-bytes high-water mark, which pins the
//! sender's state to its window: a 200 MB message (Fig. 5's) costs packet
//! records only for the span between its first unacknowledged and its
//! first never-sent packet, not one per packet of the message.
//!
//! This lives in an integration test (not the crate's unit tests) so the
//! counting allocator governs the whole test binary, and so the `unsafe`
//! impl of `GlobalAlloc` stays outside the library's `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtp_core::{MsgDelivered, MtpConfig, MtpReceiver, MtpSender, PathletCc, SenderEvent};
use mtp_sim::packet::{Headers, Packet};
use mtp_sim::time::{Duration, Time};
use mtp_wire::{
    EcnCodepoint, EntityId, Feedback, MtpHeader, PathFeedback, PathletId, PktType, SackEntry,
    TrafficClass,
};

struct CountingAlloc;

// Per-thread count: a process-global counter races with the libtest
// harness thread, whose blocking `recv` of a test result lazily
// initializes a thread-local channel context — two allocations that land
// inside the measurement window or not depending on scheduling.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed (negative when it
    /// frees what another thread allocated), and the highest value that
    /// has reached since the last [`reset_peak`].
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count `allocs` allocating calls and move the live bytes by `bytes`.
fn note(allocs: u64, bytes: i64) {
    // try_with: TLS may be gone during thread teardown; those allocations
    // are not part of any measurement window anyway.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Start a high-water measurement: returns the live bytes now, the base
/// that [`peak_above`] measures from.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The highest live bytes since [`reset_peak`] returned `base`, above it.
fn peak_above(base: i64) -> i64 {
    PEAK.with(Cell::get) - base
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are thread-locals
// of plain integers and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One sender / one receiver, wired back-to-back with no simulator.
struct Loopback {
    sender: MtpSender,
    receiver: MtpReceiver,
    /// Packets emitted by the sender, pending delivery.
    out: Vec<Packet>,
    /// The batch currently being delivered (second persistent buffer, so
    /// the exchange loop itself never allocates).
    wire: Vec<Packet>,
    /// Reusable event-drain buffers.
    sev: Vec<SenderEvent>,
    rev: Vec<MsgDelivered>,
    now: Time,
    delivered_pkts: u64,
}

impl Loopback {
    fn new() -> Loopback {
        // A fixed window keeps the in-flight high-water mark constant, so
        // buffer capacities reached during warm-up are final.
        let cfg = MtpConfig {
            cc: PathletCc::Fixed(15_000),
            ..MtpConfig::default()
        };
        Loopback {
            sender: MtpSender::new(cfg, 1, EntityId(0), 1 << 20),
            receiver: MtpReceiver::new(2),
            out: Vec::new(),
            wire: Vec::new(),
            sev: Vec::new(),
            rev: Vec::new(),
            now: Time::ZERO,
            delivered_pkts: 0,
        }
    }

    fn tick(&mut self) {
        self.now += Duration::from_nanos(500);
    }

    fn submit(&mut self, bytes: u32) {
        let now = self.now;
        self.sender
            .send_message(2, bytes, 0, TrafficClass::BEST_EFFORT, now, &mut self.out);
    }

    /// Deliver one packet to the receiver and feed the echoed ACK straight
    /// back to the sender (window-opened admissions land in `out`).
    /// `skip` drops that packet number's first transmission, provoking a
    /// gap NACK on the next in-order arrival.
    fn process(&mut self, pkt: Packet, skip: Option<u32>) {
        self.tick();
        let Headers::Mtp(hdr) = pkt.headers else {
            unreachable!("sender emits MTP packets")
        };
        if Some(hdr.pkt_num.0) == skip && hdr.pkt_type == PktType::Data && !hdr.is_retx() {
            mtp_sim::pool::recycle_header(hdr);
            return;
        }
        let (ack, _) = self.receiver.on_data(self.now, &hdr, EcnCodepoint::Ect0);
        mtp_sim::pool::recycle_header(hdr);
        self.delivered_pkts += 1;
        self.receiver.drain_events(&mut self.rev);
        self.rev.clear();
        let Headers::Mtp(ack_hdr) = ack.headers else {
            unreachable!("receiver emits MTP ACKs")
        };
        self.tick();
        self.sender.on_ack(self.now, &ack_hdr, &mut self.out);
        mtp_sim::pool::recycle_header(ack_hdr);
        self.sender.drain_events(&mut self.sev);
        self.sev.clear();
    }

    /// Deliver the oldest pending packet (first contact for a fresh
    /// message — kept outside measured windows).
    fn deliver_first(&mut self) {
        let pkt = self.out.remove(0);
        self.process(pkt, None);
    }

    /// Deliver everything currently on the wire, in order.
    fn deliver_pending(&mut self, skip: Option<u32>) {
        std::mem::swap(&mut self.out, &mut self.wire);
        // Preserve FIFO delivery order while popping from the back.
        self.wire.reverse();
        while let Some(pkt) = self.wire.pop() {
            self.process(pkt, skip);
        }
    }

    /// Run data/ACK exchanges until the wire quiesces.
    fn cycle(&mut self, skip: Option<u32>) {
        while !self.out.is_empty() {
            self.deliver_pending(skip);
        }
    }

    /// Move `msgs` messages of `bytes` each at no more than
    /// [`CHURN_OUTSTANDING`] outstanding; returns the allocations it took.
    fn churn(&mut self, msgs: u64, bytes: u32) -> u64 {
        let before = allocs();
        let done = self.sender.stats.msgs_completed + msgs;
        let mut submitted = 0;
        while self.sender.stats.msgs_completed < done {
            while submitted < msgs && self.sender.outstanding() < CHURN_OUTSTANDING {
                self.submit(bytes);
                submitted += 1;
            }
            self.deliver_pending(None);
        }
        allocs() - before
    }
}

const CHURN_OUTSTANDING: usize = 16;

/// Whole message lifetimes at a bounded number outstanding: after a
/// warm-up of half as many messages, `measured` further messages allocate
/// nothing on either core, and neither core's resident state grows with
/// the count.
fn message_churn_allocates_nothing(bytes: u32, measured: u64) {
    let mut lb = Loopback::new();
    // Several runs, not one: each start from quiescence reaches pooled
    // headers a run in full swing never touches, and a header serves as
    // an ACK (SACK and feedback lists) once before it stops allocating.
    for _ in 0..5 {
        lb.churn(measured / 10, bytes);
    }
    let warm_sender = lb.sender.resident();

    let allocs = lb.churn(measured, bytes);

    let total = measured + 5 * (measured / 10);
    assert_eq!(lb.sender.stats.msgs_completed, total);
    assert_eq!(lb.receiver.stats.msgs_delivered, total);
    assert_eq!(
        allocs, 0,
        "{measured} messages of {bytes} B allocated {allocs} times after warm-up"
    );
    assert!(lb.sender.resident() <= CHURN_OUTSTANDING.max(warm_sender));
    assert_eq!(
        (lb.receiver.in_reassembly(), lb.receiver.resident()),
        (0, 1),
        "a drained receiver holds one run of completed ids"
    );
}

#[test]
fn one_packet_message_churn_allocates_nothing() {
    message_churn_allocates_nothing(1_000, 10_000);
}

#[test]
fn eight_packet_message_churn_allocates_nothing() {
    message_churn_allocates_nothing(8 * 1460, 10_000);
}

/// Past 128 packets a message's bitmap lives on the heap; the receiver
/// reuses the completed ones.
#[test]
fn large_message_churn_allocates_nothing() {
    message_churn_allocates_nothing(130 * 1460, 200);
}

#[test]
fn endpoint_ack_echo_churn_steady_state_allocates_nothing() {
    let mut lb = Loopback::new();

    // Warm-up: several messages (one with a dropped packet to exercise
    // NACK, retransmission, and the loss scratch) grow every buffer, the
    // sender slab, the receiver probe map, and the header pool to
    // steady-state capacity.
    for round in 0..8 {
        let skip = if round == 3 { Some(7) } else { None };
        lb.submit(40 * 1460);
        lb.cycle(skip);
    }
    assert_eq!(lb.sender.stats.msgs_completed, 8, "warm-up completed");
    assert!(lb.sender.stats.nacks > 0, "warm-up exercised the NACK path");

    // Measured phase: a long message streams through the fixed window —
    // every delivery builds a pooled SACK+feedback ACK, every ACK credits
    // the window and admits the next packet. Submission and first contact
    // (one-time per-message setup) happen before measurement starts.
    lb.submit(60 * 1460);
    lb.deliver_first();
    let warm_pkts = lb.delivered_pkts;
    let before = allocs();
    lb.cycle(None);
    let after = allocs();

    let churned = lb.delivered_pkts - warm_pkts;
    assert_eq!(churned, 59, "measured phase delivered the rest");
    assert_eq!(lb.sender.stats.msgs_completed, 9);
    assert_eq!(
        after - before,
        0,
        "endpoint ACK/echo hot path allocated {} times across {} data/ACK exchanges",
        after - before,
        churned
    );
}

/// The same loop, measured across repeated NACK/retransmit episodes: loss
/// repair (gap NACKs, immediate retransmission, loss attribution, window
/// punishment) must also be allocation-free once warm.
#[test]
fn endpoint_nack_repair_steady_state_allocates_nothing() {
    let mut lb = Loopback::new();
    // Warm-up mirrors the measured workload exactly (same message size,
    // same loss position every round) so the header pool's rotation — and
    // therefore which pooled buffers carry NACK lists — reaches the same
    // periodic steady state the measurement will see.
    for _ in 0..10 {
        lb.submit(30 * 1460);
        lb.deliver_first();
        lb.cycle(Some(5));
    }
    assert!(
        lb.sender.stats.retransmissions >= 5,
        "warm-up repaired loss"
    );

    let mut measured = 0u64;
    for _ in 0..10 {
        lb.submit(30 * 1460);
        lb.deliver_first();
        let before = allocs();
        lb.cycle(Some(5));
        measured += allocs() - before;
    }
    assert_eq!(lb.sender.stats.msgs_completed, 20);
    assert_eq!(
        measured, 0,
        "NACK repair path allocated {measured} times across 10 loss episodes"
    );
}

/// A pathlet's window lives inline in the sender's table: learning a key
/// from ACK feedback costs only the table's amortized growth, not an
/// allocation per key. Every learned pathlet starts as the configured
/// window.
#[test]
fn learning_pathlets_from_feedback_allocates_less_than_once_per_key() {
    const KEYS: u16 = 256;
    const WINDOW: u64 = 20_000;
    let cfg = MtpConfig {
        cc: PathletCc::Fixed(WINDOW),
        ..MtpConfig::default()
    };
    let mut sender = MtpSender::new(cfg, 1, EntityId(0), 1);
    // Sixteen ACKs of sixteen fresh keys each, built before measuring.
    let acks: Vec<MtpHeader> = (0..KEYS / 16)
        .map(|a| MtpHeader {
            pkt_type: PktType::Ack,
            ack_path_feedback: (0..16)
                .map(|k| PathFeedback {
                    path: PathletId(100 + a * 16 + k),
                    tc: TrafficClass((k % 4) as u8),
                    feedback: Feedback::EcnMark { ce: k % 3 == 0 },
                })
                .collect(),
            ..MtpHeader::default()
        })
        .collect();
    let mut out = Vec::new();
    let known = sender.pathlets().len();

    let before = allocs();
    for (i, ack) in acks.iter().enumerate() {
        sender.on_ack(Time::ZERO + Duration::from_micros(i as u64), ack, &mut out);
    }
    let allocs = allocs() - before;

    let learned = sender.pathlets().len() - known;
    assert_eq!(learned, KEYS as usize);
    assert!(out.is_empty(), "no data to send");
    assert!(
        allocs < learned as u64,
        "learning {learned} pathlets allocated {allocs} times"
    );
    for (&(path, _), e) in sender.pathlets().iter() {
        if path.0 >= 100 {
            assert_eq!(
                e.cc.window(),
                WINDOW,
                "pathlet {} starts at the configured window",
                path.0
            );
        }
    }
}

/// Fig. 5's single 200 MB message (136 987 packets), driven to completion
/// through a fixed 64-packet window with every 500th packet's first
/// transmission lost and NACK-repaired. Each hole sits at the front of the
/// packet span while the window's worth of packets behind it is
/// acknowledged; its repair pops all of those records at once. The
/// sender's live heap, submission included, stays below 64 KiB: it holds
/// records for the span, not for the message (one per packet would be
/// 4.4 MB at `send_message`).
#[test]
fn a_200_mb_message_costs_sender_state_for_its_window_only() {
    const BYTES: u32 = 200_000_000;
    const PKTS: u64 = 136_987;
    const WINDOW_PKTS: u64 = 64;
    const LOSE_EVERY: u32 = 500;
    const BUDGET: i64 = 64 * 1024;
    let cfg = MtpConfig {
        cc: PathletCc::Fixed(WINDOW_PKTS * 1460),
        ..MtpConfig::default()
    };
    let mut sender = MtpSender::new(cfg, 1, EntityId(0), 1);
    // The driver's own buffers and the thread's header pool reach their
    // sizes before the measurement starts.
    let mut out: Vec<Packet> = Vec::with_capacity(1024);
    let mut wire: Vec<(SackEntry, bool)> = Vec::with_capacity(1024);
    let mut ack = MtpHeader {
        pkt_type: PktType::Ack,
        sack: Vec::with_capacity(1),
        nack: Vec::with_capacity(1),
        ..MtpHeader::default()
    };
    let warm: Vec<_> = (0..1024).map(|_| mtp_sim::pool::take_header()).collect();
    warm.into_iter().for_each(mtp_sim::pool::recycle_header);
    let mut sev = Vec::with_capacity(4);
    let mut now = Time::ZERO;
    let mut holes = 0;

    let base = reset_peak();
    sender.send_message(2, BYTES, 0, TrafficClass::BEST_EFFORT, now, &mut out);
    let mut lost: Option<SackEntry> = None;
    while !out.is_empty() {
        wire.extend(out.drain(..).map(|pkt| {
            let Headers::Mtp(hdr) = pkt.headers else {
                unreachable!("sender emits MTP packets")
            };
            let entry = SackEntry {
                msg: hdr.msg_id,
                pkt: hdr.pkt_num,
            };
            let retx = hdr.is_retx();
            mtp_sim::pool::recycle_header(hdr);
            (entry, retx)
        }));
        for (entry, retx) in wire.drain(..) {
            now += Duration::from_micros(1);
            if entry.pkt.0 % LOSE_EVERY == 0 && !retx {
                lost = Some(entry);
                holes += 1;
                continue;
            }
            // Each arrival is SACKed; the first arrival after a loss also
            // NACKs the hole, as a receiver's gap detection does.
            ack.sack.clear();
            ack.sack.push(entry);
            ack.nack.clear();
            ack.nack.extend(lost.take());
            sender.on_ack(now, &ack, &mut out);
        }
    }
    sender.drain_events(&mut sev);
    let peak = peak_above(base);

    assert_eq!(sender.stats.msgs_completed, 1, "the message completed");
    assert_eq!(sev.len(), 1);
    assert_eq!(sender.resident(), 0);
    assert_eq!(holes, PKTS.div_ceil(LOSE_EVERY as u64));
    assert_eq!(sender.stats.nacks, holes);
    assert_eq!(sender.stats.retransmissions, holes);
    assert_eq!(sender.stats.pkts_sent, PKTS + holes);
    eprintln!("sender live heap peak: {peak} B");
    assert!(
        peak < BUDGET,
        "a {BYTES} B message held {peak} B of sender heap at its peak"
    );
}
