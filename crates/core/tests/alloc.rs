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
//! This lives in an integration test (not the crate's unit tests) so the
//! counting allocator governs the whole test binary, and so the `unsafe`
//! impl of `GlobalAlloc` stays outside the library's `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtp_core::{CcKind, MsgDelivered, MtpConfig, MtpReceiver, MtpSender, SenderEvent};
use mtp_sim::packet::{Headers, Packet};
use mtp_sim::time::{Duration, Time};
use mtp_wire::{EcnCodepoint, EntityId, PktType, TrafficClass};

struct CountingAlloc;

// Per-thread count: a process-global counter races with the libtest
// harness thread, whose blocking `recv` of a test result lazily
// initializes a thread-local channel context — two allocations that land
// inside the measurement window or not depending on scheduling.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: TLS may be gone during thread teardown; those allocations
    // are not part of any measurement window anyway.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
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
            cc: CcKind::Fixed { window: 15_000 },
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
