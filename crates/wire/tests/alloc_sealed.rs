//! Proof that the sealed encode/verify hot path does not allocate.
//!
//! Every MTP frame a session sends is sealed with `emit_sealed` into a
//! caller-owned buffer, and every frame it receives is verified with
//! `parse_sealed_from` into a header it reuses, so both must perform
//! **zero** heap allocations once warm: for a plain data header (no
//! variable sections, the shape of every MTP data packet) and for an
//! ACK-shaped one (a feedback entry, 8 SACKs and a NACK), whose list
//! sections refill the reused header's kept capacity. This pins down the
//! design guarantees of the table-driven checksums: the CRC tables are
//! static, sealing and verification walk the header in place in one pass
//! (the CRC field is read as zero through a 4-byte stack array, not a
//! copy of the header) and empty variable sections cost nothing to parse.
//!
//! This lives in an integration test so the counting allocator governs
//! the whole test binary, and so the `unsafe` impl of `GlobalAlloc` stays
//! outside the library's `deny(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtp_wire::{
    Feedback, MsgId, MtpHeader, PathFeedback, PathletId, PktNum, PktType, SackEntry, TcpHeader,
    TrafficClass,
};

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

// One #[test] entry point so the phases share one measuring thread.
#[test]
fn sealed_hot_paths_allocate_nothing() {
    sealed_encode_verify_roundtrip_allocates_nothing();
    sealed_ack_into_reused_header_allocates_nothing();
    tcp_sealed_roundtrip_allocates_nothing();
    crc_primitives_allocate_nothing();
}

fn sealed_encode_verify_roundtrip_allocates_nothing() {
    let hdr = MtpHeader {
        msg_id: MsgId(0xDEAD_BEEF),
        pkt_num: PktNum(17),
        pkt_len: 1400,
        pkt_offset: 1400 * 17,
        msg_len_pkts: 64,
        msg_len_bytes: 1400 * 64,
        ..MtpHeader::default()
    };
    let mut buf = vec![0u8; hdr.sealed_wire_len()];

    // Warm-up: fault the CRC tables' pages, the feature-detection cache,
    // and anything lazy in the parser before counting.
    let used = hdr.emit_sealed(&mut buf).unwrap();
    let (_, consumed, payload_ok) = MtpHeader::parse_sealed(&buf[..used]).unwrap();
    assert_eq!(consumed, used);
    assert!(payload_ok);

    let before = allocs();
    for _ in 0..1000 {
        let used = hdr.emit_sealed(&mut buf).unwrap();
        let (back, consumed, payload_ok) = MtpHeader::parse_sealed(&buf[..used]).unwrap();
        assert_eq!(consumed, used);
        assert!(payload_ok);
        assert_eq!(back.msg_id, hdr.msg_id);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "sealed encode/verify hot path must not allocate (saw {during} allocations in 1000 rounds)"
    );
}

/// The session's receive path: an ACK-shaped header sealed into a reused
/// buffer and verified into a reused header.
fn sealed_ack_into_reused_header_allocates_nothing() {
    let entry = |pkt| SackEntry {
        msg: MsgId(0xACE),
        pkt: PktNum(pkt),
    };
    let ack = MtpHeader {
        pkt_type: PktType::Ack,
        msg_id: MsgId(0xACE),
        ack_path_feedback: vec![PathFeedback {
            path: PathletId(1),
            tc: TrafficClass(0),
            feedback: Feedback::EcnMark { ce: true },
        }],
        sack: (0..8).map(entry).collect(),
        nack: vec![entry(9)],
        ..MtpHeader::default()
    };
    let mut buf = vec![0u8; ack.sealed_wire_len()];
    let mut back = MtpHeader::default();

    // Warm-up: grows `back`'s list sections to the ACK's counts.
    let used = ack.emit_sealed(&mut buf).unwrap();
    assert_eq!(back.parse_sealed_from(&buf[..used]), Ok((used, true)));
    assert_eq!(back, ack);

    let before = allocs();
    for _ in 0..1000 {
        let used = ack.emit_sealed(&mut buf).unwrap();
        assert_eq!(back.parse_sealed_from(&buf[..used]), Ok((used, true)));
        assert_eq!(back.sack.len(), 8);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "sealed ACK verify into a reused header must not allocate (saw {during} allocations in 1000 rounds)"
    );
}

fn tcp_sealed_roundtrip_allocates_nothing() {
    let hdr = TcpHeader {
        seq: 123_456,
        ack: 654_321,
        payload_len: 1400,
        ..TcpHeader::default()
    };
    let sealed = hdr.to_sealed_bytes();
    let (_, used) = TcpHeader::parse_sealed(&sealed).unwrap();
    assert_eq!(used, sealed.len());

    let before = allocs();
    for _ in 0..1000 {
        let sealed = hdr.to_sealed_bytes();
        let (back, _) = TcpHeader::parse_sealed(&sealed).unwrap();
        assert_eq!(back.seq, hdr.seq);
    }
    let during = allocs() - before;
    assert_eq!(during, 0, "TCP sealed roundtrip must not allocate");
}

fn crc_primitives_allocate_nothing() {
    let mut msg = [0u8; 1792];
    for (i, b) in msg.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31);
    }
    let c32 = mtp_wire::integrity::crc32(&msg);
    let c16 = mtp_wire::integrity::crc16_ccitt(&msg);

    let before = allocs();
    for _ in 0..100 {
        assert_eq!(mtp_wire::integrity::crc32(&msg), c32);
        assert_eq!(mtp_wire::integrity::crc16_ccitt(&msg), c16);
    }
    let during = allocs() - before;
    assert_eq!(during, 0, "checksum primitives must not allocate");
}
