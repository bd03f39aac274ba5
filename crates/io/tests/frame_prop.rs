//! Property tests for the datagram frame coalescer.
//!
//! The coalescer packs arbitrary interleavings of sealed MTP data frames
//! and session-control frames into budget-bounded datagrams; the
//! receiver splits them back with [`FrameIter`]. The properties pinned
//! here:
//!
//! 1. **Pack/split roundtrip** — any frame sequence packed across as
//!    many datagrams as the budget requires parses back identical, in
//!    order, with kinds intact.
//! 2. **No straddling** — every datagram stays within budget and every
//!    frame lives wholly inside one datagram (each datagram iterates
//!    cleanly to its last byte).
//! 3. **Seal-time rejection** — a frame that cannot fit an *empty*
//!    datagram is refused as [`FrameError::FrameTooBig`] before any
//!    bytes are written, never surfaced later as a kernel `EMSGSIZE`.
//! 4. **Truncation safety** — chopping a packed datagram anywhere never
//!    panics the splitter and never invents a frame that wasn't packed.

use proptest::prelude::*;

use mtp_io::{
    append_ctrl_frame, append_frame, FrameError, FrameIter, FrameKind, DEFAULT_DATAGRAM_BUDGET,
    FRAME_OVERHEAD,
};
use mtp_wire::{CtrlKind, MsgId, MtpHeader, PktNum, PktType, SessionCtrl};

/// One logical frame the coalescer is asked to carry.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Item {
    Data {
        msg: u64,
        pkt: u32,
        payload: Vec<u8>,
    },
    Ctrl(SessionCtrl),
}

fn data_header(msg: u64, pkt: u32, payload_len: usize) -> MtpHeader {
    MtpHeader {
        pkt_type: PktType::Data,
        msg_id: MsgId(msg),
        msg_len_pkts: 8,
        msg_len_bytes: 8 * 1460,
        pkt_num: PktNum(pkt),
        pkt_len: payload_len as u16,
        pkt_offset: pkt.wrapping_mul(1460),
        ..MtpHeader::default()
    }
}

fn arb_ctrl_kind() -> impl Strategy<Value = CtrlKind> {
    prop_oneof![
        Just(CtrlKind::Hello),
        Just(CtrlKind::HelloAck),
        Just(CtrlKind::Fin),
        Just(CtrlKind::FinAck),
        Just(CtrlKind::Ping),
        Just(CtrlKind::Pong),
        Just(CtrlKind::Busy),
    ]
}

fn arb_ctrl() -> impl Strategy<Value = SessionCtrl> {
    (
        (arb_ctrl_kind(), any::<u64>(), any::<u64>()),
        (any::<u32>(), any::<u16>(), any::<u16>()),
        prop::collection::vec(any::<u16>(), 0..9),
    )
        .prop_map(|((kind, sid, peer), (seq, src, dst), ports)| {
            let mut ctrl = SessionCtrl::new(kind, sid, peer);
            ctrl.seq = seq;
            ctrl.src_port = src;
            ctrl.dst_port = dst;
            ctrl.ports = ports;
            ctrl
        })
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..1800)
        )
            .prop_map(|(msg, pkt, payload)| Item::Data { msg, pkt, payload }),
        arb_ctrl().prop_map(Item::Ctrl),
    ]
}

/// Pack `items` into as many datagrams as the budget demands, exactly
/// how the driver does it: append until a frame defers, then flush and
/// retry on a fresh datagram.
fn pack(items: &[Item], budget: usize) -> Vec<Vec<u8>> {
    let mut dgrams: Vec<Vec<u8>> = vec![Vec::new()];
    for item in items {
        loop {
            let dgram = dgrams.last_mut().expect("at least one datagram");
            let appended = match item {
                Item::Data { msg, pkt, payload } => {
                    let hdr = data_header(*msg, *pkt, payload.len());
                    append_frame(dgram, budget, &hdr, payload).expect("valid frame")
                }
                Item::Ctrl(ctrl) => append_ctrl_frame(dgram, budget, ctrl).expect("valid frame"),
            };
            if appended {
                break;
            }
            assert!(
                !dgram.is_empty(),
                "a frame deferred on an empty datagram instead of erroring"
            );
            dgrams.push(Vec::new());
        }
    }
    dgrams.retain(|d| !d.is_empty());
    dgrams
}

/// Split every datagram back into logical items, asserting clean
/// iteration (property 2: nothing torn, nothing straddling).
fn split(dgrams: &[Vec<u8>]) -> Vec<Item> {
    let mut items = Vec::new();
    for dgram in dgrams {
        for frame in FrameIter::new(dgram) {
            let (kind, body) = frame.expect("packed datagrams split cleanly");
            match kind {
                FrameKind::Mtp => {
                    let (hdr, used, payload_ok) =
                        MtpHeader::parse_sealed(body).expect("sealed header parses");
                    assert!(payload_ok, "payload integrity must hold");
                    items.push(Item::Data {
                        msg: hdr.msg_id.0,
                        pkt: hdr.pkt_num.0,
                        payload: body[used..].to_vec(),
                    });
                }
                FrameKind::Ctrl => {
                    let (ctrl, used) = SessionCtrl::parse_sealed(body).expect("sealed ctrl parses");
                    assert_eq!(used, body.len(), "ctrl frame must consume its whole body");
                    items.push(Item::Ctrl(ctrl));
                }
            }
        }
    }
    items
}

proptest! {
    /// Properties 1 + 2: roundtrip across datagram boundaries, every
    /// datagram within budget.
    #[test]
    fn pack_split_roundtrip(items in prop::collection::vec(arb_item(), 0..40)) {
        let budget = DEFAULT_DATAGRAM_BUDGET;
        let dgrams = pack(&items, budget);
        for dgram in &dgrams {
            prop_assert!(
                dgram.len() <= budget,
                "datagram of {} bytes exceeds budget {budget}",
                dgram.len()
            );
        }
        let back = split(&dgrams);
        prop_assert_eq!(back, items);
    }

    /// Property 1 under pressure: a budget barely above the largest
    /// frame forces a datagram boundary between almost every pair of
    /// frames — the straddle-free invariant must survive heavy flushing.
    #[test]
    fn roundtrip_under_tight_budget(
        items in prop::collection::vec(arb_item(), 1..24),
        slack in 0usize..64,
    ) {
        let largest = items
            .iter()
            .map(|item| match item {
                Item::Data { msg, pkt, payload } => {
                    let hdr = data_header(*msg, *pkt, payload.len());
                    FRAME_OVERHEAD + hdr.sealed_wire_len() + payload.len()
                }
                Item::Ctrl(ctrl) => FRAME_OVERHEAD + ctrl.wire_len(),
            })
            .max()
            .expect("non-empty");
        let budget = largest + slack;
        let dgrams = pack(&items, budget);
        for dgram in &dgrams {
            prop_assert!(dgram.len() <= budget);
        }
        let back = split(&dgrams);
        prop_assert_eq!(back, items);
    }

    /// Property 3: an impossible frame is rejected when sealed, and the
    /// datagram under construction is left byte-for-byte intact.
    #[test]
    fn oversized_frames_rejected_at_seal_time(
        msg in any::<u64>(),
        payload_len in 300usize..2000,
        budget in 32usize..300,
        ports in prop::collection::vec(any::<u16>(), 40..120),
    ) {
        // Park a small frame first: rejection must not disturb it.
        let mut dgram = Vec::new();
        let parked = data_header(1, 0, 4);
        prop_assert!(append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &parked, &[7; 4]).unwrap());
        let before = dgram.clone();

        let payload = vec![0xA5u8; payload_len];
        let hdr = data_header(msg, 0, payload.len());
        let frame = FRAME_OVERHEAD + hdr.sealed_wire_len() + payload.len();
        prop_assert!(frame > budget, "strategy must produce an oversized frame");
        match append_frame(&mut dgram, budget, &hdr, &payload) {
            Err(FrameError::FrameTooBig { frame: got, budget: b }) => {
                prop_assert_eq!(got, frame);
                prop_assert_eq!(b, budget);
            }
            other => prop_assert!(false, "expected FrameTooBig, got {other:?}"),
        }
        prop_assert_eq!(&dgram, &before);

        // Same guard on the ctrl path: a port map that outgrows the
        // budget is refused, not truncated.
        let mut ctrl = SessionCtrl::new(CtrlKind::HelloAck, 3, 4);
        ctrl.ports = ports;
        let frame = FRAME_OVERHEAD + ctrl.wire_len();
        let tight = frame - 1;
        match append_ctrl_frame(&mut dgram, tight, &ctrl) {
            Err(FrameError::FrameTooBig { frame: got, budget: b }) => {
                prop_assert_eq!(got, frame);
                prop_assert_eq!(b, tight);
            }
            other => prop_assert!(false, "expected FrameTooBig, got {other:?}"),
        }
        prop_assert_eq!(&dgram, &before);
    }

    /// Property 4: truncating a packed datagram anywhere yields a prefix
    /// of the packed frames followed by at most one framing error —
    /// never a panic, never a frame that wasn't packed.
    #[test]
    fn truncation_never_invents_frames(
        items in prop::collection::vec(arb_item(), 1..16),
        cut_seed in any::<u64>(),
    ) {
        let dgrams = pack(&items, DEFAULT_DATAGRAM_BUDGET);
        let dgram = &dgrams[0];
        let cut = (cut_seed % dgram.len() as u64) as usize;
        let full: Vec<Item> = split(std::slice::from_ref(dgram));

        let mut got = Vec::new();
        let mut saw_error = false;
        for frame in FrameIter::new(&dgram[..cut]) {
            match frame {
                Ok((kind, body)) => {
                    prop_assert!(!saw_error, "frames after a torn frame");
                    match kind {
                        FrameKind::Mtp => {
                            let (hdr, used, ok) = MtpHeader::parse_sealed(body)
                                .expect("intact frame parses");
                            prop_assert!(ok);
                            got.push(Item::Data {
                                msg: hdr.msg_id.0,
                                pkt: hdr.pkt_num.0,
                                payload: body[used..].to_vec(),
                            });
                        }
                        FrameKind::Ctrl => {
                            let (ctrl, used) = SessionCtrl::parse_sealed(body)
                                .expect("intact frame parses");
                            prop_assert_eq!(used, body.len());
                            got.push(Item::Ctrl(ctrl));
                        }
                    }
                }
                Err(FrameError::TornFrame { .. } | FrameError::TornPrefix) => {
                    saw_error = true;
                }
                Err(e) => prop_assert!(false, "unexpected split error: {e}"),
            }
        }
        prop_assert!(got.len() <= full.len());
        prop_assert_eq!(&got[..], &full[..got.len()], "truncation invented a frame");
    }
}
