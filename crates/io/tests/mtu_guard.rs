//! MTU guard regression: the datagram budget survives the largest
//! headers the protocol can emit.
//!
//! The wire driver coalesces sealed frames into datagrams under
//! [`DEFAULT_DATAGRAM_BUDGET`]; [`append_frame`] is the only seam where
//! a frame could outgrow its datagram. These tests pin the guard from
//! both sides: the worst *realistic* header shapes (a data packet
//! dragging a full 255-entry exclusion list; a drain's coalesced ACK
//! carrying 255 SACKs, 255 NACKs and echoed path feedback) must fit,
//! and a deliberately over-budget frame must be rejected with
//! [`FrameError::FrameTooBig`] rather than silently truncated or split.

use mtp_core::MtpConfig;
use mtp_io::frame::{append_frame, FrameIter, FrameKind, FRAME_OVERHEAD};
use mtp_io::{FrameError, DEFAULT_DATAGRAM_BUDGET};
use mtp_wire::{
    Feedback, MsgId, MtpHeader, PathExclude, PathFeedback, PathletId, PktNum, PktType, SackEntry,
    TrafficClass,
};

/// The widest data header a sender can emit: every one of the 255
/// addressable pathlet exclusions, plus the echoed feedback slot, on a
/// full MTU payload segment.
fn worst_data_header(pkt_len: u16) -> MtpHeader {
    MtpHeader {
        pkt_type: PktType::Data,
        msg_id: MsgId(0xFFFF_FFFF_FFFF_FFFF),
        msg_len_pkts: u32::MAX,
        msg_len_bytes: u32::MAX,
        pkt_num: PktNum(u32::MAX),
        pkt_len,
        pkt_offset: u32::MAX - pkt_len as u32,
        path_exclude: (0..255)
            .map(|p| PathExclude {
                path: PathletId(p),
                tc: TrafficClass::BEST_EFFORT,
            })
            .collect(),
        path_feedback: vec![PathFeedback {
            path: PathletId(255),
            tc: TrafficClass::BEST_EFFORT,
            feedback: Feedback::EcnMark { ce: true },
        }],
        ..MtpHeader::default()
    }
}

/// The widest ACK a receiver can emit: packets join one ACK only while
/// both its lists stay within 255 entries (`MtpReceiver::ack_into`), so
/// full SACK and NACK lists, and the listener's one echoed stamp.
fn worst_ack_header() -> MtpHeader {
    MtpHeader {
        pkt_type: PktType::Ack,
        msg_id: MsgId(u64::MAX),
        sack: (0..255u32)
            .map(|k| SackEntry {
                msg: MsgId(u64::MAX - k as u64),
                pkt: PktNum(u32::MAX - k),
            })
            .collect(),
        nack: (0..255u32)
            .map(|k| SackEntry {
                msg: MsgId(k as u64),
                pkt: PktNum(k),
            })
            .collect(),
        ack_path_feedback: vec![PathFeedback {
            path: PathletId(255),
            tc: TrafficClass::BEST_EFFORT,
            feedback: Feedback::EcnMark { ce: true },
        }],
        ..MtpHeader::default()
    }
}

/// The static bound covers the worst shapes, and the worst shapes fit
/// the default datagram budget with room for the frame prefix.
#[test]
fn worst_case_headers_fit_default_budget() {
    let mtu_payload = MtpConfig::default().mtu_payload as usize;
    let data = worst_data_header(mtu_payload as u16);
    let ack = worst_ack_header();

    // The closed-form bound dominates the real sealed sizes...
    let data_bound = MtpHeader::max_sealed_wire_len(255, 1, 0, 0, 0);
    let ack_bound = MtpHeader::max_sealed_wire_len(0, 0, 1, 255, 255);
    assert!(data.sealed_wire_len() <= data_bound);
    assert!(ack.sealed_wire_len() <= ack_bound);

    // ...and both worst frames (with payload, prefix, and kind byte)
    // fit the budget.
    assert!(
        FRAME_OVERHEAD + data_bound + mtu_payload <= DEFAULT_DATAGRAM_BUDGET,
        "worst data frame ({}) exceeds the datagram budget ({})",
        FRAME_OVERHEAD + data_bound + mtu_payload,
        DEFAULT_DATAGRAM_BUDGET
    );
    assert!(
        FRAME_OVERHEAD + ack_bound <= DEFAULT_DATAGRAM_BUDGET,
        "worst ACK frame ({}) exceeds the datagram budget ({})",
        FRAME_OVERHEAD + ack_bound,
        DEFAULT_DATAGRAM_BUDGET
    );
}

/// Those worst frames round-trip through the real coalescing path:
/// appended, iterated, parsed, and byte-compared.
#[test]
fn worst_case_frames_round_trip_through_coalescing() {
    let mtu_payload = MtpConfig::default().mtu_payload as usize;
    let data = worst_data_header(mtu_payload as u16);
    let ack = worst_ack_header();
    let payload = vec![0xA5u8; mtu_payload];

    let mut dgram = Vec::new();
    assert!(append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &ack, &[]).expect("ack fits"));
    assert!(append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &data, &payload).expect("data fits"));
    assert!(dgram.len() <= DEFAULT_DATAGRAM_BUDGET);

    let frames: Vec<(FrameKind, &[u8])> = FrameIter::new(&dgram)
        .collect::<Result<_, _>>()
        .expect("clean iteration");
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[0].0, FrameKind::Mtp);
    let (h0, _, _) = MtpHeader::parse_sealed(frames[0].1).expect("ack parses");
    assert_eq!(h0.nack.len(), 255);
    assert_eq!(h0.sack.len(), 255);
    assert_eq!(frames[1].0, FrameKind::Mtp);
    let (h1, used, payload_ok) = MtpHeader::parse_sealed(frames[1].1).expect("data parses");
    assert_eq!(h1.path_exclude.len(), 255);
    assert!(payload_ok, "descriptor checksum must hold");
    assert_eq!(&frames[1].1[used..], &payload[..]);
}

/// A frame that cannot fit even an empty datagram is a hard error at
/// seal time — never a torn or truncated datagram on the wire.
#[test]
fn over_budget_frame_is_rejected_at_seal_time() {
    let mtu_payload = MtpConfig::default().mtu_payload as usize;
    let data = worst_data_header(mtu_payload as u16);
    let payload = vec![0u8; mtu_payload];
    // A budget sized under this single frame: even a fresh datagram
    // cannot take it.
    let tight = data.sealed_wire_len() + mtu_payload;
    let mut dgram = Vec::new();
    match append_frame(&mut dgram, tight, &data, &payload) {
        Err(FrameError::FrameTooBig { frame, budget }) => {
            assert_eq!(budget, tight);
            assert!(frame > budget);
        }
        other => panic!("expected FrameTooBig, got {other:?}"),
    }
    assert!(
        dgram.is_empty(),
        "a rejected frame must leave no bytes behind"
    );

    // Enough extra budget for the prefix and kind byte and it fits.
    let ok = append_frame(
        &mut dgram,
        FRAME_OVERHEAD + data.sealed_wire_len() + mtu_payload,
        &data,
        &payload,
    )
    .expect("exactly-sized budget fits");
    assert!(ok);
}
