//! Structured fuzzing of the untrusted-byte decode surface.
//!
//! Every parser that can receive bytes off the wire is driven with (a)
//! arbitrary byte soup and (b) *mutated-valid* frames — sealed encodings
//! with a bounded number of bit-flips or a truncation applied. The
//! invariants:
//!
//! 1. **Total decoding**: no input ever panics any parser.
//! 2. **Guaranteed detection**: up to 3 bit-flips confined to the
//!    structure-preserving part of a sealed header always fail the CRC
//!    (CRC-16/CCITT has Hamming distance 4 out to 32 751 bits). Flips in
//!    the section counts can re-frame the walk, but then the consumed
//!    length no longer matches the frame — callers that know the frame
//!    boundary (the simulator's `corrupt::verify`) reject on that.
//! 3. **Payload/header separation**: flips confined to the payload-checksum
//!    trailer leave the header verifiable but report `payload_ok = false`.
//! 4. **Truncation soundness**: a sealed frame cut at *any* byte boundary
//!    is rejected.
//!
//! Runs offline under plain proptest (no cargo-fuzz); CI's fuzz-smoke job
//! raises `PROPTEST_CASES` for a deeper sweep.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mtp_wire::{
    CtrlKind, Feedback, MtpHeader, PathExclude, PathFeedback, PathletId, PktNum, PktType,
    SackEntry, SessionCtrl, TcpFlags, TcpHeader, TrafficClass, FIXED_HEADER_LEN, PAYLOAD_CSUM_LEN,
    TCP_SEALED_LEN,
};

/// Bit-at-a-time CRC-16/CCITT-FALSE, the reference the table walk must
/// match.
fn crc16_bitwise(bytes: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in bytes {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
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

prop_compose! {
    fn arb_session_ctrl()(
        version in 1u8..255,
        kind in arb_ctrl_kind(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        session_id in any::<u64>(),
        peer_session_id in any::<u64>(),
        seq in any::<u32>(),
        ports in prop::collection::vec(any::<u16>(), 0..12),
    ) -> SessionCtrl {
        SessionCtrl {
            version,
            kind,
            src_port,
            dst_port,
            session_id,
            peer_session_id,
            seq,
            ports,
        }
    }
}

fn arb_feedback() -> impl Strategy<Value = Feedback> {
    prop_oneof![
        any::<bool>().prop_map(|ce| Feedback::EcnMark { ce }),
        any::<u16>().prop_map(|fraction| Feedback::EcnFraction { fraction }),
        any::<u32>().prop_map(|mbps| Feedback::RcpRate { mbps }),
        any::<u32>().prop_map(|ns| Feedback::Delay { ns }),
        any::<u32>().prop_map(|bytes| Feedback::QueueDepth { bytes }),
        any::<u16>().prop_map(|p| Feedback::PathChange {
            new_path: PathletId(p)
        }),
        Just(Feedback::Trim),
    ]
}

fn arb_path_feedback() -> impl Strategy<Value = PathFeedback> {
    (any::<u16>(), any::<u8>(), arb_feedback()).prop_map(|(p, tc, feedback)| PathFeedback {
        path: PathletId(p),
        tc: TrafficClass(tc),
        feedback,
    })
}

fn arb_sack() -> impl Strategy<Value = SackEntry> {
    (any::<u64>(), any::<u32>()).prop_map(|(m, p)| SackEntry {
        msg: mtp_wire::MsgId(m),
        pkt: PktNum(p),
    })
}

fn arb_pkt_type() -> impl Strategy<Value = PktType> {
    prop_oneof![
        Just(PktType::Data),
        Just(PktType::Ack),
        Just(PktType::Nack),
        Just(PktType::Control)
    ]
}

prop_compose! {
    fn arb_header()(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        pkt_type in arb_pkt_type(),
        msg_pri in any::<u8>(),
        tc in any::<u8>(),
        raw_flags in 0u8..16,
        msg_id in any::<u64>(),
        entity in any::<u16>(),
        msg_len_pkts in any::<u32>(),
        msg_len_bytes in any::<u32>(),
        pkt_num in any::<u32>(),
        pkt_len in any::<u16>(),
        pkt_offset in any::<u32>(),
        path_exclude in prop::collection::vec(
            (any::<u16>(), any::<u8>()).prop_map(|(p, tc)| PathExclude {
                path: PathletId(p),
                tc: TrafficClass(tc),
            }),
            0..6
        ),
        path_feedback in prop::collection::vec(arb_path_feedback(), 0..6),
        ack_path_feedback in prop::collection::vec(arb_path_feedback(), 0..6),
        sack in prop::collection::vec(arb_sack(), 0..10),
        nack in prop::collection::vec(arb_sack(), 0..10),
    ) -> MtpHeader {
        MtpHeader {
            src_port,
            dst_port,
            pkt_type,
            msg_pri,
            tc: TrafficClass(tc),
            flags: raw_flags,
            msg_id: mtp_wire::MsgId(msg_id),
            entity: mtp_wire::EntityId(entity),
            msg_len_pkts,
            msg_len_bytes,
            pkt_num: PktNum(pkt_num),
            pkt_len,
            pkt_offset,
            path_exclude,
            path_feedback,
            ack_path_feedback,
            sack,
            nack,
        }
    }
}

prop_compose! {
    fn arb_tcp_header()(
        conn_id in any::<u32>(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u64>(),
        ack in any::<u64>(),
        rwnd in any::<u32>(),
        payload_len in any::<u16>(),
        flag_bits in 0u8..64,
    ) -> TcpHeader {
        TcpHeader {
            conn_id,
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags {
                syn: flag_bits & 1 != 0,
                ack: flag_bits & 2 != 0,
                fin: flag_bits & 4 != 0,
                rst: flag_bits & 8 != 0,
                ece: flag_bits & 16 != 0,
                cwr: flag_bits & 32 != 0,
            },
            rwnd,
            payload_len,
        }
    }
}

/// Flip `bits` (distinct positions) in place.
fn flip_bits(buf: &mut [u8], bits: &BTreeSet<usize>) {
    for &bit in bits {
        buf[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Map proptest-drawn raw positions onto `count` distinct bits inside
/// `lo..hi` (bit offsets). Degenerate ranges yield fewer bits; the caller
/// requires at least one.
fn pick_bits(raw: &[usize], lo: usize, hi: usize) -> BTreeSet<usize> {
    raw.iter().map(|r| lo + r % (hi - lo)).collect()
}

proptest! {
    /// Invariant 1, arbitrary bytes: the whole decode surface is total.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = MtpHeader::parse_sealed(&bytes);
        let _ = TcpHeader::parse_sealed(&bytes);
    }

    /// Invariant 1, feedback TLVs: any (type, value) pair decodes totally.
    #[test]
    fn arbitrary_feedback_never_panics(
        fb_type in any::<u8>(),
        value in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let _ = Feedback::parse_value(fb_type, &value);
    }

    /// Invariant 1, mutated-valid: flips and cuts anywhere in a sealed
    /// frame never panic the sealed parser.
    #[test]
    fn mutated_sealed_never_panics(
        hdr in arb_header(),
        raw in prop::collection::vec(any::<usize>(), 1..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let sealed = hdr.to_sealed_bytes().unwrap();
        let mut mutated = sealed.clone();
        let bits = mutated.len() * 8;
        flip_bits(&mut mutated, &pick_bits(&raw, 0, bits));
        let _ = MtpHeader::parse_sealed(&mutated);
        let cut = (sealed.len() as f64 * cut_frac) as usize;
        let _ = MtpHeader::parse_sealed(&sealed[..cut]);
    }

    /// Invariant 2: up to 3 flips in the structure-preserving fixed-header
    /// region (everything before the section counts, plus the integrity
    /// and CRC bytes) are always rejected.
    #[test]
    fn fixed_header_flips_always_detected(
        hdr in arb_header(),
        raw in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let mut sealed = hdr.to_sealed_bytes().unwrap();
        // Bytes 36..=40 hold the five section counts; flipping those is
        // covered by the frame-length argument instead (next test).
        let in_fields = pick_bits(&raw[..1], 0, 36 * 8);
        let in_integrity = pick_bits(&raw[1..], 41 * 8, FIXED_HEADER_LEN * 8);
        let bits: BTreeSet<usize> = in_fields.union(&in_integrity).copied().collect();
        flip_bits(&mut sealed, &bits);
        prop_assert!(MtpHeader::parse_sealed(&sealed).is_err());
    }

    /// Invariant 2, frame-length arm: any flips in the *whole header
    /// region* are caught by CRC or by the walked length no longer
    /// spanning the frame — the check the simulator's verifier applies.
    #[test]
    fn header_region_flips_never_verify_cleanly(
        hdr in arb_header(),
        raw in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let sealed = hdr.to_sealed_bytes().unwrap();
        let hdr_len = sealed.len() - PAYLOAD_CSUM_LEN;
        let mut mutated = sealed.clone();
        flip_bits(&mut mutated, &pick_bits(&raw, 0, hdr_len * 8));
        let detected = match MtpHeader::parse_sealed(&mutated) {
            Err(_) => true,
            Ok((_, consumed, _)) => consumed != mutated.len(),
        };
        prop_assert!(detected, "corrupted header verified as a full frame");
    }

    /// Invariant 3: flips confined to the payload-checksum trailer leave
    /// the header verifiable and flag the payload.
    #[test]
    fn trailer_flips_flag_payload_only(
        hdr in arb_header(),
        raw in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let mut sealed = hdr.to_sealed_bytes().unwrap();
        let hdr_len = sealed.len() - PAYLOAD_CSUM_LEN;
        let bits = sealed.len() * 8;
        flip_bits(&mut sealed, &pick_bits(&raw, hdr_len * 8, bits));
        let (back, consumed, payload_ok) = MtpHeader::parse_sealed(&sealed).unwrap();
        prop_assert_eq!(back, hdr);
        prop_assert_eq!(consumed, sealed.len());
        prop_assert!(!payload_ok);
    }

    /// Invariant 4: a sealed MTP frame cut anywhere is rejected.
    #[test]
    fn sealed_truncation_always_detected(hdr in arb_header(), cut_frac in 0.0f64..1.0) {
        let sealed = hdr.to_sealed_bytes().unwrap();
        let cut = ((sealed.len() as f64) * cut_frac) as usize;
        if cut < sealed.len() {
            prop_assert!(MtpHeader::parse_sealed(&sealed[..cut]).is_err());
        }
    }

    /// TCP mirror of invariants 2 and 4: any 1-3 bit flips in a sealed
    /// segment header are rejected, as is any truncation.
    #[test]
    fn tcp_sealed_flips_and_cuts_detected(
        hdr in arb_tcp_header(),
        raw in prop::collection::vec(any::<usize>(), 1..4),
        cut in 0usize..TCP_SEALED_LEN,
    ) {
        let sealed = hdr.to_sealed_bytes();
        let mut mutated = sealed;
        flip_bits(&mut mutated, &pick_bits(&raw, 0, TCP_SEALED_LEN * 8));
        prop_assert!(TcpHeader::parse_sealed(&mutated).is_err());
        prop_assert!(TcpHeader::parse_sealed(&sealed[..cut]).is_err());
        // And the untouched frame still verifies (the mutation above
        // worked on a copy).
        let (back, used) = TcpHeader::parse_sealed(&sealed).unwrap();
        prop_assert_eq!(back, hdr);
        prop_assert_eq!(used, TCP_SEALED_LEN);
    }

    /// Over arbitrary fuzz-corpus buffers `crc32` and `crc16_ccitt` agree
    /// with bit-at-a-time references, and over arbitrary headers the
    /// header CRC that sealing stores (the function verify recomputes)
    /// is the bitwise CRC-16 of the header with bytes 42–43 zeroed.
    #[test]
    fn crc_matches_reference_on_fuzz_corpus(
        bytes in prop::collection::vec(any::<u8>(), 0..2500),
        hdr in arb_header(),
    ) {
        let mut reference: u32 = 0xFFFF_FFFF;
        for &b in &bytes {
            reference ^= b as u32;
            for _ in 0..8 {
                let mask = (reference & 1).wrapping_neg();
                reference = (reference >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        let reference = !reference;
        prop_assert_eq!(mtp_wire::integrity::crc32(&bytes), reference);
        prop_assert_eq!(mtp_wire::integrity::crc16_ccitt(&bytes), crc16_bitwise(&bytes));

        let sealed = hdr.to_sealed_bytes().unwrap();
        let mut zeroed = sealed[..sealed.len() - PAYLOAD_CSUM_LEN].to_vec();
        zeroed[42..44].fill(0);
        let stored = u16::from_be_bytes([sealed[42], sealed[43]]);
        prop_assert_eq!(stored, crc16_bitwise(&zeroed));
        prop_assert!(MtpHeader::parse_sealed(&sealed).is_ok());
    }

    /// Invariant 1, session control: arbitrary bytes never panic the
    /// session-control parser.
    #[test]
    fn arbitrary_bytes_never_panic_session_ctrl(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let _ = SessionCtrl::parse_sealed(&bytes);
    }

    /// Session-control roundtrip: every valid frame survives
    /// emit → parse byte-exactly and consumes its whole encoding.
    #[test]
    fn session_ctrl_roundtrips(ctrl in arb_session_ctrl()) {
        let sealed = ctrl.to_sealed_bytes().unwrap();
        let (back, used) = SessionCtrl::parse_sealed(&sealed).unwrap();
        prop_assert_eq!(back, ctrl);
        prop_assert_eq!(used, sealed.len());
    }

    /// Invariant 2, session control: up to 3 flips confined to the
    /// structure-preserving region (everything but the port-count byte)
    /// always fail the CRC.
    #[test]
    fn session_ctrl_fixed_flips_always_detected(
        ctrl in arb_session_ctrl(),
        raw in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let mut sealed = ctrl.to_sealed_bytes().unwrap();
        // Byte 26 is the port count; flipping it re-frames the walk and
        // is covered by the frame-length argument below.
        let before_count = pick_bits(&raw[..1], 0, 26 * 8);
        let after_count = pick_bits(&raw[1..], 27 * 8, sealed.len() * 8);
        let bits: BTreeSet<usize> = before_count.union(&after_count).copied().collect();
        flip_bits(&mut sealed, &bits);
        prop_assert!(SessionCtrl::parse_sealed(&sealed).is_err());
    }

    /// Frame-length arm for session control: flips *anywhere* either
    /// fail the parse or leave a consumed length that no longer spans
    /// the frame — the check `mtp-io`'s frame splitter applies.
    #[test]
    fn session_ctrl_flips_never_verify_cleanly(
        ctrl in arb_session_ctrl(),
        raw in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let mut sealed = ctrl.to_sealed_bytes().unwrap();
        let bits = sealed.len() * 8;
        flip_bits(&mut sealed, &pick_bits(&raw, 0, bits));
        let detected = match SessionCtrl::parse_sealed(&sealed) {
            Err(_) => true,
            Ok((_, used)) => used != sealed.len(),
        };
        prop_assert!(detected, "corrupted session-control frame verified cleanly");
    }

    /// Invariant 4, session control: truncation at any byte is rejected.
    #[test]
    fn session_ctrl_truncation_always_detected(
        ctrl in arb_session_ctrl(),
        cut_frac in 0.0f64..1.0,
    ) {
        let sealed = ctrl.to_sealed_bytes().unwrap();
        let cut = ((sealed.len() as f64) * cut_frac) as usize;
        if cut < sealed.len() {
            prop_assert!(SessionCtrl::parse_sealed(&sealed[..cut]).is_err());
        }
    }
}
