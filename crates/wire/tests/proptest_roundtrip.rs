//! Property-based tests: every structurally valid `MtpHeader` must survive
//! a seal→verify round trip. Byte soup, bit flips and truncation of the
//! sealed form are `fuzz_decode`'s.

use proptest::prelude::*;

use mtp_wire::{
    Feedback, MtpHeader, PathExclude, PathFeedback, PathletId, PktNum, PktType, SackEntry,
    TrafficClass,
};

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
            0..8
        ),
        path_feedback in prop::collection::vec(arb_path_feedback(), 0..8),
        ack_path_feedback in prop::collection::vec(arb_path_feedback(), 0..8),
        sack in prop::collection::vec(arb_sack(), 0..16),
        nack in prop::collection::vec(arb_sack(), 0..16),
    ) -> MtpHeader {
        MtpHeader {
            src_port,
            dst_port,
            pkt_type,
            msg_pri,
            tc: TrafficClass(tc),
            flags: raw_flags, // all 16 combinations of defined flag bits
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

proptest! {
    #[test]
    fn emit_parse_roundtrip(hdr in arb_header()) {
        let bytes = hdr.to_sealed_bytes().unwrap();
        prop_assert_eq!(bytes.len(), hdr.sealed_wire_len());
        let (back, used, payload_ok) = MtpHeader::parse_sealed(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(payload_ok);
        prop_assert_eq!(back, hdr);
    }
}
