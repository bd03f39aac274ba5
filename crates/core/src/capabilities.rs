//! Table 1 rows: MTP itself, plus reference rows for the transports the
//! paper scores but this workspace does not implement (UDP, QUIC, MPTCP,
//! Swift, RDMA RC/UC/UD). MTP's row cites the mechanisms in this crate;
//! reference rows cite the structural reason from the paper's §2.3–2.4.

use mtp_wire::capabilities::{Assessment, TransportCapabilities};

/// MTP (this crate).
pub fn mtp() -> TransportCapabilities {
    TransportCapabilities {
        name: "MTP",
        data_mutation: Assessment::yes(
            "acks name (msg, pkt) pairs, never byte ranges: devices may change lengths and packet counts (sender.rs/receiver.rs)",
        ),
        low_buffering: Assessment::yes(
            "every packet carries msg id/len/offset; MtpHeader::parse_sealed reads per-message fields at fixed offsets 8-35 (mtp-wire::header)",
        ),
        inter_message_independence: Assessment::yes(
            "messages are independent; no connection state; per-message load balancing is safe (host.rs)",
        ),
        multi_resource_cc: Assessment::yes(
            "per-(pathlet, TC) DCTCP-like windows driven by TLV-typed pathlet feedback (pathlet_cc.rs, pathlets.rs)",
        ),
        multi_entity_isolation: Assessment::yes(
            "entity + TC in every header let devices enforce per-entity policy without per-flow state (paper Fig. 7)",
        ),
    }
}

/// UDP (reference row).
pub fn udp() -> TransportCapabilities {
    TransportCapabilities {
        name: "UDP",
        data_mutation: Assessment::yes("no sequence space to corrupt"),
        low_buffering: Assessment::yes("stateless datagrams"),
        inter_message_independence: Assessment::yes("datagrams are independent"),
        multi_resource_cc: Assessment::no("no congestion control at all"),
        multi_entity_isolation: Assessment::no("no entity information, no fairness mechanism"),
    }
}

/// QUIC (reference row).
pub fn quic() -> TransportCapabilities {
    TransportCapabilities {
        name: "QUIC",
        data_mutation: Assessment::no("encrypted, integrity-protected payloads forbid mutation"),
        low_buffering: Assessment::yes("stream frames are self-describing"),
        inter_message_independence: Assessment::yes("independent streams avoid HOL blocking"),
        multi_resource_cc: Assessment::unclear("single CC context per connection (paper marks —)"),
        multi_entity_isolation: Assessment::no("per-connection fairness"),
    }
}

/// MPTCP (reference row).
pub fn mptcp() -> TransportCapabilities {
    TransportCapabilities {
        name: "MPTCP",
        data_mutation: Assessment::no("data sequence mapping breaks on length change"),
        low_buffering: Assessment::no("reassembly across subflows needs large buffers"),
        inter_message_independence: Assessment::yes("subflows may take different paths"),
        multi_resource_cc: Assessment::yes("coupled CC keeps per-subflow state"),
        multi_entity_isolation: Assessment::no("per-connection fairness"),
    }
}

/// Swift (reference row).
pub fn swift() -> TransportCapabilities {
    TransportCapabilities {
        name: "Swift",
        data_mutation: Assessment::no("TCP-style stream"),
        low_buffering: Assessment::yes("delay-based CC keeps queues near empty"),
        inter_message_independence: Assessment::no("single in-order stream"),
        multi_resource_cc: Assessment::no("one delay target for the whole path"),
        multi_entity_isolation: Assessment::no("per-flow fairness"),
    }
}

/// RDMA reliable connection (reference row).
pub fn rdma_rc() -> TransportCapabilities {
    TransportCapabilities {
        name: "RDMA RC",
        data_mutation: Assessment::no(
            "packet sequence numbers; mutation breaks PSN accounting (§2.4)",
        ),
        low_buffering: Assessment::yes("no co-location of messages in one packet"),
        inter_message_independence: Assessment::no(
            "in-order delivery mandated; OOO looks like loss",
        ),
        multi_resource_cc: Assessment::no("single connection context"),
        multi_entity_isolation: Assessment::no("no entity abstraction"),
    }
}

/// RDMA unreliable connection (reference row).
pub fn rdma_uc() -> TransportCapabilities {
    TransportCapabilities {
        name: "RDMA UC",
        data_mutation: Assessment::no("same PSN constraint as RC"),
        low_buffering: Assessment::yes("no reassembly of interleaved messages"),
        inter_message_independence: Assessment::no("in-order delivery mandated"),
        multi_resource_cc: Assessment::no("no CC"),
        multi_entity_isolation: Assessment::no("no entity abstraction"),
    }
}

/// RDMA unreliable datagram (reference row).
pub fn rdma_ud() -> TransportCapabilities {
    TransportCapabilities {
        name: "RDMA UD",
        data_mutation: Assessment::yes("single-packet messages; nothing to desynchronize"),
        low_buffering: Assessment::yes("stateless datagrams"),
        inter_message_independence: Assessment::yes("datagrams are independent"),
        multi_resource_cc: Assessment::no("no CC; messages capped at one MTU"),
        multi_entity_isolation: Assessment::no("no entity abstraction"),
    }
}

/// All rows exported by this crate (MTP first).
pub fn all() -> Vec<TransportCapabilities> {
    vec![
        mtp(),
        udp(),
        quic(),
        mptcp(),
        swift(),
        rdma_rc(),
        rdma_uc(),
        rdma_ud(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_wire::capabilities::Support::{No as X, Unclear as U, Yes as Y};

    /// The verdicts must match the paper's Table 1 exactly.
    #[test]
    fn rows_match_paper_table1() {
        let expect = [
            ("MTP", [Y, Y, Y, Y, Y]),
            ("UDP", [Y, Y, Y, X, X]),
            ("QUIC", [X, Y, Y, U, X]),
            ("MPTCP", [X, X, Y, Y, X]),
            ("Swift", [X, Y, X, X, X]),
            ("RDMA RC", [X, Y, X, X, X]),
            ("RDMA UC", [X, Y, X, X, X]),
            ("RDMA UD", [Y, Y, Y, X, X]),
        ];
        for (row, (name, cells)) in all().iter().zip(expect.iter()) {
            assert_eq!(&row.name, name);
            assert_eq!(&row.row(), cells, "row {name}");
        }
    }

    #[test]
    fn only_mtp_meets_all_requirements() {
        for row in all() {
            if row.name == "MTP" {
                assert_eq!(row.score(), 5);
            } else {
                assert!(row.score() < 5, "{} must not satisfy everything", row.name);
            }
        }
    }
}
