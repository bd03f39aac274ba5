//! Static metric identifiers.
//!
//! Metrics are addressed by enum discriminants rather than registered
//! strings: the id *is* the array index, so a recording call compiles to
//! one add with no hashing, no locking, and no allocation. Adding a metric
//! means adding a variant here — the registry, snapshots, and audits pick
//! it up automatically.

macro_rules! define_ids {
    ($(#[$enum_doc:meta])* $enum_name:ident, $all:ident, $(($variant:ident, $name:literal, $doc:literal)),+ $(,)?) => {
        $(#[$enum_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u16)]
        pub enum $enum_name {
            $(#[doc = $doc] $variant),+
        }

        impl $enum_name {
            /// Every id, in declaration (= index) order.
            pub const $all: &'static [$enum_name] = &[$($enum_name::$variant),+];

            /// Number of ids (the registry's array length).
            pub const COUNT: usize = Self::$all.len();

            /// Stable snake_case name used in snapshots and JSON dumps.
            pub fn name(self) -> &'static str {
                match self {
                    $($enum_name::$variant => $name),+
                }
            }
        }
    };
}

define_ids!(
    /// A monotonically increasing counter.
    ///
    /// The engine-level packet and byte counters obey conservation laws
    /// checked by `mtp_sim::audit`; the device- and endpoint-level ones are
    /// mirrors of per-device counters, reconciled against the devices'
    /// own accounting at audit time.
    Metric,
    ALL,
    // ---- engine: packets -------------------------------------------------
    (PktsOffered, "pkts_offered", "Packets offered to any link direction."),
    (PktsTx, "pkts_tx", "Packets fully serialized onto any wire."),
    (PktsDelivered, "pkts_delivered", "Packets delivered to a live node."),
    (PktsDropped, "pkts_dropped", "Packets dropped by any queue discipline."),
    (PktsFaulted, "pkts_faulted", "Packets destroyed by injected link/node faults."),
    (PktsTrimmed, "pkts_trimmed", "Packets whose payload was NDP-trimmed."),
    (PktsMarked, "pkts_marked", "Packets CE-marked by an ECN queue."),
    (PktsCorrupted, "pkts_corrupted", "Packets damaged in flight but still delivered."),
    (CorruptedDestroyed, "corrupted_destroyed", "Damaged packets the engine destroyed before any receiver could verify them."),
    (FaultedDeliveries, "faulted_deliveries", "Packets destroyed on arrival because their destination node was crashed."),
    // ---- engine: bytes ---------------------------------------------------
    (BytesOffered, "bytes_offered", "Wire bytes offered to any link direction."),
    (BytesTx, "bytes_tx", "Wire bytes fully serialized onto any wire."),
    (BytesDelivered, "bytes_delivered", "Wire bytes delivered to a live node."),
    (BytesDropped, "bytes_dropped", "Wire bytes dropped by any queue discipline."),
    (BytesFaulted, "bytes_faulted", "Wire bytes destroyed by injected faults."),
    (BytesTrimLoss, "bytes_trim_loss", "Wire bytes removed from frames by NDP trimming."),
    (BytesCorruptLoss, "bytes_corrupt_loss", "Wire bytes removed from frames by truncation faults."),
    (BytesFaultedDeliveries, "bytes_faulted_deliveries", "Wire bytes destroyed on arrival at crashed nodes."),
    // ---- engine: shard boundaries ----------------------------------------
    (PktsBoundaryOut, "pkts_boundary_out", "Packets handed to the sharded runtime by a boundary egress half-link."),
    (BytesBoundaryOut, "bytes_boundary_out", "Wire bytes handed to the sharded runtime by boundary egress half-links."),
    (PktsBoundaryIn, "pkts_boundary_in", "Packets injected by the sharded runtime into a boundary ingress half-link."),
    (BytesBoundaryIn, "bytes_boundary_in", "Wire bytes injected by the sharded runtime into boundary ingress half-links."),
    // ---- engine: events --------------------------------------------------
    (TimersFired, "timers_fired", "Timer events dispatched to live nodes."),
    // ---- devices ---------------------------------------------------------
    (PktsMalformed, "pkts_malformed", "Packets rejected by a device's integrity check."),
    (PktsNoRoute, "pkts_no_route", "Packets discarded by a forwarding element with no route."),
    (PktsPolicyDropped, "pkts_policy_dropped", "Packets dropped by a switch admission policy."),
    // ---- endpoints -------------------------------------------------------
    (MsgsSubmitted, "msgs_submitted", "Messages handed to a sending transport."),
    (MsgsCompleted, "msgs_completed", "Messages fully acknowledged at a sender."),
    (MsgsDelivered, "msgs_delivered", "Messages delivered (first copy) at a sink."),
    (GoodputBytes, "goodput_bytes", "First-copy payload bytes delivered at sinks."),
    (Timeouts, "timeouts", "Retransmission timeouts fired at any transport sender."),
    (Retransmissions, "retransmissions", "Data retransmissions sent by any transport sender."),
    // ---- fault driver ----------------------------------------------------
    (FaultsApplied, "faults_applied", "Scheduled fault events applied by a fault driver."),
    // ---- real-wire driver ------------------------------------------------
    //
    // Counters kept by the UDP backend in `mtp-io`. These describe the
    // syscall boundary (datagrams and batches), not the protocol, so no
    // conservation law ties them to the engine counters above.
    (WireDatagramsTx, "wire_datagrams_tx", "UDP datagrams handed to the kernel by a wire driver."),
    (WireDatagramsRx, "wire_datagrams_rx", "UDP datagrams received from the kernel by a wire driver."),
    (WireFramesTx, "wire_frames_tx", "Sealed MTP frames coalesced into transmitted datagrams."),
    (WireFramesRx, "wire_frames_rx", "Sealed MTP frames split out of received datagrams."),
    (WireSendBatches, "wire_send_batches", "Transmit syscalls issued (sendmmsg or send_to)."),
    (WireRecvBatches, "wire_recv_batches", "Receive syscalls that returned at least one datagram."),
    (WireParseErrors, "wire_parse_errors", "Frames rejected by the sealed-header parse on receive."),
    (WirePayloadCsumFail, "wire_payload_csum_fail", "Frames whose header verified but whose payload checksum did not."),
    (WireSendWouldBlock, "wire_send_would_block", "Sends the kernel refused for want of send-queue room, each retried after a yield."),
    (WireKernelDrops, "wire_kernel_drops", "Drop events the kernel counted at this end's data sockets for want of receive-queue room (SO_MEMINFO, read when a session ends): each is one kernel packet, so a single datagram, or a whole coalesced run where UDP_GRO is on."),
    (WireCeMarked, "wire_ce_marked", "Data frames a listener stamped congestion-experienced: they arrived behind more queued bytes than its marking threshold."),
    (WireRecvEmpty, "wire_recv_empty", "Receive syscalls that returned nothing: the queue was empty."),
    (WireReadyPolls, "wire_ready_polls", "Readiness questions asked of the kernel (poll): one per turn, one per blocking wait."),
    (WireGsoSegmentsTx, "wire_gso_segments_tx", "Datagrams sent in segmentation-offload runs of two or more (UDP_SEGMENT): 0 where the kernel does not segment."),
    (WireGroSegmentsRx, "wire_gro_segments_rx", "Datagrams received coalesced into one kernel packet (UDP_GRO): 0 where the kernel does not coalesce."),
    // ---- wire sessions ---------------------------------------------------
    //
    // The session lifecycle layer in `mtp-io`: handshake, liveness,
    // graceful close, and bounded-resource admission.
    (SessionHelloTx, "session_hello_tx", "HELLO frames sent by connectors (first try and retries)."),
    (SessionHelloRx, "session_hello_rx", "HELLO frames accepted by listeners (duplicates included)."),
    (SessionHandshakeRetries, "session_handshake_retries", "HELLO retransmissions after an unanswered handshake round."),
    (SessionKeepaliveTx, "session_keepalive_tx", "PING probes sent into feedback silence."),
    (SessionKeepaliveRx, "session_keepalive_rx", "PING/PONG probes received."),
    (SessionFinTx, "session_fin_tx", "FIN frames sent (first try and retries)."),
    (SessionFinRx, "session_fin_rx", "FIN frames received (duplicates re-acked from TIME-WAIT)."),
    (SessionPeerDeaths, "session_peer_deaths", "Sessions declared dead after the idle timeout."),
    (SessionBackpressure, "session_backpressure", "Submissions refused by the send-side admission caps."),
    (SessionReasmRefused, "session_reasm_refused", "First-copy data packets refused (unACKed) by the reassembly-byte cap."),
    (SessionCtrlRejected, "session_ctrl_rejected", "Session-control frames dropped: bad version, unknown session, or a busy listener."),
    (SessionOrphanFrames, "session_orphan_frames", "Data frames that arrived with no live session to own them."),
);

define_ids!(
    /// A signed instantaneous level (can go up and down).
    Gauge,
    ALL,
    (LinksDown, "links_down", "Link directions currently administratively failed."),
    (NodesDown, "nodes_down", "Nodes currently crashed."),
    (MsgsInFlight, "msgs_in_flight", "Messages admitted at senders and not yet completed."),
    (SessionsActive, "sessions_active", "Wire sessions currently established (or lingering in TIME-WAIT)."),
    (SessionReasmBytes, "session_reasm_bytes", "Reassembly bytes currently held by a wire listener, governed by its admission cap."),
    (SessionDigestBytes, "session_digest_bytes", "Delivered bytes a wire listener holds until their content digests fold: at most twice the message delivered last."),
    (WireRcvbufBytes, "wire_rcvbuf_bytes", "Receive queue the kernel granted each of a listener's data sockets, in bytes as the kernel charges them."),
    (WireDrainBytes, "wire_drain_bytes", "Deepest data-socket receive queue a listener's latest turn drained, in datagram bytes."),
);

define_ids!(
    /// A histogram id (HDR-style log-linear value distribution).
    HistId,
    ALL,
    (MsgFctUs, "msg_fct_us", "Message completion times at senders, in microseconds."),
    (MsgBytes, "msg_bytes", "Sizes of completed messages, in bytes."),
    (QueueDepthPkts, "queue_depth_pkts", "Egress queue depth sampled at each (non-bypass) enqueue."),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_named() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i);
            assert!(!m.name().is_empty());
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, h) in HistId::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT);
    }
}
