//! An in-network compression offload — the paper's **data mutation**
//! capability, demonstrated end to end.
//!
//! [`CompressorNode`] sits inline between a sender and a receiver. It
//! reassembles each upstream message (buffering is *bounded and known in
//! advance* from the `msg_len_bytes` field in every packet — contrast the
//! unbounded TCP proxy buffer of Fig. 2), acknowledges it upstream, and
//! re-originates a **smaller** message downstream. Lengths, offsets, and
//! packet counts all change; nothing breaks, because MTP reliability names
//! `(message, packet)` pairs instead of stream bytes (paper §2.2, §3.1.2).
//!
//! The same structure models any mutating offload: serialization,
//! deduplication, request preprocessing.

use std::collections::HashMap;

use mtp_sim::corrupt::admit_terminal;
use mtp_sim::packet::{Headers, Packet};
use mtp_sim::{Ctx, Node, PortId, RtoTimer};
use mtp_wire::{EntityId, MsgId, PktType, TrafficClass};

use mtp_core::{MtpConfig, MtpReceiver, MtpSender};

const UPSTREAM_PORT: PortId = PortId(0);
const DOWNSTREAM_PORT: PortId = PortId(1);
const TOKEN_RTO: u64 = 1;

/// Compressor statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressStats {
    /// Messages compressed and re-originated.
    pub msgs: u64,
    /// Payload bytes in.
    pub bytes_in: u64,
    /// Payload bytes out (after compression).
    pub bytes_out: u64,
    /// High-water mark of reassembly buffering.
    pub max_buffered: u64,
    /// Packets rejected by the wire-integrity check: unverifiable
    /// headers, plus packets whose payload checksum failed (dropped
    /// without an ACK, so the sender repairs them like any loss).
    pub malformed: u64,
}

/// An inline compressing offload: upstream on port 0, downstream on port 1.
pub struct CompressorNode {
    /// Output bytes = input bytes × `ratio` (rounded up, min 1).
    ratio: f64,
    receiver: MtpReceiver,
    sender: MtpSender,
    /// Map original message → forwarded message (for tests/tracing).
    pub forwarded: HashMap<MsgId, MsgId>,
    rto: RtoTimer,
    /// Counters.
    pub stats: CompressStats,
}

impl CompressorNode {
    /// A compressor at address `addr` shrinking payloads by `ratio`
    /// (e.g. 0.4 keeps 40% of the bytes). `msg_id_base` must be unique.
    pub fn new(cfg: MtpConfig, addr: u16, ratio: f64, msg_id_base: u64) -> CompressorNode {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio in (0, 1]");
        CompressorNode {
            ratio,
            receiver: MtpReceiver::new(addr),
            sender: MtpSender::new(cfg, addr, EntityId(0), msg_id_base),
            forwarded: HashMap::new(),
            rto: RtoTimer::default(),
            stats: CompressStats::default(),
        }
    }

    fn flush_sender(&mut self, ctx: &mut Ctx<'_>, out: Vec<Packet>) {
        for pkt in out {
            ctx.send(DOWNSTREAM_PORT, pkt);
        }
        self.rto.sync(ctx, self.sender.next_deadline(), TOKEN_RTO);
    }
}

impl Node for CompressorNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // A terminating device must not act on a field, or forward a
        // payload, that it has not verified.
        let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.stats.malformed) else {
            return;
        };
        let now = ctx.now();
        let ecn = pkt.ecn;
        let Headers::Mtp(hdr) = pkt.headers else {
            return;
        };
        if port == UPSTREAM_PORT && hdr.pkt_type == PktType::Data {
            // Reassemble and ACK upstream.
            let (ack, _) = self.receiver.on_data(now, &hdr, ecn);
            ctx.send(UPSTREAM_PORT, ack);
            self.stats.max_buffered = self.stats.max_buffered.max(self.receiver.buffered_bytes());
            // Completed messages are compressed and re-originated.
            let mut out = Vec::new();
            let mut delivered = Vec::new();
            self.receiver.drain_events(&mut delivered);
            for ev in delivered {
                let out_bytes = ((ev.bytes as f64 * self.ratio).ceil() as u32).max(1);
                let new_id = self.sender.send_message(
                    hdr.dst_port,
                    out_bytes,
                    ev.pri,
                    TrafficClass::BEST_EFFORT,
                    now,
                    &mut out,
                );
                self.forwarded.insert(ev.id, new_id);
                self.stats.msgs += 1;
                self.stats.bytes_in += ev.bytes as u64;
                self.stats.bytes_out += out_bytes as u64;
            }
            self.flush_sender(ctx, out);
        } else if port == DOWNSTREAM_PORT && matches!(hdr.pkt_type, PktType::Ack | PktType::Nack) {
            let mut out = Vec::new();
            self.sender.on_ack(now, &hdr, &mut out);
            self.sender.drain_events(&mut Vec::new());
            self.flush_sender(ctx, out);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_RTO {
            return;
        }
        self.rto.fired();
        let mut out = Vec::new();
        self.sender.on_timer(ctx.now(), &mut out);
        self.flush_sender(ctx, out);
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.stats.malformed;
    }

    fn name(&self) -> &str {
        "compressor"
    }
}
