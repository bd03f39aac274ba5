//! An in-network gradient aggregator (ATP-style; paper §4 "ML Training").
//!
//! "In-network aggregation of gradients is challenging for congestion
//! control because aggregation levels can change over time. MTP can
//! improve the precision of congestion control in ATP by making
//! aggregation levels and pathlets explicit."
//!
//! [`AggregatorNode`] sits between `W` workers and a parameter server.
//! Each training round, every worker sends its gradient as one MTP
//! message tagged with the round number. The aggregator terminates each
//! worker's message (ACKing it — legal because MTP reliability names
//! `(message, packet)` pairs) and, once all live workers' gradients for a
//! round have arrived, originates a **single** aggregated message
//! upstream: a many-to-one mutation no stream transport can express.
//! Upstream traffic is `1/W` of the ingress volume — the ATP win.
//!
//! Congestion control stays precise because the aggregator is its own
//! pathlet: workers converge windows against the aggregator's ingress
//! (fast, nearby), while the aggregator's own sender converges against
//! the parameter-server path, whatever its current capacity — the
//! "aggregation levels explicit" point of the paper.

use std::collections::HashMap;

use mtp_sim::corrupt::admit_terminal;
use mtp_sim::packet::{AppData, Headers, Packet};
use mtp_sim::{Ctx, Node, PortId, RtoTimer};
use mtp_wire::{EntityId, MsgId, PktType, TrafficClass};

use mtp_core::{MtpConfig, MtpReceiver, MtpSender};

const UPSTREAM_PORT: PortId = PortId(0);
const TOKEN_RTO: u64 = 1;

/// Aggregator statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregateStats {
    /// Gradient messages received from workers.
    pub gradients_in: u64,
    /// Aggregated messages sent upstream.
    pub rounds_out: u64,
    /// Payload bytes received from workers.
    pub bytes_in: u64,
    /// Payload bytes sent upstream.
    pub bytes_out: u64,
    /// Packets rejected by the wire-integrity check: unverifiable
    /// headers, plus packets whose payload checksum failed (dropped
    /// without an ACK, so the worker repairs them like any loss).
    pub malformed: u64,
}

/// In-network aggregation: workers on ports `1..=W`, parameter server on
/// port 0.
pub struct AggregatorNode {
    n_workers: usize,
    /// Parameter-server address (destination of aggregated messages).
    ps_addr: u16,
    gradient_bytes: u32,
    receiver: MtpReceiver,
    sender: MtpSender,
    /// round → number of distinct workers whose gradient has completed.
    progress: HashMap<u64, usize>,
    /// Message id → round (learned from the data packets' app tags).
    msg_round: HashMap<MsgId, u64>,
    rto: RtoTimer,
    /// Counters.
    pub stats: AggregateStats,
}

impl AggregatorNode {
    /// An aggregator for `n_workers` workers at address `addr`, sending
    /// `gradient_bytes` aggregated messages to `ps_addr`.
    pub fn new(
        cfg: MtpConfig,
        addr: u16,
        ps_addr: u16,
        n_workers: usize,
        gradient_bytes: u32,
        msg_id_base: u64,
    ) -> AggregatorNode {
        assert!(n_workers > 0);
        AggregatorNode {
            n_workers,
            ps_addr,
            gradient_bytes,
            receiver: MtpReceiver::new(addr),
            sender: MtpSender::new(cfg, addr, EntityId(0), msg_id_base),
            progress: HashMap::new(),
            msg_round: HashMap::new(),
            rto: RtoTimer::default(),
            stats: AggregateStats::default(),
        }
    }

    fn flush_sender(&mut self, ctx: &mut Ctx<'_>, out: Vec<Packet>) {
        for pkt in out {
            ctx.send(UPSTREAM_PORT, pkt);
        }
        self.rto.sync(ctx, self.sender.next_deadline(), TOKEN_RTO);
    }
}

impl Node for AggregatorNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // A terminating device must not act on a field, or count a
        // gradient, that it has not verified.
        let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.stats.malformed) else {
            return;
        };
        let now = ctx.now();
        let ecn = pkt.ecn;
        let app = pkt.app;
        let Headers::Mtp(hdr) = pkt.headers else {
            return;
        };
        if port == UPSTREAM_PORT {
            // ACKs for our aggregated messages.
            if matches!(hdr.pkt_type, PktType::Ack | PktType::Nack) {
                let mut out = Vec::new();
                self.sender.on_ack(now, &hdr, &mut out);
                self.sender.drain_events(&mut Vec::new());
                self.flush_sender(ctx, out);
            }
            mtp_sim::pool::recycle_header(hdr);
            return;
        }
        // Worker side: terminate gradient messages.
        if hdr.pkt_type != PktType::Data {
            mtp_sim::pool::recycle_header(hdr);
            return;
        }
        if let Some(AppData::Opaque(round)) = app {
            self.msg_round.insert(hdr.msg_id, round);
        }
        let (ack, _) = self.receiver.on_data(now, &hdr, ecn);
        mtp_sim::pool::recycle_header(hdr);
        ctx.send(port, ack);
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        self.receiver.drain_events(&mut delivered);
        for ev in delivered {
            self.stats.gradients_in += 1;
            self.stats.bytes_in += ev.bytes as u64;
            let round = self.msg_round.remove(&ev.id).unwrap_or(0);
            let done = self.progress.entry(round).or_insert(0);
            *done += 1;
            if *done == self.n_workers {
                self.progress.remove(&round);
                // All gradients in: one aggregated update upstream. The
                // aggregate is the same size as one gradient (element-wise
                // sum), so the fabric above carries 1/W the volume.
                let id = self.sender.send_message(
                    self.ps_addr,
                    self.gradient_bytes,
                    0,
                    TrafficClass::BEST_EFFORT,
                    now,
                    &mut out,
                );
                let _ = id;
                self.stats.rounds_out += 1;
                self.stats.bytes_out += self.gradient_bytes as u64;
            }
        }
        // Tag outgoing packets with the round for downstream inspection.
        self.flush_sender(ctx, out);
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
        "aggregator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_core::{MtpSenderNode, MtpSinkNode, ScheduledMsg};
    use mtp_sim::time::{Bandwidth, Duration, Time};
    use mtp_sim::{LinkCfg, Simulator};

    /// 4 workers × 10 rounds through the aggregator: the parameter server
    /// receives exactly 10 aggregated messages; upstream volume is 1/4 of
    /// worker volume.
    #[test]
    fn aggregates_rounds_many_to_one() {
        const WORKERS: usize = 4;
        const ROUNDS: u64 = 10;
        const GRAD: u32 = 100_000;

        let mut sim = Simulator::new(33);
        let cfg = MtpConfig::default();
        let agg = sim.add_node(Box::new(AggregatorNode::new(
            cfg.clone(),
            50,
            60,
            WORKERS,
            GRAD,
            9 << 40,
        )));
        let ps = sim.add_node(Box::new(MtpSinkNode::new(60, Duration::from_micros(100))));
        let bw = Bandwidth::from_gbps(100);
        let d = Duration::from_micros(1);
        let mk = || LinkCfg::ecn(bw, d, 256, 40);
        // Upstream (slower, like a WAN-ish PS link — aggregation keeps it
        // uncongested anyway).
        sim.connect(
            agg,
            PortId(0),
            ps,
            PortId(0),
            LinkCfg::ecn(Bandwidth::from_gbps(25), d, 256, 40),
            LinkCfg::ecn(Bandwidth::from_gbps(25), d, 256, 40),
        );
        // Workers send ROUNDS equal-size gradients each. They carry no
        // explicit round tag, so the aggregator accounts them all to
        // round 0 and fires an aggregate on every `WORKERS` completions —
        // with symmetric, in-order workers that is exactly per-round
        // aggregation.
        let mut workers = Vec::new();
        for w in 0..WORKERS {
            let schedule: Vec<ScheduledMsg> = (0..ROUNDS)
                .map(|r| ScheduledMsg::new(Time::ZERO + Duration::from_micros(40 * r), GRAD))
                .collect();
            let node = sim.add_node(Box::new(MtpSenderNode::new(
                cfg.clone(),
                (w + 1) as u16,
                50,
                EntityId(w as u16),
                ((w + 1) as u64) << 40,
                schedule,
            )));
            sim.connect(node, PortId(0), agg, PortId(1 + w), mk(), mk());
            workers.push(node);
        }
        sim.run_until(Time::ZERO + Duration::from_millis(50));

        for &w in &workers {
            assert!(sim.node_as::<MtpSenderNode>(w).all_done(), "worker acked");
        }
        let agg_node = sim.node_as::<AggregatorNode>(agg);
        assert_eq!(agg_node.stats.gradients_in, WORKERS as u64 * ROUNDS);
        assert_eq!(agg_node.stats.rounds_out, ROUNDS);
        assert_eq!(
            agg_node.stats.bytes_out * WORKERS as u64,
            agg_node.stats.bytes_in,
            "upstream volume is 1/W of ingress"
        );
        let ps = sim.node_as::<MtpSinkNode>(ps);
        assert_eq!(ps.delivered.len(), ROUNDS as usize);
        assert_eq!(ps.total_goodput(), ROUNDS * GRAD as u64);
    }
}
