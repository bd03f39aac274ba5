//! Node adapters: MTP sender and sink hosts for the simulator.
//!
//! [`MtpSenderNode`] drives a scheduled message workload through an
//! [`MtpSender`]; [`MtpSinkNode`] reassembles messages with an
//! [`MtpReceiver`], acknowledges them, and records goodput and per-message
//! latency; [`MtpDuplexHost`] joins the two on one host. All are thin
//! shims: all protocol behaviour lives in the sans-IO cores.

use mtp_sim::corrupt::admit_terminal;
use mtp_sim::time::{Duration, Time};
use mtp_sim::{BinSeries, Ctx, Gauge, Headers, HistId, Metric, Node, Packet, PortId, RtoTimer};
use mtp_wire::{EntityId, MsgId, PktType, TrafficClass};

use crate::config::MtpConfig;
use crate::receiver::{MsgDelivered, MtpReceiver, MtpReceiverStats};
use crate::sender::{MtpSender, MtpSenderStats, SenderEvent};

/// Mirrors an MTP endpoint's core counters into the simulation's metrics
/// registry, as deltas pushed through [`Ctx`] after each event.
///
/// The sans-IO cores ([`MtpSender`], [`MtpReceiver`]) keep their own
/// counters and know nothing about the registry; node adapters own one of
/// these shadows per endpoint and call the `sync_*` methods after every
/// callback. The conservation audit then reconciles the registry against
/// the cores' own counters (via [`Node::audit_counters`]), so an adapter
/// path that forgets to sync is caught.
#[derive(Debug, Default, Clone, Copy)]
pub struct EndpointMirror {
    submitted: u64,
    completed: u64,
    timeouts: u64,
    retransmissions: u64,
    delivered: u64,
    goodput: u64,
}

impl EndpointMirror {
    /// Record `n` newly submitted messages (call at the `send_message`
    /// site — submission is an adapter-level event the core cannot see).
    pub fn on_submit(&mut self, ctx: &mut Ctx<'_>, n: u64) {
        self.submitted += n;
        ctx.count(Metric::MsgsSubmitted, n);
        ctx.gauge_add(Gauge::MsgsInFlight, n as i64);
    }

    /// Push any sender-counter movement since the last sync.
    pub fn sync_sender(&mut self, ctx: &mut Ctx<'_>, s: &MtpSenderStats) {
        let d = s.msgs_completed - self.completed;
        if d > 0 {
            self.completed = s.msgs_completed;
            ctx.count(Metric::MsgsCompleted, d);
            ctx.gauge_add(Gauge::MsgsInFlight, -(d as i64));
        }
        let d = s.timeouts - self.timeouts;
        if d > 0 {
            self.timeouts = s.timeouts;
            ctx.count(Metric::Timeouts, d);
        }
        let d = s.retransmissions - self.retransmissions;
        if d > 0 {
            self.retransmissions = s.retransmissions;
            ctx.count(Metric::Retransmissions, d);
        }
    }

    /// Push any receiver-counter movement since the last sync.
    pub fn sync_receiver(&mut self, ctx: &mut Ctx<'_>, r: &MtpReceiverStats) {
        let d = r.msgs_delivered - self.delivered;
        if d > 0 {
            self.delivered = r.msgs_delivered;
            ctx.count(Metric::MsgsDelivered, d);
        }
        let d = r.goodput_bytes - self.goodput;
        if d > 0 {
            self.goodput = r.goodput_bytes;
            ctx.count(Metric::GoodputBytes, d);
        }
    }

    /// Messages counted through [`on_submit`](Self::on_submit) so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }
}

const TOKEN_KIND_SHIFT: u64 = 32;
const KIND_MSG: u64 = 1;
const KIND_RTO: u64 = 2;
const RTO_TOKEN: u64 = KIND_RTO << TOKEN_KIND_SHIFT;

/// One scheduled message.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledMsg {
    /// Submission time.
    pub at: Time,
    /// Size in bytes.
    pub bytes: u32,
    /// Priority (0 = most urgent).
    pub pri: u8,
    /// Traffic class.
    pub tc: TrafficClass,
}

impl ScheduledMsg {
    /// A best-effort message of `bytes` at `at`.
    pub fn new(at: Time, bytes: u32) -> ScheduledMsg {
        ScheduledMsg {
            at,
            bytes,
            pri: 0,
            tc: TrafficClass::BEST_EFFORT,
        }
    }
}

/// Sender-side completion record.
#[derive(Debug, Clone, Copy)]
pub struct MtpMsgRecord {
    /// Message size in bytes.
    pub bytes: u32,
    /// Submission time.
    pub submitted: Time,
    /// Completion time (all packets SACKed), if finished.
    pub completed: Option<Time>,
}

impl MtpMsgRecord {
    /// Message completion time, if finished.
    pub fn fct(&self) -> Option<Duration> {
        self.completed.map(|c| c.since(self.submitted))
    }
}

/// A host that sends a scheduled MTP message workload to one destination.
pub struct MtpSenderNode {
    /// The protocol core (exposed for instrumentation).
    pub sender: MtpSender,
    dst: u16,
    schedule: Vec<ScheduledMsg>,
    /// Completion records, indexed like `schedule`.
    pub msgs: Vec<MtpMsgRecord>,
    /// Submitted (id, schedule index) pairs. Ids are allocated
    /// monotonically by the sender, so the list is sorted by construction
    /// and lookup is a binary search — no hashing.
    msg_index: Vec<(MsgId, usize)>,
    rto: RtoTimer,
    /// Closed loop: submit message i+1 when message i completes.
    closed_loop: bool,
    /// Packets rejected by the wire-integrity check (corrupted in flight):
    /// unverifiable headers, plus packets whose payload checksum failed.
    pub malformed: u64,
    /// Registry-mirror shadow for the embedded sender's counters.
    mirror: EndpointMirror,
    name: String,
    /// Reusable buffers for packets, events, and completed indices; taken
    /// and restored around each callback so steady state never allocates.
    out_buf: Vec<Packet>,
    ev_buf: Vec<SenderEvent>,
    done_buf: Vec<usize>,
}

impl MtpSenderNode {
    /// A sender at address `addr` targeting `dst`. `msg_id_base` must be
    /// globally unique per sender.
    pub fn new(
        cfg: MtpConfig,
        addr: u16,
        dst: u16,
        entity: EntityId,
        msg_id_base: u64,
        schedule: Vec<ScheduledMsg>,
    ) -> MtpSenderNode {
        let msgs = schedule
            .iter()
            .map(|s| MtpMsgRecord {
                bytes: s.bytes,
                submitted: s.at,
                completed: None,
            })
            .collect();
        MtpSenderNode {
            sender: MtpSender::new(cfg, addr, entity, msg_id_base),
            dst,
            schedule,
            msgs,
            msg_index: Vec::new(),
            rto: RtoTimer::default(),
            closed_loop: false,
            malformed: 0,
            mirror: EndpointMirror::default(),
            name: format!("mtp-sender-{addr}"),
            out_buf: Vec::new(),
            ev_buf: Vec::new(),
            done_buf: Vec::new(),
        }
    }

    /// Switch to closed-loop submission: the schedule's times are ignored
    /// beyond the first message; each message is submitted the moment its
    /// predecessor completes (request/response pacing).
    pub fn closed_loop(mut self) -> MtpSenderNode {
        self.closed_loop = true;
        self
    }

    /// True when every scheduled message has completed.
    pub fn all_done(&self) -> bool {
        self.msgs.iter().all(|m| m.completed.is_some())
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<Packet>) {
        for pkt in out.drain(..) {
            ctx.send(PortId(0), pkt);
        }
    }

    /// Record completions from pending sender events into `done_buf`
    /// (schedule indices) and sample each message's FCT and size into the
    /// registry histograms. Buffers are reused; nothing allocates once
    /// they have grown to the workload's high-water mark.
    fn drain_completions(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(self.done_buf.is_empty());
        let mut ev = std::mem::take(&mut self.ev_buf);
        self.sender.drain_events(&mut ev);
        for e in ev.drain(..) {
            let SenderEvent::MsgCompleted { id, completed, .. } = e;
            if let Ok(at) = self.msg_index.binary_search_by_key(&id.0, |&(m, _)| m.0) {
                let idx = self.msg_index[at].1;
                self.msgs[idx].completed = Some(completed);
                if let Some(fct) = self.msgs[idx].fct() {
                    ctx.record_hist(HistId::MsgFctUs, fct.0 / 1_000_000);
                    ctx.record_hist(HistId::MsgBytes, self.msgs[idx].bytes as u64);
                }
                self.done_buf.push(idx);
            }
        }
        self.ev_buf = ev;
    }

    fn submit(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        let s = self.schedule[idx];
        let mut out = std::mem::take(&mut self.out_buf);
        let id = self
            .sender
            .send_message(self.dst, s.bytes, s.pri, s.tc, now, &mut out);
        self.msg_index.push((id, idx));
        self.msgs[idx].submitted = now;
        self.mirror.on_submit(ctx, 1);
        self.flush(ctx, &mut out);
        self.out_buf = out;
    }

    fn after_completions(&mut self, ctx: &mut Ctx<'_>) {
        if !self.closed_loop {
            self.done_buf.clear();
            return;
        }
        let done = std::mem::take(&mut self.done_buf);
        for &idx in &done {
            let next = idx + 1;
            if next < self.schedule.len() && self.msgs[next].completed.is_none() {
                self.submit(ctx, next);
            }
        }
        self.done_buf = done;
        self.done_buf.clear();
    }
}

impl Node for MtpSenderNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.closed_loop {
            if let Some(s) = self.schedule.first() {
                ctx.set_timer_at(s.at, KIND_MSG << TOKEN_KIND_SHIFT);
            }
        } else {
            for (idx, s) in self.schedule.iter().enumerate() {
                ctx.set_timer_at(s.at, (KIND_MSG << TOKEN_KIND_SHIFT) | idx as u64);
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // Verify wire integrity before trusting a single header field; a
        // corrupted ACK could otherwise poison the window or complete the
        // wrong message. An ACK whose payload checksum failed is refused
        // too: its trailer took the damage, and it must be counted.
        let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.malformed) else {
            return;
        };
        let Headers::Mtp(hdr) = pkt.headers else {
            return;
        };
        let now = ctx.now();
        match hdr.pkt_type {
            PktType::Ack | PktType::Nack => {
                let mut out = std::mem::take(&mut self.out_buf);
                self.sender.on_ack(now, &hdr, &mut out);
                self.flush(ctx, &mut out);
                self.out_buf = out;
                self.drain_completions(ctx);
                self.rto.sync(ctx, self.sender.next_deadline(), RTO_TOKEN);
                self.after_completions(ctx);
                self.rto.sync(ctx, self.sender.next_deadline(), RTO_TOKEN);
            }
            PktType::Control | PktType::Data => {}
        }
        self.mirror.sync_sender(ctx, &self.sender.stats);
        mtp_sim::pool::recycle_header(hdr);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let kind = token >> TOKEN_KIND_SHIFT;
        let arg = (token & ((1 << TOKEN_KIND_SHIFT) - 1)) as usize;
        let now = ctx.now();
        match kind {
            KIND_MSG => self.submit(ctx, arg),
            KIND_RTO => {
                self.rto.fired();
                let mut out = std::mem::take(&mut self.out_buf);
                self.sender.on_timer(now, &mut out);
                self.flush(ctx, &mut out);
                self.out_buf = out;
            }
            _ => {}
        }
        self.drain_completions(ctx);
        self.rto.sync(ctx, self.sender.next_deadline(), RTO_TOKEN);
        self.after_completions(ctx);
        self.rto.sync(ctx, self.sender.next_deadline(), RTO_TOKEN);
        self.mirror.sync_sender(ctx, &self.sender.stats);
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.malformed;
        out.msgs_submitted += self.msg_index.len() as u64;
        out.msgs_completed += self.sender.stats.msgs_completed;
        out.timeouts += self.sender.stats.timeouts;
        out.retransmissions += self.sender.stats.retransmissions;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A host that reassembles and acknowledges all MTP messages sent to it.
pub struct MtpSinkNode {
    /// The protocol core (exposed for instrumentation).
    pub receiver: MtpReceiver,
    /// Newly received payload bytes, binned over time.
    pub goodput: BinSeries,
    /// Every delivered message, in completion order.
    pub delivered: Vec<MsgDelivered>,
    /// Packets rejected by the wire-integrity check: unverifiable headers,
    /// plus data packets whose payload checksum failed (dropped without an
    /// ACK, so the sender retransmits them like any loss).
    pub malformed: u64,
    /// Registry-mirror shadow for the embedded receiver's counters.
    mirror: EndpointMirror,
    name: String,
}

impl MtpSinkNode {
    /// A sink at address `addr` recording goodput at the given bin width.
    pub fn new(addr: u16, bin: Duration) -> MtpSinkNode {
        MtpSinkNode {
            receiver: MtpReceiver::new(addr),
            goodput: BinSeries::new(bin),
            delivered: Vec::new(),
            malformed: 0,
            mirror: EndpointMirror::default(),
            name: format!("mtp-sink-{addr}"),
        }
    }

    /// Echo up to `k - 1` recent receptions in every ACK (see
    /// [`MtpReceiver::with_sack_redundancy`]).
    pub fn with_sack_redundancy(mut self, k: usize) -> MtpSinkNode {
        self.receiver = self.receiver.with_sack_redundancy(k);
        self
    }

    /// Total payload bytes delivered (first copies only).
    pub fn total_goodput(&self) -> u64 {
        self.receiver.stats.goodput_bytes
    }
}

impl Node for MtpSinkNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // Integrity first: an unverifiable header is counted and dropped;
        // a verified header whose payload checksum failed is equally
        // unusable — dropping it without an ACK turns wire corruption
        // into an ordinary loss the sender already knows how to repair.
        let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.malformed) else {
            return;
        };
        let ecn = pkt.ecn;
        let Headers::Mtp(hdr) = pkt.headers else {
            return;
        };
        if hdr.pkt_type != PktType::Data {
            mtp_sim::pool::recycle_header(hdr);
            return;
        }
        let now = ctx.now();
        let (ack, newly) = self.receiver.on_data(now, &hdr, ecn);
        mtp_sim::pool::recycle_header(hdr);
        if newly > 0 {
            self.goodput.add(now, newly as f64);
        }
        self.receiver.drain_events(&mut self.delivered);
        self.mirror.sync_receiver(ctx, &self.receiver.stats);
        ctx.send(PortId(0), ack);
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.malformed;
        out.msgs_delivered += self.receiver.stats.msgs_delivered;
        out.goodput_bytes += self.receiver.stats.goodput_bytes;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A host that both sends its schedule and sinks whatever arrives: in a
/// permutation workload every host plays both roles. Data goes to the
/// sink half; ACK, NACK and control packets to the sender half.
pub struct MtpDuplexHost {
    /// The sending half.
    pub sender: MtpSenderNode,
    /// The sinking half.
    pub sink: MtpSinkNode,
}

impl Node for MtpDuplexHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sender.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // A damaged frame's type is unknown until it verifies, so verify
        // before dispatching; the sink half counts what neither half
        // could use.
        let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.sink.malformed) else {
            return;
        };
        let is_data = pkt
            .headers
            .as_mtp()
            .is_some_and(|h| h.pkt_type == PktType::Data);
        if is_data {
            self.sink.on_packet(ctx, port, pkt);
        } else {
            self.sender.on_packet(ctx, port, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.sender.on_timer(ctx, token);
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        self.sender.audit_counters(out);
        self.sink.audit_counters(out);
    }

    fn name(&self) -> &str {
        "duplex-host"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_sim::time::Bandwidth;
    use mtp_sim::{LinkCfg, Simulator};
    use mtp_wire::{Feedback, MtpHeader, PathFeedback, PathletId};

    fn pair(
        cfg: MtpConfig,
        schedule: Vec<ScheduledMsg>,
        rate: Bandwidth,
        delay: Duration,
        ab: LinkCfg,
        ba: LinkCfg,
    ) -> (Simulator, mtp_sim::NodeId, mtp_sim::NodeId) {
        let _ = (rate, delay);
        let mut sim = Simulator::new(1);
        let snd = sim.add_node(Box::new(MtpSenderNode::new(
            cfg,
            1,
            2,
            EntityId(0),
            1 << 32,
            schedule,
        )));
        let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(100))));
        sim.connect(snd, PortId(0), sink, PortId(0), ab, ba);
        (sim, snd, sink)
    }

    /// Passes packets between its two ports and, at `at`, sends the node
    /// on port 0 one Control packet naming `paths`.
    struct Advertiser {
        at: Duration,
        paths: Vec<PathletId>,
    }

    impl Node for Advertiser {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.at, 0);
        }

        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
            ctx.send(PortId(1 - port.0), pkt);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let hdr = MtpHeader {
                dst_port: 1,
                pkt_type: PktType::Control,
                path_feedback: self
                    .paths
                    .iter()
                    .map(|&path| PathFeedback {
                        path,
                        tc: TrafficClass::BEST_EFFORT,
                        feedback: Feedback::EcnMark { ce: false },
                    })
                    .collect(),
                ..MtpHeader::default()
            };
            let wire = hdr.wire_len() as u32;
            let pkt = Packet::new(Headers::Mtp(mtp_sim::pool::boxed(hdr)), wire).without_ect();
            ctx.send(PortId(0), pkt);
        }
    }

    #[test]
    fn a_control_packet_changes_nothing_at_a_sender() {
        let rate = Bandwidth::from_gbps(10);
        let d = Duration::from_micros(2);
        let mk = || LinkCfg::drop_tail(rate, d, 256);
        let mut sim = Simulator::new(1);
        let snd = sim.add_node(Box::new(MtpSenderNode::new(
            MtpConfig::default(),
            1,
            2,
            EntityId(0),
            1 << 32,
            vec![ScheduledMsg::new(Time::ZERO, 100_000)],
        )));
        let adv = sim.add_node(Box::new(Advertiser {
            at: Duration::from_millis(5),
            paths: [7, 8, 9].map(PathletId).to_vec(),
        }));
        let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(100))));
        let (_, to_sender) = sim.connect(snd, PortId(0), adv, PortId(0), mk(), mk());
        sim.connect(adv, PortId(1), sink, PortId(0), mk(), mk());
        let seen = |sim: &Simulator| {
            let sender = &sim.node_as::<MtpSenderNode>(snd).sender;
            let windows: Vec<_> = sender
                .pathlets()
                .iter()
                .map(|(&key, e)| (key, e.cc.window()))
                .collect();
            (sender.known_pathlets(), windows)
        };

        // The message is done and the sender idle before the Control
        // packet leaves.
        sim.run_until(Time::ZERO + Duration::from_millis(4));
        assert!(sim.node_as::<MtpSenderNode>(snd).all_done());
        let before = seen(&sim);
        assert!(before.0 > 0, "the transfer taught the sender a pathlet");
        let delivered = sim.link_stats(to_sender).tx_pkts;

        sim.run_until(Time::ZERO + Duration::from_millis(10));
        assert_eq!(
            sim.link_stats(to_sender).tx_pkts,
            delivered + 1,
            "the Control packet reached the sender"
        );
        assert_eq!(sim.node_as::<MtpSenderNode>(snd).malformed, 0);
        assert_eq!(seen(&sim), before, "pathlets and windows unchanged");
        mtp_sim::assert_conservation(&sim);
    }

    #[test]
    fn transfers_one_message_end_to_end() {
        let rate = Bandwidth::from_gbps(10);
        let d = Duration::from_micros(2);
        let (mut sim, snd, sink) = pair(
            MtpConfig::default(),
            vec![ScheduledMsg::new(Time::ZERO, 1_000_000)],
            rate,
            d,
            LinkCfg::drop_tail(rate, d, 256),
            LinkCfg::drop_tail(rate, d, 256),
        );
        sim.run_until(Time::ZERO + Duration::from_millis(50));
        assert!(sim.node_as::<MtpSenderNode>(snd).all_done());
        let sink = sim.node_as::<MtpSinkNode>(sink);
        assert_eq!(sink.total_goodput(), 1_000_000);
        assert_eq!(sink.delivered.len(), 1);
        assert_eq!(sink.delivered[0].bytes, 1_000_000);
    }

    #[test]
    fn many_small_messages_all_complete() {
        let rate = Bandwidth::from_gbps(10);
        let d = Duration::from_micros(2);
        let schedule: Vec<ScheduledMsg> = (0..50)
            .map(|i| ScheduledMsg::new(Time::ZERO + Duration::from_micros(i), 16_384))
            .collect();
        let (mut sim, snd, sink) = pair(
            MtpConfig::default(),
            schedule,
            rate,
            d,
            LinkCfg::drop_tail(rate, d, 1024),
            LinkCfg::drop_tail(rate, d, 1024),
        );
        sim.run_until(Time::ZERO + Duration::from_millis(100));
        let snd = sim.node_as::<MtpSenderNode>(snd);
        assert!(snd.all_done());
        assert!(snd.msgs.iter().all(|m| m.fct().is_some()));
        assert_eq!(sim.node_as::<MtpSinkNode>(sink).delivered.len(), 50);
    }

    #[test]
    fn survives_heavy_loss_on_tiny_buffer() {
        let rate = Bandwidth::from_gbps(10);
        let d = Duration::from_micros(2);
        let (mut sim, snd, sink) = pair(
            MtpConfig::default(),
            vec![ScheduledMsg::new(Time::ZERO, 2_000_000)],
            rate,
            d,
            LinkCfg::drop_tail(rate, d, 4),
            LinkCfg::drop_tail(rate, d, 256),
        );
        sim.run_until(Time::ZERO + Duration::from_millis(200));
        let sender = sim.node_as::<MtpSenderNode>(snd);
        assert!(sender.all_done(), "completed despite drops");
        assert!(sender.sender.stats.retransmissions > 0);
        assert_eq!(sim.node_as::<MtpSinkNode>(sink).total_goodput(), 2_000_000);
    }

    #[test]
    fn ecn_marks_trigger_window_reduction_not_loss() {
        let rate = Bandwidth::from_gbps(10);
        let d = Duration::from_micros(2);
        let (mut sim, snd, _sink) = pair(
            MtpConfig::default(),
            vec![ScheduledMsg::new(Time::ZERO, 5_000_000)],
            rate,
            d,
            LinkCfg::ecn(rate, d, 128, 20),
            LinkCfg::ecn(rate, d, 128, 20),
        );
        sim.run_until(Time::ZERO + Duration::from_millis(100));
        let sender = sim.node_as::<MtpSenderNode>(snd);
        assert!(sender.all_done());
        assert_eq!(
            sender.sender.stats.retransmissions, 0,
            "no drops at this buffer"
        );
    }

    #[test]
    fn trimming_queue_repairs_via_nack_without_rto() {
        let rate = Bandwidth::from_gbps(10);
        let d = Duration::from_micros(2);
        let (mut sim, snd, sink) = pair(
            MtpConfig::default(),
            vec![ScheduledMsg::new(Time::ZERO, 1_000_000)],
            rate,
            d,
            LinkCfg {
                rate,
                delay: d,
                queue: Box::new(mtp_sim::TrimmingQueue::new(4, 4, 64)),
            },
            LinkCfg::drop_tail(rate, d, 256),
        );
        sim.run_until(Time::ZERO + Duration::from_millis(100));
        let sender = sim.node_as::<MtpSenderNode>(snd);
        assert!(sender.all_done());
        let sink = sim.node_as::<MtpSinkNode>(sink);
        assert!(sink.receiver.stats.trimmed > 0, "trimming exercised");
        assert!(sender.sender.stats.retransmissions > 0);
        assert_eq!(
            sender.sender.stats.timeouts, 0,
            "NACK repair beats the RTO every time"
        );
    }
}
