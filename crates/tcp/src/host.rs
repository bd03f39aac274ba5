//! Node adapters: TCP sender and sink hosts for the simulator.
//!
//! [`TcpSenderNode`] drives a message workload over TCP connections — either
//! one **persistent** connection carrying all messages back-to-back (TCP's
//! normal "many requests per flow" usage) or a **new connection per
//! message** (the configuration paper Fig. 3 shows breaks congestion
//! control). [`TcpSinkNode`] accepts any number of connections, consumes
//! in-order bytes immediately, and records a goodput time series.

use std::collections::{HashMap, VecDeque};

use mtp_sim::corrupt::{admit_relay, admit_terminal};
use mtp_sim::time::{Duration, Time};
use mtp_sim::{BinSeries, Ctx, Gauge, Headers, HistId, Metric, Node, Packet, PortId, RtoTimer};

use crate::conn::{SenderConn, SenderState, SenderStats};
use crate::recv::ReceiverConn;
use crate::TcpConfig;

/// Timer-token kinds (top bits of the token).
const TOKEN_KIND_SHIFT: u64 = 32;
const KIND_MSG: u64 = 1;
const KIND_RTO: u64 = 2;

fn msg_token(idx: usize) -> u64 {
    (KIND_MSG << TOKEN_KIND_SHIFT) | idx as u64
}

fn rto_token(conn_id: u32) -> u64 {
    (KIND_RTO << TOKEN_KIND_SHIFT) | conn_id as u64
}

/// How the sender maps messages onto connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpWorkloadMode {
    /// All messages share one long-lived connection, serialized in order —
    /// subject to head-of-line blocking, but congestion state persists.
    Persistent,
    /// Each message opens a fresh connection (handshake and slow start
    /// every time) — paper Fig. 3's pathological configuration.
    ConnPerMessage,
}

/// Completion record for one message.
#[derive(Debug, Clone, Copy)]
pub struct MsgRecord {
    /// Message size in bytes.
    pub size: u64,
    /// When the application submitted it.
    pub submitted: Time,
    /// When the last byte was acknowledged, if finished.
    pub completed: Option<Time>,
}

impl MsgRecord {
    /// Flow completion time, if finished.
    pub fn fct(&self) -> Option<Duration> {
        self.completed.map(|c| c.since(self.submitted))
    }
}

/// Mirrors one [`SenderConn`]'s timeout and retransmission counters into
/// the simulation's metrics registry, as deltas pushed through [`Ctx`].
/// A node that drops or rebuilds a connection syncs first, so no delta is
/// lost, and starts the new connection with a fresh mirror.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConnMirror {
    timeouts: u64,
    retransmissions: u64,
}

impl ConnMirror {
    /// Push any counter movement since the last sync.
    pub fn sync(&mut self, ctx: &mut Ctx<'_>, stats: &SenderStats) {
        let d = stats.timeouts - self.timeouts;
        if d > 0 {
            self.timeouts = stats.timeouts;
            ctx.count(Metric::Timeouts, d);
        }
        let d = stats.retransmissions - self.retransmissions;
        if d > 0 {
            self.retransmissions = stats.retransmissions;
            ctx.count(Metric::Retransmissions, d);
        }
    }
}

/// Everything the sender keeps about one connection, so a callback pays
/// one lookup for all of it.
struct ConnRecord {
    conn: SenderConn,
    /// The message a per-message connection carries (persistent mode
    /// tracks `bounds` instead).
    msg: usize,
    rto: RtoTimer,
    mirror: ConnMirror,
}

fn flush(ctx: &mut Ctx<'_>, out: &mut Vec<Packet>) {
    let now = ctx.now();
    for mut pkt in out.drain(..) {
        pkt.sent_at = now;
        ctx.send(PortId(0), pkt);
    }
}

/// A host that sends a scheduled message workload over TCP.
pub struct TcpSenderNode {
    cfg: TcpConfig,
    mode: TcpWorkloadMode,
    /// This host's address (carried as `src_port`).
    src_addr: u16,
    /// Destination host address (carried as `dst_port`).
    dst_addr: u16,
    /// `(submit time, size)` per message, in submission order.
    schedule: Vec<(Time, u64)>,
    /// Per-message completion records (same indexing as `schedule`).
    pub msgs: Vec<MsgRecord>,
    /// Connection `conn_id_base + k` at index `k`; `None` once a
    /// per-message connection has completed.
    conns: Vec<Option<ConnRecord>>,
    /// Persistent mode: message boundaries as (end_seq, msg index).
    bounds: VecDeque<(u64, usize)>,
    written: u64,
    conn_id_base: u32,
    /// Closed loop: submit message i+1 the moment message i completes
    /// (instead of at its scheduled time).
    closed_loop: bool,
    /// Segments rejected by the checksum stand-in (corrupted in flight).
    pub malformed: u64,
    /// Messages submitted so far (mirrors `Metric::MsgsSubmitted`).
    msgs_submitted: u64,
    /// Timeout/retransmission totals of connections already dropped on
    /// completion (live connections are summed separately at audit time).
    retired_timeouts: u64,
    retired_retransmissions: u64,
    name: String,
    /// Reusable packet/completion buffers; taken and restored around each
    /// callback so steady state never allocates.
    out_buf: Vec<Packet>,
    done_buf: Vec<usize>,
}

impl TcpSenderNode {
    /// A sender with a fixed message schedule. `conn_id_base` must be
    /// globally unique per sender so sinks can demultiplex. Uses addresses
    /// 1 (self) and 2 (destination); for routed topologies use
    /// [`with_addrs`](Self::with_addrs).
    pub fn new(
        cfg: TcpConfig,
        mode: TcpWorkloadMode,
        conn_id_base: u32,
        schedule: Vec<(Time, u64)>,
    ) -> TcpSenderNode {
        Self::with_addrs(cfg, mode, conn_id_base, schedule, 1, 2)
    }

    /// A sender with explicit source/destination host addresses (used as
    /// the TCP port fields, which routed switches treat as addresses).
    pub fn with_addrs(
        cfg: TcpConfig,
        mode: TcpWorkloadMode,
        conn_id_base: u32,
        schedule: Vec<(Time, u64)>,
        src_addr: u16,
        dst_addr: u16,
    ) -> TcpSenderNode {
        let msgs = schedule
            .iter()
            .map(|&(t, size)| MsgRecord {
                size,
                submitted: t,
                completed: None,
            })
            .collect();
        TcpSenderNode {
            cfg,
            mode,
            src_addr,
            dst_addr,
            schedule,
            msgs,
            conns: Vec::new(),
            bounds: VecDeque::new(),
            written: 0,
            conn_id_base,
            closed_loop: false,
            malformed: 0,
            msgs_submitted: 0,
            retired_timeouts: 0,
            retired_retransmissions: 0,
            name: format!("tcp-sender-{conn_id_base}"),
            out_buf: Vec::new(),
            done_buf: Vec::new(),
        }
    }

    /// Switch to closed-loop submission: the schedule's times are ignored
    /// beyond the first message; each message is submitted when its
    /// predecessor completes (one outstanding message at a time — the
    /// request-response pattern of paper Fig. 3).
    pub fn closed_loop(mut self) -> TcpSenderNode {
        self.closed_loop = true;
        self
    }

    /// True when every scheduled message has completed.
    pub fn all_done(&self) -> bool {
        self.msgs.iter().all(|m| m.completed.is_some())
    }

    /// Total bytes acknowledged across all connections.
    pub fn total_acked(&self) -> u64 {
        self.live().map(|c| c.bytes_acked()).sum()
    }

    /// Sum of retransmissions across live connections.
    pub fn retransmissions(&self) -> u64 {
        self.live().map(|c| c.stats.retransmissions).sum()
    }

    /// Sum of retransmission timeouts across live connections. Under a
    /// path failure this is the fault signature of a pinned flow: RTOs
    /// accumulate for the whole outage because the sender has no way to
    /// move the flow to a surviving path.
    pub fn timeouts(&self) -> u64 {
        self.live().map(|c| c.stats.timeouts).sum()
    }

    fn live(&self) -> impl Iterator<Item = &SenderConn> {
        self.conns.iter().flatten().map(|rec| &rec.conn)
    }

    /// Mirror completions recorded in `done_buf` (message count, FCT and
    /// size histograms) into the registry.
    fn note_completions(&mut self, ctx: &mut Ctx<'_>) {
        if self.done_buf.is_empty() {
            return;
        }
        ctx.count(Metric::MsgsCompleted, self.done_buf.len() as u64);
        ctx.gauge_add(Gauge::MsgsInFlight, -(self.done_buf.len() as i64));
        for i in 0..self.done_buf.len() {
            let idx = self.done_buf[i];
            if let Some(fct) = self.msgs[idx].fct() {
                ctx.record_hist(HistId::MsgFctUs, fct.0 / 1_000_000);
                ctx.record_hist(HistId::MsgBytes, self.msgs[idx].size);
            }
        }
    }

    /// Run `event` on connection `conn_id` if it still exists, then send
    /// what it produced, mirror its counters, record the messages it
    /// completed and re-sync its RTO timer.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn_id: u32,
        event: impl FnOnce(&mut ConnRecord, Time, &mut Vec<Packet>),
    ) {
        let k = conn_id.wrapping_sub(self.conn_id_base) as usize;
        let Some(Some(rec)) = self.conns.get_mut(k) else {
            return;
        };
        let now = ctx.now();
        let mut out = std::mem::take(&mut self.out_buf);
        event(rec, now, &mut out);
        flush(ctx, &mut out);
        self.out_buf = out;
        rec.mirror.sync(ctx, &rec.conn.stats);
        debug_assert!(self.done_buf.is_empty());
        match self.mode {
            TcpWorkloadMode::Persistent => {
                let acked = rec.conn.bytes_acked();
                while let Some(&(end, idx)) = self.bounds.front() {
                    if acked < end {
                        break;
                    }
                    self.msgs[idx].completed = Some(now);
                    self.bounds.pop_front();
                    self.done_buf.push(idx);
                }
            }
            TcpWorkloadMode::ConnPerMessage => {
                if rec.conn.all_acked() {
                    self.msgs[rec.msg].completed = Some(now);
                    self.done_buf.push(rec.msg);
                    // Totals must outlive the connection for the
                    // conservation audit's node ledger.
                    self.retired_timeouts += rec.conn.stats.timeouts;
                    self.retired_retransmissions += rec.conn.stats.retransmissions;
                    self.conns[k] = None;
                }
            }
        }
        self.note_completions(ctx);
        if let Some(rec) = &mut self.conns[k] {
            rec.rto
                .sync(ctx, rec.conn.next_deadline(), rto_token(rec.conn.conn_id()));
        }
        self.after_completions(ctx);
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

    fn submit(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        let size = self.schedule[idx].1;
        self.msgs[idx].submitted = now;
        self.msgs_submitted += 1;
        ctx.count(Metric::MsgsSubmitted, 1);
        ctx.gauge_add(Gauge::MsgsInFlight, 1);
        if self.mode == TcpWorkloadMode::ConnPerMessage || self.conns.is_empty() {
            let conn_id = self.conn_id_base + self.conns.len() as u32;
            let conn = SenderConn::new(self.cfg.clone(), conn_id, self.src_addr, self.dst_addr);
            self.conns.push(Some(ConnRecord {
                conn,
                msg: idx,
                rto: RtoTimer::default(),
                mirror: ConnMirror::default(),
            }));
        }
        let rec = self
            .conns
            .last_mut()
            .and_then(Option::as_mut)
            .expect("the persistent connection, or the one just opened");
        let mut out = std::mem::take(&mut self.out_buf);
        if rec.conn.state() == SenderState::Idle {
            rec.conn.open(now, &mut out);
        }
        rec.conn.app_write(size, now, &mut out);
        if self.mode == TcpWorkloadMode::Persistent {
            self.written += size;
            self.bounds.push_back((self.written, idx));
        }
        flush(ctx, &mut out);
        self.out_buf = out;
        rec.rto
            .sync(ctx, rec.conn.next_deadline(), rto_token(rec.conn.conn_id()));
    }
}

impl Node for TcpSenderNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.closed_loop {
            if let Some(&(t, _)) = self.schedule.first() {
                ctx.set_timer_at(t, msg_token(0));
            }
        } else {
            for (idx, &(t, _)) in self.schedule.iter().enumerate() {
                ctx.set_timer_at(t, msg_token(idx));
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // A corrupted ACK must not move the window: verify the checksum
        // stand-in before trusting any field, as a real NIC/stack would.
        // A pure ACK carries no payload to damage, so the header check is
        // the whole check.
        let Some(pkt) = admit_relay(ctx, port, pkt, &mut self.malformed) else {
            return;
        };
        let Headers::Tcp(hdr) = pkt.headers else {
            return;
        };
        self.drive(ctx, hdr.conn_id, |rec, now, out| {
            rec.conn.on_segment(now, &hdr, out)
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let kind = token >> TOKEN_KIND_SHIFT;
        let arg = token & ((1 << TOKEN_KIND_SHIFT) - 1);
        match kind {
            KIND_MSG => self.submit(ctx, arg as usize),
            KIND_RTO => self.drive(ctx, arg as u32, |rec, now, out| {
                rec.rto.fired();
                rec.conn.on_timer(now, out);
            }),
            _ => {}
        }
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.malformed;
        out.msgs_submitted += self.msgs_submitted;
        out.msgs_completed += self.msgs.iter().filter(|m| m.completed.is_some()).count() as u64;
        out.timeouts += self.timeouts() + self.retired_timeouts;
        out.retransmissions += self.retransmissions() + self.retired_retransmissions;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A host that accepts all TCP connections and consumes delivered bytes
/// immediately, recording goodput.
pub struct TcpSinkNode {
    cfg: TcpConfig,
    conns: HashMap<u32, ReceiverConn>,
    /// In-order delivered bytes, binned over time.
    pub goodput: BinSeries,
    /// Total in-order bytes delivered.
    pub total_delivered: u64,
    /// Segments rejected by the checksum stand-in: unverifiable headers
    /// plus data segments whose payload was damaged. Dropped without an
    /// ACK; ordinary TCP loss recovery repairs the stream.
    pub malformed: u64,
}

impl TcpSinkNode {
    /// A sink recording goodput with the given bin width.
    pub fn new(cfg: TcpConfig, bin: Duration) -> TcpSinkNode {
        TcpSinkNode {
            cfg,
            conns: HashMap::new(),
            goodput: BinSeries::new(bin),
            total_delivered: 0,
            malformed: 0,
        }
    }
}

impl Node for TcpSinkNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // Checksum stand-in: an unverifiable header or a damaged payload
        // is discarded before the receive path sees it. No ACK is sent,
        // so the sender repairs the hole via dup-ACKs or RTO exactly as
        // for a drop.
        let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.malformed) else {
            return;
        };
        let ce = pkt.ecn.is_ce();
        let Headers::Tcp(hdr) = pkt.headers else {
            return;
        };
        let now = ctx.now();
        let conn = self.conns.entry(hdr.conn_id).or_insert_with(|| {
            ReceiverConn::new(&self.cfg, hdr.conn_id, hdr.dst_port, hdr.src_port)
        });
        let (newly, reply) = conn.on_segment(now, &hdr, ce);
        if newly > 0 {
            self.goodput.add(now, newly as f64);
            self.total_delivered += newly;
            ctx.count(Metric::GoodputBytes, newly);
            // The sink application consumes instantly.
            conn.app_consume(newly);
        }
        if let Some(mut reply) = reply {
            reply.sent_at = now;
            ctx.send(PortId(0), reply);
        }
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.malformed;
        out.goodput_bytes += self.total_delivered;
    }

    fn name(&self) -> &str {
        "tcp-sink"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_sim::time::Bandwidth;
    use mtp_sim::{LinkCfg, Simulator};

    fn point_to_point(
        cfg: TcpConfig,
        mode: TcpWorkloadMode,
        schedule: Vec<(Time, u64)>,
        rate: Bandwidth,
        delay: Duration,
        queue_cap: usize,
    ) -> (Simulator, mtp_sim::NodeId, mtp_sim::NodeId) {
        let mut sim = Simulator::new(1);
        let snd = sim.add_node(Box::new(TcpSenderNode::new(
            cfg.clone(),
            mode,
            100,
            schedule,
        )));
        let sink = sim.add_node(Box::new(TcpSinkNode::new(cfg, Duration::from_micros(100))));
        sim.connect(
            snd,
            PortId(0),
            sink,
            PortId(0),
            LinkCfg::drop_tail(rate, delay, queue_cap),
            LinkCfg::drop_tail(rate, delay, queue_cap),
        );
        (sim, snd, sink)
    }

    #[test]
    fn transfers_one_megabyte_exactly() {
        let (mut sim, snd, sink) = point_to_point(
            TcpConfig::default(),
            TcpWorkloadMode::Persistent,
            vec![(Time::ZERO, 1_000_000)],
            Bandwidth::from_gbps(10),
            Duration::from_micros(2),
            256,
        );
        sim.run_until(Time::ZERO + Duration::from_millis(50));
        let sender = sim.node_as::<TcpSenderNode>(snd);
        assert!(sender.all_done(), "acked {} of 1M", sender.total_acked());
        assert_eq!(sim.node_as::<TcpSinkNode>(sink).total_delivered, 1_000_000);
    }

    #[test]
    fn throughput_approaches_link_rate() {
        let (mut sim, _snd, sink) = point_to_point(
            TcpConfig::default(),
            TcpWorkloadMode::Persistent,
            vec![(Time::ZERO, 20_000_000)],
            Bandwidth::from_gbps(10),
            Duration::from_micros(2),
            1024,
        );
        sim.run_until(Time::ZERO + Duration::from_millis(100));
        let sink = sim.node_as::<TcpSinkNode>(sink);
        // 20 MB at ~10 Gbps payload rate needs ~16.5 ms.
        assert_eq!(sink.total_delivered, 20_000_000);
        // Steady-state bins should sit near the payload-efficiency-adjusted
        // link rate (1460/1500 * 10 Gbps = 9.73 Gbps).
        let rates = sink.goodput.rates_gbps();
        let peak = rates.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 8.5, "peak rate {peak} Gbps");
    }

    #[test]
    fn recovers_from_drops_in_tiny_queue() {
        let (mut sim, snd, sink) = point_to_point(
            TcpConfig::default(),
            TcpWorkloadMode::Persistent,
            vec![(Time::ZERO, 2_000_000)],
            Bandwidth::from_gbps(1),
            Duration::from_micros(5),
            8, // tiny buffer: slow start will overflow it
        );
        sim.run_until(Time::ZERO + Duration::from_millis(200));
        let sender = sim.node_as::<TcpSenderNode>(snd);
        assert!(sender.all_done(), "acked {}", sender.total_acked());
        assert!(
            sender.retransmissions() > 0,
            "expected losses in an 8-pkt buffer"
        );
        assert_eq!(sim.node_as::<TcpSinkNode>(sink).total_delivered, 2_000_000);
    }

    #[test]
    fn conn_per_message_completes_all() {
        let schedule: Vec<_> = (0..20)
            .map(|i| (Time::ZERO + Duration::from_micros(10 * i), 16_384u64))
            .collect();
        let (mut sim, snd, _) = point_to_point(
            TcpConfig::default(),
            TcpWorkloadMode::ConnPerMessage,
            schedule,
            Bandwidth::from_gbps(10),
            Duration::from_micros(2),
            256,
        );
        sim.run_until(Time::ZERO + Duration::from_millis(50));
        let sender = sim.node_as::<TcpSenderNode>(snd);
        assert!(sender.all_done());
        assert!(sender.msgs.iter().all(|m| m.fct().is_some()));
    }

    #[test]
    fn persistent_mode_is_head_of_line_ordered() {
        // Two messages submitted together: the second cannot finish before
        // the first on one stream.
        let (mut sim, snd, _) = point_to_point(
            TcpConfig::default(),
            TcpWorkloadMode::Persistent,
            vec![(Time::ZERO, 500_000), (Time::ZERO, 1_000)],
            Bandwidth::from_gbps(1),
            Duration::from_micros(2),
            256,
        );
        sim.run_until(Time::ZERO + Duration::from_millis(100));
        let sender = sim.node_as::<TcpSenderNode>(snd);
        let fct0 = sender.msgs[0].fct().unwrap();
        let fct1 = sender.msgs[1].fct().unwrap();
        assert!(fct1 >= fct0, "tiny message HOL-blocked behind big one");
    }

    #[test]
    fn dctcp_flow_completes_through_ecn_bottleneck() {
        let mut sim = Simulator::new(3);
        let cfg = TcpConfig::dctcp();
        let snd = sim.add_node(Box::new(TcpSenderNode::new(
            cfg.clone(),
            TcpWorkloadMode::Persistent,
            100,
            vec![(Time::ZERO, 5_000_000)],
        )));
        let sink = sim.add_node(Box::new(TcpSinkNode::new(cfg, Duration::from_micros(100))));
        let (ab, _) = sim.connect(
            snd,
            PortId(0),
            sink,
            PortId(0),
            LinkCfg::ecn(Bandwidth::from_gbps(10), Duration::from_micros(2), 128, 20),
            LinkCfg::ecn(Bandwidth::from_gbps(10), Duration::from_micros(2), 128, 20),
        );
        sim.run_until(Time::ZERO + Duration::from_millis(100));
        assert!(sim.node_as::<TcpSenderNode>(snd).all_done());
        let stats = sim.link_stats(ab);
        assert!(stats.marked_pkts > 0, "DCTCP should drive the queue past K");
        assert_eq!(
            stats.dropped_pkts, 0,
            "marks, not drops, at this buffer size"
        );
    }
}
