//! An in-network key-value cache offload (NetCache-style; paper Fig. 1 ①).
//!
//! [`KvCacheNode`] sits on the path between clients and a backend KV
//! server. GET requests for *hot* keys are answered directly from the
//! cache: the cache **terminates the request message** (ACKing it toward
//! the client exactly as the real receiver would — possible because MTP
//! acknowledges `(message, packet)` pairs, not stream bytes) and
//! re-originates a reply message of its own. Misses are forwarded
//! unmodified to the backend.
//!
//! This is the paper's flagship example of **inter-message independence**:
//! different requests from the same client take different paths (cache vs
//! backend) with different transfer sizes and latencies, something a TCP
//! stream structurally cannot allow.

use std::collections::{HashMap, VecDeque};

use mtp_sim::corrupt::{admit_relay, admit_terminal};
use mtp_sim::packet::{AppData, Headers, Packet};
use mtp_sim::time::{Duration, Time};
use mtp_sim::{Ctx, Node, NodeFault, PortId, RtoTimer};
use mtp_wire::{EntityId, MsgId, PktType, TrafficClass};

use mtp_core::{EndpointMirror, MtpConfig, MtpReceiver, MtpSender};

const CLIENT_PORT: PortId = PortId(0);
const SERVER_PORT: PortId = PortId(1);

const TOKEN_RTO: u64 = 1;
const TOKEN_SERVICE: u64 = 2;
const TOKEN_REQ_BASE: u64 = 1 << 32;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// GET requests answered by the cache.
    pub hits: u64,
    /// GET requests forwarded to the backend.
    pub misses: u64,
    /// Reply messages originated by the cache.
    pub replies_sent: u64,
    /// Crashes survived: each one dropped the request↔reply correlation
    /// state and abandoned replies in flight.
    pub crashes: u64,
    /// Packets rejected by the integrity check: unverifiable headers, plus
    /// payload-damaged frames the cache consumes — hot GETs (answering a
    /// corrupted request would serve the wrong data) and ACKs for its own
    /// replies. Dropped without an ACK, so the peer retransmits.
    pub malformed: u64,
}

/// An inline KV cache: client side on port 0, backend side on port 1.
pub struct KvCacheNode {
    /// This cache's host address (source of its replies).
    addr: u16,
    hot: std::collections::HashSet<u64>,
    reply_bytes: u32,
    receiver: MtpReceiver,
    sender: MtpSender,
    /// Request msg id → (key, client address).
    pending: HashMap<MsgId, (u64, u16)>,
    /// Reply msg id → key (to tag reply packets).
    reply_keys: HashMap<MsgId, u64>,
    rto: RtoTimer,
    /// Counters.
    pub stats: CacheStats,
    /// Registry-mirror shadow for the embedded endpoint counters.
    mirror: EndpointMirror,
}

impl KvCacheNode {
    /// A cache at address `addr` holding `hot_keys`, answering with
    /// `reply_bytes` replies. `msg_id_base` must be globally unique.
    pub fn new(
        cfg: MtpConfig,
        addr: u16,
        hot_keys: impl IntoIterator<Item = u64>,
        reply_bytes: u32,
        msg_id_base: u64,
    ) -> KvCacheNode {
        KvCacheNode {
            addr,
            hot: hot_keys.into_iter().collect(),
            reply_bytes,
            receiver: MtpReceiver::new(addr),
            sender: MtpSender::new(cfg, addr, EntityId(0), msg_id_base),
            pending: HashMap::new(),
            reply_keys: HashMap::new(),
            rto: RtoTimer::default(),
            stats: CacheStats::default(),
            mirror: EndpointMirror::default(),
        }
    }

    fn flush_sender(&mut self, ctx: &mut Ctx<'_>, out: Vec<Packet>) {
        for mut pkt in out {
            // Tag reply packets with their key so clients can correlate.
            if let Some(h) = pkt.headers.as_mtp() {
                if h.pkt_type == PktType::Data {
                    if let Some(&key) = self.reply_keys.get(&h.msg_id) {
                        pkt.app = Some(AppData::KvReply {
                            key,
                            from_cache: true,
                        });
                    }
                }
            }
            ctx.send(CLIENT_PORT, pkt);
        }
        self.rto.sync(ctx, self.sender.next_deadline(), TOKEN_RTO);
    }
}

impl Node for KvCacheNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // Verify before trusting: the cache reads the header (and the
        // payload tag) to decide whether to terminate the request.
        let Some(pkt) = admit_relay(ctx, port, pkt, &mut self.stats.malformed) else {
            return;
        };
        let now = ctx.now();
        if port == SERVER_PORT {
            // Backend → client traffic passes through (payload-damaged
            // packets included: the client endpoint detects and counts
            // those — the cache is a pure relay in this direction).
            ctx.send(CLIENT_PORT, pkt);
            return;
        }
        let is_hot_get = match (&pkt.headers, pkt.app) {
            (Headers::Mtp(h), Some(AppData::KvGet { key }))
                if h.pkt_type == PktType::Data && self.hot.contains(&key) =>
            {
                Some(key)
            }
            _ => None,
        };
        match is_hot_get {
            Some(key) => {
                // The cache terminates a hot GET: one whose payload was
                // damaged in flight is dropped without an ACK, so the
                // client's loss recovery retransmits it.
                let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.stats.malformed) else {
                    return;
                };
                let Headers::Mtp(hdr) = &pkt.headers else {
                    unreachable!()
                };
                self.stats.hits += 1;
                self.pending.insert(hdr.msg_id, (key, hdr.src_port));
                // Terminate the request: ACK it as the receiver would.
                let (ack, _newly) = self.receiver.on_data(now, hdr, pkt.ecn);
                mtp_sim::pool::recycle_packet(pkt);
                ctx.send(CLIENT_PORT, ack);
                // Completed requests trigger replies.
                let mut delivered = Vec::new();
                self.receiver.drain_events(&mut delivered);
                let mut out = Vec::new();
                for ev in delivered {
                    if let Some((key, client)) = self.pending.remove(&ev.id) {
                        let reply_id = self.sender.send_message(
                            client,
                            self.reply_bytes,
                            ev.pri,
                            TrafficClass::BEST_EFFORT,
                            now,
                            &mut out,
                        );
                        self.reply_keys.insert(reply_id, key);
                        self.stats.replies_sent += 1;
                        self.mirror.on_submit(ctx, 1);
                    }
                }
                self.flush_sender(ctx, out);
            }
            None => {
                // ACKs for our replies come back on the client port.
                let is_our_ack = match &pkt.headers {
                    Headers::Mtp(h) => {
                        matches!(h.pkt_type, PktType::Ack | PktType::Nack)
                            && h.dst_port == self.addr
                    }
                    _ => false,
                };
                if is_our_ack {
                    // The cache consumes its own ACKs, so one whose
                    // checksum trailer took damage is refused too.
                    let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.stats.malformed)
                    else {
                        return;
                    };
                    let Headers::Mtp(hdr) = pkt.headers else {
                        unreachable!()
                    };
                    let mut out = Vec::new();
                    self.sender.on_ack(now, &hdr, &mut out);
                    mtp_sim::pool::recycle_header(hdr);
                    self.sender.drain_events(&mut Vec::new());
                    self.flush_sender(ctx, out);
                } else {
                    if matches!(pkt.app, Some(AppData::KvGet { .. })) {
                        self.stats.misses += 1;
                    }
                    ctx.send(SERVER_PORT, pkt);
                }
            }
        }
        self.mirror.sync_sender(ctx, &self.sender.stats);
        self.mirror.sync_receiver(ctx, &self.receiver.stats);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_RTO {
            return;
        }
        self.rto.fired();
        let mut out = Vec::new();
        self.sender.on_timer(ctx.now(), &mut out);
        self.flush_sender(ctx, out);
        self.mirror.sync_sender(ctx, &self.sender.stats);
    }

    fn on_fault(&mut self, _ctx: &mut Ctx<'_>, fault: NodeFault) {
        if fault == NodeFault::Crash {
            // The hot-key set is control-plane configuration and survives;
            // everything correlating in-flight requests to replies is
            // volatile and dies. Clients detect abandoned replies the MTP
            // way — per-message, with no stream to resynchronize — and
            // re-issue just those requests.
            self.stats.crashes += 1;
            self.pending.clear();
            self.reply_keys.clear();
            self.rto.fired();
        }
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.stats.malformed;
        out.msgs_submitted += self.stats.replies_sent;
        out.msgs_completed += self.sender.stats.msgs_completed;
        out.timeouts += self.sender.stats.timeouts;
        out.retransmissions += self.sender.stats.retransmissions;
        out.msgs_delivered += self.receiver.stats.msgs_delivered;
        out.goodput_bytes += self.receiver.stats.goodput_bytes;
    }

    fn name(&self) -> &str {
        "kv-cache"
    }
}

/// A backend KV server with a bounded service rate.
pub struct KvServerNode {
    reply_bytes: u32,
    service_time: Duration,
    receiver: MtpReceiver,
    sender: MtpSender,
    /// Request msg id → key.
    req_keys: HashMap<MsgId, u64>,
    reply_keys: HashMap<MsgId, u64>,
    /// FIFO of requests awaiting service: (ready context).
    queue: VecDeque<(u64, u16, u8)>,
    next_free: Time,
    rto: RtoTimer,
    /// Requests served.
    pub served: u64,
    /// Packets rejected by the integrity check (corrupted in flight).
    pub malformed: u64,
    /// Registry-mirror shadow for the embedded endpoint counters.
    mirror: EndpointMirror,
}

impl KvServerNode {
    /// A server at `addr` replying with `reply_bytes` after `service_time`
    /// per request (sequential service).
    pub fn new(
        cfg: MtpConfig,
        addr: u16,
        reply_bytes: u32,
        service_time: Duration,
        msg_id_base: u64,
    ) -> KvServerNode {
        KvServerNode {
            reply_bytes,
            service_time,
            receiver: MtpReceiver::new(addr),
            sender: MtpSender::new(cfg, addr, EntityId(0), msg_id_base),
            req_keys: HashMap::new(),
            reply_keys: HashMap::new(),
            queue: VecDeque::new(),
            next_free: Time::ZERO,
            rto: RtoTimer::default(),
            served: 0,
            malformed: 0,
            mirror: EndpointMirror::default(),
        }
    }

    fn flush_sender(&mut self, ctx: &mut Ctx<'_>, out: Vec<Packet>) {
        for mut pkt in out {
            if let Some(h) = pkt.headers.as_mtp() {
                if h.pkt_type == PktType::Data {
                    if let Some(&key) = self.reply_keys.get(&h.msg_id) {
                        pkt.app = Some(AppData::KvReply {
                            key,
                            from_cache: false,
                        });
                    }
                }
            }
            ctx.send(PortId(0), pkt);
        }
        self.rto.sync(ctx, self.sender.next_deadline(), TOKEN_RTO);
    }
}

impl Node for KvServerNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // Endpoint integrity: unverifiable headers and payload-damaged
        // data are dropped un-ACKed; the requester retransmits.
        let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.malformed) else {
            return;
        };
        let now = ctx.now();
        let app = pkt.app;
        let Headers::Mtp(hdr) = pkt.headers else {
            return;
        };
        match hdr.pkt_type {
            PktType::Data => {
                if let Some(AppData::KvGet { key }) = app {
                    self.req_keys.insert(hdr.msg_id, key);
                }
                let (ack, _) = self.receiver.on_data(now, &hdr, pkt.ecn);
                ctx.send(PortId(0), ack);
                let mut delivered = Vec::new();
                self.receiver.drain_events(&mut delivered);
                for ev in delivered {
                    let key = self.req_keys.remove(&ev.id).unwrap_or(0);
                    // Sequential service: one request per service_time.
                    let ready = self.next_free.max(now) + self.service_time;
                    self.next_free = ready;
                    self.queue.push_back((key, ev.src, ev.pri));
                    ctx.set_timer_at(ready, TOKEN_SERVICE + TOKEN_REQ_BASE);
                }
            }
            PktType::Ack | PktType::Nack => {
                let mut out = Vec::new();
                self.sender.on_ack(now, &hdr, &mut out);
                self.sender.drain_events(&mut Vec::new());
                self.flush_sender(ctx, out);
            }
            PktType::Control => {}
        }
        mtp_sim::pool::recycle_header(hdr);
        self.mirror.sync_sender(ctx, &self.sender.stats);
        self.mirror.sync_receiver(ctx, &self.receiver.stats);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let now = ctx.now();
        if token == TOKEN_RTO {
            self.rto.fired();
            let mut out = Vec::new();
            self.sender.on_timer(now, &mut out);
            self.flush_sender(ctx, out);
            self.mirror.sync_sender(ctx, &self.sender.stats);
            return;
        }
        // Service completion: answer the oldest queued request.
        if let Some((key, client, pri)) = self.queue.pop_front() {
            let mut out = Vec::new();
            let reply_id = self.sender.send_message(
                client,
                self.reply_bytes,
                pri,
                TrafficClass::BEST_EFFORT,
                now,
                &mut out,
            );
            self.reply_keys.insert(reply_id, key);
            self.served += 1;
            self.mirror.on_submit(ctx, 1);
            self.flush_sender(ctx, out);
            self.mirror.sync_sender(ctx, &self.sender.stats);
        }
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.malformed;
        out.msgs_submitted += self.served;
        out.msgs_completed += self.sender.stats.msgs_completed;
        out.timeouts += self.sender.stats.timeouts;
        out.retransmissions += self.sender.stats.retransmissions;
        out.msgs_delivered += self.receiver.stats.msgs_delivered;
        out.goodput_bytes += self.receiver.stats.goodput_bytes;
    }

    fn name(&self) -> &str {
        "kv-server"
    }
}

/// A KV client issuing GET requests and measuring completion latency.
pub struct KvClientNode {
    server_addr: u16,
    req_bytes: u32,
    sender: MtpSender,
    receiver: MtpReceiver,
    /// Scheduled requests: (time, key).
    schedule: Vec<(Time, u64)>,
    /// Request msg id → key.
    req_keys: HashMap<MsgId, u64>,
    /// Outstanding send times per key (FIFO for repeated keys).
    outstanding: HashMap<u64, VecDeque<Time>>,
    /// Completed requests: (key, latency, answered by cache?).
    pub completions: Vec<(u64, Duration, bool)>,
    /// Reply message id → (key, from_cache), learned from reply data tags.
    reply_src: HashMap<MsgId, (u64, bool)>,
    rto: RtoTimer,
    /// Packets rejected by the integrity check (corrupted in flight).
    pub malformed: u64,
    /// GET request messages submitted so far.
    pub requests_sent: u64,
    /// Registry-mirror shadow for the embedded endpoint counters.
    mirror: EndpointMirror,
}

impl KvClientNode {
    /// A client at `addr` sending `req_bytes` GETs to `server_addr` per the
    /// schedule.
    pub fn new(
        cfg: MtpConfig,
        addr: u16,
        server_addr: u16,
        req_bytes: u32,
        msg_id_base: u64,
        schedule: Vec<(Time, u64)>,
    ) -> KvClientNode {
        KvClientNode {
            server_addr,
            req_bytes,
            sender: MtpSender::new(cfg, addr, EntityId(0), msg_id_base),
            receiver: MtpReceiver::new(addr),
            schedule,
            req_keys: HashMap::new(),
            outstanding: HashMap::new(),
            completions: Vec::new(),
            reply_src: HashMap::new(),
            rto: RtoTimer::default(),
            malformed: 0,
            requests_sent: 0,
            mirror: EndpointMirror::default(),
        }
    }

    /// Completed request count.
    pub fn done(&self) -> usize {
        self.completions.len()
    }

    fn flush_sender(&mut self, ctx: &mut Ctx<'_>, out: Vec<Packet>) {
        for mut pkt in out {
            if let Some(h) = pkt.headers.as_mtp() {
                if h.pkt_type == PktType::Data {
                    if let Some(&key) = self.req_keys.get(&h.msg_id) {
                        pkt.app = Some(AppData::KvGet { key });
                    }
                }
            }
            ctx.send(PortId(0), pkt);
        }
        self.rto.sync(ctx, self.sender.next_deadline(), TOKEN_RTO);
    }
}

impl Node for KvClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (idx, &(t, _)) in self.schedule.iter().enumerate() {
            ctx.set_timer_at(t, TOKEN_REQ_BASE + idx as u64);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // Endpoint integrity: drop unverifiable or payload-damaged packets
        // un-ACKed; the replier retransmits.
        let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.malformed) else {
            return;
        };
        let now = ctx.now();
        let app = pkt.app;
        let ecn = pkt.ecn;
        let Headers::Mtp(hdr) = pkt.headers else {
            return;
        };
        match hdr.pkt_type {
            PktType::Ack | PktType::Nack => {
                let mut out = Vec::new();
                self.sender.on_ack(now, &hdr, &mut out);
                self.sender.drain_events(&mut Vec::new());
                self.flush_sender(ctx, out);
            }
            PktType::Data => {
                if let Some(AppData::KvReply { key, from_cache }) = app {
                    self.reply_src.insert(hdr.msg_id, (key, from_cache));
                }
                let (ack, _) = self.receiver.on_data(now, &hdr, ecn);
                ctx.send(PortId(0), ack);
                let mut delivered = Vec::new();
                self.receiver.drain_events(&mut delivered);
                for ev in delivered {
                    let Some((key, from_cache)) = self.reply_src.remove(&ev.id) else {
                        continue;
                    };
                    if let Some(q) = self.outstanding.get_mut(&key) {
                        if let Some(sent) = q.pop_front() {
                            self.completions
                                .push((key, ev.completed.since(sent), from_cache));
                        }
                    }
                }
            }
            PktType::Control => {}
        }
        mtp_sim::pool::recycle_header(hdr);
        self.mirror.sync_sender(ctx, &self.sender.stats);
        self.mirror.sync_receiver(ctx, &self.receiver.stats);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let now = ctx.now();
        if token == TOKEN_RTO {
            self.rto.fired();
            let mut out = Vec::new();
            self.sender.on_timer(now, &mut out);
            self.flush_sender(ctx, out);
            self.mirror.sync_sender(ctx, &self.sender.stats);
            return;
        }
        let idx = (token - TOKEN_REQ_BASE) as usize;
        if idx >= self.schedule.len() {
            return;
        }
        let (_, key) = self.schedule[idx];
        let mut out = Vec::new();
        let id = self.sender.send_message(
            self.server_addr,
            self.req_bytes,
            0,
            TrafficClass::BEST_EFFORT,
            now,
            &mut out,
        );
        self.requests_sent += 1;
        self.mirror.on_submit(ctx, 1);
        self.req_keys.insert(id, key);
        self.outstanding.entry(key).or_default().push_back(now);
        self.flush_sender(ctx, out);
        self.mirror.sync_sender(ctx, &self.sender.stats);
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.malformed;
        out.msgs_submitted += self.requests_sent;
        out.msgs_completed += self.sender.stats.msgs_completed;
        out.timeouts += self.sender.stats.timeouts;
        out.retransmissions += self.sender.stats.retransmissions;
        out.msgs_delivered += self.receiver.stats.msgs_delivered;
        out.goodput_bytes += self.receiver.stats.goodput_bytes;
    }

    fn name(&self) -> &str {
        "kv-client"
    }
}
