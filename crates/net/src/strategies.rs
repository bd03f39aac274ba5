//! Forwarding strategies: static, ECMP, packet spraying, time-driven path
//! alternation, and the MTP message-aware load balancer.
//!
//! All strategies are packaged in [`FanoutForwarder`]: packets whose
//! destination has a static (host-facing) route take it; everything else
//! fans out over a group of parallel uplinks according to the strategy.
//! This covers every topology in the paper's evaluation — the two-path
//! alternating network of Fig. 5, the dual-path load-balancing network of
//! Fig. 6, and the shared-link dumbbells of Figs. 3 and 7.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mtp_sim::packet::{Headers, Packet};
use mtp_sim::time::{Duration, Time};
use mtp_sim::{Ctx, PortId};
use mtp_wire::{MsgId, PathletId, PktType};

use crate::routes::{dst_addr, src_addr, RouteError, StaticRoutes};
use crate::switch::Forwarder;

/// Encode a spine-downlink pathlet id for CONGA-style balancing:
/// `(spine + 1) << 8 | dst_leaf`. Values are >= 256, so they never collide
/// with the single-byte uplink pathlet ids leaves stamp.
pub fn conga_pathlet(spine: u16, dst_leaf: u16) -> PathletId {
    debug_assert!(spine < 255 && dst_leaf < 256);
    PathletId(((spine + 1) << 8) | dst_leaf)
}

/// Decode a [`conga_pathlet`] id back to `(spine, dst_leaf)`.
pub fn conga_decode(p: PathletId) -> Option<(u16, u16)> {
    if p.0 >= 256 {
        Some(((p.0 >> 8) - 1, p.0 & 0xff))
    } else {
        None
    }
}

/// Per-message commitment cap of the message-pinning balancers. A
/// window-limited sender trickles a large message over many RTTs;
/// committing its full length would reserve a path it cannot fill. A few
/// BDPs of commitment is enough to keep two elephants apart without
/// idling paths.
const COMMIT_CAP: u64 = 256 * 1024;

/// How the fan-out group is used.
pub enum Strategy {
    /// All fan traffic takes the first port.
    Fixed,
    /// Hash of (src, dst) picks a port — flow-level ECMP. Coarse: one flow
    /// never uses more than one path (paper §5.2's ECMP baseline).
    Ecmp,
    /// Per-packet round robin — perfect balance, maximal reordering
    /// (paper §5.2's packet-spraying baseline).
    Spray {
        /// Next port index.
        next: usize,
    },
    /// The group index is a function of time: `(now / period) % n`. Models
    /// an optical switch reconfiguring every `period` (paper §5.1).
    Alternate {
        /// Reconfiguration period.
        period: Duration,
    },
    /// MTP message-aware balancing: each *message* is pinned to the
    /// lightest path when its first packet arrives, using the message
    /// length advertised in the header plus current egress queue depths;
    /// subsequent packets follow the pin, so no intra-message reordering
    /// occurs; sender path-exclusions are honored (paper §5.2).
    MtpMessageLb {
        /// Message → (port, bytes still expected, committed bytes left).
        pins: HashMap<MsgId, MsgPin>,
        /// Bytes committed to each fan port by pinned messages that have
        /// not yet traversed it.
        committed: Vec<u64>,
        /// Pathlet identity of each fan port (to honor path_exclude).
        pathlets: Vec<Option<PathletId>>,
        /// Rotating tie-break offset: with empty queues every path scores
        /// zero, and a fixed `min` would herd every new message onto fan
        /// port 0.
        rr: usize,
        /// Retransmission attempt counts per `(message, byte offset)`,
        /// for pin-retired messages only: attempt `k` of a packet takes
        /// the `k`-th allowed port after its hash-spread start, so every
        /// packet cycles through all surviving paths across repair
        /// attempts (bounded memory; cleared wholesale when large).
        retx_seen: HashMap<(MsgId, u32), u32>,
    },
    /// CONGA-style fabric-aware balancing, realized entirely through MTP's
    /// own feedback machinery: spines stamp their per-destination-leaf
    /// downlink queue depth as `QueueDepth` feedback under a
    /// [`conga_pathlet`] id; receivers echo it in ACKs; and this leaf
    /// *snoops* the echoed feedback as ACKs pass through on their way to
    /// the sender — giving the leaf a live remote-congestion table without
    /// any new protocol. Messages are then pinned to the spine minimizing
    /// local uplink queue + committed bytes + remote downlink queue.
    CongaLb {
        /// Message pins (same semantics as [`Strategy::MtpMessageLb`]).
        pins: HashMap<MsgId, MsgPin>,
        /// Locally committed bytes per spine.
        committed: Vec<u64>,
        /// Snooped remote congestion: pathlet id → (bytes, observed at).
        remote: HashMap<PathletId, (u64, Time)>,
        /// Maps a destination host address to its leaf index.
        leaf_of: Box<dyn Fn(u16) -> u16>,
        /// Remote observations older than this decay to irrelevance.
        horizon: Duration,
        /// Rotating tie-break.
        rr: usize,
    },
}

/// Pin state for one load-balanced message.
#[derive(Debug, Clone, Copy)]
pub struct MsgPin {
    /// Chosen fan index.
    pub fan_idx: usize,
    /// Payload bytes of the message not yet forwarded.
    pub remaining: u64,
}

impl Strategy {
    /// A fresh MTP message-aware balancer; `pathlets[i]` names the pathlet
    /// of fan port `i` so sender exclusions can be honored.
    pub fn mtp_lb(n_fan: usize, pathlets: Vec<Option<PathletId>>) -> Strategy {
        assert_eq!(pathlets.len(), n_fan);
        Strategy::MtpMessageLb {
            pins: HashMap::new(),
            committed: vec![0; n_fan],
            pathlets,
            rr: 0,
            retx_seen: HashMap::new(),
        }
    }

    /// A fresh CONGA-style balancer over `n_fan` spines; `leaf_of` maps a
    /// destination host address to its leaf index.
    pub fn conga_lb(n_fan: usize, leaf_of: Box<dyn Fn(u16) -> u16>) -> Strategy {
        Strategy::CongaLb {
            pins: HashMap::new(),
            committed: vec![0; n_fan],
            remote: HashMap::new(),
            leaf_of,
            horizon: Duration::from_micros(15),
            rr: 0,
        }
    }
}

/// A forwarder with host-facing static routes and a strategy-driven fan of
/// parallel uplinks.
pub struct FanoutForwarder {
    /// Host-facing routes (checked first).
    pub routes: StaticRoutes,
    /// The parallel uplink group.
    pub fan: Vec<PortId>,
    /// How fan traffic is spread.
    pub strategy: Strategy,
}

impl FanoutForwarder {
    /// Build a forwarder. `fan` must be non-empty unless every destination
    /// has a static route.
    pub fn new(routes: StaticRoutes, fan: Vec<PortId>, strategy: Strategy) -> FanoutForwarder {
        FanoutForwarder {
            routes,
            fan,
            strategy,
        }
    }

    /// Passive observation of every packet crossing this forwarder —
    /// including ones short-circuited by a static route. CONGA snoops the
    /// ACK-path-feedback lists here.
    fn observe(&mut self, pkt: &Packet, now: Time) {
        if let Strategy::CongaLb { remote, .. } = &mut self.strategy {
            if let Headers::Mtp(hdr) = &pkt.headers {
                if matches!(hdr.pkt_type, PktType::Ack | PktType::Nack) {
                    for fb in &hdr.ack_path_feedback {
                        if fb.path.0 >= 256 {
                            if let mtp_wire::Feedback::QueueDepth { bytes } = fb.feedback {
                                remote.insert(fb.path, (bytes as u64, now));
                            }
                        }
                    }
                }
            }
        }
    }

    fn fan_index(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet, now: Time) -> usize {
        let n = self.fan.len();
        debug_assert!(n > 0, "fan routing with empty fan group");
        match &mut self.strategy {
            Strategy::Fixed => 0,
            Strategy::Ecmp => {
                // FNV-style mix of the "flow" identity: (src, dst, conn)
                // for TCP, (src, dst, msg) for MTP — each MTP message is
                // its own flow-equivalent, hashed blindly onto a path.
                let s = src_addr(pkt).unwrap_or(0) as u64;
                let d = dst_addr(pkt).unwrap_or(0) as u64;
                let f = match &pkt.headers {
                    Headers::Tcp(h) => h.conn_id as u64,
                    Headers::Mtp(h) => h.msg_id.0,
                    Headers::Raw | Headers::Mangled { .. } => 0,
                };
                let mut h = 0xcbf29ce484222325u64;
                for byte in s
                    .to_be_bytes()
                    .into_iter()
                    .chain(d.to_be_bytes())
                    .chain(f.to_be_bytes())
                {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
                (h % n as u64) as usize
            }
            Strategy::Spray { next } => {
                let i = *next % n;
                *next = (*next + 1) % n;
                i
            }
            Strategy::Alternate { period } => ((now.0 / period.0) % n as u64) as usize,
            Strategy::CongaLb {
                pins,
                committed,
                remote,
                leaf_of,
                horizon,
                rr,
            } => {
                let Headers::Mtp(hdr) = &pkt.headers else {
                    return (pkt.id.0 % n as u64) as usize;
                };
                if hdr.pkt_type != PktType::Data {
                    return (0..n)
                        .min_by_key(|&i| ctx.egress_len_bytes(self.fan[i]))
                        .expect("non-empty fan");
                }
                let payload = hdr.pkt_len as u64;
                if hdr.is_retx() && !pins.contains_key(&hdr.msg_id) {
                    return (0..n)
                        .min_by_key(|&i| ctx.egress_len_bytes(self.fan[i]) as u64 + committed[i])
                        .expect("non-empty fan");
                }
                match pins.entry(hdr.msg_id) {
                    Entry::Occupied(mut e) => {
                        let pin = e.get_mut();
                        let idx = pin.fan_idx;
                        pin.remaining = pin.remaining.saturating_sub(payload);
                        committed[idx] = committed[idx].saturating_sub(payload);
                        if pin.remaining == 0 {
                            e.remove();
                        }
                        idx
                    }
                    Entry::Vacant(e) => {
                        let dst_leaf = leaf_of(hdr.dst_port);
                        let score = |i: usize| {
                            let local = ctx.egress_len_bytes(self.fan[i]) as u64 + committed[i];
                            let key = conga_pathlet(i as u16, dst_leaf);
                            let remote_bytes = remote
                                .get(&key)
                                .filter(|(_, at)| now.since(*at) < *horizon)
                                .map(|(b, _)| *b)
                                .unwrap_or(0);
                            local + remote_bytes
                        };
                        let start = *rr % n;
                        *rr = (*rr + 1) % n;
                        let idx = (0..n)
                            .map(|k| (start + k) % n)
                            .min_by_key(|&i| score(i))
                            .expect("non-empty fan");
                        let total = hdr.msg_len_bytes as u64;
                        committed[idx] += total.saturating_sub(payload).min(COMMIT_CAP);
                        if total > payload {
                            e.insert(MsgPin {
                                fan_idx: idx,
                                remaining: total - payload,
                            });
                        }
                        idx
                    }
                }
            }
            Strategy::MtpMessageLb {
                pins,
                committed,
                pathlets,
                rr,
                retx_seen,
            } => {
                let Headers::Mtp(hdr) = &pkt.headers else {
                    // Non-MTP traffic cannot be message-balanced; spray by
                    // packet id to stay work-conserving.
                    return (pkt.id.0 % n as u64) as usize;
                };
                if hdr.pkt_type != PktType::Data {
                    // ACKs are tiny; follow the lightest queue.
                    return (0..n)
                        .min_by_key(|&i| ctx.egress_len_bytes(self.fan[i]))
                        .expect("non-empty fan");
                }
                let payload = hdr.pkt_len as u64;
                if hdr.is_retx() {
                    // Retransmissions are routed for *repair*, not for
                    // ordering: the pin's no-reordering guarantee matters
                    // for fresh data, while a repair copy plugs a SACK
                    // hole wherever it lands. Routing repairs by pin or by
                    // lightest queue can both blackhole them — a pin may
                    // sit on a path that died before the sender ever
                    // learned its pathlet id (so no exclusion will ever
                    // name it), and a failed path's queue reads empty, so
                    // load-chasing herds every repair copy onto the very
                    // path that just lost them. A shared round-robin
                    // aliases too: go-back-N resends a fixed batch in a
                    // fixed order, so whenever the batch size divides the
                    // fan width every round repeats the same port
                    // assignment and a packet can ride a dead path
                    // forever. Instead, attempt `k` of a given (message,
                    // offset) takes the `k`-th allowed port after its
                    // hash-spread start — each packet provably visits
                    // every surviving path within |fan| repair attempts,
                    // even before the sender can name the failed pathlet
                    // in its exclusions.
                    if let Entry::Occupied(mut e) = pins.entry(hdr.msg_id) {
                        // The repair copy still advances the pin's
                        // bookkeeping (the message is progressing), even
                        // though it takes its own port; re-committing the
                        // full length would permanently inflate the
                        // committed counter.
                        let pin = e.get_mut();
                        let at = pin.fan_idx;
                        pin.remaining = pin.remaining.saturating_sub(payload);
                        committed[at] = committed[at].saturating_sub(payload);
                        if pin.remaining == 0 {
                            e.remove();
                        }
                    }
                    let excluded: Vec<PathletId> =
                        hdr.path_exclude.iter().map(|x| x.path).collect();
                    let allowed: Vec<usize> = (0..n)
                        .filter(|&i| match pathlets[i] {
                            Some(p) => !excluded.contains(&p),
                            None => true,
                        })
                        .collect();
                    // Everything excluded: ignore exclusions rather than
                    // blackholing.
                    let pool: Vec<usize> = if allowed.is_empty() {
                        (0..n).collect()
                    } else {
                        allowed
                    };
                    if retx_seen.len() > 4096 {
                        retx_seen.clear();
                    }
                    let attempt = retx_seen.entry((hdr.msg_id, hdr.pkt_offset)).or_insert(0);
                    let spread = (hdr.msg_id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ u64::from(hdr.pkt_offset))
                        >> 32;
                    let idx = pool[(spread as usize + *attempt as usize) % pool.len()];
                    *attempt = attempt.wrapping_add(1);
                    return idx;
                }
                match pins.entry(hdr.msg_id) {
                    Entry::Occupied(mut e) => {
                        let pin = e.get_mut();
                        // A pin on a pathlet the sender has since excluded
                        // migrates to the best surviving path: riding out
                        // the pin would blackhole the rest of the message,
                        // and per-packet SACKs make the resulting
                        // reordering harmless. The outstanding commitment
                        // moves with the pin.
                        if let Some(p) = pathlets[pin.fan_idx] {
                            if hdr.path_exclude.iter().any(|x| x.path == p) {
                                let score = |i: usize| {
                                    ctx.egress_len_bytes(self.fan[i]) as u64 + committed[i]
                                };
                                let alive = (0..n)
                                    .filter(|&i| match pathlets[i] {
                                        Some(q) => !hdr.path_exclude.iter().any(|x| x.path == q),
                                        None => true,
                                    })
                                    .min_by_key(|&i| score(i));
                                if let Some(new_idx) = alive {
                                    let mv = pin.remaining.min(COMMIT_CAP);
                                    committed[pin.fan_idx] =
                                        committed[pin.fan_idx].saturating_sub(mv);
                                    committed[new_idx] += mv;
                                    pin.fan_idx = new_idx;
                                }
                            }
                        }
                        let idx = pin.fan_idx;
                        pin.remaining = pin.remaining.saturating_sub(payload);
                        committed[idx] = committed[idx].saturating_sub(payload);
                        if pin.remaining == 0 {
                            e.remove();
                        }
                        idx
                    }
                    Entry::Vacant(e) => {
                        // Choose the least-loaded non-excluded path using
                        // queue depth plus committed-but-unsent bytes;
                        // rotate the starting index so exact ties spread
                        // instead of herding onto port 0.
                        let excluded: Vec<PathletId> =
                            hdr.path_exclude.iter().map(|x| x.path).collect();
                        let score =
                            |i: usize| ctx.egress_len_bytes(self.fan[i]) as u64 + committed[i];
                        let start = *rr % n;
                        *rr = (*rr + 1) % n;
                        let rotation = (0..n).map(|k| (start + k) % n);
                        let allowed: Vec<usize> = rotation
                            .clone()
                            .filter(|&i| match pathlets[i] {
                                Some(p) => !excluded.contains(&p),
                                None => true,
                            })
                            .collect();
                        let idx = if allowed.is_empty() {
                            // Everything excluded: ignore exclusions rather
                            // than blackholing.
                            rotation.min_by_key(|&i| score(i)).expect("non-empty fan")
                        } else {
                            *allowed
                                .iter()
                                .min_by_key(|&&i| score(i))
                                .expect("non-empty pool")
                        };
                        let total = hdr.msg_len_bytes as u64;
                        committed[idx] += total.saturating_sub(payload).min(COMMIT_CAP);
                        if total > payload {
                            e.insert(MsgPin {
                                fan_idx: idx,
                                remaining: total - payload,
                            });
                        }
                        idx
                    }
                }
            }
        }
    }
}

impl Forwarder for FanoutForwarder {
    fn route(
        &mut self,
        ctx: &mut Ctx<'_>,
        _in_port: PortId,
        pkt: &Packet,
    ) -> Result<PortId, RouteError> {
        self.observe(pkt, ctx.now());
        match self.routes.try_route(pkt) {
            Ok(port) => return Ok(port),
            // Fan traffic needs no static entry; only a total miss with an
            // empty fan group is an error.
            Err(err) if self.fan.is_empty() => return Err(err),
            Err(_) => {}
        }
        let idx = self.fan_index(ctx, pkt, ctx.now());
        Ok(self.fan[idx])
    }

    fn reset(&mut self) {
        match &mut self.strategy {
            Strategy::MtpMessageLb {
                pins,
                committed,
                rr,
                retx_seen,
                ..
            } => {
                pins.clear();
                committed.iter_mut().for_each(|c| *c = 0);
                *rr = 0;
                retx_seen.clear();
            }
            Strategy::CongaLb {
                pins,
                committed,
                remote,
                rr,
                ..
            } => {
                pins.clear();
                committed.iter_mut().for_each(|c| *c = 0);
                remote.clear();
                *rr = 0;
            }
            Strategy::Spray { next } => *next = 0,
            Strategy::Fixed | Strategy::Ecmp | Strategy::Alternate { .. } => {}
        }
    }
}

/// A pure static-routes forwarder (no fan group).
pub struct StaticForwarder(pub StaticRoutes);

impl Forwarder for StaticForwarder {
    fn route(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _in_port: PortId,
        pkt: &Packet,
    ) -> Result<PortId, RouteError> {
        self.0.try_route(pkt)
    }
}
