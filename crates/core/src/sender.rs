//! The sans-IO MTP sender.
//!
//! [`MtpSender`] fragments application messages into packets, admits them
//! against per-pathlet congestion windows, and repairs loss from SACK/NACK
//! lists and a retransmission timeout. Like the TCP cores in `mtp-tcp`, it
//! never touches the simulator: callers feed it ACK headers and the clock;
//! it pushes packets into a caller-provided `Vec` and surfaces completions
//! as [`SenderEvent`]s.
//!
//! ## Admission and attribution
//!
//! Every transmitted packet is *charged* against the currently active
//! pathlet (learned from the most recent feedback, or the synthetic
//! pathlet 0 before any feedback arrives). When its SACK comes back, the
//! charge is credited and the acknowledged bytes are attributed to the
//! pathlet the packet was charged to — whose controller consumes the
//! echoed feedback entry for that pathlet. Feedback for pathlets with no
//! acked bytes in the ACK (e.g. a rate update from an RCP segment) is still
//! delivered, with zero attributed bytes.
//!
//! When the network moves traffic to a different pathlet, the sender
//! switches its admission window to that pathlet's controller *without
//! discarding the old one* — this is what lets MTP resume at the converged
//! window when an optical switch flips paths back (paper §5.1).
//!
//! ## Hot-path layout
//!
//! Message state is a sliding window over the id space: `MsgId`s are
//! allocated as `msg_id_base + k` for monotonically increasing `k`, and
//! the contiguous completed prefix is retired as it completes, so the
//! slot of an id is pure arithmetic (`k − retired`) — no id→slot map of
//! any kind is needed on the ACK path — and resident state follows the
//! messages in flight, not the sender's age. An id below the window is
//! complete: every consumer treats it exactly as it treats an `Acked`
//! packet, so late or duplicate feedback for it is a silent no-op. Inside
//! a message the same rule holds for packets: records cover only the span
//! from the first unacknowledged packet (`base`) to the first never-sent
//! one (`next_unsent`), a packet below `base` is `Acked`, and a packet's
//! length and offset come from its index, so a message costs records in
//! proportion to what it has in flight, not to its size. The
//! send queue is an intrusive ready-list threaded through the window (one
//! FIFO per priority plus a 256-bit occupancy bitmap), making
//! submit/poll/complete O(1) instead of a sorted-`Vec` insert/scan.
//! Packets record the [`PathIdx`] they were charged to, so per-ACK credit
//! and byte attribution are flat array operations against reusable
//! scratch tables — the steady-state ACK path performs no allocation at
//! all (headers come from the simulator's thread-local pool and are
//! filled in place).

use std::collections::VecDeque;

use mtp_sim::packet::{Headers, Packet};
use mtp_sim::rtt::RttEstimator;
use mtp_sim::time::{Duration, Time};
use mtp_wire::types::flags;
use mtp_wire::{EntityId, Feedback, MsgId, MtpHeader, PathletId, PktNum, PktType, TrafficClass};

use crate::config::{
    MtpConfig, DEAD_AFTER_LOSSES, EXCLUDE_COOLDOWN, MAX_BACKOFF, PROBE_BACKOFF, SILENCE_RTOS,
};
use crate::pathlet_cc::PathIdx;
use crate::pathlets::PathletTable;

/// The synthetic pathlet charged before any network feedback identifies a
/// real one ("the entire network as a single pathlet mimics TCP", §3.1.3).
pub const DEFAULT_PATHLET: PathletId = PathletId(0);

/// Null link in the intrusive ready-list.
const NONE: u32 = u32::MAX;

/// Events surfaced to the application layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderEvent {
    /// Every packet of the message has been acknowledged.
    MsgCompleted {
        /// The completed message.
        id: MsgId,
        /// When the application submitted it.
        submitted: Time,
        /// When the final SACK arrived.
        completed: Time,
    },
}

/// Counters kept by a sender.
#[derive(Debug, Clone, Copy, Default)]
pub struct MtpSenderStats {
    /// Data packets transmitted, including retransmissions.
    pub pkts_sent: u64,
    /// Retransmitted packets.
    pub retransmissions: u64,
    /// Retransmission-timeout events.
    pub timeouts: u64,
    /// NACK entries processed.
    pub nacks: u64,
    /// Messages completed.
    pub msgs_completed: u64,
    /// Pathlets declared dead and quarantined (failover enabled only).
    pub quarantines: u64,
    /// Times the *active* pathlet died and admissions switched to a
    /// surviving one.
    pub failovers: u64,
    /// Quarantines that expired and opened a re-probe window.
    pub reprobes: u64,
    /// In-flight packets evacuated off dead pathlets and re-sent on
    /// survivors.
    pub evacuated_pkts: u64,
}

/// A point-in-time summary of the sender's view of its path set (see
/// [`MtpSender::path_health`]). Carried inside wire-session errors so a
/// "peer dead" diagnosis distinguishes a dead network from a dead peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathHealth {
    /// Pathlets known (observed via feedback).
    pub known: usize,
    /// Pathlets currently quarantined as presumed dead.
    pub quarantined: usize,
    /// Lifetime quarantine events.
    pub quarantines: u64,
    /// Lifetime active-pathlet failovers.
    pub failovers: u64,
}

impl core::fmt::Display for PathHealth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}/{} pathlets quarantined ({} quarantines, {} failovers lifetime)",
            self.quarantined, self.known, self.quarantines, self.failovers
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PktState {
    /// Declared lost and about to be retransmitted.
    Lost,
    InFlight,
    Acked,
}

/// The record of one packet sent at least once and not yet below its
/// message's acknowledged prefix.
#[derive(Debug, Clone, Copy)]
struct OutPkt {
    state: PktState,
    /// Interned pathlet this packet's bytes are currently charged to.
    charged: PathIdx,
    sent_at: Time,
    /// Transmission count; deque entries are valid only for the matching
    /// epoch, and only epoch-1 packets produce RTT samples (Karn).
    epoch: u32,
}

#[derive(Debug)]
struct OutMsg {
    dst: u16,
    pri: u8,
    tc: TrafficClass,
    total_bytes: u32,
    n_pkts: u32,
    /// Every packet below `base` is acknowledged.
    base: u32,
    /// `pkts[i]` is the record of packet `base + i`: the span holds every
    /// packet sent at least once and not below `base`, so it ends at
    /// `next_unsent`. Packets from `next_unsent` on were never sent and
    /// have no record.
    pkts: VecDeque<OutPkt>,
    acked: u32,
    next_unsent: u32,
    submitted: Time,
    /// Next message slot in this priority's ready FIFO ([`NONE`] = tail).
    next_ready: u32,
}

impl OutMsg {
    /// Every packet acknowledged. Only an in-flight packet can be newly
    /// acknowledged, so a complete message has nothing unsent (it is off
    /// the ready list), nothing charged to a pathlet and an empty span.
    fn is_complete(&self) -> bool {
        self.acked == self.n_pkts
    }

    /// The record of packet `pkt`, if it has one. `None` below `base`
    /// means acknowledged, and every consumer treats it as `Acked`; `None`
    /// from `next_unsent` on means never sent (or not in the message).
    fn pkt(&self, pkt: u32) -> Option<&OutPkt> {
        self.pkts.get(pkt.checked_sub(self.base)? as usize)
    }

    fn pkt_mut(&mut self, pkt: u32) -> Option<&mut OutPkt> {
        self.pkts.get_mut(pkt.checked_sub(self.base)? as usize)
    }

    /// Payload bytes of packet `pkt < n_pkts` when packets carry `mtu`.
    fn len_of(&self, pkt: u32, mtu: u32) -> u32 {
        if pkt == self.n_pkts - 1 {
            self.total_bytes - pkt * mtu
        } else {
            mtu
        }
    }

    /// Drop the acknowledged front of the span, advancing `base`.
    fn advance_base(&mut self) {
        while self
            .pkts
            .front()
            .is_some_and(|p| p.state == PktState::Acked)
        {
            self.pkts.pop_front();
            self.base += 1;
        }
    }
}

/// The live message records. Slots count submissions since the sender was
/// built (`slot = id − msg_id_base`); the window holds slots
/// `retired .. retired + live.len()` and everything below it is complete.
#[derive(Debug, Default)]
struct Window {
    live: VecDeque<OutMsg>,
    retired: u32,
}

impl Window {
    /// The slot the next submission gets.
    fn next_slot(&self) -> u32 {
        let next = self.retired as u64 + self.live.len() as u64;
        assert!(next < NONE as u64, "sender message-id space exhausted");
        next as u32
    }

    /// The record in `slot`, unless it has been retired.
    fn get(&self, slot: u32) -> Option<&OutMsg> {
        self.live.get(slot.checked_sub(self.retired)? as usize)
    }

    /// The record in `slot`, unless it has been retired.
    fn get_mut(&mut self, slot: u32) -> Option<&mut OutMsg> {
        self.live.get_mut(slot.checked_sub(self.retired)? as usize)
    }
}

impl std::ops::Index<u32> for Window {
    type Output = OutMsg;
    fn index(&self, slot: u32) -> &OutMsg {
        &self.live[(slot - self.retired) as usize]
    }
}

impl std::ops::IndexMut<u32> for Window {
    fn index_mut(&mut self, slot: u32) -> &mut OutMsg {
        &mut self.live[(slot - self.retired) as usize]
    }
}

/// One MTP sending endpoint.
pub struct MtpSender {
    cfg: MtpConfig,
    /// This host's address (carried as `src_port`).
    addr: u16,
    entity: EntityId,
    msg_id_base: u64,
    /// Message window, indexed by slot (`id.0 - msg_id_base`).
    msgs: Window,
    /// Incomplete messages in the window.
    outstanding: usize,
    /// Packet spans of retired messages, reused by `send_message` so
    /// steady-state submission allocates nothing.
    spare_pkts: Vec<VecDeque<OutPkt>>,
    /// Intrusive ready-list: head/tail slot of the FIFO of messages with
    /// unsent packets, one per priority, plus an occupancy bitmap. FIFO
    /// order within a priority is submission order (ids are monotone), so
    /// draining bucket 0 upward reproduces `(priority, id)` order exactly.
    ready_head: [u32; 256],
    ready_tail: [u32; 256],
    ready_bits: [u64; 4],
    /// FIFO of (slot, pkt, epoch, sent_at) for RTO scanning.
    inflight: VecDeque<(u32, u32, u32, Time)>,
    pathlets: PathletTable,
    /// The pathlet new transmissions are charged against.
    active: (PathletId, TrafficClass),
    rtt: RttEstimator,
    /// Counters.
    pub stats: MtpSenderStats,
    events: Vec<SenderEvent>,
    /// Per-ACK scratch: acked bytes accumulated per [`PathIdx`], plus the
    /// list of indices touched; both are cleared (cheaply, via the touched
    /// list) before `on_ack` returns, so no per-ACK allocation occurs.
    ack_scratch: Vec<u64>,
    ack_touched: Vec<u32>,
    /// Per-ACK scratch: distinct pathlets with NACKed packets.
    loss_scratch: Vec<u32>,
    /// Per-timeout scratch: (slot, pkt) pairs expired by the RTO.
    timer_scratch: Vec<(u32, u32)>,
    /// Failover scratch: (slot, pkt) pairs evacuated off a dead pathlet.
    evac_scratch: Vec<(u32, u32)>,
}

impl std::fmt::Debug for MtpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MtpSender")
            .field("addr", &self.addr)
            .field("outstanding", &self.outstanding)
            .field("resident", &self.msgs.live.len())
            .field("active", &self.active)
            .finish()
    }
}

impl MtpSender {
    /// A sender at address `addr` for `entity`; message IDs are allocated
    /// from `msg_id_base` (must be globally unique per sender).
    pub fn new(cfg: MtpConfig, addr: u16, entity: EntityId, msg_id_base: u64) -> MtpSender {
        let rtt = RttEstimator::new(cfg.min_rto);
        let pathlets = PathletTable::new(cfg.cc);
        MtpSender {
            cfg,
            addr,
            entity,
            msg_id_base,
            msgs: Window::default(),
            outstanding: 0,
            spare_pkts: Vec::new(),
            ready_head: [NONE; 256],
            ready_tail: [NONE; 256],
            ready_bits: [0; 4],
            inflight: VecDeque::new(),
            pathlets,
            active: (DEFAULT_PATHLET, TrafficClass::BEST_EFFORT),
            rtt,
            stats: MtpSenderStats::default(),
            events: Vec::new(),
            ack_scratch: Vec::new(),
            ack_touched: Vec::new(),
            loss_scratch: Vec::new(),
            timer_scratch: Vec::new(),
            evac_scratch: Vec::new(),
        }
    }

    /// The slot of `id`, if it names a message this sender has submitted
    /// (possibly long retired).
    #[inline]
    fn slot_of(&self, id: MsgId) -> Option<u32> {
        let k = id.0.wrapping_sub(self.msg_id_base);
        (k < self.msgs.next_slot() as u64).then_some(k as u32)
    }

    /// The message id of `slot`.
    #[inline]
    fn id_of(&self, slot: u32) -> MsgId {
        MsgId(self.msg_id_base + slot as u64)
    }

    /// Append `slot` to its priority's ready FIFO.
    fn ready_push(&mut self, slot: u32, pri: u8) {
        self.msgs[slot].next_ready = NONE;
        let p = pri as usize;
        match self.ready_tail[p] {
            NONE => {
                self.ready_head[p] = slot;
                self.ready_bits[p / 64] |= 1u64 << (p % 64);
            }
            tail => self.msgs[tail].next_ready = slot,
        }
        self.ready_tail[p] = slot;
    }

    /// Remove the head of priority `pri`'s ready FIFO.
    fn ready_pop(&mut self, pri: u8) {
        let p = pri as usize;
        let head = self.ready_head[p];
        debug_assert_ne!(head, NONE);
        let next = self.msgs[head].next_ready;
        self.ready_head[p] = next;
        if next == NONE {
            self.ready_tail[p] = NONE;
            self.ready_bits[p / 64] &= !(1u64 << (p % 64));
        }
    }

    /// The most urgent priority with ready messages, if any.
    #[inline]
    fn first_ready(&self) -> Option<u8> {
        for (w, &bits) in self.ready_bits.iter().enumerate() {
            if bits != 0 {
                return Some((w * 64 + bits.trailing_zeros() as usize) as u8);
            }
        }
        None
    }

    /// Submit a message of `bytes` to destination address `dst` with the
    /// given priority (0 = most urgent) and traffic class. Returns the
    /// message id. Transmission starts immediately, window permitting.
    pub fn send_message(
        &mut self,
        dst: u16,
        bytes: u32,
        pri: u8,
        tc: TrafficClass,
        now: Time,
        out: &mut Vec<Packet>,
    ) -> MsgId {
        assert!(bytes > 0, "empty message");
        let slot = self.msgs.next_slot();
        let id = self.id_of(slot);
        self.msgs.live.push_back(OutMsg {
            dst,
            pri,
            tc,
            total_bytes: bytes,
            n_pkts: bytes.div_ceil(self.cfg.mtu_payload),
            base: 0,
            pkts: self.spare_pkts.pop().unwrap_or_default(),
            acked: 0,
            next_unsent: 0,
            submitted: now,
            next_ready: NONE,
        });
        self.outstanding += 1;
        self.ready_push(slot, pri);
        self.poll(now, out);
        id
    }

    /// Outstanding (incomplete) message count.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Message records currently held: the outstanding messages plus any
    /// completed ones still waiting behind an older incomplete message
    /// (retirement is in id order).
    pub fn resident(&self) -> usize {
        self.msgs.live.len()
    }

    /// Retire the completed prefix of the window, keeping each (empty)
    /// packet span for reuse.
    fn retire_completed(&mut self) {
        while self.msgs.live.front().is_some_and(OutMsg::is_complete) {
            let msg = self.msgs.live.pop_front().expect("front checked");
            debug_assert!(msg.pkts.is_empty());
            self.spare_pkts.push(msg.pkts);
            self.msgs.retired += 1;
        }
    }

    /// Append all pending completion events to `out`, clearing the
    /// internal queue but keeping its capacity. Callers reuse one buffer
    /// across calls so steady-state event delivery never allocates.
    pub fn drain_events(&mut self, out: &mut Vec<SenderEvent>) {
        out.append(&mut self.events);
    }

    /// The pathlet currently charged for new transmissions.
    pub fn active_pathlet(&self) -> (PathletId, TrafficClass) {
        self.active
    }

    /// The pathlet table (for instrumentation and tests).
    pub fn pathlets(&self) -> &PathletTable {
        &self.pathlets
    }

    /// The smoothed RTT estimate.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    /// The next time [`on_timer`](Self::on_timer) must run, if any packet
    /// is in flight.
    pub fn next_deadline(&mut self) -> Option<Time> {
        self.compact_inflight();
        self.inflight
            .front()
            .map(|&(_, _, _, sent)| sent + self.rtt.rto())
    }

    /// The next instant this sender wants to be driven even if no packet
    /// arrives: the earlier of the RTO deadline
    /// ([`next_deadline`](Self::next_deadline)) and — with failover
    /// enabled — the earliest quarantine release, which must be able to
    /// open its re-probe window without waiting for an unrelated ACK or
    /// timeout. Drivers outside the simulator (the real-wire backend)
    /// sleep until this instant and then call
    /// [`on_timer`](Self::on_timer); the sim adapter keeps arming plain
    /// `next_deadline`, whose firing schedule this method deliberately
    /// does not change.
    pub fn poll_at(&mut self) -> Option<Time> {
        let rto = self.next_deadline();
        let quarantine = if self.cfg.failover {
            self.pathlets.next_quarantine_release()
        } else {
            None
        };
        match (rto, quarantine) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn compact_inflight(&mut self) {
        while let Some(&(slot, pkt, epoch, _)) = self.inflight.front() {
            if self
                .msgs
                .get(slot)
                .and_then(|m| m.pkt(pkt))
                .is_some_and(|p| p.state == PktState::InFlight && p.epoch == epoch)
            {
                break;
            }
            self.inflight.pop_front();
        }
    }

    /// Number of pathlets known (observed via feedback).
    pub fn known_pathlets(&self) -> usize {
        self.pathlets.len()
    }

    /// Snapshot of pathlet-health state at `now`, for error reporting by
    /// outer layers: when a wire session declares its peer dead, the
    /// error says how much of the path set the core had already written
    /// off — a full quarantine points at the network, an empty one at
    /// the peer process.
    pub fn path_health(&self, now: Time) -> PathHealth {
        PathHealth {
            known: self.pathlets.len(),
            quarantined: self.pathlets.quarantined_now(now),
            quarantines: self.stats.quarantines,
            failovers: self.stats.failovers,
        }
    }

    // ---- Dead-pathlet detection and failover -----------------------------
    //
    // The quarantine/re-probe state machine (paper §3–4: endpoints route
    // around failed elements). Two independent detectors feed it: loss
    // attribution (consecutive NACK/RTO losses charged to one pathlet) and
    // feedback silence (in-flight bytes but no feedback for several RTOs).
    // A pathlet declared dead is quarantined with exponential backoff and
    // advertised excluded; its in-flight packets are evacuated onto the
    // best surviving pathlet. A pathlet is never quarantined when it is
    // the only live one — a sender with one path must keep trying it.
    // Everything below is gated on `cfg.failover` (off by
    // default), so clean-topology runs keep their exact packet schedules.

    /// Release expired quarantines (each opens a re-probe window).
    fn maybe_reprobe(&mut self, now: Time) {
        if !self.cfg.failover {
            return;
        }
        let released = self.pathlets.release_expired_quarantines(now);
        self.stats.reprobes += released as u64;
    }

    /// Attribute one loss event to `idx`; quarantine it once the streak
    /// reaches [`DEAD_AFTER_LOSSES`].
    fn note_loss(&mut self, idx: PathIdx, now: Time, out: &mut Vec<Packet>) {
        if !self.cfg.failover {
            return;
        }
        let e = self.pathlets.at_mut(idx);
        e.consec_losses += 1;
        if e.consec_losses >= DEAD_AFTER_LOSSES {
            self.quarantine_pathlet(idx, now, out);
        }
    }

    /// Declare `idx` dead: quarantine it (backoff-doubled), steer the
    /// active pathlet off it, and evacuate its in-flight packets.
    fn quarantine_pathlet(&mut self, idx: PathIdx, now: Time, out: &mut Vec<Packet>) {
        if self.pathlets.at(idx).is_quarantined(now) {
            return;
        }
        // Never abandon the only live path.
        let Some(alt) = self.pathlets.best_alternative(idx, now) else {
            return;
        };
        let level = self.pathlets.at(idx).backoff_level;
        let span = Duration(
            PROBE_BACKOFF
                .0
                .checked_shl(level)
                .unwrap_or(u64::MAX)
                .min(MAX_BACKOFF.0),
        );
        self.pathlets.quarantine_at(idx, now + span);
        self.pathlets.at_mut(idx).backoff_level = level.saturating_add(1);
        self.stats.quarantines += 1;
        let (apath, atc) = self.active;
        if self.pathlets.lookup(apath, atc) == Some(idx) {
            self.active = self.pathlets.key_at(alt);
            self.stats.failovers += 1;
        }
        self.evacuate(idx, now, out);
    }

    /// Re-steer every in-flight packet charged to a dead pathlet: credit
    /// it back and retransmit on the (post-failover) active pathlet.
    fn evacuate(&mut self, dead: PathIdx, now: Time, out: &mut Vec<Packet>) {
        debug_assert!(self.evac_scratch.is_empty());
        for qi in 0..self.inflight.len() {
            let (slot, pkt, epoch, _) = self.inflight[qi];
            let Some(p) = self.msgs.get(slot).and_then(|m| m.pkt(pkt)) else {
                continue;
            };
            if p.state == PktState::InFlight && p.epoch == epoch && p.charged == dead {
                self.evac_scratch.push((slot, pkt));
            }
        }
        let mtu = self.cfg.mtu_payload;
        for i in 0..self.evac_scratch.len() {
            let (slot, pkt) = self.evac_scratch[i];
            let msg = &mut self.msgs[slot];
            let len = msg.len_of(pkt, mtu);
            msg.pkt_mut(pkt).expect("in flight, so in the span").state = PktState::Lost;
            self.pathlets.credit_at(dead, len as u64);
            self.stats.evacuated_pkts += 1;
            self.retransmit(slot, pkt, now, out);
        }
        self.evac_scratch.clear();
    }

    /// Feedback-silence detector: a pathlet with bytes in flight that has
    /// produced no feedback for [`SILENCE_RTOS`] RTOs is presumed dead even
    /// if no NACK ever attributed a loss to it (a blackholed path produces
    /// no NACKs at all).
    fn check_silence(&mut self, now: Time, out: &mut Vec<Packet>) {
        if !self.cfg.failover {
            return;
        }
        if self.outstanding() == 0 {
            // Silence without demand is idleness, not failure.
            return;
        }
        let threshold = Duration(self.rtt.rto().0.saturating_mul(SILENCE_RTOS as u64));
        // Deliberately NOT gated on per-pathlet charged in-flight: the
        // sender charges packets to its *guess* of the path, and the first
        // go-back-N round re-charges everything to the current active
        // pathlet — so a dead path the sender is not actively charging
        // would never trip an in-flight-gated detector, yet its drained
        // (empty) queue keeps attracting the network's load balancer. A
        // pathlet we have heard from before that stays silent for several
        // RTOs while messages are outstanding is suspect either way;
        // quarantining it advertises the exclusion that steers new
        // messages off it, and a false alarm costs one expiring exclusion.
        for i in 0..self.pathlets.len() as u32 {
            let idx = PathIdx(i);
            let e = self.pathlets.at(idx);
            if !e.is_quarantined(now) && now.since(e.last_seen) >= threshold {
                self.quarantine_pathlet(idx, now, out);
            }
        }
    }

    /// Process an ACK (or standalone NACK) addressed to this sender.
    pub fn on_ack(&mut self, now: Time, hdr: &MtpHeader, out: &mut Vec<Packet>) {
        debug_assert!(matches!(hdr.pkt_type, PktType::Ack | PktType::Nack));
        self.maybe_reprobe(now);

        // 1. SACKs: credit windows, accumulate per-pathlet acked bytes in
        //    the dense scratch table, sample RTT, detect completions.
        if self.ack_scratch.len() < self.pathlets.len() {
            self.ack_scratch.resize(self.pathlets.len(), 0);
        }
        debug_assert!(self.ack_touched.is_empty());
        let mtu = self.cfg.mtu_payload;
        let mut rtt_sample: Option<Duration> = None;
        for s in &hdr.sack {
            let Some(msg) = self.slot_of(s.msg).and_then(|slot| self.msgs.get_mut(slot)) else {
                continue;
            };
            // Only an in-flight packet can be newly acknowledged: anything
            // else is a duplicate (below `base` included), or names a
            // packet never transmitted (no record).
            let Some(pkt) = msg.pkt_mut(s.pkt.0) else {
                continue;
            };
            if pkt.state != PktState::InFlight {
                continue;
            }
            if pkt.epoch == 1 {
                rtt_sample = Some(now.since(pkt.sent_at));
            }
            pkt.state = PktState::Acked;
            let idx = pkt.charged;
            let len = msg.len_of(s.pkt.0, mtu) as u64;
            msg.advance_base();
            self.pathlets.credit_at(idx, len);
            let acc = &mut self.ack_scratch[idx.0 as usize];
            if *acc == 0 {
                self.ack_touched.push(idx.0);
            }
            *acc += len;
            msg.acked += 1;
            if msg.is_complete() {
                self.outstanding -= 1;
                self.stats.msgs_completed += 1;
                self.events.push(SenderEvent::MsgCompleted {
                    id: s.msg,
                    submitted: msg.submitted,
                    completed: now,
                });
                self.retire_completed();
            }
        }
        if let Some(rtt) = rtt_sample {
            self.rtt.sample(rtt);
        } else if !self.ack_touched.is_empty() {
            // Newly acked bytes without a cleanly timeable segment: still
            // forward progress, so unwind any RTO backoff.
            self.rtt.on_progress();
        }

        // 2. Feedback: deliver each echoed entry to its pathlet's
        //    controller, attributing (and consuming) the acked bytes
        //    charged to it.
        for fb in &hdr.ack_path_feedback {
            let idx = self.pathlets.intern(fb.path, fb.tc, now);
            let acked = self
                .ack_scratch
                .get_mut(idx.0 as usize)
                .map(std::mem::take)
                .unwrap_or(0);
            let e = self.pathlets.at_mut(idx);
            e.last_seen = now;
            e.cc.on_ack(acked, Some(&fb.feedback));
            if let Feedback::PathChange { new_path } = fb.feedback {
                self.active = (new_path, fb.tc);
            }
            if acked > 0 && self.cfg.failover {
                self.pathlets.mark_alive(idx);
            }
        }
        // Acked bytes on pathlets the ACK carried no feedback for still
        // grow their windows (an unmarked ACK is itself feedback).
        for i in 0..self.ack_touched.len() {
            let idx = self.ack_touched[i];
            let acked = std::mem::take(&mut self.ack_scratch[idx as usize]);
            if acked == 0 {
                continue; // consumed by a feedback entry above
            }
            let e = self.pathlets.at_mut(PathIdx(idx));
            // A plain SACK attributing bytes to this pathlet is liveness
            // evidence even without an echoed feedback entry.
            e.last_seen = now;
            e.cc.on_ack(acked, None);
            if self.cfg.failover {
                self.pathlets.mark_alive(PathIdx(idx));
            }
        }
        self.ack_touched.clear();
        // The first echoed entry names the path the data actually took:
        // make it the active pathlet for subsequent admissions.
        if let Some(first) = hdr.ack_path_feedback.first() {
            self.active = (first.path, first.tc);
        }

        // 3. NACKs: retransmit immediately and punish the charged pathlet
        //    once per distinct pathlet per ACK.
        debug_assert!(self.loss_scratch.is_empty());
        for n in &hdr.nack {
            let Some(slot) = self.slot_of(n.msg) else {
                continue;
            };
            let Some(msg) = self.msgs.get_mut(slot) else {
                continue;
            };
            let Some(pkt) = msg.pkt_mut(n.pkt.0) else {
                continue;
            };
            if pkt.state != PktState::InFlight {
                continue;
            }
            self.stats.nacks += 1;
            pkt.state = PktState::Lost;
            let idx = pkt.charged;
            self.pathlets
                .credit_at(idx, msg.len_of(n.pkt.0, mtu) as u64);
            if !self.loss_scratch.contains(&idx.0) {
                self.loss_scratch.push(idx.0);
            }
            self.retransmit(slot, n.pkt.0, now, out);
        }
        for i in 0..self.loss_scratch.len() {
            let idx = PathIdx(self.loss_scratch[i]);
            let e = self.pathlets.at_mut(idx);
            e.cc.on_loss();
            if e.cc.window() <= crate::pathlet_cc::WINDOW_FLOOR {
                self.pathlets.exclude_at(idx, now + EXCLUDE_COOLDOWN);
            }
            self.note_loss(idx, now, out);
        }
        self.loss_scratch.clear();

        // Every ACK is a chance to notice a pathlet that has gone quiet:
        // a sender draining fine over the survivors may see no RTO for a
        // long time, and waiting for one delays failure detection by the
        // whole backed-off timeout.
        self.check_silence(now, out);

        self.poll(now, out);

        // Drop settled entries off the RTO queue's front now rather than
        // waiting for the next deadline query: a caller that never polls
        // timers (acks arrive faster than the RTO) must not see the queue
        // grow without bound. Amortized O(1) — each entry pops once.
        self.compact_inflight();
    }

    /// Drive the retransmission timeout; call when the clock passes
    /// [`next_deadline`](Self::next_deadline).
    ///
    /// An expired RTO declares *everything* in flight lost (go-back-N, as
    /// TCP's RTO does): retransmitting only the oldest packet would let
    /// the exponential backoff outpace repair — each doubled RTO expires
    /// one packet and pushes the next deadline out twice as far, so a
    /// lossy path never converges.
    pub fn on_timer(&mut self, now: Time, out: &mut Vec<Packet>) {
        self.maybe_reprobe(now);
        self.compact_inflight();
        self.check_silence(now, out);
        let rto = self.rtt.rto();
        let front_expired =
            matches!(self.inflight.front(), Some(&(_, _, _, sent)) if sent + rto <= now);
        if !front_expired {
            return;
        }
        debug_assert!(self.timer_scratch.is_empty());
        let mtu = self.cfg.mtu_payload;
        while let Some((slot, pkt, epoch, _)) = self.inflight.pop_front() {
            let Some(msg) = self.msgs.get_mut(slot) else {
                continue;
            };
            let Some(p) = msg.pkt_mut(pkt) else {
                continue;
            };
            if p.state == PktState::InFlight && p.epoch == epoch {
                p.state = PktState::Lost;
                let idx = p.charged;
                self.pathlets.credit_at(idx, msg.len_of(pkt, mtu) as u64);
                self.timer_scratch.push((slot, pkt));
            }
        }
        if self.timer_scratch.is_empty() {
            return;
        }
        self.stats.timeouts += 1;
        self.rtt.on_timeout();
        if self.cfg.failover {
            // Attribute the timeout to every pathlet that had expired
            // bytes in flight — both the congestion signal and the dead-
            // path streak — so a repeatedly timing-out pathlet collapses
            // its own window and gets quarantined, while a survivor the
            // sender happens to have active keeps its window. (Blanket-
            // punishing the active pathlet here would re-collapse the
            // healthy path every time a re-probe casualty expires.) The
            // go-back-N retransmits below then charge the post-failover
            // active pathlet instead of the dead one.
            debug_assert!(self.loss_scratch.is_empty());
            for i in 0..self.timer_scratch.len() {
                let (slot, pkt) = self.timer_scratch[i];
                let idx = self.msgs[slot]
                    .pkt(pkt)
                    .expect("expired, so in the span")
                    .charged;
                if !self.loss_scratch.contains(&idx.0) {
                    self.loss_scratch.push(idx.0);
                }
            }
            for i in 0..self.loss_scratch.len() {
                let idx = PathIdx(self.loss_scratch[i]);
                self.pathlets.at_mut(idx).cc.on_loss();
                self.note_loss(idx, now, out);
            }
            self.loss_scratch.clear();
        } else {
            // One loss signal per timeout event on the active pathlet.
            let (p, tc) = self.active;
            let idx = self.pathlets.intern(p, tc, now);
            self.pathlets.at_mut(idx).cc.on_loss();
        }
        for i in 0..self.timer_scratch.len() {
            let (slot, pkt) = self.timer_scratch[i];
            self.retransmit(slot, pkt, now, out);
        }
        self.timer_scratch.clear();
        self.poll(now, out);
    }

    /// Fill every pathlet window with unsent packets, highest-priority
    /// messages first.
    pub fn poll(&mut self, now: Time, out: &mut Vec<Packet>) {
        while let Some(pri) = self.first_ready() {
            let slot = self.ready_head[pri as usize];
            let (done, blocked) = self.send_from(slot, now, out);
            if done {
                self.ready_pop(pri);
            } else if blocked {
                // Window full: lower-priority messages must not overtake on
                // the same pathlet, and all admissions share the active
                // pathlet, so stop.
                return;
            }
        }
    }

    /// Returns (all packets sent, window blocked).
    fn send_from(&mut self, slot: u32, now: Time, out: &mut Vec<Packet>) -> (bool, bool) {
        let (path, _) = self.active;
        let mtu = self.cfg.mtu_payload;
        let msg = &self.msgs[slot];
        let tc = msg.tc;
        let n = msg.n_pkts;
        if msg.next_unsent >= n {
            return (true, false);
        }
        let id = self.id_of(slot);
        // Intern the admission pathlet once per call, not once per packet.
        let aidx = self.pathlets.intern(path, tc, now);
        loop {
            let msg = &mut self.msgs[slot];
            if msg.next_unsent >= n {
                return (true, false);
            }
            let idx = msg.next_unsent;
            let pkt_len = msg.len_of(idx, mtu);
            if self.pathlets.room_at(aidx) < pkt_len as u64 {
                return (false, true);
            }
            // The first send extends the span by one record; nothing else
            // does, so no peer can grow it.
            debug_assert_eq!(msg.base as usize + msg.pkts.len(), idx as usize);
            msg.pkts.push_back(OutPkt {
                state: PktState::InFlight,
                charged: aidx,
                sent_at: now,
                epoch: 1,
            });
            let pri = msg.pri;
            let dst = msg.dst;
            let total_bytes = msg.total_bytes;
            msg.next_unsent += 1;
            self.pathlets.charge_at(aidx, pkt_len as u64);
            self.inflight.push_back((slot, idx, 1, now));

            let mut hdr = mtp_sim::pool::take_header();
            hdr.src_port = self.addr;
            hdr.dst_port = dst;
            hdr.pkt_type = PktType::Data;
            hdr.msg_pri = pri;
            hdr.tc = tc;
            hdr.flags = if idx == n - 1 { flags::LAST_PKT } else { 0 };
            hdr.msg_id = id;
            hdr.entity = self.entity;
            hdr.msg_len_pkts = n;
            hdr.msg_len_bytes = total_bytes;
            hdr.pkt_num = PktNum(idx);
            hdr.pkt_len = pkt_len as u16;
            hdr.pkt_offset = idx * mtu;
            self.pathlets.append_exclusions(now, &mut hdr.path_exclude);
            let wire = pkt_len + hdr.wire_len() as u32;
            let mut packet = Packet::new(Headers::Mtp(hdr), wire);
            packet.sent_at = now;
            out.push(packet);
            self.stats.pkts_sent += 1;
        }
    }

    /// Retransmit one packet immediately (bypassing the window, standard
    /// loss-repair behaviour), charging the active pathlet.
    fn retransmit(&mut self, slot: u32, pkt_idx: u32, now: Time, out: &mut Vec<Packet>) {
        let (path, _) = self.active;
        let mtu = self.cfg.mtu_payload;
        let id = self.id_of(slot);
        let tc = self.msgs[slot].tc;
        let aidx = self.pathlets.intern(path, tc, now);
        let msg = &mut self.msgs[slot];
        let n = msg.n_pkts;
        let pkt_len = msg.len_of(pkt_idx, mtu);
        let pri = msg.pri;
        let dst = msg.dst;
        let total_bytes = msg.total_bytes;
        // Below `base` is acknowledged.
        let Some(p) = msg.pkt_mut(pkt_idx) else {
            return;
        };
        if p.state == PktState::Acked {
            return;
        }
        p.state = PktState::InFlight;
        p.charged = aidx;
        p.sent_at = now;
        p.epoch += 1;
        let epoch = p.epoch;
        self.pathlets.charge_at(aidx, pkt_len as u64);
        self.inflight.push_back((slot, pkt_idx, epoch, now));

        let mut hdr = mtp_sim::pool::take_header();
        hdr.src_port = self.addr;
        hdr.dst_port = dst;
        hdr.pkt_type = PktType::Data;
        hdr.msg_pri = pri;
        hdr.tc = tc;
        hdr.flags = flags::RETX | if pkt_idx == n - 1 { flags::LAST_PKT } else { 0 };
        hdr.msg_id = id;
        hdr.entity = self.entity;
        hdr.msg_len_pkts = n;
        hdr.msg_len_bytes = total_bytes;
        hdr.pkt_num = PktNum(pkt_idx);
        hdr.pkt_len = pkt_len as u16;
        hdr.pkt_offset = pkt_idx * mtu;
        self.pathlets.append_exclusions(now, &mut hdr.path_exclude);
        let wire = pkt_len + hdr.wire_len() as u32;
        let mut packet = Packet::new(Headers::Mtp(hdr), wire);
        packet.sent_at = now;
        out.push(packet);
        self.stats.pkts_sent += 1;
        self.stats.retransmissions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_wire::{PathFeedback, SackEntry};

    fn sender() -> MtpSender {
        MtpSender::new(MtpConfig::default(), 1, EntityId(0), 1000)
    }

    fn events(s: &mut MtpSender) -> Vec<SenderEvent> {
        let mut ev = Vec::new();
        s.drain_events(&mut ev);
        ev
    }

    fn data_hdr(p: &Packet) -> &MtpHeader {
        p.headers.as_mtp().expect("mtp packet")
    }

    fn ack_for(pkts: &[&Packet]) -> MtpHeader {
        MtpHeader {
            pkt_type: PktType::Ack,
            sack: pkts
                .iter()
                .map(|p| {
                    let h = data_hdr(p);
                    SackEntry {
                        msg: h.msg_id,
                        pkt: h.pkt_num,
                    }
                })
                .collect(),
            ..MtpHeader::default()
        }
    }

    #[test]
    fn fragments_message_into_mtu_packets() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(2, 4000, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        assert_eq!(out.len(), 3, "4000 B / 1460 = 3 packets");
        let h0 = data_hdr(&out[0]);
        assert_eq!(h0.msg_len_pkts, 3);
        assert_eq!(h0.msg_len_bytes, 4000);
        assert_eq!(h0.pkt_num, PktNum(0));
        assert_eq!(h0.pkt_len, 1460);
        let h2 = data_hdr(&out[2]);
        assert_eq!(h2.pkt_len, (4000 - 2 * 1460) as u16);
        assert_eq!(h2.pkt_offset, 2 * 1460);
        assert!(h2.is_last_pkt());
    }

    #[test]
    fn window_limits_initial_burst() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(
            2,
            1_000_000,
            0,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        // init window 15000 B admits 10 full packets.
        assert_eq!(out.len(), 10);
        assert_eq!(s.outstanding(), 1);
    }

    #[test]
    fn sack_opens_window_and_completes() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(2, 3000, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        assert_eq!(out.len(), 3);
        let first: Vec<&Packet> = out.iter().collect();
        let ack = ack_for(&first);
        let mut out2 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(10), &ack, &mut out2);
        let ev = events(&mut s);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], SenderEvent::MsgCompleted { .. }));
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn priority_zero_preempts_new_admissions() {
        let mut s = sender();
        let mut out = Vec::new();
        // Low-priority bulk fills the window.
        s.send_message(
            2,
            1_000_000,
            5,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        let burst: Vec<&Packet> = out.iter().collect();
        let n_burst = burst.len();
        let ack = ack_for(&burst[..2]);
        out.clear();
        // An urgent message arrives; next window space must go to it.
        let urgent = s.send_message(2, 1460, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        assert!(out.is_empty(), "window still full");
        let mut out2 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(5), &ack, &mut out2);
        assert!(!out2.is_empty());
        assert_eq!(
            data_hdr(&out2[0]).msg_id,
            urgent,
            "urgent message admitted before remaining bulk (burst was {n_burst})"
        );
    }

    #[test]
    fn nack_triggers_immediate_retransmission() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(2, 3000, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        let h1 = data_hdr(&out[1]);
        let nack = MtpHeader {
            pkt_type: PktType::Ack,
            nack: vec![SackEntry {
                msg: h1.msg_id,
                pkt: h1.pkt_num,
            }],
            ..MtpHeader::default()
        };
        let mut out2 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(10), &nack, &mut out2);
        assert_eq!(s.stats.retransmissions, 1);
        let retx = data_hdr(&out2[0]);
        assert_eq!(retx.pkt_num, PktNum(1));
        assert!(retx.is_retx());
    }

    #[test]
    fn rto_resends_unacked_packets() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(2, 2920, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        assert_eq!(out.len(), 2);
        let deadline = s.next_deadline().expect("armed");
        let mut out2 = Vec::new();
        s.on_timer(deadline, &mut out2);
        assert_eq!(s.stats.timeouts, 1);
        assert_eq!(out2.len(), 2, "both unacked packets resent");
        assert!(out2.iter().all(|p| data_hdr(p).is_retx()));
    }

    #[test]
    fn feedback_moves_active_pathlet_and_keeps_old_window() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(
            2,
            100_000,
            0,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        let acked: Vec<&Packet> = out.iter().take(2).collect();
        let mut ack = ack_for(&acked);
        ack.ack_path_feedback = vec![PathFeedback {
            path: PathletId(7),
            tc: TrafficClass::BEST_EFFORT,
            feedback: Feedback::EcnMark { ce: false },
        }];
        let mut out2 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(10), &ack, &mut out2);
        assert_eq!(s.active_pathlet().0, PathletId(7));
        // Both pathlets now exist independently.
        assert!(s
            .pathlets()
            .get(PathletId(7), TrafficClass::BEST_EFFORT)
            .is_some());
        assert!(s
            .pathlets()
            .get(DEFAULT_PATHLET, TrafficClass::BEST_EFFORT)
            .is_some());
    }

    #[test]
    fn path_change_notification_switches_immediately() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(
            2,
            100_000,
            0,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        let acked: Vec<&Packet> = out.iter().take(1).collect();
        let mut ack = ack_for(&acked);
        ack.ack_path_feedback = vec![PathFeedback {
            path: PathletId(1),
            tc: TrafficClass::BEST_EFFORT,
            feedback: Feedback::PathChange {
                new_path: PathletId(9),
            },
        }];
        let mut out2 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(10), &ack, &mut out2);
        // PathChange overrides the stamped entry itself... unless another
        // entry follows; here the notification wins.
        assert_eq!(s.active_pathlet().0, PathletId(1));
    }

    #[test]
    fn duplicate_sacks_are_idempotent() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(2, 1460, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        let ack = ack_for(&[&out[0]]);
        let mut o = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(5), &ack, &mut o);
        s.on_ack(Time::ZERO + Duration::from_micros(6), &ack, &mut o);
        assert_eq!(events(&mut s).len(), 1, "one completion only");
        assert_eq!(s.stats.msgs_completed, 1);
    }

    #[test]
    fn repeated_loss_floors_window_and_excludes_pathlet() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(
            2,
            1_000_000,
            0,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        // NACK everything in flight repeatedly to drive the window down.
        for round in 0..8 {
            let now = Time::ZERO + Duration::from_micros(10 * (round + 1));
            let nacks: Vec<SackEntry> = out
                .iter()
                .map(|p| {
                    let h = data_hdr(p);
                    SackEntry {
                        msg: h.msg_id,
                        pkt: h.pkt_num,
                    }
                })
                .collect();
            let hdr = MtpHeader {
                pkt_type: PktType::Ack,
                nack: nacks,
                ..MtpHeader::default()
            };
            out.clear();
            s.on_ack(now, &hdr, &mut out);
        }
        // Retransmissions after the window floored must advertise the
        // exclusion.
        let last = data_hdr(out.last().expect("retransmissions emitted"));
        assert!(
            !last.path_exclude.is_empty(),
            "floored pathlet should be advertised as excluded"
        );
        // Failover is opt-in: with the default config a loss streak never
        // quarantines or re-steers.
        assert_eq!(s.stats.quarantines, 0);
        assert_eq!(s.stats.failovers, 0);
        assert_eq!(s.stats.evacuated_pkts, 0);
    }

    #[test]
    fn loss_streak_quarantines_pathlet_and_fails_over() {
        let mut s = MtpSender::new(MtpConfig::default().with_failover(), 1, EntityId(0), 1000);
        let mut out = Vec::new();
        s.send_message(
            2,
            1_000_000,
            0,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        // Move the active pathlet to 7 via echoed feedback; the window
        // space opened by the ACK admits fresh packets charged to 7.
        let mut ack = ack_for(&[&out[0]]);
        ack.ack_path_feedback = vec![PathFeedback {
            path: PathletId(7),
            tc: TrafficClass::BEST_EFFORT,
            feedback: Feedback::EcnMark { ce: false },
        }];
        let mut on7 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(10), &ack, &mut on7);
        assert_eq!(s.active_pathlet().0, PathletId(7));
        assert!(!on7.is_empty(), "opened window admits packets on 7");
        // Two successive loss events attributed to pathlet 7 reach the
        // DEAD_AFTER_LOSSES threshold.
        let nack_hdr = MtpHeader {
            pkt_type: PktType::Ack,
            nack: on7
                .iter()
                .map(|p| {
                    let h = data_hdr(p);
                    SackEntry {
                        msg: h.msg_id,
                        pkt: h.pkt_num,
                    }
                })
                .collect(),
            ..MtpHeader::default()
        };
        let mut out2 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(20), &nack_hdr, &mut out2);
        assert_eq!(s.stats.quarantines, 0, "one loss event is not a streak");
        out2.clear();
        s.on_ack(Time::ZERO + Duration::from_micros(30), &nack_hdr, &mut out2);
        assert_eq!(s.stats.quarantines, 1);
        assert_eq!(s.stats.failovers, 1);
        assert!(
            s.stats.evacuated_pkts > 0,
            "in-flight on the dead pathlet re-steered"
        );
        assert_eq!(
            s.active_pathlet().0,
            DEFAULT_PATHLET,
            "fell back to the surviving pathlet"
        );
        // Re-steered packets advertise the dead pathlet as excluded.
        let last = data_hdr(out2.last().expect("evacuation retransmits"));
        assert!(last.path_exclude.iter().any(|x| x.path == PathletId(7)));
        // After the backoff expires, the next event releases the
        // quarantine so the pathlet can be re-probed.
        let empty = MtpHeader {
            pkt_type: PktType::Ack,
            ..MtpHeader::default()
        };
        let mut out3 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(2_000), &empty, &mut out3);
        assert_eq!(s.stats.reprobes, 1);
    }

    #[test]
    fn feedback_silence_quarantines_but_never_abandons_last_path() {
        let mut s = MtpSender::new(MtpConfig::default().with_failover(), 1, EntityId(0), 1000);
        let mut out = Vec::new();
        s.send_message(
            2,
            1_000_000,
            0,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        // ACK one packet with feedback naming pathlet 7: the default
        // pathlet keeps its unacked burst in flight while 7 becomes
        // active and demonstrably alive.
        let mut ack = ack_for(&[&out[0]]);
        ack.ack_path_feedback = vec![PathFeedback {
            path: PathletId(7),
            tc: TrafficClass::BEST_EFFORT,
            feedback: Feedback::EcnMark { ce: false },
        }];
        let mut o = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(10), &ack, &mut o);
        assert_eq!(s.active_pathlet().0, PathletId(7));
        // Well past SILENCE_RTOS * RTO with bytes still charged to the
        // default pathlet and no sign of life from it.
        let mut out2 = Vec::new();
        s.on_timer(Time::ZERO + Duration::from_micros(10_000), &mut out2);
        assert!(s.stats.quarantines >= 1, "silent pathlet quarantined");
        assert!(s
            .pathlets()
            .get(DEFAULT_PATHLET, TrafficClass::BEST_EFFORT)
            .expect("still interned")
            .quarantined_until
            .is_some());
        // Pathlet 7 is now the only live path: no amount of timeouts may
        // quarantine it.
        assert!(s
            .pathlets()
            .get(PathletId(7), TrafficClass::BEST_EFFORT)
            .expect("still interned")
            .quarantined_until
            .is_none());
        assert_eq!(s.active_pathlet().0, PathletId(7));
    }

    #[test]
    fn mtu_sized_message_is_single_packet() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(2, 1460, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        let h = data_hdr(&out[0]);
        assert_eq!(h.msg_len_pkts, 1);
        assert!(h.is_last_pkt());
    }

    #[test]
    fn foreign_message_ids_are_ignored() {
        let mut s = sender();
        let mut out = Vec::new();
        s.send_message(2, 1460, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        // SACK/NACK for ids below the base, far above the slab, and from
        // another sender's range must all be ignored without panicking.
        for bogus in [0u64, 999, 1001, 1 << 40] {
            let hdr = MtpHeader {
                pkt_type: PktType::Ack,
                sack: vec![SackEntry {
                    msg: MsgId(bogus),
                    pkt: PktNum(0),
                }],
                nack: vec![SackEntry {
                    msg: MsgId(bogus),
                    pkt: PktNum(0),
                }],
                ..MtpHeader::default()
            };
            let mut o = Vec::new();
            s.on_ack(Time::ZERO + Duration::from_micros(1), &hdr, &mut o);
        }
        assert_eq!(s.stats.msgs_completed, 0);
        assert_eq!(s.stats.retransmissions, 0);
    }

    /// A SACK or NACK naming a packet below `base` (acknowledged) or from
    /// `next_unsent` on (never sent, or past the message) finds no record:
    /// it moves no counter, no window and no span, and emits nothing.
    #[test]
    fn feedback_outside_the_packet_span_is_a_no_op() {
        let cfg = MtpConfig {
            cc: crate::PathletCc::Fixed(10 * 1460),
            ..MtpConfig::default()
        };
        let mut s = MtpSender::new(cfg, 1, EntityId(0), 1000);
        let mut out = Vec::new();
        let id = s.send_message(
            2,
            100 * 1460,
            0,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        assert_eq!(out.len(), 10);
        let first: Vec<&Packet> = out.iter().take(3).collect();
        let mut o = Vec::new();
        s.on_ack(
            Time::ZERO + Duration::from_micros(10),
            &ack_for(&first),
            &mut o,
        );
        assert_eq!(o.len(), 3, "three acked packets admit three more");
        let span = |s: &MtpSender| {
            let m = &s.msgs[0];
            (m.base, m.next_unsent, m.pkts.len(), m.acked)
        };
        assert_eq!(span(&s), (3, 13, 10, 3), "the acked front is popped");
        let inflight = |s: &MtpSender| {
            s.pathlets()
                .get(DEFAULT_PATHLET, TrafficClass::BEST_EFFORT)
                .expect("charged")
                .inflight
        };
        let stats = format!("{:?}", s.stats);
        let charged = inflight(&s);
        let queued = s.inflight.len();
        let rto = s.next_deadline();
        for pkt in [0, 2, 13, 50, 99, 100, u32::MAX] {
            let entry = [SackEntry {
                msg: id,
                pkt: PktNum(pkt),
            }];
            for hdr in [
                MtpHeader {
                    pkt_type: PktType::Ack,
                    sack: entry.to_vec(),
                    ..MtpHeader::default()
                },
                MtpHeader {
                    pkt_type: PktType::Nack,
                    nack: entry.to_vec(),
                    ..MtpHeader::default()
                },
            ] {
                let mut o = Vec::new();
                s.on_ack(Time::ZERO + Duration::from_micros(20), &hdr, &mut o);
                assert!(o.is_empty(), "packet {pkt}: nothing emitted");
                assert_eq!(format!("{:?}", s.stats), stats, "packet {pkt}");
                assert_eq!(inflight(&s), charged, "packet {pkt}");
                assert_eq!(span(&s), (3, 13, 10, 3), "packet {pkt}");
                assert_eq!(s.inflight.len(), queued, "packet {pkt}");
                assert_eq!(s.next_deadline(), rto, "packet {pkt}");
            }
        }
    }

    /// A hole at the span's front holds `base` while later packets are
    /// acknowledged; its repair pops every acknowledged record behind it.
    #[test]
    fn repairing_the_front_hole_pops_the_acked_span() {
        let mut s = sender();
        let mut out = Vec::new();
        let id = s.send_message(
            2,
            40 * 1460,
            0,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        assert_eq!(out.len(), 10);
        let rest: Vec<&Packet> = out.iter().skip(1).collect();
        let mut ack = ack_for(&rest);
        ack.nack = vec![SackEntry {
            msg: id,
            pkt: PktNum(0),
        }];
        let mut o = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(10), &ack, &mut o);
        assert_eq!(s.stats.retransmissions, 1);
        let retx = o.iter().find(|p| data_hdr(p).is_retx()).expect("repair");
        assert_eq!(data_hdr(retx).pkt_num, PktNum(0));
        let sent = s.msgs[0].next_unsent;
        assert_eq!(s.msgs[0].base, 0, "the hole holds the front");
        assert_eq!(s.msgs[0].pkts.len() as u32, sent);
        let repair = ack_for(&[retx]);
        let mut o2 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(20), &repair, &mut o2);
        assert_eq!(s.msgs[0].base, 10, "base jumps past the acked records");
        assert_eq!(s.msgs[0].pkts.len() as u32, s.msgs[0].next_unsent - 10);
    }

    #[test]
    fn ready_list_preserves_priority_then_fifo_order() {
        let mut s = sender();
        let mut out = Vec::new();
        // Fill the window so later submissions queue.
        s.send_message(
            2,
            1_000_000,
            3,
            TrafficClass::BEST_EFFORT,
            Time::ZERO,
            &mut out,
        );
        let first_burst: Vec<&Packet> = out.iter().collect();
        let ack = ack_for(&first_burst);
        out.clear();
        // Two messages at pri 1 (FIFO between them) and one at pri 0.
        let m_a = s.send_message(2, 1460, 1, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        let m_b = s.send_message(2, 1460, 1, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        let m_c = s.send_message(2, 1460, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        assert!(out.is_empty(), "window still full");
        let mut out2 = Vec::new();
        s.on_ack(Time::ZERO + Duration::from_micros(5), &ack, &mut out2);
        let order: Vec<MsgId> = out2.iter().map(|p| data_hdr(p).msg_id).collect();
        let pos = |id: MsgId| order.iter().position(|&x| x == id).expect("sent");
        assert!(pos(m_c) < pos(m_a), "pri 0 before pri 1");
        assert!(pos(m_a) < pos(m_b), "same pri drains in submission order");
    }
}
