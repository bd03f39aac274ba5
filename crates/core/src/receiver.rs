//! The sans-IO MTP receiver.
//!
//! [`MtpReceiver`] reassembles messages from `(msg_id, pkt_num)`-addressed
//! packets, acknowledges every data packet with a SACK, NACKs holes the
//! moment they are observable, and echoes the accumulated path-feedback
//! list back to the sender (paper §3.1.1: the receiver "copies this list to
//! the ACK Path Feedback list").
//!
//! Two properties of the MTP design make the receiver cheap:
//!
//! * messages start at packet 0 and carry their total length in every
//!   packet, so the reassembly buffer is sized on first contact;
//! * the network never reorders packets *within* a message (atomic message
//!   processing, §3.1.2), so `pkt_num` skipping `max_seen + 1` is proof of
//!   loss — the receiver NACKs immediately instead of waiting for a
//!   timeout, NDP-style. Trimmed headers are NACKed the same way.

use std::collections::VecDeque;

use mtp_sim::packet::{Headers, Packet};
use mtp_sim::time::{Duration, Time};
use mtp_wire::{
    EcnCodepoint, Feedback, MsgId, MtpHeader, PathFeedback, PktNum, PktType, SackEntry,
};

use crate::sender::DEFAULT_PATHLET;

/// A message delivered to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgDelivered {
    /// The message.
    pub id: MsgId,
    /// Total message bytes.
    pub bytes: u32,
    /// The sending host's address.
    pub src: u16,
    /// When the first packet of the message arrived.
    pub first_seen: Time,
    /// When the last packet arrived.
    pub completed: Time,
    /// The message's traffic class.
    pub tc: mtp_wire::TrafficClass,
    /// The message's priority.
    pub pri: u8,
}

/// Per-message received-packet bitmap. Messages up to 128 packets — in
/// practice almost all of them — keep their bits inline in the `InMsg`
/// itself; only larger messages pay for a heap spill. This keeps the
/// per-packet test/set on the cache line the reassembly hot path has
/// already loaded and makes message setup allocation-free.
#[derive(Debug)]
enum Bitmap {
    Inline([u64; 2]),
    Spilled(Vec<u64>),
}

impl Bitmap {
    fn for_pkts(len_pkts: u32) -> Bitmap {
        if len_pkts <= 128 {
            Bitmap::Inline([0; 2])
        } else {
            Bitmap::Spilled(vec![0u64; (len_pkts as usize).div_ceil(64)])
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match self {
            Bitmap::Inline(w) => w,
            Bitmap::Spilled(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            Bitmap::Inline(w) => w,
            Bitmap::Spilled(v) => v,
        }
    }
}

#[derive(Debug)]
struct InMsg {
    id: MsgId,
    src: u16,
    len_bytes: u32,
    len_pkts: u32,
    bitmap: Bitmap,
    received: u32,
    first_seen: Time,
    /// Highest packet number seen (for gap detection).
    max_seen: Option<u32>,
    /// Packets `< nacked_below` have already been NACKed once.
    nacked_below: u32,
    tc: mtp_wire::TrafficClass,
    pri: u8,
}

impl InMsg {
    fn test(&self, i: u32) -> bool {
        self.bitmap.words()[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    fn set(&mut self, i: u32) -> bool {
        let w = &mut self.bitmap.words_mut()[(i / 64) as usize];
        let b = 1u64 << (i % 64);
        let was = *w & b != 0;
        *w |= b;
        was
    }
}

/// Counters kept by a receiver.
#[derive(Debug, Clone, Copy, Default)]
pub struct MtpReceiverStats {
    /// Data packets processed (including duplicates and trimmed headers).
    pub pkts_seen: u64,
    /// Duplicate data packets.
    pub duplicates: u64,
    /// Trimmed headers received.
    pub trimmed: u64,
    /// NACK entries emitted.
    pub nacks_sent: u64,
    /// Messages fully delivered.
    pub msgs_delivered: u64,
    /// Payload bytes newly received (first copy of each packet).
    pub goodput_bytes: u64,
}

/// One MTP receiving endpoint.
///
/// Reassembly state lives in a slab indexed by an open-addressed id→slot
/// probe map (ids arrive from many senders, so — unlike the sender's
/// window — slots can't be computed arithmetically). The probe map stores
/// `slot + 1` (0 = empty); collection deletes by backward shift, so there
/// are no tombstones and the per-packet lookup stays a single
/// multiply-and-probe.
#[derive(Debug)]
pub struct MtpReceiver {
    /// This host's address (used as `src_port` on ACKs).
    addr: u16,
    msgs: Vec<InMsg>,
    /// Open-addressed map from message id to `slot + 1` in `msgs`.
    map: Vec<u32>,
    events: Vec<MsgDelivered>,
    /// Payload bytes of incomplete messages currently held.
    buffered: u64,
    /// Total SACK entries per ACK, counting the fresh one (min 1). Above
    /// 1, each ACK re-echoes the most recent receptions, so the loss of
    /// any single ACK no longer strands its packet at the sender until an
    /// RTO — the same redundancy TCP gets from overlapping SACK blocks.
    sack_redundancy: usize,
    /// Ring of the most recent receptions, echoed for redundancy.
    recent: Vec<SackEntry>,
    /// Next write position in `recent`.
    recent_head: usize,
    /// If set, completed-message bookkeeping becomes collectable this
    /// long after completion and [`poll_at`](Self::poll_at) surfaces the
    /// deadline; `None` (the default) never collects, preserving the
    /// exact behaviour sim-driven receivers have always had.
    gc_linger: Option<Duration>,
    /// `(completed_at, id)` of every resident completed message, oldest
    /// first — completions are monotone in `now`, so arrival order is
    /// expiry order. Kept only when a linger is set.
    done: VecDeque<(Time, MsgId)>,
    /// Messages in the slab that have not completed.
    incomplete: usize,
    /// Counters.
    pub stats: MtpReceiverStats,
}

#[inline]
fn probe_start(id: u64, len: usize) -> usize {
    // Fibonacci hashing spreads the monotone id ranges senders allocate
    // from; `len` is always a power of two.
    (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (len - 1)
}

impl MtpReceiver {
    /// A receiver at address `addr`.
    pub fn new(addr: u16) -> MtpReceiver {
        MtpReceiver {
            addr,
            msgs: Vec::new(),
            map: Vec::new(),
            events: Vec::new(),
            buffered: 0,
            sack_redundancy: 1,
            recent: Vec::new(),
            recent_head: 0,
            gc_linger: None,
            done: VecDeque::new(),
            incomplete: 0,
            stats: MtpReceiverStats::default(),
        }
    }

    /// Echo up to `k - 1` recent receptions in every ACK in addition to
    /// the fresh SACK (so `k` entries total). `k = 1` (the default) is
    /// the plain one-packet-per-ACK behavior. Turn this up on topologies
    /// where the reverse path can lose ACKs — e.g. sprayed ACK fan-out
    /// with a failed return path — so a dropped ACK is covered by its
    /// successors instead of costing the sender a full RTO.
    pub fn with_sack_redundancy(mut self, k: usize) -> MtpReceiver {
        self.sack_redundancy = k.max(1);
        self
    }

    /// Collect completed-message bookkeeping `linger` after completion.
    /// The linger covers straggling duplicates: while a completed record
    /// is resident, a late copy is recognized as a duplicate; after
    /// collection it is re-acknowledged as if new (harmless — SACKs are
    /// idempotent at the sender — but it would inflate the duplicate
    /// stats a long-running wire receiver uses for monitoring).
    /// [`poll_at`](Self::poll_at) exposes the next collection deadline
    /// and [`on_poll`](Self::on_poll) performs it.
    pub fn with_gc_linger(mut self, linger: Duration) -> MtpReceiver {
        self.gc_linger = Some(linger);
        self
    }

    /// The next instant this receiver wants to be driven without packet
    /// arrival. The receiver has no protocol timers — ACKs and NACKs are
    /// emitted inline from [`on_data`](Self::on_data) — so the only
    /// deadline is the optional completed-message GC: the oldest resident
    /// completion time plus the configured linger. `None` when no linger
    /// is configured or nothing has completed.
    pub fn poll_at(&self) -> Option<Time> {
        let linger = self.gc_linger?;
        self.done.front().map(|&(t, _)| t + linger)
    }

    /// Run deferred work due at `now` — currently completed-message GC —
    /// and return how many records were collected. Call when the clock
    /// reaches [`poll_at`](Self::poll_at); early calls are no-ops.
    pub fn on_poll(&mut self, now: Time) -> usize {
        let Some(linger) = self.gc_linger else {
            return 0;
        };
        let mut collected = 0;
        while let Some(&(t, id)) = self.done.front() {
            if t + linger > now {
                break;
            }
            self.done.pop_front();
            self.remove(id);
            collected += 1;
        }
        collected
    }

    /// Drop the record of `id`: O(probe run), independent of how many
    /// records are resident.
    fn remove(&mut self, id: MsgId) {
        let mask = self.map.len() - 1;
        let mut hole = self.cell_of(id).expect("resident until collected");
        let slot = self.map[hole] as usize - 1;
        // Backward-shift deletion: pull each later entry of the probe run
        // into the hole unless that would move it before its home cell.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some(s) = self.map[j].checked_sub(1) else {
                break;
            };
            let home = probe_start(self.msgs[s as usize].id.0, self.map.len());
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.map[hole] = self.map[j];
                hole = j;
            }
        }
        self.map[hole] = 0;
        // The slab's last record moves into the freed slot: re-point its
        // cell.
        let last = self.msgs.len() - 1;
        if slot != last {
            let cell = self.cell_of(self.msgs[last].id).expect("still indexed");
            self.map[cell] = slot as u32 + 1;
        }
        self.msgs.swap_remove(slot);
    }

    /// The map cell indexing `id`, if present.
    #[inline]
    fn cell_of(&self, id: MsgId) -> Option<usize> {
        if self.map.is_empty() {
            return None;
        }
        let mut i = probe_start(id.0, self.map.len());
        loop {
            let slot = self.map[i].checked_sub(1)?;
            if self.msgs[slot as usize].id == id {
                return Some(i);
            }
            i = (i + 1) & (self.map.len() - 1);
        }
    }

    /// The slab slot holding `id`, if present.
    #[inline]
    fn lookup(&self, id: MsgId) -> Option<usize> {
        Some(self.map[self.cell_of(id)?] as usize - 1)
    }

    /// Rebuild the probe map from the slab (doubling it while the load
    /// factor would exceed 3/4).
    fn rebuild_map(&mut self) {
        let mut len = self.map.len().max(16);
        while (self.msgs.len() + 1) * 4 > len * 3 {
            len *= 2;
        }
        self.map.clear();
        self.map.resize(len, 0);
        for slot in 0..self.msgs.len() {
            let mut i = probe_start(self.msgs[slot].id.0, len);
            while self.map[i] != 0 {
                i = (i + 1) & (len - 1);
            }
            self.map[i] = slot as u32 + 1;
        }
    }

    /// Insert a new message at the next slab slot and index it.
    fn insert(&mut self, msg: InMsg) -> usize {
        let slot = self.msgs.len();
        self.msgs.push(msg);
        self.incomplete += 1;
        if (self.msgs.len() + 1) * 4 > self.map.len() * 3 {
            self.rebuild_map();
            return slot;
        }
        let mut i = probe_start(self.msgs[slot].id.0, self.map.len());
        while self.map[i] != 0 {
            i = (i + 1) & (self.map.len() - 1);
        }
        self.map[i] = slot as u32 + 1;
        slot
    }

    /// Append all pending delivery events to `out`, clearing the internal
    /// queue but keeping its capacity. Callers reuse one buffer across
    /// calls so steady-state event delivery never allocates.
    pub fn drain_events(&mut self, out: &mut Vec<MsgDelivered>) {
        out.append(&mut self.events);
    }

    /// Messages currently in reassembly (incomplete).
    pub fn in_reassembly(&self) -> usize {
        self.incomplete
    }

    /// Message records currently held: those in reassembly plus completed
    /// ones not yet collected.
    pub fn resident(&self) -> usize {
        self.msgs.len()
    }

    /// Payload bytes held for incomplete messages. Bounded per message by
    /// the advertised `msg_len_bytes` — the "know in advance how much
    /// buffering is needed" property of §3.1.2.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered
    }

    /// Process a data packet; returns the ACK to transmit (every data
    /// packet is acknowledged immediately) and the number of new payload
    /// bytes it contributed.
    pub fn on_data(&mut self, now: Time, hdr: &MtpHeader, ecn: EcnCodepoint) -> (Packet, u64) {
        debug_assert_eq!(hdr.pkt_type, PktType::Data);
        self.stats.pkts_seen += 1;
        let trimmed = hdr.is_trimmed();
        let id = hdr.msg_id;
        let slot = self.lookup(id).unwrap_or_else(|| {
            self.insert(InMsg {
                id,
                src: hdr.src_port,
                len_bytes: hdr.msg_len_bytes,
                len_pkts: hdr.msg_len_pkts,
                bitmap: Bitmap::for_pkts(hdr.msg_len_pkts),
                received: 0,
                first_seen: now,
                max_seen: None,
                nacked_below: 0,
                tc: hdr.tc,
                pri: hdr.msg_pri,
            })
        });
        let msg = &mut self.msgs[slot];

        let pkt_num = hdr.pkt_num.0.min(msg.len_pkts.saturating_sub(1));
        // The pooled header's retained Vec capacities are the reusable
        // buffers: SACK/NACK/feedback entries are written straight into
        // the ACK being built, so steady state performs no allocation.
        let mut ack_hdr = mtp_sim::pool::take_header();
        let mut newly = 0u64;

        if trimmed {
            // NDP-style: the payload was cut; NACK so the sender repairs
            // without waiting for an RTO.
            self.stats.trimmed += 1;
            if !msg.test(pkt_num) {
                ack_hdr.nack.push(SackEntry {
                    msg: id,
                    pkt: PktNum(pkt_num),
                });
            }
        } else {
            let dup = msg.set(pkt_num);
            if dup {
                self.stats.duplicates += 1;
            } else {
                msg.received += 1;
                newly = hdr.pkt_len as u64;
                self.stats.goodput_bytes += newly;
                self.buffered += newly;
                if msg.received == msg.len_pkts {
                    self.incomplete -= 1;
                    if self.gc_linger.is_some() {
                        self.done.push_back((now, id));
                    }
                    self.stats.msgs_delivered += 1;
                    self.buffered = self.buffered.saturating_sub(msg.len_bytes as u64);
                    self.events.push(MsgDelivered {
                        id,
                        bytes: msg.len_bytes,
                        src: msg.src,
                        first_seen: msg.first_seen,
                        completed: now,
                        tc: msg.tc,
                        pri: msg.pri,
                    });
                }
            }
            ack_hdr.sack.push(SackEntry {
                msg: id,
                pkt: PktNum(pkt_num),
            });
            // Redundant echo of recent receptions (possibly of other
            // messages): a lost ACK is then covered by the next few ACKs
            // instead of stranding its packet until the sender's RTO. The
            // sender treats SACKs idempotently, so repeats are free.
            if self.sack_redundancy > 1 {
                let fresh = SackEntry {
                    msg: id,
                    pkt: PktNum(pkt_num),
                };
                for e in &self.recent {
                    if *e != fresh {
                        ack_hdr.sack.push(*e);
                    }
                }
                if self.recent.len() < self.sack_redundancy - 1 {
                    self.recent.push(fresh);
                } else {
                    self.recent[self.recent_head] = fresh;
                    self.recent_head = (self.recent_head + 1) % self.recent.len();
                }
            }
        }

        // Gap detection: within a message the network preserves order, so
        // skipping pkt numbers proves loss. NACK each hole once.
        // Retransmissions arrive out of order by design; skip the check.
        if !hdr.is_retx() {
            let expected = msg.max_seen.map(|m| m + 1).unwrap_or(0);
            if pkt_num > expected {
                let from = expected.max(msg.nacked_below);
                for missing in from..pkt_num {
                    if !msg.test(missing) && ack_hdr.nack.len() < 255 {
                        ack_hdr.nack.push(SackEntry {
                            msg: id,
                            pkt: PktNum(missing),
                        });
                    }
                }
                msg.nacked_below = msg.nacked_below.max(pkt_num);
            }
            msg.max_seen = Some(msg.max_seen.map_or(pkt_num, |m| m.max(pkt_num)));
        }
        self.stats.nacks_sent += ack_hdr.nack.len() as u64;

        // Echo the path feedback, upgrading with the IP-level CE mark: if a
        // non-MTP-aware queue marked the packet, attribute the mark to the
        // stamped pathlets (or to the default pathlet if none stamped).
        Self::echo_feedback_into(hdr, ecn.is_ce(), &mut ack_hdr.ack_path_feedback);

        ack_hdr.src_port = self.addr;
        ack_hdr.dst_port = hdr.src_port;
        ack_hdr.pkt_type = PktType::Ack;
        ack_hdr.msg_pri = hdr.msg_pri;
        ack_hdr.tc = hdr.tc;
        ack_hdr.flags = 0;
        ack_hdr.msg_id = id;
        ack_hdr.entity = hdr.entity;
        ack_hdr.msg_len_pkts = hdr.msg_len_pkts;
        ack_hdr.msg_len_bytes = hdr.msg_len_bytes;
        ack_hdr.pkt_num = hdr.pkt_num;
        ack_hdr.pkt_len = 0;
        ack_hdr.pkt_offset = hdr.pkt_offset;
        let wire = ack_hdr.wire_len() as u32;
        let mut ack = Packet::new(Headers::Mtp(ack_hdr), wire);
        ack.sent_at = now;
        ack.ecn = EcnCodepoint::NotEct;
        (ack, newly)
    }

    /// Copy `hdr`'s accumulated path feedback into `out` (assumed empty),
    /// upgrading/synthesizing ECN marks as [`on_data`](Self::on_data)
    /// describes.
    fn echo_feedback_into(hdr: &MtpHeader, ce: bool, out: &mut Vec<PathFeedback>) {
        debug_assert!(out.is_empty());
        let mut has_mark_entry = false;
        for fb in &hdr.path_feedback {
            let mut e = *fb;
            if let Feedback::EcnMark { ce: stamped } = e.feedback {
                has_mark_entry = true;
                e.feedback = Feedback::EcnMark { ce: stamped || ce };
            }
            out.push(e);
        }
        if ce && !has_mark_entry {
            let (path, tc) = out
                .first()
                .map(|e| (e.path, e.tc))
                .unwrap_or((DEFAULT_PATHLET, hdr.tc));
            out.push(PathFeedback {
                path,
                tc,
                feedback: Feedback::EcnMark { ce: true },
            });
        }
        if out.is_empty() {
            // No MTP-aware device stamped anything: report the whole network
            // as the default pathlet, unmarked, so the sender's window can
            // grow on clean ACKs.
            out.push(PathFeedback {
                path: DEFAULT_PATHLET,
                tc: hdr.tc,
                feedback: Feedback::EcnMark { ce: false },
            });
        }
        if out.len() > 255 {
            out.truncate(255);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_wire::types::flags;
    use mtp_wire::{PathletId, TrafficClass};

    fn data(msg: u64, pkt: u32, n_pkts: u32, len: u16) -> MtpHeader {
        MtpHeader {
            src_port: 1,
            dst_port: 2,
            pkt_type: PktType::Data,
            msg_id: MsgId(msg),
            msg_len_pkts: n_pkts,
            msg_len_bytes: n_pkts * len as u32,
            pkt_num: PktNum(pkt),
            pkt_len: len,
            pkt_offset: pkt * len as u32,
            flags: if pkt == n_pkts - 1 {
                flags::LAST_PKT
            } else {
                0
            },
            ..MtpHeader::default()
        }
    }

    fn ack_of(p: &Packet) -> &MtpHeader {
        p.headers.as_mtp().unwrap()
    }

    fn events(r: &mut MtpReceiver) -> Vec<MsgDelivered> {
        let mut ev = Vec::new();
        r.drain_events(&mut ev);
        ev
    }

    #[test]
    fn acks_every_packet_with_sack() {
        let mut r = MtpReceiver::new(2);
        let (ack, newly) = r.on_data(Time::ZERO, &data(5, 0, 3, 1000), EcnCodepoint::Ect0);
        assert_eq!(newly, 1000);
        let h = ack_of(&ack);
        assert_eq!(h.pkt_type, PktType::Ack);
        assert_eq!(
            h.sack,
            vec![SackEntry {
                msg: MsgId(5),
                pkt: PktNum(0)
            }]
        );
        assert_eq!(h.src_port, 2);
        assert_eq!(h.dst_port, 1);
    }

    #[test]
    fn completes_message_once() {
        let mut r = MtpReceiver::new(2);
        for pkt in 0..3 {
            r.on_data(Time::ZERO, &data(5, pkt, 3, 1000), EcnCodepoint::Ect0);
        }
        let ev = events(&mut r);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].bytes, 3000);
        assert_eq!(r.stats.msgs_delivered, 1);
        // A duplicate afterwards re-acks but does not re-deliver.
        let (_, newly) = r.on_data(Time::ZERO, &data(5, 1, 3, 1000), EcnCodepoint::Ect0);
        assert_eq!(newly, 0);
        assert_eq!(r.stats.duplicates, 1);
        assert!(events(&mut r).is_empty());
    }

    #[test]
    fn gap_is_nacked_immediately_and_once() {
        let mut r = MtpReceiver::new(2);
        r.on_data(Time::ZERO, &data(5, 0, 5, 1000), EcnCodepoint::Ect0);
        // Packet 3 arrives: 1 and 2 are proven lost.
        let (ack, _) = r.on_data(Time::ZERO, &data(5, 3, 5, 1000), EcnCodepoint::Ect0);
        let h = ack_of(&ack);
        assert_eq!(
            h.nack,
            vec![
                SackEntry {
                    msg: MsgId(5),
                    pkt: PktNum(1)
                },
                SackEntry {
                    msg: MsgId(5),
                    pkt: PktNum(2)
                },
            ]
        );
        // Packet 4 arrives: holes already reported, no duplicate NACKs.
        let (ack2, _) = r.on_data(Time::ZERO, &data(5, 4, 5, 1000), EcnCodepoint::Ect0);
        assert!(ack_of(&ack2).nack.is_empty());
        assert_eq!(r.stats.nacks_sent, 2);
    }

    #[test]
    fn retransmissions_do_not_trigger_gap_detection() {
        let mut r = MtpReceiver::new(2);
        r.on_data(Time::ZERO, &data(5, 0, 5, 1000), EcnCodepoint::Ect0);
        let mut h = data(5, 4, 5, 1000);
        h.flags |= flags::RETX;
        let (ack, _) = r.on_data(Time::ZERO, &h, EcnCodepoint::Ect0);
        assert!(
            ack_of(&ack).nack.is_empty(),
            "retx arrives out of order by design"
        );
    }

    #[test]
    fn trimmed_header_is_nacked_not_counted() {
        let mut r = MtpReceiver::new(2);
        let mut h = data(5, 0, 2, 1000);
        h.flags |= flags::TRIMMED;
        let (ack, newly) = r.on_data(Time::ZERO, &h, EcnCodepoint::Ect0);
        assert_eq!(newly, 0);
        let ah = ack_of(&ack);
        assert!(ah.sack.is_empty());
        assert_eq!(
            ah.nack,
            vec![SackEntry {
                msg: MsgId(5),
                pkt: PktNum(0)
            }]
        );
        assert_eq!(r.stats.trimmed, 1);
    }

    #[test]
    fn ce_without_stamps_synthesizes_default_pathlet_mark() {
        let mut r = MtpReceiver::new(2);
        let (ack, _) = r.on_data(Time::ZERO, &data(5, 0, 1, 1000), EcnCodepoint::Ce);
        let fb = &ack_of(&ack).ack_path_feedback;
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].path, DEFAULT_PATHLET);
        assert_eq!(fb[0].feedback, Feedback::EcnMark { ce: true });
    }

    #[test]
    fn clean_ack_reports_unmarked_default_pathlet() {
        let mut r = MtpReceiver::new(2);
        let (ack, _) = r.on_data(Time::ZERO, &data(5, 0, 1, 1000), EcnCodepoint::Ect0);
        let fb = &ack_of(&ack).ack_path_feedback;
        assert_eq!(fb[0].feedback, Feedback::EcnMark { ce: false });
    }

    #[test]
    fn ce_upgrades_stamped_pathlet_mark() {
        let mut r = MtpReceiver::new(2);
        let mut h = data(5, 0, 1, 1000);
        h.path_feedback = vec![PathFeedback {
            path: PathletId(3),
            tc: TrafficClass::BEST_EFFORT,
            feedback: Feedback::EcnMark { ce: false },
        }];
        let (ack, _) = r.on_data(Time::ZERO, &h, EcnCodepoint::Ce);
        let fb = &ack_of(&ack).ack_path_feedback;
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].path, PathletId(3));
        assert_eq!(fb[0].feedback, Feedback::EcnMark { ce: true });
    }

    #[test]
    fn non_mark_stamps_are_echoed_and_ce_appended() {
        let mut r = MtpReceiver::new(2);
        let mut h = data(5, 0, 1, 1000);
        h.path_feedback = vec![PathFeedback {
            path: PathletId(3),
            tc: TrafficClass::BEST_EFFORT,
            feedback: Feedback::QueueDepth { bytes: 4096 },
        }];
        let (ack, _) = r.on_data(Time::ZERO, &h, EcnCodepoint::Ce);
        let fb = &ack_of(&ack).ack_path_feedback;
        assert_eq!(fb.len(), 2);
        assert_eq!(fb[0].feedback, Feedback::QueueDepth { bytes: 4096 });
        assert_eq!(
            fb[1].path,
            PathletId(3),
            "mark attributed to the stamped pathlet"
        );
        assert_eq!(fb[1].feedback, Feedback::EcnMark { ce: true });
    }

    #[test]
    fn single_packet_message_delivers() {
        let mut r = MtpReceiver::new(2);
        let (_, newly) = r.on_data(Time::ZERO, &data(9, 0, 1, 777), EcnCodepoint::Ect0);
        assert_eq!(newly, 777);
        let ev = events(&mut r);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].bytes, 777);
        assert_eq!(r.in_reassembly(), 0);
    }

    #[test]
    fn echoed_feedback_wire_bytes_are_stable() {
        // Pin the exact wire encoding of an echoed-feedback ACK: building
        // the ACK in a pooled header (with whatever stale capacity it
        // carries) must emit byte-identical output to a fresh one.
        let mut h = data(5, 0, 1, 1000);
        h.path_feedback = vec![
            PathFeedback {
                path: PathletId(3),
                tc: TrafficClass::BEST_EFFORT,
                feedback: Feedback::RcpRate { mbps: 40_000 },
            },
            PathFeedback {
                path: PathletId(9),
                tc: TrafficClass(2),
                feedback: Feedback::EcnMark { ce: false },
            },
        ];
        fn wire_bytes(h: &MtpHeader) -> Vec<u8> {
            let mut buf = vec![0u8; 2048];
            let n = h.emit(&mut buf).expect("emit");
            buf.truncate(n);
            buf
        }
        let mut r1 = MtpReceiver::new(2);
        let (ack1, _) = r1.on_data(Time::ZERO, &h, EcnCodepoint::Ce);
        let bytes1 = wire_bytes(ack_of(&ack1));

        // Same ACK built from a header recycled with large dirty lists.
        let mut dirty = Box::<MtpHeader>::default();
        dirty.sack = vec![
            SackEntry {
                msg: MsgId(77),
                pkt: PktNum(4)
            };
            64
        ];
        dirty.ack_path_feedback = vec![
            PathFeedback {
                path: PathletId(200),
                tc: TrafficClass(7),
                feedback: Feedback::Delay { ns: 1 },
            };
            64
        ];
        mtp_sim::pool::recycle_header(dirty);
        let mut r2 = MtpReceiver::new(2);
        let (ack2, _) = r2.on_data(Time::ZERO, &h, EcnCodepoint::Ce);
        let h2 = ack_of(&ack2);
        assert_eq!(wire_bytes(h2), bytes1);

        // And the echoed list content itself: stamped entries in order,
        // EcnMark upgraded to carry the IP-level CE.
        assert_eq!(
            h2.ack_path_feedback,
            vec![
                PathFeedback {
                    path: PathletId(3),
                    tc: TrafficClass::BEST_EFFORT,
                    feedback: Feedback::RcpRate { mbps: 40_000 },
                },
                PathFeedback {
                    path: PathletId(9),
                    tc: TrafficClass(2),
                    feedback: Feedback::EcnMark { ce: true },
                },
            ]
        );
    }
}
