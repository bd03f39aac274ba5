//! The sans-IO MTP receiver.
//!
//! [`MtpReceiver`] reassembles messages from `(msg_id, pkt_num)`-addressed
//! packets, acknowledges every data packet with a SACK, NACKs holes the
//! moment they are observable, and echoes the accumulated path-feedback
//! list back to the sender (paper §3.1.1: the receiver "copies this list to
//! the ACK Path Feedback list").
//!
//! MTP acknowledges `(message, packet)` pairs as lists, so nothing ties one
//! ACK to one packet. [`MtpReceiver::ack_into`] acknowledges a packet into
//! the ACK its caller is building: the simulator, which delivers one packet
//! per event, starts a new ACK for each ([`MtpReceiver::on_data`]); the
//! wire listener, whose socket drain delivers tens of frames at once, keeps
//! one ACK open across the drain while the packets' echoed feedback agrees.
//!
//! Two properties of the MTP design make the receiver cheap:
//!
//! * messages start at packet 0 and carry their total length in every
//!   packet, so the reassembly buffer is sized on first contact;
//! * the network never reorders packets *within* a message (atomic message
//!   processing, §3.1.2), so `pkt_num` skipping `max_seen + 1` is proof of
//!   loss — the receiver NACKs immediately instead of waiting for a
//!   timeout, NDP-style. Trimmed headers are NACKed the same way.

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
/// itself; only larger messages spill to the heap, into a buffer a
/// completed one left behind. This keeps the per-packet test/set on the
/// cache line the reassembly hot path has already loaded and makes
/// message setup allocation-free once warm.
#[derive(Debug)]
enum Bitmap {
    Inline([u64; 2]),
    Spilled(Vec<u64>),
}

impl Bitmap {
    /// A cleared bitmap, spilling into a buffer from `spare`.
    fn for_pkts(len_pkts: u32, spare: &mut Vec<Vec<u64>>) -> Bitmap {
        if len_pkts <= 128 {
            Bitmap::Inline([0; 2])
        } else {
            let mut words = spare.pop().unwrap_or_default();
            words.clear();
            words.resize((len_pkts as usize).div_ceil(64), 0);
            Bitmap::Spilled(words)
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

    fn set(&mut self, i: u32) {
        self.bitmap.words_mut()[(i / 64) as usize] |= 1 << (i % 64);
    }
}

/// Counters kept by a receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// The ids of every completed message, as sorted, disjoint, non-adjacent
/// inclusive runs `lo..=hi`. A sender allocates ids `msg_id_base + k`, so
/// one sender's completions form one run, split only where a message is
/// still in reassembly (or was given up); many senders give one run each.
#[derive(Debug, Default)]
struct CompletedIds {
    runs: Vec<(u64, u64)>,
}

impl CompletedIds {
    #[inline]
    fn contains(&self, id: u64) -> bool {
        let i = self.runs.partition_point(|&(lo, _)| lo <= id);
        i > 0 && id <= self.runs[i - 1].1
    }

    /// Add `id`, which is not held yet, merging the runs it touches.
    /// Neither `+ 1` overflows: a run ending below `id` ends below
    /// `u64::MAX`, and so does `id` when a run starts above it.
    fn insert(&mut self, id: u64) {
        let i = self.runs.partition_point(|&(lo, _)| lo <= id);
        let joins_prev = i > 0 && self.runs[i - 1].1 + 1 == id;
        let joins_next = self.runs.get(i).is_some_and(|&(lo, _)| lo == id + 1);
        match (joins_prev, joins_next) {
            (true, true) => {
                self.runs[i - 1].1 = self.runs[i].1;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].1 = id,
            (false, true) => self.runs[i].0 = id,
            (false, false) => self.runs.insert(i, (id, id)),
        }
    }
}

/// One MTP receiving endpoint.
///
/// Reassembly state lives in a slab indexed by an open-addressed id→slot
/// probe map (ids arrive from many senders, so — unlike the sender's
/// window — slots can't be computed arithmetically). The probe map stores
/// `slot + 1` (0 = empty); a record is deleted by backward shift as its
/// message completes, so there are no tombstones and the per-packet
/// lookup stays a single multiply-and-probe. Only the id stays behind, in
/// `CompletedIds`, to tell a copy arriving however late.
#[derive(Debug)]
pub struct MtpReceiver {
    /// This host's address (used as `src_port` on ACKs).
    addr: u16,
    /// Records of the messages in reassembly.
    msgs: Vec<InMsg>,
    /// Open-addressed map from message id to `slot + 1` in `msgs`.
    map: Vec<u32>,
    completed: CompletedIds,
    /// Heap bitmaps of completed messages, reused by later large ones.
    spare_bitmaps: Vec<Vec<u64>>,
    events: Vec<MsgDelivered>,
    /// Payload bytes of incomplete messages currently held.
    buffered: u64,
    /// SACK entries per ACK of one packet, counting the fresh one (min 1).
    /// Above 1, each ACK re-echoes the most recent receptions, so the loss of
    /// any single ACK no longer strands its packet at the sender until an
    /// RTO — the same redundancy TCP gets from overlapping SACK blocks.
    sack_redundancy: usize,
    /// Ring of the most recent receptions, echoed for redundancy.
    recent: Vec<SackEntry>,
    /// Next write position in `recent`.
    recent_head: usize,
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
            completed: CompletedIds::default(),
            spare_bitmaps: Vec::new(),
            events: Vec::new(),
            buffered: 0,
            sack_redundancy: 1,
            recent: Vec::new(),
            recent_head: 0,
            stats: MtpReceiverStats::default(),
        }
    }

    /// Echo up to `k - 1` recent receptions in every ACK in addition to
    /// the fresh SACK (so `k` entries total in an ACK of one packet; an
    /// ACK that packets join echoes them once). `k = 1` (the default) is
    /// the plain one-SACK-per-packet behavior. Turn this up on topologies
    /// where the reverse path can lose ACKs — e.g. sprayed ACK fan-out
    /// with a failed return path — so a dropped ACK is covered by its
    /// successors instead of costing the sender a full RTO.
    pub fn with_sack_redundancy(mut self, k: usize) -> MtpReceiver {
        self.sack_redundancy = k.max(1);
        self
    }

    /// No-op: records go when their message completes. Kept for `benchmark/`.
    pub fn with_gc_linger(self, _linger: Duration) -> MtpReceiver {
        self
    }

    /// `None`: nothing waits to be collected. Kept for `benchmark/`.
    pub fn poll_at(&self) -> Option<Time> {
        None
    }

    /// No-op returning 0 records collected. Kept for `benchmark/`.
    pub fn on_poll(&mut self, _now: Time) -> usize {
        0
    }

    /// Take the record of `id` out of the slab and the probe map:
    /// O(probe run), independent of how many records are resident.
    fn remove(&mut self, id: MsgId) -> InMsg {
        let mask = self.map.len() - 1;
        let mut hole = self.cell_of(id).expect("resident until complete");
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
        self.msgs.swap_remove(slot)
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
        self.msgs.len()
    }

    /// Records of messages in reassembly plus runs of completed ids:
    /// bounded by what is in flight and how many senders there are, not
    /// by how many messages completed or how fast.
    pub fn resident(&self) -> usize {
        self.msgs.len() + self.completed.runs.len()
    }

    /// Payload bytes held for incomplete messages. Bounded per message by
    /// the advertised `msg_len_bytes` — the "know in advance how much
    /// buffering is needed" property of §3.1.2.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered
    }

    /// Process a data packet; returns an ACK of its own (the packet is
    /// acknowledged at once, by an ACK no other packet shares) and the
    /// number of new payload bytes it contributed. [`ack_into`](Self::ack_into)
    /// on a fresh header, wrapped in a [`Packet`].
    pub fn on_data(&mut self, now: Time, hdr: &MtpHeader, ecn: EcnCodepoint) -> (Packet, u64) {
        // The pooled header's retained Vec capacities are the reusable
        // buffers: SACK/NACK/feedback entries are written straight into
        // the ACK being built, so steady state performs no allocation.
        let mut ack_hdr = mtp_sim::pool::take_header();
        let newly = self
            .ack_into(now, hdr, ecn, &mut ack_hdr)
            .expect("a reset header starts a new ACK");
        let wire = ack_hdr.wire_len() as u32;
        let mut ack = Packet::new(Headers::Mtp(ack_hdr), wire);
        ack.sent_at = now;
        ack.ecn = EcnCodepoint::NotEct;
        (ack, newly)
    }

    /// Process a data packet, acknowledging it into `ack`, the ACK the
    /// caller is building; returns the number of new payload bytes it
    /// contributed.
    ///
    /// A reset header ([`MtpHeader::reset`], or a default one) starts a new
    /// ACK: its fixed fields, the echoed path feedback, the packet's SACK,
    /// the redundancy echoes of recent receptions and its gap NACKs. An
    /// ACK already started (`pkt_type` is `Ack`) takes only the packet's
    /// SACK and its NACKs.
    ///
    /// A packet joins a started ACK only if the ACK stays what one ACK per
    /// packet would have told the sender: it echoes the same path feedback
    /// (same pathlet, same CE mark), both lists stay within 255 entries,
    /// and its SACK answers no NACK the ACK already carries (a sender reads
    /// an ACK's SACKs before its NACKs, so that NACK would then repair
    /// nothing). Otherwise this returns `None` having changed nothing, and
    /// the caller sends `ack` and retries on a reset header.
    pub fn ack_into(
        &mut self,
        now: Time,
        hdr: &MtpHeader,
        ecn: EcnCodepoint,
        ack: &mut MtpHeader,
    ) -> Option<u64> {
        debug_assert_eq!(hdr.pkt_type, PktType::Data);
        let id = hdr.msg_id;
        let found = self.cell_of(id).map(|c| self.map[c] as usize - 1);
        // A message with no record yet (or any more) goes by this header.
        let len_pkts = found.map_or(hdr.msg_len_pkts, |s| self.msgs[s].len_pkts);
        let pkt_num = hdr.pkt_num.0.min(len_pkts.saturating_sub(1));
        let joining = ack.pkt_type == PktType::Ack;
        if joining && !self.may_join(hdr, ecn.is_ce(), found, pkt_num, ack) {
            return None;
        }
        self.stats.pkts_seen += 1;
        let trimmed = hdr.is_trimmed();
        // A completed message keeps no record (`None`): its id alone says
        // this is a late copy, acknowledged as its record would have been.
        let slot = match found {
            None if self.completed.contains(id.0) => None,
            None => {
                let bitmap = Bitmap::for_pkts(hdr.msg_len_pkts, &mut self.spare_bitmaps);
                Some(self.insert(InMsg {
                    id,
                    src: hdr.src_port,
                    len_bytes: hdr.msg_len_bytes,
                    len_pkts: hdr.msg_len_pkts,
                    bitmap,
                    received: 0,
                    first_seen: now,
                    max_seen: None,
                    nacked_below: 0,
                    tc: hdr.tc,
                    pri: hdr.msg_pri,
                }))
            }
            slot => slot,
        };

        let nacks_before = ack.nack.len();
        let mut newly = 0u64;
        let mut complete = false;

        if trimmed {
            // NDP-style: the payload was cut; NACK so the sender repairs
            // without waiting for an RTO.
            self.stats.trimmed += 1;
            if slot.is_some_and(|s| !self.msgs[s].test(pkt_num)) {
                ack.nack.push(SackEntry {
                    msg: id,
                    pkt: PktNum(pkt_num),
                });
            }
        } else {
            match slot.map(|s| &mut self.msgs[s]) {
                Some(msg) if !msg.test(pkt_num) => {
                    msg.set(pkt_num);
                    msg.received += 1;
                    newly = hdr.pkt_len as u64;
                    self.stats.goodput_bytes += newly;
                    self.buffered += newly;
                    complete = msg.received == msg.len_pkts;
                    if complete {
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
                _ => self.stats.duplicates += 1,
            }
            let fresh = SackEntry {
                msg: id,
                pkt: PktNum(pkt_num),
            };
            ack.sack.push(fresh);
            // Redundant echo of recent receptions (possibly of other
            // messages): a lost ACK is then covered by the next few ACKs
            // instead of stranding its packet until the sender's RTO. The
            // sender treats SACKs idempotently, so repeats are free. An
            // ACK echoes them once, when it starts.
            if self.sack_redundancy > 1 {
                if !joining {
                    ack.sack.extend(self.recent.iter().filter(|&&e| e != fresh));
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
        // Retransmissions arrive out of order by design, and a complete
        // message has no hole left; skip the check for both.
        let gaps = slot.filter(|_| !complete && !hdr.is_retx());
        if let Some(msg) = gaps.map(|s| &mut self.msgs[s]) {
            let expected = msg.max_seen.map(|m| m + 1).unwrap_or(0);
            if pkt_num > expected {
                let from = expected.max(msg.nacked_below);
                for missing in from..pkt_num {
                    if !msg.test(missing) && ack.nack.len() < 255 {
                        ack.nack.push(SackEntry {
                            msg: id,
                            pkt: PktNum(missing),
                        });
                    }
                }
                msg.nacked_below = msg.nacked_below.max(pkt_num);
            }
            msg.max_seen = Some(msg.max_seen.map_or(pkt_num, |m| m.max(pkt_num)));
        }
        if complete {
            if let Bitmap::Spilled(words) = self.remove(id).bitmap {
                self.spare_bitmaps.push(words);
            }
            self.completed.insert(id.0);
        }
        self.stats.nacks_sent += (ack.nack.len() - nacks_before) as u64;
        if joining {
            return Some(newly);
        }

        debug_assert!(ack.ack_path_feedback.is_empty());
        Self::echo_feedback(hdr, ecn.is_ce(), |e| ack.ack_path_feedback.push(e));
        ack.src_port = self.addr;
        ack.dst_port = hdr.src_port;
        ack.pkt_type = PktType::Ack;
        ack.msg_pri = hdr.msg_pri;
        ack.tc = hdr.tc;
        ack.flags = 0;
        ack.msg_id = id;
        ack.entity = hdr.entity;
        ack.msg_len_pkts = hdr.msg_len_pkts;
        ack.msg_len_bytes = hdr.msg_len_bytes;
        ack.pkt_num = hdr.pkt_num;
        ack.pkt_len = 0;
        ack.pkt_offset = hdr.pkt_offset;
        Some(newly)
    }

    /// Whether `hdr`, packet `pkt_num` of the message in slot `found`,
    /// may join the started `ack` (see [`ack_into`](Self::ack_into)).
    /// Reads receiver state, changes none. The NACK count is an upper
    /// bound: every packet a gap skips, as if none had arrived.
    fn may_join(
        &self,
        hdr: &MtpHeader,
        ce: bool,
        found: Option<usize>,
        pkt_num: u32,
        ack: &MtpHeader,
    ) -> bool {
        let trimmed = hdr.is_trimmed();
        let msg = found.map(|s| &self.msgs[s]);
        // A completed message's copy is never NACKed; a new one's record
        // starts with nothing seen.
        let nacks = if found.is_none() && self.completed.contains(hdr.msg_id.0) {
            0
        } else {
            let skipped = match msg {
                _ if hdr.is_retx() => 0,
                Some(m) => {
                    pkt_num.saturating_sub(m.max_seen.map_or(0, |x| x + 1).max(m.nacked_below))
                }
                None => pkt_num,
            };
            usize::from(trimmed) + skipped as usize
        };
        let fresh = SackEntry {
            msg: hdr.msg_id,
            pkt: PktNum(pkt_num),
        };
        ack.sack.len() + usize::from(!trimmed) <= 255
            && ack.nack.len() + nacks <= 255
            && (trimmed || !ack.nack.contains(&fresh))
            && Self::echoes(hdr, ce, &ack.ack_path_feedback)
    }

    /// `hdr`'s accumulated path feedback as an ACK echoes it, entry by
    /// entry into `emit` (at most 255), upgraded with the IP-level CE
    /// mark: if a non-MTP-aware queue marked the packet, the mark is
    /// attributed to the stamped pathlets (or to the default pathlet if
    /// none stamped).
    fn echo_feedback(hdr: &MtpHeader, ce: bool, mut emit: impl FnMut(PathFeedback)) {
        let mut n = 0;
        let mut push = |e| {
            if n < 255 {
                n += 1;
                emit(e);
            }
        };
        let mut has_mark_entry = false;
        for fb in &hdr.path_feedback {
            let mut e = *fb;
            if let Feedback::EcnMark { ce: stamped } = e.feedback {
                has_mark_entry = true;
                e.feedback = Feedback::EcnMark { ce: stamped || ce };
            }
            push(e);
        }
        if ce && !has_mark_entry {
            let (path, tc) = hdr
                .path_feedback
                .first()
                .map_or((DEFAULT_PATHLET, hdr.tc), |e| (e.path, e.tc));
            push(PathFeedback {
                path,
                tc,
                feedback: Feedback::EcnMark { ce: true },
            });
        } else if hdr.path_feedback.is_empty() {
            // No MTP-aware device stamped anything: report the whole network
            // as the default pathlet, unmarked, so the sender's window can
            // grow on clean ACKs.
            push(PathFeedback {
                path: DEFAULT_PATHLET,
                tc: hdr.tc,
                feedback: Feedback::EcnMark { ce: false },
            });
        }
    }

    /// Whether `echo` is exactly what an ACK of `hdr` echoes.
    fn echoes(hdr: &MtpHeader, ce: bool, echo: &[PathFeedback]) -> bool {
        let (mut n, mut same) = (0, true);
        Self::echo_feedback(hdr, ce, |e| {
            same &= echo.get(n) == Some(&e);
            n += 1;
        });
        same && n == echo.len()
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
    fn completed_ids_collapse_into_runs() {
        let mut c = CompletedIds::default();
        for id in [5, 7, 3, 6, 4, u64::MAX, 0] {
            c.insert(id);
        }
        assert_eq!(c.runs, [(0, 0), (3, 7), (u64::MAX, u64::MAX)]);
        assert!([0, 3, 5, 7, u64::MAX].iter().all(|&id| c.contains(id)));
        assert!(![1, 2, 8, u64::MAX - 1].iter().any(|&id| c.contains(id)));
    }

    #[test]
    fn a_completed_message_leaves_only_its_id() {
        let mut r = MtpReceiver::new(2);
        for pkt in 0..3 {
            r.on_data(Time::ZERO, &data(5, pkt, 3, 1000), EcnCodepoint::Ect0);
        }
        assert_eq!((r.in_reassembly(), r.resident()), (0, 1));
        // A straggler is SACKed as its record would have: `pkt_num`
        // clamped into the message.
        let (ack, _) = r.on_data(Time::ZERO, &data(5, 7, 3, 1000), EcnCodepoint::Ect0);
        let want = SackEntry {
            msg: MsgId(5),
            pkt: PktNum(2),
        };
        assert_eq!(ack_of(&ack).sack, [want]);
        assert_eq!(r.stats.duplicates, 1);
        // A trimmed straggler is neither SACKed nor NACKed: nothing is
        // missing.
        let mut h = data(5, 1, 3, 1000);
        h.flags |= flags::TRIMMED;
        let (ack, newly) = r.on_data(Time::ZERO, &h, EcnCodepoint::Ect0);
        assert_eq!(newly, 0);
        assert!(ack_of(&ack).sack.is_empty() && ack_of(&ack).nack.is_empty());
        assert_eq!((r.stats.trimmed, r.stats.nacks_sent), (1, 0));
        assert_eq!((r.in_reassembly(), r.resident()), (0, 1));
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

    /// Packet `pkt` of a 300-packet message 5, stamped as the wire
    /// listener stamps it: the pathlet it arrived on and its CE mark.
    fn stamped(pkt: u32, path: u16, ce: bool) -> MtpHeader {
        let mut h = data(5, pkt, 300, 1000);
        h.path_feedback = vec![PathFeedback {
            path: PathletId(path),
            tc: TrafficClass::BEST_EFFORT,
            feedback: Feedback::EcnMark { ce },
        }];
        h
    }

    /// What a refusal must leave as it was.
    fn footprint(r: &MtpReceiver) -> (MtpReceiverStats, usize, usize) {
        (r.stats, r.resident(), r.in_reassembly())
    }

    /// An ACK started by packet 0 and joined by packets `1..n`.
    fn ack_of_run(r: &mut MtpReceiver, n: u32) -> MtpHeader {
        let mut ack = MtpHeader::default();
        for pkt in 0..n {
            let h = stamped(pkt, 1, false);
            assert_eq!(
                r.ack_into(Time::ZERO, &h, EcnCodepoint::Ect0, &mut ack),
                Some(1000)
            );
        }
        ack
    }

    #[test]
    fn a_run_of_packets_shares_one_ack() {
        let mut r = MtpReceiver::new(2).with_sack_redundancy(8);
        r.on_data(Time::ZERO, &data(9, 0, 1, 10), EcnCodepoint::Ect0);
        let ack = ack_of_run(&mut r, 4);
        // The recent reception is echoed once, by the packet that started
        // the ACK; the fixed fields are that packet's.
        let sacks: Vec<_> = ack.sack.iter().map(|e| (e.msg.0, e.pkt.0)).collect();
        assert_eq!(sacks, [(5, 0), (9, 0), (5, 1), (5, 2), (5, 3)]);
        assert_eq!(
            (ack.pkt_type, ack.pkt_num, ack.dst_port),
            (PktType::Ack, PktNum(0), 1)
        );
        assert_eq!(ack.ack_path_feedback.len(), 1);
        // A gap NACKs into the open ACK too, and is counted once.
        let mut ack = ack;
        r.ack_into(
            Time::ZERO,
            &stamped(6, 1, false),
            EcnCodepoint::Ect0,
            &mut ack,
        );
        let nacks: Vec<_> = ack.nack.iter().map(|e| e.pkt.0).collect();
        assert_eq!((nacks, r.stats.nacks_sent), (vec![4, 5], 2));
    }

    #[test]
    fn ack_into_refuses_another_pathlet_untouched() {
        let mut r = MtpReceiver::new(2);
        let mut ack = ack_of_run(&mut r, 2);
        let (before, sealed) = (footprint(&r), ack.clone());
        let other = stamped(2, 3, false);
        assert_eq!(
            r.ack_into(Time::ZERO, &other, EcnCodepoint::Ect0, &mut ack),
            None
        );
        assert_eq!((footprint(&r), &ack), (before, &sealed));
        // A fresh ACK takes it.
        let mut fresh = MtpHeader::default();
        assert_eq!(
            r.ack_into(Time::ZERO, &other, EcnCodepoint::Ect0, &mut fresh),
            Some(1000)
        );
        assert_eq!(fresh.ack_path_feedback[0].path, PathletId(3));
    }

    #[test]
    fn ack_into_refuses_a_ce_mark_into_an_unmarked_ack() {
        let mut r = MtpReceiver::new(2);
        let mut ack = ack_of_run(&mut r, 2);
        let before = footprint(&r);
        // Stamped CE by the last hop, or marked CE at the IP level.
        let marked = stamped(2, 1, true);
        assert_eq!(
            r.ack_into(Time::ZERO, &marked, EcnCodepoint::Ect0, &mut ack),
            None
        );
        let plain = stamped(2, 1, false);
        assert_eq!(
            r.ack_into(Time::ZERO, &plain, EcnCodepoint::Ce, &mut ack),
            None
        );
        assert_eq!((footprint(&r), ack.sack.len()), (before, 2));
    }

    #[test]
    fn ack_into_refuses_a_full_sack_list() {
        let mut r = MtpReceiver::new(2);
        let mut ack = ack_of_run(&mut r, 255);
        assert_eq!(ack.sack.len(), 255);
        let before = footprint(&r);
        let next = stamped(255, 1, false);
        assert_eq!(
            r.ack_into(Time::ZERO, &next, EcnCodepoint::Ect0, &mut ack),
            None
        );
        assert_eq!((footprint(&r), ack.sack.len()), (before, 255));
        // A trimmed header adds no SACK, only its NACK: it still joins.
        let mut trimmed = next;
        trimmed.flags |= flags::TRIMMED;
        assert_eq!(
            r.ack_into(Time::ZERO, &trimmed, EcnCodepoint::Ect0, &mut ack),
            Some(0)
        );
        assert_eq!((ack.sack.len(), ack.nack.len()), (255, 1));
    }

    #[test]
    fn ack_into_refuses_a_sack_answering_its_own_nack() {
        let mut r = MtpReceiver::new(2);
        let mut ack = ack_of_run(&mut r, 1);
        r.ack_into(
            Time::ZERO,
            &stamped(2, 1, false),
            EcnCodepoint::Ect0,
            &mut ack,
        );
        assert_eq!(ack.nack.len(), 1, "packet 1 proven lost");
        // Its repair in the same ACK would be read before the NACK.
        let before = footprint(&r);
        let mut repair = stamped(1, 1, false);
        repair.flags |= flags::RETX;
        assert_eq!(
            r.ack_into(Time::ZERO, &repair, EcnCodepoint::Ect0, &mut ack),
            None
        );
        assert_eq!(footprint(&r), before);
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
            h.to_sealed_bytes().expect("emit")
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
