//! Egress queue disciplines.
//!
//! Every link direction owns a queue discipline. The experiments use:
//!
//! * [`DropTailQueue`] — plain FIFO with a packet-count capacity;
//! * [`EcnQueue`] — FIFO with DCTCP-style marking: packets enqueued while
//!   the instantaneous queue length is at or above threshold `K` get their
//!   CE bit set (paper Fig. 5 uses buffer = 128 pkts, K = 20 pkts);
//! * [`DrrQueue`] — deficit-round-robin over several bands with a
//!   classifier, modelling per-tenant/per-TC *separate queues*
//!   (the "expensive" middle system of paper Fig. 7);
//! * [`PriorityQueue`] — strict priority over bands (control/retransmit
//!   fast-path, message-priority scheduling);
//! * [`TrimmingQueue`] — NDP-style: on overflow of the data band, the
//!   packet's payload is trimmed and the header is forwarded through a
//!   strict-priority control band (paper §4: "switches generate NACKs to
//!   implement packet trimming").
//!
//! Marking happens at enqueue time against the instantaneous queue length,
//! matching the DCTCP paper and ns-3's `RedQueueDisc` in DCTCP mode.

use mtp_wire::types::flags;
use mtp_wire::EcnCodepoint;

use crate::packet::Packet;
use crate::time::Time;
use std::collections::VecDeque;

/// What happened when a packet was offered to a queue.
#[derive(Debug)]
pub enum EnqueueVerdict {
    /// The packet was queued; `marked` reports whether CE was newly set.
    Queued {
        /// True if this enqueue set the CE codepoint.
        marked: bool,
    },
    /// The packet was dropped; it is handed back for accounting.
    Dropped(Packet),
    /// The packet's payload was trimmed to headers and the header packet
    /// was queued (NDP-style).
    Trimmed,
}

/// A queue discipline attached to one link direction.
pub trait Qdisc {
    /// Offer a packet to the queue at time `now`.
    fn enqueue(&mut self, pkt: Packet, now: Time) -> EnqueueVerdict;

    /// Take the next packet to serialize, if any.
    fn dequeue(&mut self, now: Time) -> Option<Packet>;

    /// Number of packets currently queued.
    fn len_pkts(&self) -> usize;

    /// Number of bytes currently queued.
    fn len_bytes(&self) -> usize;

    /// True if nothing is queued.
    fn is_empty(&self) -> bool {
        self.len_pkts() == 0
    }

    /// True if, in the discipline's *current* state, offering a packet and
    /// immediately dequeuing it would observably be a no-op: the verdict
    /// would be `Queued { marked: false }`, the same unmodified packet
    /// would come back, and no internal state (scheduler rotation,
    /// deficits, RNG) would change. The engine uses this to bypass the
    /// queue entirely when the link is idle. Disciplines with scheduling
    /// state or randomness must keep the conservative default of `false`.
    fn transparent_when_idle(&self) -> bool {
        false
    }
}

/// Plain FIFO with a packet-count capacity.
#[derive(Debug)]
pub struct DropTailQueue {
    q: VecDeque<Packet>,
    cap_pkts: usize,
    bytes: usize,
}

impl DropTailQueue {
    /// A FIFO holding at most `cap_pkts` packets.
    pub fn new(cap_pkts: usize) -> DropTailQueue {
        DropTailQueue {
            q: VecDeque::new(),
            cap_pkts,
            bytes: 0,
        }
    }
}

impl Qdisc for DropTailQueue {
    fn enqueue(&mut self, pkt: Packet, _now: Time) -> EnqueueVerdict {
        if self.q.len() >= self.cap_pkts {
            return EnqueueVerdict::Dropped(pkt);
        }
        self.bytes += pkt.wire_len as usize;
        self.q.push_back(pkt);
        EnqueueVerdict::Queued { marked: false }
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.wire_len as usize;
        Some(pkt)
    }

    fn len_pkts(&self) -> usize {
        self.q.len()
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn transparent_when_idle(&self) -> bool {
        // An empty FIFO with room neither drops nor reorders nor marks.
        self.q.is_empty() && self.cap_pkts > 0
    }
}

/// FIFO with DCTCP-style ECN marking at threshold `k_pkts` and tail drop at
/// `cap_pkts`.
#[derive(Debug)]
pub struct EcnQueue {
    q: VecDeque<Packet>,
    cap_pkts: usize,
    k_pkts: usize,
    bytes: usize,
}

impl EcnQueue {
    /// A marking FIFO: capacity `cap_pkts`, marking threshold `k_pkts`.
    pub fn new(cap_pkts: usize, k_pkts: usize) -> EcnQueue {
        assert!(k_pkts <= cap_pkts, "marking threshold above capacity");
        EcnQueue {
            q: VecDeque::new(),
            cap_pkts,
            k_pkts,
            bytes: 0,
        }
    }

    /// The marking threshold in packets.
    pub fn threshold(&self) -> usize {
        self.k_pkts
    }
}

impl Qdisc for EcnQueue {
    fn enqueue(&mut self, mut pkt: Packet, _now: Time) -> EnqueueVerdict {
        if self.q.len() >= self.cap_pkts {
            return EnqueueVerdict::Dropped(pkt);
        }
        let mut marked = false;
        if self.q.len() >= self.k_pkts && pkt.ecn.is_ect() && !pkt.ecn.is_ce() {
            pkt.ecn = EcnCodepoint::Ce;
            marked = true;
        }
        self.bytes += pkt.wire_len as usize;
        self.q.push_back(pkt);
        EnqueueVerdict::Queued { marked }
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.wire_len as usize;
        Some(pkt)
    }

    fn len_pkts(&self) -> usize {
        self.q.len()
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn transparent_when_idle(&self) -> bool {
        // With `k_pkts > 0`, an enqueue into an empty queue never marks
        // (the instantaneous length 0 is below threshold); with `k == 0`
        // every ECT packet would be marked, so the queue must see it.
        self.q.is_empty() && self.cap_pkts > 0 && self.k_pkts > 0
    }
}

/// Classifies a packet into a band index.
pub type Classifier = Box<dyn Fn(&Packet) -> usize>;

/// Deficit round robin over `n` bands, each its own drop-tail FIFO.
///
/// This is the "separate queues per entity" comparison point of paper
/// Fig. 7: fair, but requires per-entity queue state in the switch.
pub struct DrrQueue {
    bands: Vec<VecDeque<Packet>>,
    deficits: Vec<usize>,
    quantum: usize,
    cap_pkts_per_band: usize,
    classify: Classifier,
    next_band: usize,
    bytes: usize,
    pkts: usize,
    /// Optional ECN threshold applied per band.
    k_pkts: Option<usize>,
}

impl DrrQueue {
    /// A DRR scheduler over `n_bands`, each holding `cap_pkts_per_band`
    /// packets, serving `quantum` bytes per round, classifying packets with
    /// `classify`. `k_pkts` optionally enables per-band ECN marking.
    pub fn new(
        n_bands: usize,
        cap_pkts_per_band: usize,
        quantum: usize,
        k_pkts: Option<usize>,
        classify: Classifier,
    ) -> DrrQueue {
        assert!(n_bands > 0);
        DrrQueue {
            bands: (0..n_bands).map(|_| VecDeque::new()).collect(),
            deficits: vec![0; n_bands],
            quantum,
            cap_pkts_per_band,
            classify,
            next_band: 0,
            bytes: 0,
            pkts: 0,
            k_pkts,
        }
    }
}

impl Qdisc for DrrQueue {
    fn enqueue(&mut self, mut pkt: Packet, _now: Time) -> EnqueueVerdict {
        let band = (self.classify)(&pkt).min(self.bands.len() - 1);
        if self.bands[band].len() >= self.cap_pkts_per_band {
            return EnqueueVerdict::Dropped(pkt);
        }
        let mut marked = false;
        if let Some(k) = self.k_pkts {
            if self.bands[band].len() >= k && pkt.ecn.is_ect() && !pkt.ecn.is_ce() {
                pkt.ecn = EcnCodepoint::Ce;
                marked = true;
            }
        }
        self.bytes += pkt.wire_len as usize;
        self.pkts += 1;
        self.bands[band].push_back(pkt);
        EnqueueVerdict::Queued { marked }
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        if self.pkts == 0 {
            return None;
        }
        // Walk bands round-robin, topping up deficits, until one can send.
        // Bounded: each full circuit adds `quantum` to some non-empty band,
        // so at most `ceil(max_pkt/quantum) * n` iterations.
        loop {
            let band = self.next_band;
            if !self.bands[band].is_empty() {
                let head_len = self.bands[band].front().expect("non-empty").wire_len as usize;
                if self.deficits[band] >= head_len {
                    self.deficits[band] -= head_len;
                    let pkt = self.bands[band].pop_front().expect("non-empty");
                    self.bytes -= pkt.wire_len as usize;
                    self.pkts -= 1;
                    if self.bands[band].is_empty() {
                        // A band with nothing queued must not bank credit.
                        self.deficits[band] = 0;
                        self.next_band = (band + 1) % self.bands.len();
                    }
                    return Some(pkt);
                }
                self.deficits[band] += self.quantum;
                self.next_band = (band + 1) % self.bands.len();
            } else {
                self.deficits[band] = 0;
                self.next_band = (band + 1) % self.bands.len();
            }
        }
    }

    fn len_pkts(&self) -> usize {
        self.pkts
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }
}

/// Strict priority over bands: band 0 is served first.
pub struct PriorityQueue {
    bands: Vec<VecDeque<Packet>>,
    cap_pkts_per_band: usize,
    classify: Classifier,
    bytes: usize,
    pkts: usize,
}

impl PriorityQueue {
    /// A strict-priority scheduler: `classify` maps packets to bands, band 0
    /// is highest priority.
    pub fn new(n_bands: usize, cap_pkts_per_band: usize, classify: Classifier) -> PriorityQueue {
        assert!(n_bands > 0);
        PriorityQueue {
            bands: (0..n_bands).map(|_| VecDeque::new()).collect(),
            cap_pkts_per_band,
            classify,
            bytes: 0,
            pkts: 0,
        }
    }
}

impl Qdisc for PriorityQueue {
    fn enqueue(&mut self, pkt: Packet, _now: Time) -> EnqueueVerdict {
        let band = (self.classify)(&pkt).min(self.bands.len() - 1);
        if self.bands[band].len() >= self.cap_pkts_per_band {
            return EnqueueVerdict::Dropped(pkt);
        }
        self.bytes += pkt.wire_len as usize;
        self.pkts += 1;
        self.bands[band].push_back(pkt);
        EnqueueVerdict::Queued { marked: false }
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        for band in &mut self.bands {
            if let Some(pkt) = band.pop_front() {
                self.bytes -= pkt.wire_len as usize;
                self.pkts -= 1;
                return Some(pkt);
            }
        }
        None
    }

    fn len_pkts(&self) -> usize {
        self.pkts
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }
}

/// NDP-style trimming queue: a data band with capacity and ECN threshold,
/// plus a strict-priority control band. When the data band overflows and the
/// packet carries an MTP header, the payload is trimmed: the wire length
/// shrinks to the header length, the [`flags::TRIMMED`] flag is set, and the
/// header rides the control band so the receiver can NACK immediately.
pub struct TrimmingQueue {
    data: EcnQueue,
    ctrl: VecDeque<Packet>,
    ctrl_cap: usize,
    ctrl_bytes: usize,
}

impl TrimmingQueue {
    /// A trimming queue: data capacity `cap_pkts` / threshold `k_pkts`;
    /// control band holds `ctrl_cap` trimmed headers and ACKs.
    pub fn new(cap_pkts: usize, k_pkts: usize, ctrl_cap: usize) -> TrimmingQueue {
        TrimmingQueue {
            data: EcnQueue::new(cap_pkts, k_pkts),
            ctrl: VecDeque::new(),
            ctrl_cap,
            ctrl_bytes: 0,
        }
    }

    fn push_ctrl(&mut self, pkt: Packet) -> EnqueueVerdict {
        if self.ctrl.len() >= self.ctrl_cap {
            return EnqueueVerdict::Dropped(pkt);
        }
        self.ctrl_bytes += pkt.wire_len as usize;
        self.ctrl.push_back(pkt);
        EnqueueVerdict::Queued { marked: false }
    }
}

impl Qdisc for TrimmingQueue {
    fn enqueue(&mut self, mut pkt: Packet, now: Time) -> EnqueueVerdict {
        // Control traffic (ACKs, already-trimmed headers) rides the
        // priority band unconditionally.
        let is_ctrl = match pkt.headers.as_mtp() {
            Some(h) => h.pkt_type != mtp_wire::PktType::Data || h.flags & flags::TRIMMED != 0,
            None => false,
        };
        if is_ctrl {
            return self.push_ctrl(pkt);
        }
        if self.data.len_pkts() < self.data.cap_pkts {
            return self.data.enqueue(pkt, now);
        }
        // Overflow: trim if possible, drop otherwise.
        match pkt.headers.as_mtp_mut() {
            Some(h) => {
                h.flags |= flags::TRIMMED;
                let hdr_len = h.wire_len() as u32;
                pkt.wire_len = hdr_len;
                match self.push_ctrl(pkt) {
                    EnqueueVerdict::Queued { .. } => EnqueueVerdict::Trimmed,
                    dropped => dropped,
                }
            }
            None => EnqueueVerdict::Dropped(pkt),
        }
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        if let Some(pkt) = self.ctrl.pop_front() {
            self.ctrl_bytes -= pkt.wire_len as usize;
            return Some(pkt);
        }
        self.data.dequeue(now)
    }

    fn len_pkts(&self) -> usize {
        self.ctrl.len() + self.data.len_pkts()
    }

    fn len_bytes(&self) -> usize {
        self.ctrl_bytes + self.data.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Headers;
    use mtp_wire::{MtpHeader, PktType};

    fn pkt(len: u32) -> Packet {
        Packet::new(Headers::Raw, len)
    }

    fn mtp_pkt(len: u32, pkt_type: PktType) -> Packet {
        let hdr = MtpHeader {
            pkt_type,
            ..MtpHeader::default()
        };
        Packet::new(Headers::Mtp(Box::new(hdr)), len)
    }

    #[test]
    fn droptail_drops_at_capacity() {
        let mut q = DropTailQueue::new(2);
        assert!(matches!(
            q.enqueue(pkt(100), Time::ZERO),
            EnqueueVerdict::Queued { .. }
        ));
        assert!(matches!(
            q.enqueue(pkt(100), Time::ZERO),
            EnqueueVerdict::Queued { .. }
        ));
        assert!(matches!(
            q.enqueue(pkt(100), Time::ZERO),
            EnqueueVerdict::Dropped(_)
        ));
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.len_bytes(), 200);
        q.dequeue(Time::ZERO).unwrap();
        assert_eq!(q.len_bytes(), 100);
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut q = EcnQueue::new(10, 2);
        for _ in 0..2 {
            match q.enqueue(pkt(100), Time::ZERO) {
                EnqueueVerdict::Queued { marked } => assert!(!marked),
                _ => panic!("expected queue"),
            }
        }
        match q.enqueue(pkt(100), Time::ZERO) {
            EnqueueVerdict::Queued { marked } => assert!(marked, "3rd packet sees qlen=2 >= K=2"),
            _ => panic!("expected queue"),
        }
        // The marked packet comes out with CE set.
        q.dequeue(Time::ZERO);
        q.dequeue(Time::ZERO);
        let third = q.dequeue(Time::ZERO).unwrap();
        assert!(third.ecn.is_ce());
    }

    #[test]
    fn ecn_does_not_mark_non_ect() {
        let mut q = EcnQueue::new(10, 0);
        match q.enqueue(pkt(100).without_ect(), Time::ZERO) {
            EnqueueVerdict::Queued { marked } => assert!(!marked),
            _ => panic!(),
        }
        assert!(!q.dequeue(Time::ZERO).unwrap().ecn.is_ce());
    }

    #[test]
    fn drr_shares_evenly_between_bands() {
        // Band by Opaque tag; equal-size packets: service alternates.
        let classify: Classifier = Box::new(|p: &Packet| match p.app {
            Some(crate::packet::AppData::Opaque(t)) => t as usize,
            _ => 0,
        });
        let mut q = DrrQueue::new(2, 100, 1500, None, classify);
        for _ in 0..4 {
            q.enqueue(
                pkt(1000).with_app(crate::packet::AppData::Opaque(0)),
                Time::ZERO,
            );
        }
        for _ in 0..4 {
            q.enqueue(
                pkt(1000).with_app(crate::packet::AppData::Opaque(1)),
                Time::ZERO,
            );
        }
        // DRR serves a band while its deficit lasts, so exact per-packet
        // alternation is not required — but cumulative service must never
        // diverge by more than quantum's worth of packets (here 2).
        let mut from0: i64 = 0;
        let mut from1: i64 = 0;
        for _ in 0..8 {
            match q.dequeue(Time::ZERO).unwrap().app {
                Some(crate::packet::AppData::Opaque(0)) => from0 += 1,
                Some(crate::packet::AppData::Opaque(1)) => from1 += 1,
                _ => unreachable!(),
            }
            assert!(
                (from0 - from1).abs() <= 2,
                "service diverged: {from0} vs {from1}"
            );
        }
        assert_eq!((from0, from1), (4, 4));
    }

    #[test]
    fn drr_is_work_conserving_when_one_band_empty() {
        let classify: Classifier = Box::new(|_| 1);
        let mut q = DrrQueue::new(2, 100, 100, None, classify);
        q.enqueue(pkt(1000), Time::ZERO);
        assert!(
            q.dequeue(Time::ZERO).is_some(),
            "must serve band 1 though band 0 empty"
        );
        assert!(q.dequeue(Time::ZERO).is_none());
    }

    #[test]
    fn priority_serves_band0_first() {
        let classify: Classifier = Box::new(|p: &Packet| p.wire_len as usize % 2);
        let mut q = PriorityQueue::new(2, 100, classify);
        q.enqueue(pkt(101), Time::ZERO); // band 1
        q.enqueue(pkt(100), Time::ZERO); // band 0
        assert_eq!(q.dequeue(Time::ZERO).unwrap().wire_len, 100);
        assert_eq!(q.dequeue(Time::ZERO).unwrap().wire_len, 101);
    }

    #[test]
    fn trimming_trims_mtp_on_overflow() {
        let mut q = TrimmingQueue::new(1, 1, 16);
        assert!(matches!(
            q.enqueue(mtp_pkt(1500, PktType::Data), Time::ZERO),
            EnqueueVerdict::Queued { .. }
        ));
        assert!(matches!(
            q.enqueue(mtp_pkt(1500, PktType::Data), Time::ZERO),
            EnqueueVerdict::Trimmed
        ));
        // Trimmed header dequeues FIRST (priority band) and is small.
        let trimmed = q.dequeue(Time::ZERO).unwrap();
        let hdr = trimmed.headers.as_mtp().unwrap();
        assert!(hdr.flags & flags::TRIMMED != 0);
        assert_eq!(trimmed.wire_len as usize, hdr.wire_len());
        // Then the original full packet.
        assert_eq!(q.dequeue(Time::ZERO).unwrap().wire_len, 1500);
    }

    #[test]
    fn trimming_acks_ride_priority_band() {
        let mut q = TrimmingQueue::new(1, 1, 16);
        q.enqueue(mtp_pkt(1500, PktType::Data), Time::ZERO);
        q.enqueue(mtp_pkt(60, PktType::Ack), Time::ZERO);
        let first = q.dequeue(Time::ZERO).unwrap();
        assert_eq!(first.headers.as_mtp().unwrap().pkt_type, PktType::Ack);
    }

    #[test]
    fn trimming_drops_raw_on_overflow() {
        let mut q = TrimmingQueue::new(1, 1, 16);
        q.enqueue(pkt(1500), Time::ZERO);
        assert!(matches!(
            q.enqueue(pkt(1500), Time::ZERO),
            EnqueueVerdict::Dropped(_)
        ));
    }
}
