//! The discrete-event engine: event queue, links, and the run loop.
//!
//! The engine is deliberately single-threaded and deterministic: events at
//! equal timestamps are processed in scheduling order (a monotone sequence
//! number breaks ties), and all randomness flows from one seeded
//! [`SmallRng`]. Running the same topology with the same seed reproduces
//! every figure byte-identically.
//!
//! ## Link model
//!
//! A [`connect`](Simulator::connect) call creates two directed links (one
//! per direction), each with its own bandwidth, propagation delay, and queue
//! discipline. Transmission follows the standard store-and-forward model:
//!
//! 1. a node `send`s a packet out a port;
//! 2. if the directed link is idle, serialization starts immediately and
//!    finishes `wire_len / rate` later; otherwise the packet is offered to
//!    the port's [`Qdisc`], which may queue, ECN-mark,
//!    NDP-trim, or drop it;
//! 3. when serialization finishes, the packet propagates for the link's
//!    delay and is delivered to the peer node; the next queued packet (if
//!    any) begins serialization.

use std::collections::VecDeque;

use crate::wheel::{EventKey, EventQueue};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::node::{Ctx, Node, NodeId, PortId, TimerId};
use crate::packet::{Packet, PacketId};
use crate::queue::{EnqueueVerdict, Qdisc};
use crate::time::{Bandwidth, Duration, Time};
use crate::tracefile::{TraceEvent, TraceKind, TraceRing};

/// Identifies one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirLinkId(pub usize);

/// Semantics of an administratively failed link direction (fault
/// injection). In both modes no newly offered packet is accepted; they
/// differ in what happens to traffic already inside the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFailMode {
    /// A hard cut: the egress queue is flushed, and the packet currently
    /// serializing is destroyed when its transmission slot ends (it never
    /// reaches the far side). Models fiber cuts and port failures.
    Blackhole,
    /// A graceful drain: queued packets and the one in flight finish
    /// normally; only new admissions are refused. Models administrative
    /// shutdown.
    Drain,
}

/// Role of a directed link in a sharded (multi-simulator) run.
///
/// A topology partitioned across several [`Simulator`] instances cuts each
/// inter-shard link into two half-links: the transmitting shard holds an
/// [`Egress`](BoundaryKind::Egress) half (serialization, queueing, and all
/// egress-side accounting happen there; finished packets go to the outbox
/// instead of local delivery) and the receiving shard holds an
/// [`Ingress`](BoundaryKind::Ingress) half (arrivals are injected by the
/// sharded runtime and delivered with ordinary delivery accounting).
/// Ordinary links are [`Interior`](BoundaryKind::Interior).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryKind {
    /// Both ends live in this simulator (the default).
    Interior,
    /// Local transmit half of an inter-shard link; completions are handed
    /// to [`Simulator::drain_boundary_out`].
    Egress,
    /// Local receive half of an inter-shard link; arrivals come from
    /// [`Simulator::inject_arrival`].
    Ingress,
}

/// Static configuration of one link direction.
pub struct LinkCfg {
    /// Serialization rate.
    pub rate: Bandwidth,
    /// Propagation delay.
    pub delay: Duration,
    /// Queue discipline for the sender-side egress queue.
    pub queue: Box<dyn Qdisc>,
}

impl LinkCfg {
    /// A link direction with a plain drop-tail queue of `cap_pkts`.
    pub fn drop_tail(rate: Bandwidth, delay: Duration, cap_pkts: usize) -> LinkCfg {
        LinkCfg {
            rate,
            delay,
            queue: Box::new(crate::queue::DropTailQueue::new(cap_pkts)),
        }
    }

    /// A link direction with a DCTCP-style ECN marking queue.
    pub fn ecn(rate: Bandwidth, delay: Duration, cap_pkts: usize, k_pkts: usize) -> LinkCfg {
        LinkCfg {
            rate,
            delay,
            queue: Box::new(crate::queue::EcnQueue::new(cap_pkts, k_pkts)),
        }
    }
}

/// Counters kept per link direction.
///
/// Packets and bytes each obey an exact conservation law at any instant
/// (checked by [`Simulator::audit`]):
///
/// ```text
/// offered_pkts  == tx_pkts  + dropped_pkts  + faulted_pkts  + queued + in_flight
/// offered_bytes == tx_bytes + dropped_bytes + faulted_bytes
///                + trim_loss_bytes + corrupt_loss_bytes + queued_bytes + in_flight_bytes
/// ```
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct LinkStats {
    /// Packets offered to this direction by the sending node.
    pub offered_pkts: u64,
    /// Wire bytes offered to this direction (measured before any
    /// corruption fault shrinks the frame).
    pub offered_bytes: u64,
    /// Packets fully serialized onto the wire.
    pub tx_pkts: u64,
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Packets dropped by the queue discipline.
    pub dropped_pkts: u64,
    /// Wire bytes dropped by the queue discipline (as handed back, i.e.
    /// after any trimming the discipline performed first).
    pub dropped_bytes: u64,
    /// Packets that got a CE mark from the queue discipline.
    pub marked_pkts: u64,
    /// Packets NDP-trimmed by the queue discipline.
    pub trimmed_pkts: u64,
    /// Wire bytes removed from frames by the queue discipline (NDP
    /// payload trimming), whether the trimmed header was then queued or
    /// dropped.
    pub trim_loss_bytes: u64,
    /// Wire bytes removed from frames by truncation faults on this link.
    pub corrupt_loss_bytes: u64,
    /// Packets destroyed by injected faults (link down, queue flush,
    /// crashed-node egress) rather than by the queue discipline.
    pub faulted_pkts: u64,
    /// Wire bytes destroyed by injected faults.
    pub faulted_bytes: u64,
    /// Packets whose wire bytes were damaged in flight by a corruption
    /// fault (bit-flips or truncation) but still *delivered* — unlike
    /// [`faulted_pkts`](Self::faulted_pkts), the receiver sees these and
    /// must reject them itself.
    pub corrupted_pkts: u64,
    /// High-water mark of the queue length in packets.
    pub max_qlen_pkts: usize,
}

pub(crate) struct DirLink {
    rate: Bandwidth,
    delay: Duration,
    pub(crate) queue: Box<dyn Qdisc>,
    /// Packet currently being serialized, if any.
    pub(crate) in_flight: Option<Packet>,
    pub(crate) src: (NodeId, PortId),
    dst: (NodeId, PortId),
    pub(crate) stats: LinkStats,
    /// False while administratively failed (fault injection); offered
    /// packets are destroyed instead of queued.
    pub(crate) up: bool,
    /// The in-flight packet was caught by a blackhole cut: destroy it at
    /// its TxDone instead of delivering it.
    doomed: bool,
    /// Bit-flip burst: damage-and-deliver this many further corruptible
    /// offered packets.
    bitflip_next: u32,
    /// Bits flipped per packet while a bit-flip burst is active.
    bitflip_flips: u8,
    /// Truncation burst: truncate-and-deliver this many further
    /// corruptible offered packets.
    truncate_next: u32,
    /// Steady-state corruption rate in packets-per-million (0 = off).
    corrupt_ppm: u32,
    /// Bits flipped per packet selected by the steady-state rate.
    corrupt_flips: u8,
    /// Dedicated RNG for this direction's corruption faults, armed with
    /// the fault's seed. Per-link so corruption on one link never
    /// perturbs any other random stream in the simulation.
    corrupt_rng: Option<SmallRng>,
    /// Packets propagating toward the far end, ordered by `(time, seq)`.
    /// The event queue holds one key per link — for the ring's head — so
    /// a burst of back-to-back transmissions costs one event, not one per
    /// packet; dispatch drains every ring entry that precedes the next
    /// pending event (see [`Simulator::deliver_batch`]).
    pub(crate) prop: VecDeque<(Time, u64, Packet)>,
    /// `(time, seq)` of the head key currently in the event queue, if
    /// any. A key that pops without matching this is stale (the head
    /// changed under it — e.g. a delay cut re-ordered arrivals) and is
    /// skipped exactly like a cancelled timer.
    sched: Option<(Time, u64)>,
    /// Interior link, or which half of an inter-shard boundary link.
    boundary: BoundaryKind,
}

/// Build one directed link from its configuration.
fn new_dir_link(
    cfg: LinkCfg,
    src: (NodeId, PortId),
    dst: (NodeId, PortId),
    boundary: BoundaryKind,
) -> DirLink {
    DirLink {
        rate: cfg.rate,
        delay: cfg.delay,
        queue: cfg.queue,
        in_flight: None,
        src,
        dst,
        stats: LinkStats::default(),
        up: true,
        doomed: false,
        bitflip_next: 0,
        bitflip_flips: 0,
        truncate_next: 0,
        corrupt_ppm: 0,
        corrupt_flips: 0,
        corrupt_rng: None,
        prop: VecDeque::new(),
        sched: None,
        boundary,
    }
}

/// The packet id auto-assigned to the `seq`-th packet (1-based) sent by a
/// node whose packet-id namespace is `ns`.
///
/// Ids are a pure function of `(namespace, per-node send count)` — never
/// of global interleaving — so a sharded run that gives every node its
/// *global* id as namespace (see [`Simulator::set_pkt_namespace`]) assigns
/// byte-identical ids to the monolithic run, no matter how sends from
/// different nodes interleave. The namespace occupies the high bits
/// (offset by one so id 0 stays the "unassigned" sentinel), leaving 2^40
/// auto-assigned packets per node.
pub fn pkt_id(ns: u64, seq: u64) -> PacketId {
    debug_assert!(ns < (1 << 23), "packet-id namespace too large");
    debug_assert!(seq != 0 && seq < (1 << 40), "per-node packet seq overflow");
    PacketId(((ns + 1) << 40) | seq)
}

/// Timer payload, held in the slab while the timer waits in the queue.
///
/// Only timers live here: deliveries ride in per-link [`DirLink::prop`]
/// rings and transmission completions encode their link id in the event
/// key. The slot's generation lives once, in [`SimInner::slot_gen`], so
/// an entry is 16 bytes.
#[derive(Debug)]
pub(crate) struct TimerSlot {
    token: u64,
    /// The owning node's index, or [`VACANT_NODE`] for a slot with no live
    /// timer: either free (on the free list) or a cancelled timer whose
    /// queue entry has not been popped yet.
    node: u32,
    /// Detach handle from [`EventQueue::push`]: the wheel entry holding
    /// this timer's key, so a cancel can unsplice it in O(1) instead of
    /// leaving a tombstone (`u32::MAX` when the key went straight into the
    /// run and only tombstoning is possible).
    wheel: u32,
}

/// [`TimerSlot::node`] of a slot with no live timer.
const VACANT_NODE: u32 = u32::MAX;

impl TimerSlot {
    const VACANT: TimerSlot = TimerSlot {
        token: 0,
        node: VACANT_NODE,
        wheel: u32::MAX,
    };
}

const _: () = assert!(std::mem::size_of::<TimerSlot>() == 16);

/// High bit of [`EventKey::slot`]: the entry is a TxDone for directed link
/// `slot & !TXDONE_TAG` rather than an index into the payload slab.
/// Transmission-complete events need no slab entry at all: their only
/// payload is a [`DirLinkId`], which is encoded directly in the key.
const TXDONE_TAG: u32 = 1 << 31;

/// Second-highest bit of [`EventKey::slot`]: the entry is the head key for
/// directed link `slot & !DELIVER_TAG`'s propagation ring
/// ([`DirLink::prop`]). One such key covers an arbitrarily long burst of
/// arrivals; dispatch drains the ring until the next pending event would
/// be due first.
const DELIVER_TAG: u32 = 1 << 30;

/// Sentinel in the flat egress table for an unconnected port.
const NO_LINK: u32 = u32::MAX;

/// Shared mutable simulation state, accessed by nodes through [`Ctx`].
pub struct SimInner {
    pub(crate) now: Time,
    seq: u64,
    /// Pending events, ordered by `(time, seq)`; payloads live in `slab`.
    events: EventQueue,
    /// Timer payloads, indexed by `EventKey::slot`.
    pub(crate) slab: Vec<TimerSlot>,
    /// Per-slot reuse counter; bumped each time a slot is re-allocated
    /// from the free list. A [`TimerId`] carries the generation it was
    /// armed in, so a stale one never cancels a newer timer.
    slot_gen: Vec<u32>,
    /// Slots whose heap entry has been popped and are free for reuse.
    free_slots: Vec<u32>,
    pub(crate) links: Vec<DirLink>,
    /// Flat egress map: `egress_table[off + port]` is the directed link id
    /// leaving that port (`NO_LINK` if unconnected), with each node's
    /// `(off, len)` span in `egress_spans`.
    egress_table: Vec<u32>,
    egress_spans: Vec<(u32, u32)>,
    /// Per-node count of auto-assigned packet ids (see [`pkt_id`]).
    pkt_seq: Vec<u64>,
    /// Per-node packet-id namespace; defaults to the node's own id and is
    /// overridden by sharded runs so local nodes mint their *global* ids.
    pkt_ns: Vec<u64>,
    /// Boundary egress handoffs awaiting
    /// [`Simulator::drain_boundary_out`]: `(egress half-link, arrival
    /// time at the far end, packet)`, in transmission-completion order.
    outbox: Vec<(DirLinkId, Time, Packet)>,
    /// Packets handed off by boundary egress half-links (a sink in the
    /// global conservation law; zero in non-sharded runs).
    pub(crate) boundary_out_pkts: u64,
    /// Wire bytes handed off by boundary egress half-links.
    pub(crate) boundary_out_bytes: u64,
    /// Packets injected into boundary ingress half-links (a source in the
    /// global conservation law; zero in non-sharded runs).
    pub(crate) boundary_in_pkts: u64,
    /// Wire bytes injected into boundary ingress half-links.
    pub(crate) boundary_in_bytes: u64,
    /// Events processed so far (cancelled timers are skipped silently and
    /// do not count).
    processed: u64,
    pub(crate) rng: SmallRng,
    trace: Option<TraceRing>,
    /// Corruption-damaged packets destroyed by the engine (queue drop,
    /// link fault, crashed destination) before any receiver could verify
    /// them. The corruption study asserts this is zero so that every
    /// injected corruption is accounted for by a malformed counter.
    pub(crate) corrupted_destroyed: u64,
    /// The per-simulation metrics registry: every engine counter above is
    /// mirrored into it, and nodes record through [`Ctx`]. One registry per
    /// simulator, so parallel tests never share counters.
    pub(crate) telemetry: mtp_telemetry::Registry,
}

/// Recycle a destroyed packet, counting it toward
/// [`SimInner::corrupted_destroyed`] (and its registry mirror) if a
/// corruption fault had already damaged it.
fn destroy(pkt: Packet, corrupted_destroyed: &mut u64, telemetry: &mut mtp_telemetry::Registry) {
    if pkt.payload_dirty || matches!(pkt.headers, crate::packet::Headers::Mangled { .. }) {
        *corrupted_destroyed += 1;
        telemetry.count(mtp_telemetry::Metric::CorruptedDestroyed, 1);
    }
    crate::pool::recycle_packet(pkt);
}

impl SimInner {
    pub(crate) fn trace(&mut self, pkt: PacketId, node: NodeId, port: PortId, kind: TraceKind) {
        if let Some(ring) = &mut self.trace {
            ring.push(TraceEvent {
                time: self.now,
                pkt,
                node,
                port,
                kind,
            });
        }
    }

    /// Claim a payload slot, bumping its generation if it is being reused.
    fn alloc_slot(&mut self) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                let g = &mut self.slot_gen[slot as usize];
                *g = g.wrapping_add(1);
                slot
            }
            None => {
                let slot = self.slab.len() as u32;
                self.slab.push(TimerSlot::VACANT);
                self.slot_gen.push(0);
                slot
            }
        }
    }

    /// Hand a fully transmitted packet to its link's propagation ring,
    /// due at `time`. Only a new ring *head* costs an event-queue entry:
    /// anything behind the head is covered by the head's key, and an
    /// insert that lands in front (a delay cut mid-propagation) schedules
    /// a fresh key, leaving the old one to pop as a stale no-op.
    fn push_deliver(&mut self, time: Time, dir: DirLinkId, pkt: Packet) {
        debug_assert!(time >= self.now, "scheduling into the past");
        debug_assert!((dir.0 as u32) < DELIVER_TAG, "too many links");
        let seq = self.seq;
        self.seq += 1;
        let link = &mut self.links[dir.0];
        let mut pos = link.prop.len();
        while pos > 0 && link.prop[pos - 1].0 > time {
            pos -= 1;
        }
        link.prop.insert(pos, (time, seq, pkt));
        if pos == 0 {
            link.sched = Some((time, seq));
            self.events.push(EventKey {
                time,
                seq,
                slot: DELIVER_TAG | dir.0 as u32,
            });
        }
    }

    /// Should a delivery burst continue with `dir`'s ring front? True iff
    /// the front exists, is due by `until`, and precedes every other
    /// pending event. Otherwise re-schedules a head key for the remaining
    /// ring (if any, with the front's original sequence number so its
    /// ordering against same-instant events is preserved) and returns
    /// false.
    fn continue_burst(&mut self, dir: DirLinkId, until: Time) -> bool {
        let Some(&(nt, ns, _)) = self.links[dir.0].prop.front() else {
            return false;
        };
        let due = nt <= until
            && match self.events.peek() {
                Some(head) => (nt, ns) < (head.time, head.seq),
                None => true,
            };
        if due {
            return true;
        }
        self.links[dir.0].sched = Some((nt, ns));
        self.events.push(EventKey {
            time: nt,
            seq: ns,
            slot: DELIVER_TAG | dir.0 as u32,
        });
        false
    }

    /// Schedule a transmission-complete event. The link id rides in the
    /// heap key itself (see [`TXDONE_TAG`]), so the slab is untouched.
    fn push_tx_done(&mut self, time: Time, dir: DirLinkId) {
        debug_assert!(time >= self.now, "scheduling into the past");
        debug_assert!((dir.0 as u32) < DELIVER_TAG, "too many links");
        let seq = self.seq;
        self.seq += 1;
        self.events.push(EventKey {
            time,
            seq,
            slot: TXDONE_TAG | dir.0 as u32,
        });
    }

    pub(crate) fn schedule_timer(&mut self, at: Time, node: NodeId, token: u64) -> TimerId {
        let at = at.max(self.now);
        let node = u32::try_from(node.0)
            .ok()
            .filter(|&n| n != VACANT_NODE)
            .expect("node index fits a timer slot");
        let slot = self.alloc_slot();
        let seq = self.seq;
        self.seq += 1;
        let wheel = self.events.push(EventKey {
            time: at,
            seq,
            slot,
        });
        self.slab[slot as usize] = TimerSlot { token, node, wheel };
        TimerId((u64::from(slot) << 32) | u64::from(self.slot_gen[slot as usize]))
    }

    /// Cancel a timer in O(1): if the slot still holds the arming that `id`
    /// refers to (its generation is the slot's current one and the slot is
    /// not vacant: the arming has neither fired nor been cancelled),
    /// detach its key from the timing wheel and reclaim the slot
    /// immediately. When the key has already joined the run being served
    /// the wheel refuses the detach; the payload is blanked instead and
    /// the slot is reclaimed when the stale key pops — the old tombstone
    /// contract, now needed only for the handful of near-deadline cancels
    /// instead of every cancel.
    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        let slot = (id.0 >> 32) as usize;
        if self.slot_gen.get(slot) != Some(&(id.0 as u32)) {
            return;
        }
        let timer = &mut self.slab[slot];
        if timer.node == VACANT_NODE {
            return;
        }
        let wheel = timer.wheel;
        *timer = TimerSlot::VACANT;
        if self.events.cancel(wheel, slot as u32) {
            self.free_slots.push(slot as u32);
        }
    }

    /// Directed link leaving `node`'s `port`, if connected.
    #[inline]
    fn egress_get(&self, node: NodeId, port: PortId) -> Option<DirLinkId> {
        let (off, len) = *self.egress_spans.get(node.0)?;
        if port.0 >= len as usize {
            return None;
        }
        let v = self.egress_table[off as usize + port.0];
        (v != NO_LINK).then_some(DirLinkId(v as usize))
    }

    /// Record `dir` as the link leaving `node`'s `port`, growing (and if
    /// necessary relocating) the node's span in the flat table.
    ///
    /// # Panics
    /// Panics if the port is already connected.
    fn egress_set(&mut self, node: NodeId, port: PortId, dir: DirLinkId) {
        let (off, len) = self.egress_spans[node.0];
        if port.0 >= len as usize {
            let need = port.0 as u32 + 1;
            if off as usize + len as usize == self.egress_table.len() {
                // Span is already at the end: extend in place.
                self.egress_table
                    .resize(off as usize + need as usize, NO_LINK);
                self.egress_spans[node.0] = (off, need);
            } else {
                // Relocate the span to the end. The old cells are dead;
                // topology wiring is one-time setup so the waste is tiny.
                let new_off = self.egress_table.len() as u32;
                for i in 0..len as usize {
                    let v = self.egress_table[off as usize + i];
                    self.egress_table.push(v);
                }
                self.egress_table
                    .resize(new_off as usize + need as usize, NO_LINK);
                self.egress_spans[node.0] = (new_off, need);
            }
        }
        let (off, _) = self.egress_spans[node.0];
        let cell = &mut self.egress_table[off as usize + port.0];
        assert!(
            *cell == NO_LINK,
            "node {} port {} connected twice",
            node.0,
            port.0
        );
        *cell = dir.0 as u32;
    }

    pub(crate) fn send_from(&mut self, node: NodeId, port: PortId, mut pkt: Packet) {
        let dir = self
            .egress_get(node, port)
            .unwrap_or_else(|| panic!("node {} port {} is not connected", node.0, port.0));
        if pkt.id.0 == 0 {
            self.pkt_seq[node.0] += 1;
            pkt.id = pkt_id(self.pkt_ns[node.0], self.pkt_seq[node.0]);
        }
        let now = self.now;
        let pkt_id = pkt.id;
        let offered_bytes = pkt.wire_len as u64;
        self.trace(pkt_id, node, port, TraceKind::Offered);
        let link = &mut self.links[dir.0];
        link.stats.offered_pkts += 1;
        link.stats.offered_bytes += offered_bytes;
        self.telemetry.count(mtp_telemetry::Metric::PktsOffered, 1);
        self.telemetry
            .count(mtp_telemetry::Metric::BytesOffered, offered_bytes);
        // Fault injection: a downed link destroys every offered packet
        // (blackhole and drain alike refuse new admissions).
        if !link.up {
            link.stats.faulted_pkts += 1;
            link.stats.faulted_bytes += offered_bytes;
            self.telemetry.count(mtp_telemetry::Metric::PktsFaulted, 1);
            self.telemetry
                .count(mtp_telemetry::Metric::BytesFaulted, offered_bytes);
            self.trace(pkt_id, node, port, TraceKind::Dropped);
            destroy(pkt, &mut self.corrupted_destroyed, &mut self.telemetry);
            return;
        }
        // Wire corruption: damage the packet's bytes but still deliver it.
        // Exactly one fault touches a packet (bursts take precedence over
        // the steady-state rate), and packets a fault already damaged are
        // never re-corrupted, so every corruption event downstream maps to
        // exactly one malformed-packet rejection.
        if crate::corrupt::corruptible(&pkt) {
            let corrupted = if link.bitflip_next != 0 {
                link.bitflip_next -= 1;
                let flips = link.bitflip_flips;
                let rng = link.corrupt_rng.as_mut().expect("burst armed with seed");
                crate::corrupt::corrupt_bitflip(&mut pkt, flips, rng)
            } else if link.truncate_next != 0 {
                link.truncate_next -= 1;
                let rng = link.corrupt_rng.as_mut().expect("burst armed with seed");
                crate::corrupt::corrupt_truncate(&mut pkt, rng)
            } else if link.corrupt_ppm != 0 {
                let flips = link.corrupt_flips;
                let rng = link.corrupt_rng.as_mut().expect("rate armed with seed");
                use rand::Rng;
                rng.gen_range(0..1_000_000u32) < link.corrupt_ppm
                    && crate::corrupt::corrupt_bitflip(&mut pkt, flips, rng)
            } else {
                false
            };
            if corrupted {
                // Truncation shrinks the frame; the byte law accounts the
                // removed span as corruption loss on this link.
                let loss = offered_bytes - pkt.wire_len as u64;
                link.stats.corrupted_pkts += 1;
                link.stats.corrupt_loss_bytes += loss;
                self.telemetry
                    .count(mtp_telemetry::Metric::PktsCorrupted, 1);
                self.telemetry
                    .count(mtp_telemetry::Metric::BytesCorruptLoss, loss);
                self.trace(pkt_id, node, port, TraceKind::Corrupted);
            }
        }
        let link = &mut self.links[dir.0];
        // Fast path: if the link is idle and the discipline attests that
        // enqueue-then-dequeue would be an observable no-op right now
        // (empty FIFO, no marking, no scheduler state, no randomness),
        // start serializing directly and skip the queue round-trip. The
        // emitted trace events and stats are identical to the slow path.
        // Pays ≈ 3 % of `scn_corpus` and ≈ 5 % of `sim_fabric`
        // `ops_per_s` (PR 16 ablation, 10/10 pairs each; EXPERIMENTS.md
        // "Ablation table").
        if link.in_flight.is_none() && link.queue.transparent_when_idle() {
            link.stats.max_qlen_pkts = link.stats.max_qlen_pkts.max(1);
            let done = now + link.rate.serialize_time(pkt.wire_len);
            link.in_flight = Some(pkt);
            self.trace(pkt_id, node, port, TraceKind::Queued { marked: false });
            self.push_tx_done(done, dir);
            self.trace(pkt_id, node, port, TraceKind::TxStart);
            return;
        }
        // Otherwise every packet passes through the queue discipline so
        // policies that act per packet (ECN state, loss injection,
        // per-band accounting) see the traffic. On an idle link the packet
        // is dequeued again immediately, adding no delay.
        let enq_bytes = pkt.wire_len as u64;
        let bytes_before = link.queue.len_bytes() as u64;
        let mut dropped_len = 0u64;
        let verdict = match link.queue.enqueue(pkt, now) {
            EnqueueVerdict::Queued { marked } => {
                if marked {
                    link.stats.marked_pkts += 1;
                    self.telemetry.count(mtp_telemetry::Metric::PktsMarked, 1);
                }
                TraceKind::Queued { marked }
            }
            EnqueueVerdict::Dropped(dropped) => {
                dropped_len = dropped.wire_len as u64;
                link.stats.dropped_pkts += 1;
                link.stats.dropped_bytes += dropped_len;
                self.telemetry.count(mtp_telemetry::Metric::PktsDropped, 1);
                self.telemetry
                    .count(mtp_telemetry::Metric::BytesDropped, dropped_len);
                destroy(dropped, &mut self.corrupted_destroyed, &mut self.telemetry);
                TraceKind::Dropped
            }
            EnqueueVerdict::Trimmed => {
                link.stats.trimmed_pkts += 1;
                self.telemetry.count(mtp_telemetry::Metric::PktsTrimmed, 1);
                TraceKind::Trimmed
            }
        };
        // Any bytes the discipline neither kept nor handed back were cut
        // off the frame (NDP trimming) — measured as a delta so every
        // discipline's accounting is covered without trusting its verdict.
        let bytes_after = link.queue.len_bytes() as u64;
        let trim_loss = (enq_bytes + bytes_before).saturating_sub(bytes_after + dropped_len);
        if trim_loss > 0 {
            link.stats.trim_loss_bytes += trim_loss;
            self.telemetry
                .count(mtp_telemetry::Metric::BytesTrimLoss, trim_loss);
        }
        link.stats.max_qlen_pkts = link.stats.max_qlen_pkts.max(link.queue.len_pkts());
        self.telemetry.record(
            mtp_telemetry::HistId::QueueDepthPkts,
            link.queue.len_pkts() as u64,
        );
        self.trace(pkt_id, node, port, verdict);
        let link = &mut self.links[dir.0];
        if link.in_flight.is_none() {
            if let Some(next) = link.queue.dequeue(now) {
                let done = now + link.rate.serialize_time(next.wire_len);
                let nid = next.id;
                link.in_flight = Some(next);
                self.push_tx_done(done, dir);
                self.trace(nid, node, port, TraceKind::TxStart);
            }
        }
    }

    fn tx_done(&mut self, dir: DirLinkId) {
        let now = self.now;
        let link = &mut self.links[dir.0];
        let pkt = link
            .in_flight
            .take()
            .expect("TxDone with nothing in flight");
        if link.doomed {
            // The packet was mid-serialization when a blackhole cut took
            // the link down: it never reaches the far side. The next queued
            // packet (if the link has been restored and accepted new
            // traffic since) starts serializing normally.
            link.doomed = false;
            link.stats.faulted_pkts += 1;
            link.stats.faulted_bytes += pkt.wire_len as u64;
            self.telemetry.count(mtp_telemetry::Metric::PktsFaulted, 1);
            self.telemetry
                .count(mtp_telemetry::Metric::BytesFaulted, pkt.wire_len as u64);
            destroy(pkt, &mut self.corrupted_destroyed, &mut self.telemetry);
            if let Some(next) = link.queue.dequeue(now) {
                let done = now + link.rate.serialize_time(next.wire_len);
                let nid = next.id;
                let (src_node, src_port) = link.src;
                link.in_flight = Some(next);
                self.push_tx_done(done, dir);
                self.trace(nid, src_node, src_port, TraceKind::TxStart);
            }
            return;
        }
        let wire = pkt.wire_len as u64;
        link.stats.tx_pkts += 1;
        link.stats.tx_bytes += wire;
        self.telemetry.count(mtp_telemetry::Metric::PktsTx, 1);
        self.telemetry.count(mtp_telemetry::Metric::BytesTx, wire);
        let (src_node, src_port) = link.src;
        let boundary = link.boundary;
        let arrive = now + link.delay;
        let next_id = if let Some(next) = link.queue.dequeue(now) {
            let done = now + link.rate.serialize_time(next.wire_len);
            let nid = next.id;
            link.in_flight = Some(next);
            self.push_tx_done(done, dir);
            Some(nid)
        } else {
            None
        };
        if let Some(nid) = next_id {
            self.trace(nid, src_node, src_port, TraceKind::TxStart);
        }
        if boundary == BoundaryKind::Egress {
            // The far end of this link lives in another shard's simulator:
            // hand the packet (with its already-computed arrival time) to
            // the sharded runtime instead of delivering locally. Delivery
            // accounting and tracing happen exactly once, in the ingress
            // shard, when the runtime calls `inject_arrival` over there.
            self.boundary_out_pkts += 1;
            self.boundary_out_bytes += wire;
            self.telemetry
                .count(mtp_telemetry::Metric::PktsBoundaryOut, 1);
            self.telemetry
                .count(mtp_telemetry::Metric::BytesBoundaryOut, wire);
            self.outbox.push((dir, arrive, pkt));
        } else {
            self.push_deliver(arrive, dir, pkt);
        }
    }

    /// Destroy every packet queued on `dir`, counting them as faulted.
    /// Returns how many were flushed.
    fn flush_link(&mut self, dir: DirLinkId) -> usize {
        let now = self.now;
        let (src_node, src_port) = self.links[dir.0].src;
        let mut flushed = 0;
        loop {
            let link = &mut self.links[dir.0];
            let Some(pkt) = link.queue.dequeue(now) else {
                break;
            };
            link.stats.faulted_pkts += 1;
            link.stats.faulted_bytes += pkt.wire_len as u64;
            self.telemetry.count(mtp_telemetry::Metric::PktsFaulted, 1);
            self.telemetry
                .count(mtp_telemetry::Metric::BytesFaulted, pkt.wire_len as u64);
            let id = pkt.id;
            destroy(pkt, &mut self.corrupted_destroyed, &mut self.telemetry);
            flushed += 1;
            self.trace(id, src_node, src_port, TraceKind::Dropped);
        }
        flushed
    }

    pub(crate) fn egress_queue_len(&self, node: NodeId, port: PortId) -> (usize, usize) {
        match self.egress_get(node, port) {
            Some(dir) => {
                let q = &self.links[dir.0].queue;
                (q.len_pkts(), q.len_bytes())
            }
            None => (0, 0),
        }
    }

    pub(crate) fn port_connected(&self, node: NodeId, port: PortId) -> bool {
        self.egress_get(node, port).is_some()
    }
}

/// The simulator: topology plus event loop.
pub struct Simulator {
    pub(crate) inner: SimInner,
    pub(crate) nodes: Vec<Option<Box<dyn Node>>>,
    /// False while a node is crashed (fault injection): packets addressed
    /// to it are destroyed and its timers are swallowed.
    pub(crate) node_up: Vec<bool>,
    /// Packets destroyed because their destination node was down.
    pub(crate) faulted_deliveries: u64,
    /// Wire bytes destroyed because their destination node was down.
    pub(crate) faulted_delivery_bytes: u64,
    /// Packets delivered to live nodes. The audit's L5 checks the
    /// registry's mirror against it.
    pub(crate) delivered_pkts: u64,
    /// Wire bytes delivered to live nodes.
    pub(crate) delivered_bytes: u64,
    started: bool,
}

impl Simulator {
    /// A fresh, empty simulation seeded for determinism.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            inner: SimInner {
                now: Time::ZERO,
                seq: 0,
                events: EventQueue::new(),
                slab: Vec::new(),
                slot_gen: Vec::new(),
                free_slots: Vec::new(),
                links: Vec::new(),
                egress_table: Vec::new(),
                egress_spans: Vec::new(),
                pkt_seq: Vec::new(),
                pkt_ns: Vec::new(),
                outbox: Vec::new(),
                boundary_out_pkts: 0,
                boundary_out_bytes: 0,
                boundary_in_pkts: 0,
                boundary_in_bytes: 0,
                processed: 0,
                rng: SmallRng::seed_from_u64(seed),
                trace: None,
                corrupted_destroyed: 0,
                telemetry: mtp_telemetry::Registry::new(),
            },
            nodes: Vec::new(),
            node_up: Vec::new(),
            faulted_deliveries: 0,
            faulted_delivery_bytes: 0,
            delivered_pkts: 0,
            delivered_bytes: 0,
            started: false,
        }
    }

    /// Add a node; returns its id. Ports start unconnected.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.node_up.push(true);
        self.inner.pkt_seq.push(0);
        self.inner.pkt_ns.push(id.0 as u64);
        self.inner
            .egress_spans
            .push((self.inner.egress_table.len() as u32, 0));
        id
    }

    /// Connect `a`'s port `pa` to `b`'s port `pb` with independent per-
    /// direction configurations. Returns the directed link ids
    /// `(a→b, b→a)`.
    ///
    /// # Panics
    /// Panics if either port is already connected.
    pub fn connect(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        ab: LinkCfg,
        ba: LinkCfg,
    ) -> (DirLinkId, DirLinkId) {
        let id_ab = DirLinkId(self.inner.links.len());
        self.inner
            .links
            .push(new_dir_link(ab, (a, pa), (b, pb), BoundaryKind::Interior));
        let id_ba = DirLinkId(self.inner.links.len());
        self.inner
            .links
            .push(new_dir_link(ba, (b, pb), (a, pa), BoundaryKind::Interior));
        for (node, port, dir) in [(a, pa, id_ab), (b, pb, id_ba)] {
            self.inner.egress_set(node, port, dir);
        }
        (id_ab, id_ba)
    }

    /// Attach a **boundary egress half-link** to `src`'s `port`: the local
    /// end of an inter-shard link whose receiving end lives in another
    /// shard's simulator. Packets sent out the port serialize, queue, and
    /// count exactly as on an interior link, but on transmission
    /// completion they are staged for the sharded runtime (collect them
    /// with [`drain_boundary_out`](Self::drain_boundary_out)) instead of
    /// being scheduled for local delivery. Returns the half-link's id.
    pub fn connect_boundary_out(&mut self, src: NodeId, port: PortId, cfg: LinkCfg) -> DirLinkId {
        let id = DirLinkId(self.inner.links.len());
        self.inner.links.push(new_dir_link(
            cfg,
            (src, port),
            (src, port),
            BoundaryKind::Egress,
        ));
        self.inner.egress_set(src, port, id);
        id
    }

    /// Attach a **boundary ingress half-link** to `dst`'s `port`: the
    /// receiving end of an inter-shard link. Nothing can be sent out of
    /// this port (it is not registered as an egress); packets appear on
    /// it via [`inject_arrival`](Self::inject_arrival) and are delivered
    /// with ordinary delivery accounting and tracing. Returns the
    /// half-link's id.
    pub fn connect_boundary_in(&mut self, dst: NodeId, port: PortId, cfg: LinkCfg) -> DirLinkId {
        let id = DirLinkId(self.inner.links.len());
        self.inner.links.push(new_dir_link(
            cfg,
            (dst, port),
            (dst, port),
            BoundaryKind::Ingress,
        ));
        id
    }

    /// Inject a packet arriving on boundary ingress half-link `dir` at
    /// absolute time `at`. The sharded runtime calls this at an epoch
    /// barrier with the arrival time the egress shard computed; delivery
    /// then proceeds exactly as if the packet had finished propagating on
    /// an interior link. Each boundary crossing is thereby counted out
    /// once (egress shard) and in once (here), keeping the global
    /// conservation law exact at any instant.
    ///
    /// # Panics
    /// Panics if `dir` is not an ingress half-link or `at` is in the past.
    pub fn inject_arrival(&mut self, dir: DirLinkId, at: Time, pkt: Packet) {
        assert!(
            self.inner.links[dir.0].boundary == BoundaryKind::Ingress,
            "inject_arrival on a non-ingress link"
        );
        assert!(at >= self.inner.now, "inject_arrival into the past");
        let wire = pkt.wire_len as u64;
        self.inner.boundary_in_pkts += 1;
        self.inner.boundary_in_bytes += wire;
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::PktsBoundaryIn, 1);
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::BytesBoundaryIn, wire);
        self.inner.push_deliver(at, dir, pkt);
    }

    /// Take every boundary egress handoff staged since the last drain:
    /// `(egress half-link, arrival time at the far end, packet)`, in
    /// transmission-completion order. Empty unless the topology has
    /// egress half-links.
    pub fn drain_boundary_out(&mut self) -> Vec<(DirLinkId, Time, Packet)> {
        std::mem::take(&mut self.inner.outbox)
    }

    /// `(packets, wire bytes)` handed off by boundary egress half-links
    /// since construction (outbox-resident handoffs included).
    pub fn boundary_out(&self) -> (u64, u64) {
        (self.inner.boundary_out_pkts, self.inner.boundary_out_bytes)
    }

    /// `(packets, wire bytes)` injected into boundary ingress half-links
    /// since construction.
    pub fn boundary_in(&self) -> (u64, u64) {
        (self.inner.boundary_in_pkts, self.inner.boundary_in_bytes)
    }

    /// Is `dir` the ingress half of an inter-shard boundary link? Such
    /// half-links carry no egress-side stats of their own (the egress
    /// shard owns them), so digest and report code skips them.
    pub fn link_is_boundary_ingress(&self, dir: DirLinkId) -> bool {
        self.inner.links[dir.0].boundary == BoundaryKind::Ingress
    }

    /// Override the packet-id namespace of `node` (default: the node's
    /// own id). Auto-assigned ids are [`pkt_id`]`(ns, k)` for the node's
    /// k-th send, so a sharded run that sets every node's namespace to
    /// its *global* node id mints ids byte-identical to the monolithic
    /// run's.
    pub fn set_pkt_namespace(&mut self, node: NodeId, ns: u64) {
        self.inner.pkt_ns[node.0] = ns;
    }

    /// Symmetric convenience: both directions share `rate`, `delay`, and a
    /// drop-tail queue of `cap_pkts`.
    #[allow(clippy::too_many_arguments)] // 6 operands + self: a wiring helper
    pub fn connect_symmetric(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        rate: Bandwidth,
        delay: Duration,
        cap_pkts: usize,
    ) -> (DirLinkId, DirLinkId) {
        self.connect(
            a,
            pa,
            b,
            pb,
            LinkCfg::drop_tail(rate, delay, cap_pkts),
            LinkCfg::drop_tail(rate, delay, cap_pkts),
        )
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.inner.now
    }

    /// Counters for one link direction.
    pub fn link_stats(&self, dir: DirLinkId) -> &LinkStats {
        &self.inner.links[dir.0].stats
    }

    /// Number of directed links (valid [`DirLinkId`]s are `0..num_links`).
    pub fn num_links(&self) -> usize {
        self.inner.links.len()
    }

    /// Number of nodes (valid [`NodeId`]s are `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total events processed since construction (delivered packets,
    /// transmission completions, and fired timers).
    pub fn events_processed(&self) -> u64 {
        self.inner.processed
    }

    /// Instantaneous queue occupancy (packets, bytes) of a link direction.
    pub fn link_queue_len(&self, dir: DirLinkId) -> (usize, usize) {
        let q = &self.inner.links[dir.0].queue;
        (q.len_pkts(), q.len_bytes())
    }

    // ---- Fault injection -------------------------------------------------
    //
    // All of these are harness-level administrative actions (a fault
    // scheduler applies them between `run_until` segments). They are
    // deterministic — no randomness, no hidden ordering — and completely
    // inert when unused: a simulation that never calls them behaves
    // byte-identically to one built before they existed.

    /// Take one link direction down. [`LinkFailMode::Blackhole`] flushes
    /// its queue and destroys the packet mid-serialization;
    /// [`LinkFailMode::Drain`] lets traffic already inside the link finish.
    /// Either way, newly offered packets are destroyed (counted in
    /// [`LinkStats::faulted_pkts`]) until [`restore_link`](Self::restore_link).
    pub fn fail_link(&mut self, dir: DirLinkId, mode: LinkFailMode) {
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::FaultsApplied, 1);
        let link = &mut self.inner.links[dir.0];
        if link.up {
            self.inner
                .telemetry
                .gauge_add(mtp_telemetry::Gauge::LinksDown, 1);
        }
        link.up = false;
        if mode == LinkFailMode::Blackhole {
            if link.in_flight.is_some() {
                link.doomed = true;
            }
            self.inner.flush_link(dir);
        }
    }

    /// Bring a failed link direction back up. The link restarts idle (a
    /// drain finishes its backlog on its own pump; a blackhole flushed it),
    /// but any packets still queued are kicked back into service
    /// defensively so no sequence of faults can strand data.
    pub fn restore_link(&mut self, dir: DirLinkId) {
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::FaultsApplied, 1);
        let now = self.inner.now;
        let link = &mut self.inner.links[dir.0];
        if !link.up {
            self.inner
                .telemetry
                .gauge_add(mtp_telemetry::Gauge::LinksDown, -1);
        }
        link.up = true;
        if link.in_flight.is_none() {
            if let Some(next) = link.queue.dequeue(now) {
                let done = now + link.rate.serialize_time(next.wire_len);
                let nid = next.id;
                let (src_node, src_port) = link.src;
                link.in_flight = Some(next);
                self.inner.push_tx_done(done, dir);
                self.inner
                    .trace(nid, src_node, src_port, TraceKind::TxStart);
            }
        }
    }

    /// True unless the link direction is administratively failed.
    pub fn link_is_up(&self, dir: DirLinkId) -> bool {
        self.inner.links[dir.0].up
    }

    /// Change a link direction's serialization rate (pathlet degradation).
    /// Applies to future transmissions; the packet currently serializing
    /// keeps its original completion time.
    pub fn set_link_rate(&mut self, dir: DirLinkId, rate: Bandwidth) {
        self.inner.links[dir.0].rate = rate;
    }

    /// Change a link direction's propagation delay. Applies to packets
    /// finishing serialization from now on.
    pub fn set_link_delay(&mut self, dir: DirLinkId, delay: Duration) {
        self.inner.links[dir.0].delay = delay;
    }

    /// Flip `flips` random bits in each of the next `pkts` corruptible
    /// packets offered to this direction, and **deliver the damaged
    /// bytes**. Whoever receives them must verify and reject. Bit
    /// positions come from a dedicated RNG seeded with `seed`, so the
    /// damage pattern replays byte-identically. With `flips <= 3`,
    /// header damage is *guaranteed* detected (CRC-16 Hamming distance),
    /// making corruption accounting exact.
    pub fn bitflip_burst(&mut self, dir: DirLinkId, pkts: u32, flips: u8, seed: u64) {
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::FaultsApplied, 1);
        let link = &mut self.inner.links[dir.0];
        link.bitflip_next = link.bitflip_next.saturating_add(pkts);
        link.bitflip_flips = flips;
        link.corrupt_rng = Some(SmallRng::seed_from_u64(seed));
    }

    /// Truncate each of the next `pkts` corruptible packets offered to
    /// this direction at a random cut point, and deliver the shortened
    /// frame. Cuts inside the header leave an unverifiable stub; cuts in
    /// the payload leave the header intact but the payload dirty.
    pub fn truncate_burst(&mut self, dir: DirLinkId, pkts: u32, seed: u64) {
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::FaultsApplied, 1);
        let link = &mut self.inner.links[dir.0];
        link.truncate_next = link.truncate_next.saturating_add(pkts);
        link.corrupt_rng = Some(SmallRng::seed_from_u64(seed));
    }

    /// Arm a steady-state corruption rate on this direction: each
    /// corruptible packet is independently bit-flipped (with `flips`
    /// flips) with probability `ppm` per million. Pass `ppm = 0` to
    /// disarm. Bursts, if also armed, take precedence packet-by-packet.
    pub fn set_corrupt_rate(&mut self, dir: DirLinkId, ppm: u32, flips: u8, seed: u64) {
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::FaultsApplied, 1);
        let link = &mut self.inner.links[dir.0];
        link.corrupt_ppm = ppm.min(1_000_000);
        link.corrupt_flips = flips;
        if ppm == 0 {
            // Disarm, but never strand an in-progress burst's RNG.
            if link.bitflip_next == 0 && link.truncate_next == 0 {
                link.corrupt_rng = None;
            }
        } else {
            link.corrupt_rng = Some(SmallRng::seed_from_u64(seed));
        }
    }

    /// Corruption-damaged packets destroyed by the engine (queue drop,
    /// link fault, crashed destination) before any receiver could verify
    /// them. When zero, every corrupted packet is accounted for by some
    /// device's malformed counter.
    pub fn corrupted_destroyed(&self) -> u64 {
        self.inner.corrupted_destroyed
    }

    /// Crash a node: its [`Node::on_fault`] hook runs (to flush internal
    /// state), every packet queued on its egress links is destroyed along
    /// with the ones mid-serialization, and until
    /// [`restart_node`](Self::restart_node) all packets addressed to it are
    /// destroyed on arrival and its timers are swallowed. Idempotent.
    pub fn crash_node(&mut self, id: NodeId) {
        if !self.node_up[id.0] {
            return;
        }
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::FaultsApplied, 1);
        self.inner
            .telemetry
            .gauge_add(mtp_telemetry::Gauge::NodesDown, 1);
        self.with_node(id, |n, ctx| n.on_fault(ctx, crate::node::NodeFault::Crash));
        self.node_up[id.0] = false;
        for d in 0..self.inner.links.len() {
            if self.inner.links[d].src.0 == id {
                if self.inner.links[d].in_flight.is_some() {
                    self.inner.links[d].doomed = true;
                }
                self.inner.flush_link(DirLinkId(d));
            }
        }
    }

    /// Restart a crashed node. Its [`Node::on_fault`] hook runs with
    /// [`NodeFault::Restart`](crate::node::NodeFault::Restart) so it can
    /// re-arm periodic timers lost during the outage. Idempotent.
    pub fn restart_node(&mut self, id: NodeId) {
        if self.node_up[id.0] {
            return;
        }
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::FaultsApplied, 1);
        self.inner
            .telemetry
            .gauge_add(mtp_telemetry::Gauge::NodesDown, -1);
        self.node_up[id.0] = true;
        self.with_node(id, |n, ctx| {
            n.on_fault(ctx, crate::node::NodeFault::Restart)
        });
    }

    /// True unless the node is currently crashed.
    pub fn node_is_up(&self, id: NodeId) -> bool {
        self.node_up[id.0]
    }

    /// Packets destroyed on arrival because their destination node was
    /// crashed.
    pub fn faulted_deliveries(&self) -> u64 {
        self.faulted_deliveries
    }

    /// Wire bytes destroyed on arrival because their destination node was
    /// crashed.
    pub fn faulted_delivery_bytes(&self) -> u64 {
        self.faulted_delivery_bytes
    }

    /// Packets delivered to live nodes since construction.
    pub fn delivered_pkts(&self) -> u64 {
        self.delivered_pkts
    }

    /// Wire bytes delivered to live nodes since construction.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    // ---- Telemetry -------------------------------------------------------

    /// This simulation's metrics registry (counters, gauges, histograms).
    pub fn telemetry(&self) -> &mtp_telemetry::Registry {
        &self.inner.telemetry
    }

    /// Mutable access to the registry, for harness-level recording (fault
    /// drivers, workload generators) — and for tamper tests that verify
    /// the audit catches a miscounting bug.
    pub fn telemetry_mut(&mut self) -> &mut mtp_telemetry::Registry {
        &mut self.inner.telemetry
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> mtp_telemetry::Snapshot {
        self.inner.telemetry.snapshot()
    }

    /// Arm a timer on `node` from harness code (e.g. to start a workload at
    /// a chosen time).
    pub fn schedule(&mut self, at: Time, node: NodeId, token: u64) -> TimerId {
        self.inner.schedule_timer(at, node, token)
    }

    /// Cancel a timer from harness code. Like
    /// [`Ctx::cancel_timer`](crate::node::Ctx::cancel_timer), cancelling an
    /// already-fired or already-cancelled timer is a no-op.
    pub fn cancel(&mut self, id: TimerId) {
        self.inner.cancel_timer(id);
    }

    /// Record per-packet events into a ring holding the last `cap` entries
    /// (a pcap for the simulated world; see [`crate::tracefile`]).
    pub fn enable_trace(&mut self, cap: usize) {
        self.inner.trace = Some(TraceRing::new(cap));
    }

    /// The retained trace events (oldest first); empty if tracing is off.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .trace
            .as_ref()
            .map(TraceRing::events)
            .unwrap_or_default()
    }

    /// Total trace events ever pushed to the ring (retained or evicted);
    /// 0 if tracing is off. A digest over `trace_events()` is only a
    /// *complete* record when this equals the retained count — i.e. the
    /// ring never wrapped.
    pub fn trace_total(&self) -> u64 {
        self.inner.trace.as_ref().map(|t| t.total).unwrap_or(0)
    }

    /// Retained trace events for one packet.
    pub fn packet_trace(&self, pkt: PacketId) -> Vec<TraceEvent> {
        self.inner
            .trace
            .as_ref()
            .map(|t| t.packet_history(pkt))
            .unwrap_or_default()
    }

    /// Borrow a node downcast to its concrete type, for reading results out
    /// after (or during) a run.
    ///
    /// # Panics
    /// Panics if the node is of a different concrete type.
    pub fn node_as<T: Node>(&self, id: NodeId) -> &T {
        let node: &dyn Node = self.nodes[id.0]
            .as_deref()
            .expect("node is currently processing an event");
        (node as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("node has a different concrete type")
    }

    /// Mutable variant of [`node_as`](Self::node_as).
    pub fn node_as_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let node: &mut dyn Node = self.nodes[id.0]
            .as_deref_mut()
            .expect("node is currently processing an event");
        (node as &mut dyn std::any::Any)
            .downcast_mut::<T>()
            .expect("node has a different concrete type")
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.with_node(NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    fn with_node<R>(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>) -> R) -> R {
        let mut node = self.nodes[id.0].take().expect("re-entrant node dispatch");
        let r = {
            let mut ctx = Ctx {
                inner: &mut self.inner,
                node: id,
            };
            f(node.as_mut(), &mut ctx)
        };
        self.nodes[id.0] = Some(node);
        r
    }

    /// Pop one queue entry, advance the clock, and dispatch its payload
    /// if live. Returns `None` on an empty queue, otherwise whether an
    /// event was actually dispatched (a cancelled timer or a stale
    /// delivery head key advances the clock but dispatches nothing,
    /// matching the pre-slab engine).
    ///
    /// `until` bounds batched delivery: a delivery head key drains its
    /// link's propagation ring only up to `until` (the `run_until`
    /// horizon), never past it.
    fn pop_one(&mut self, until: Time) -> Option<bool> {
        let key = self.inner.events.pop()?;
        self.inner.now = key.time;
        if key.slot & TXDONE_TAG != 0 {
            self.inner.processed += 1;
            self.inner
                .tx_done(DirLinkId((key.slot & !TXDONE_TAG) as usize));
            return Some(true);
        }
        if key.slot & DELIVER_TAG != 0 {
            let dir = DirLinkId((key.slot & !DELIVER_TAG) as usize);
            return Some(self.deliver_batch(dir, key, until));
        }
        let timer = std::mem::replace(&mut self.inner.slab[key.slot as usize], TimerSlot::VACANT);
        self.inner.free_slots.push(key.slot);
        if timer.node == VACANT_NODE {
            return Some(false);
        }
        let node = NodeId(timer.node as usize);
        if !self.node_up[node.0] {
            // Timers of a crashed node are swallowed; on restart the node
            // re-arms what it needs in `on_fault`.
            return Some(false);
        }
        self.inner.processed += 1;
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::TimersFired, 1);
        self.with_node(node, |n, ctx| n.on_timer(ctx, timer.token));
        Some(true)
    }

    /// Serve a delivery head key: drain `dir`'s propagation ring for as
    /// long as the ring front precedes every other pending event and the
    /// `until` horizon. One queue entry thereby covers an arbitrarily
    /// long back-to-back burst, but per-packet ordering, clock advances,
    /// traces, and counters are byte-identical to one-event-per-packet
    /// dispatch: the front is re-checked against the queue after every
    /// `on_packet`, so anything a receiver schedules mid-burst is
    /// processed exactly where a dedicated delivery event would have
    /// been.
    fn deliver_batch(&mut self, dir: DirLinkId, key: EventKey, until: Time) -> bool {
        let link = &mut self.inner.links[dir.0];
        if link.sched != Some((key.time, key.seq)) {
            // Stale head key: the ring head changed after this key was
            // pushed (a delay cut re-ordered arrivals). The replacement
            // key covers the ring; skip like a cancelled timer.
            return false;
        }
        link.sched = None;
        let (node, port) = link.dst;
        if !self.node_up[node.0] {
            // The destination crashed while these packets were in
            // propagation: they arrive at a dead port.
            loop {
                let inner = &mut self.inner;
                let (time, _, pkt) = inner.links[dir.0]
                    .prop
                    .pop_front()
                    .expect("scheduled head on empty ring");
                inner.now = time;
                self.faulted_deliveries += 1;
                self.faulted_delivery_bytes += pkt.wire_len as u64;
                inner
                    .telemetry
                    .count(mtp_telemetry::Metric::FaultedDeliveries, 1);
                inner.telemetry.count(
                    mtp_telemetry::Metric::BytesFaultedDeliveries,
                    pkt.wire_len as u64,
                );
                inner.trace(pkt.id, node, port, crate::tracefile::TraceKind::Dropped);
                destroy(pkt, &mut inner.corrupted_destroyed, &mut inner.telemetry);
                if !self.inner.continue_burst(dir, until) {
                    break;
                }
            }
            return false;
        }
        let (dp, db) = self.with_node(node, |n, ctx| {
            let mut dp = 0u64;
            let mut db = 0u64;
            loop {
                let inner = &mut *ctx.inner;
                let (time, _, pkt) = inner.links[dir.0]
                    .prop
                    .pop_front()
                    .expect("scheduled head on empty ring");
                inner.now = time;
                inner.processed += 1;
                dp += 1;
                db += pkt.wire_len as u64;
                inner
                    .telemetry
                    .count(mtp_telemetry::Metric::PktsDelivered, 1);
                inner
                    .telemetry
                    .count(mtp_telemetry::Metric::BytesDelivered, pkt.wire_len as u64);
                inner.trace(pkt.id, node, port, crate::tracefile::TraceKind::Delivered);
                n.on_packet(ctx, port, pkt);
                if !ctx.inner.continue_burst(dir, until) {
                    break;
                }
            }
            (dp, db)
        });
        self.delivered_pkts += dp;
        self.delivered_bytes += db;
        true
    }

    /// Process events until one is dispatched (cancelled timers are
    /// skipped). Returns `false` when the event queue is empty. A
    /// back-to-back arrival burst on one link counts as one dispatch.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        loop {
            match self.pop_one(Time(u64::MAX)) {
                None => return false,
                Some(true) => return true,
                Some(false) => {}
            }
        }
    }

    /// Run until the event queue drains.
    pub fn run(&mut self) {
        self.start_if_needed();
        while self.pop_one(Time(u64::MAX)).is_some() {}
    }

    /// Run until simulation time reaches `until` (events at exactly `until`
    /// are processed). Returns true if events remain.
    pub fn run_until(&mut self, until: Time) -> bool {
        self.start_if_needed();
        loop {
            match self.inner.events.peek() {
                Some(key) if key.time <= until => {
                    self.pop_one(until);
                }
                Some(_) => {
                    self.inner.now = until;
                    return true;
                }
                None => {
                    self.inner.now = self.inner.now.max(until);
                    return false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Headers;

    /// Fires one packet at start, counts what it receives, echoes nothing.
    struct Pitcher {
        target_port: PortId,
        n: u32,
        size: u32,
    }
    impl Node for Pitcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.n {
                ctx.send(self.target_port, Packet::new(Headers::Raw, self.size));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn name(&self) -> &str {
            "pitcher"
        }
    }

    /// Records arrival times.
    #[derive(Default)]
    struct Catcher {
        arrivals: Vec<Time>,
    }
    impl Node for Catcher {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {
            self.arrivals.push(ctx.now());
        }
        fn name(&self) -> &str {
            "catcher"
        }
    }

    #[test]
    fn single_packet_latency_is_serialization_plus_propagation() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Pitcher {
            target_port: PortId(0),
            n: 1,
            size: 1500,
        }));
        let b = sim.add_node(Box::new(Catcher::default()));
        sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(100),
            Duration::from_micros(1),
            64,
        );
        sim.run();
        let catcher = sim.node_as::<Catcher>(b);
        assert_eq!(catcher.arrivals.len(), 1);
        // 120 ns serialization + 1 us propagation.
        assert_eq!(catcher.arrivals[0], Time::ZERO + Duration::from_nanos(1120));
    }

    #[test]
    fn back_to_back_packets_pace_at_link_rate() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Pitcher {
            target_port: PortId(0),
            n: 3,
            size: 1500,
        }));
        let b = sim.add_node(Box::new(Catcher::default()));
        sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(100),
            Duration::from_micros(1),
            64,
        );
        sim.run();
        let arr = &sim.node_as::<Catcher>(b).arrivals;
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].since(arr[0]), Duration::from_nanos(120));
        assert_eq!(arr[2].since(arr[1]), Duration::from_nanos(120));
    }

    #[test]
    fn same_instant_arrivals_are_delivered_one_by_one_in_order() {
        /// Logs each arrival, and a zero-delay timer armed by the first.
        #[derive(Default)]
        struct Logger(Vec<String>);
        impl Node for Logger {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
                if self.0.is_empty() {
                    ctx.set_timer(Duration::ZERO, 0);
                }
                self.0.push(format!("pkt {} @{}", pkt.id.0, ctx.now().0));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                self.0.push(format!("timer @{}", ctx.now().0));
            }
        }
        let mut sim = Simulator::new(1);
        // Zero-length frames serialize in zero time, so all four share one
        // arrival instant on the propagation ring.
        let a = sim.add_node(Box::new(Pitcher {
            target_port: PortId(0),
            n: 4,
            size: 0,
        }));
        let b = sim.add_node(Box::new(Logger::default()));
        sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(100),
            Duration::from_micros(1),
            64,
        );
        sim.enable_trace(64);
        sim.run();
        // Each frame gets its own `on_packet`, in transmission order; the
        // timer the first one armed for the same instant runs after the
        // whole burst, exactly where one delivery event per packet puts it.
        let at = Duration::from_micros(1).0;
        let delivered: Vec<(Time, u64)> = sim
            .trace_events()
            .iter()
            .filter(|e| e.kind == crate::tracefile::TraceKind::Delivered)
            .map(|e| (e.time, e.pkt.0))
            .collect();
        let first = delivered[0].1;
        let ids = first..first + 4;
        assert_eq!(
            delivered,
            ids.clone().map(|id| (Time(at), id)).collect::<Vec<_>>()
        );
        let want: Vec<String> = ids
            .map(|id| format!("pkt {id} @{at}"))
            .chain([format!("timer @{at}")])
            .collect();
        assert_eq!(sim.node_as::<Logger>(b).0, want);
        assert_eq!(sim.delivered_pkts(), 4);
        assert_eq!(sim.delivered_bytes(), 0);
        let t = sim.telemetry();
        assert_eq!(t.get(mtp_telemetry::Metric::PktsDelivered), 4);
        assert_eq!(t.get(mtp_telemetry::Metric::BytesDelivered), 0);
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Pitcher {
            target_port: PortId(0),
            n: 10,
            size: 1500,
        }));
        let b = sim.add_node(Box::new(Catcher::default()));
        // Queue capacity 4 => 1 in flight + 4 queued = 5 delivered, 5 dropped.
        let (ab, _) = sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(1),
            Duration::from_micros(1),
            4,
        );
        sim.run();
        assert_eq!(sim.node_as::<Catcher>(b).arrivals.len(), 5);
        let stats = sim.link_stats(ab);
        assert_eq!(stats.offered_pkts, 10);
        assert_eq!(stats.tx_pkts, 5);
        assert_eq!(stats.dropped_pkts, 5);
        assert_eq!(stats.max_qlen_pkts, 4);
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Pitcher {
            target_port: PortId(0),
            n: 2,
            size: 125_000,
        }));
        let b = sim.add_node(Box::new(Catcher::default()));
        sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(1),
            Duration::ZERO,
            64,
        );
        // Each packet takes 1 ms to serialize at 1 Gbps.
        let more = sim.run_until(Time::ZERO + Duration::from_micros(1500));
        assert!(more, "second packet still pending");
        assert_eq!(sim.node_as::<Catcher>(b).arrivals.len(), 1);
        sim.run();
        assert_eq!(sim.node_as::<Catcher>(b).arrivals.len(), 2);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        struct TimerNode {
            fired: Vec<u64>,
            cancel_me: Option<TimerId>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_micros(2), 2);
                ctx.set_timer(Duration::from_micros(1), 1);
                let id = ctx.set_timer(Duration::from_micros(3), 3);
                self.cancel_me = Some(id);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
                if token == 1 {
                    let id = self.cancel_me.take().expect("set in on_start");
                    ctx.cancel_timer(id);
                }
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(TimerNode {
            fired: vec![],
            cancel_me: None,
        }));
        sim.run();
        assert_eq!(sim.node_as::<TimerNode>(n).fired, vec![1, 2]);
    }

    #[test]
    fn cancel_after_fire_is_a_noop_and_leaks_no_state() {
        /// Counts fires; does nothing else.
        #[derive(Default)]
        struct Counter {
            fired: u64,
        }
        impl Node for Counter {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, _token: u64) {
                self.fired += 1;
            }
        }

        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(Counter::default()));
        let mut stale: Vec<TimerId> = Vec::new();
        for round in 0..2048u64 {
            let at = sim.now() + Duration::from_nanos(10);
            stale.push(sim.schedule(at, n, round));
            sim.run();
            // Cancel every timer that has ever fired, every round. With the
            // old tombstone-set design this grew state forever (and each
            // cancel was a hash insert); with generation-stamped slots it
            // must be a pure no-op.
            for &id in &stale {
                sim.cancel(id);
            }
        }
        assert_eq!(sim.node_as::<Counter>(n).fired, 2048, "every timer fired");
        assert!(sim.inner.events.is_empty());
        assert!(
            sim.inner.slab.len() <= 2,
            "slot slab must not grow under fire/cancel churn: {} slots",
            sim.inner.slab.len()
        );
        assert!(
            sim.inner.free_slots.len() <= 2,
            "free list must not grow: {} entries",
            sim.inner.free_slots.len()
        );
    }

    #[test]
    fn stale_cancel_does_not_kill_a_reused_slot() {
        #[derive(Default)]
        struct Counter {
            fired: Vec<u64>,
        }
        impl Node for Counter {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }

        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(Counter::default()));
        let first = sim.schedule(Time::ZERO + Duration::from_nanos(10), n, 1);
        sim.run();
        // The second timer reuses the first one's slot (same slot index,
        // bumped generation). A stale cancel of `first` must not touch it.
        let _second = sim.schedule(sim.now() + Duration::from_nanos(10), n, 2);
        sim.cancel(first);
        sim.run();
        assert_eq!(sim.node_as::<Counter>(n).fired, vec![1, 2]);
    }

    #[test]
    fn a_cancelled_timer_stays_cancelled_and_its_slot_is_reused_cleanly() {
        #[derive(Default)]
        struct Counter {
            fired: Vec<u64>,
        }
        impl Node for Counter {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }

        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(Counter::default()));
        let first = sim.schedule(Time::ZERO + Duration::from_micros(50), n, 1);
        sim.cancel(first);
        // A second cancel of the same handle finds the slot vacant (or
        // reused under a new generation) and does nothing.
        sim.cancel(first);
        let second = sim.schedule(Time::ZERO + Duration::from_micros(60), n, 2);
        assert_eq!(
            (second.0 >> 32),
            (first.0 >> 32),
            "the freed slot is reused"
        );
        assert_ne!(second, first, "under a new generation");
        sim.cancel(first);
        sim.run();
        assert_eq!(sim.node_as::<Counter>(n).fired, vec![2]);
    }

    #[test]
    fn equal_time_events_run_in_schedule_order() {
        struct T(Vec<u64>);
        impl Node for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for token in 0..5 {
                    ctx.set_timer(Duration::from_micros(1), token);
                }
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, token: u64) {
                self.0.push(token);
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(T(vec![])));
        sim.run();
        assert_eq!(sim.node_as::<T>(n).0, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn sending_on_unconnected_port_panics() {
        struct Bad;
        impl Node for Bad {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(PortId(0), Packet::new(Headers::Raw, 100));
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        }
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(Bad));
        sim.run();
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> Vec<Time> {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node(Box::new(Pitcher {
                target_port: PortId(0),
                n: 50,
                size: 900,
            }));
            let b = sim.add_node(Box::new(Catcher::default()));
            sim.connect_symmetric(
                a,
                PortId(0),
                b,
                PortId(0),
                Bandwidth::from_gbps(10),
                Duration::from_nanos(500),
                16,
            );
            sim.run();
            sim.node_as::<Catcher>(b).arrivals.clone()
        }
        assert_eq!(run_once(7), run_once(7));
    }

    /// Echoes every arriving packet back out the arrival port.
    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
            ctx.send(port, pkt);
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    fn fault_pair(n: u32) -> (Simulator, NodeId, NodeId, DirLinkId, DirLinkId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Pitcher {
            target_port: PortId(0),
            n,
            size: 1500,
        }));
        let b = sim.add_node(Box::new(Catcher::default()));
        let (ab, ba) = sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(10),
            Duration::from_micros(1),
            64,
        );
        (sim, a, b, ab, ba)
    }

    #[test]
    fn blackhole_destroys_queue_and_in_flight() {
        // 10 Gbps, 1500 B → 1.2 µs serialization each. Cut at 2 µs: pkt 0
        // delivered (finished serializing at 1.2 µs), pkt 1 mid-wire is
        // doomed, pkts 2..8 queued are flushed.
        let (mut sim, _a, b, ab, _ba) = fault_pair(8);
        sim.run_until(Time::ZERO + Duration::from_micros(2));
        sim.fail_link(ab, LinkFailMode::Blackhole);
        sim.run();
        assert_eq!(sim.node_as::<Catcher>(b).arrivals.len(), 1);
        // 1 in-flight doomed + 6 flushed = 7 faulted.
        assert_eq!(sim.link_stats(ab).faulted_pkts, 7);
        assert!(!sim.link_is_up(ab));
    }

    #[test]
    fn drain_finishes_backlog_but_refuses_new_offers() {
        /// Sends `burst` packets at start, one more per timer firing.
        struct TimedPitcher {
            burst: u32,
        }
        impl Node for TimedPitcher {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..self.burst {
                    ctx.send(PortId(0), Packet::new(Headers::Raw, 1500));
                }
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
                ctx.send(PortId(0), Packet::new(Headers::Raw, 1500));
            }
        }
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(TimedPitcher { burst: 8 }));
        let b = sim.add_node(Box::new(Catcher::default()));
        let (ab, _ba) = sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(10),
            Duration::from_micros(1),
            64,
        );
        sim.run_until(Time::ZERO + Duration::from_micros(2));
        sim.fail_link(ab, LinkFailMode::Drain);
        // A fresh offer while draining is destroyed...
        sim.schedule(sim.now() + Duration::from_micros(1), a, 0);
        sim.run();
        // ...while the queued backlog + in-flight packet all complete.
        assert_eq!(sim.node_as::<Catcher>(b).arrivals.len(), 8);
        assert_eq!(sim.link_stats(ab).faulted_pkts, 1);
    }

    #[test]
    fn restore_link_resumes_delivery() {
        let (mut sim, _a, b, ab, _ba) = fault_pair(4);
        sim.run_until(Time::ZERO + Duration::from_micros(2));
        sim.fail_link(ab, LinkFailMode::Blackhole);
        sim.run_until(Time::ZERO + Duration::from_micros(10));
        let stranded = sim.node_as::<Catcher>(b).arrivals.len();
        sim.restore_link(ab);
        assert!(sim.link_is_up(ab));
        sim.run();
        // Nothing new arrives (everything was destroyed), but the link is
        // usable again — covered end-to-end by the faults crate tests.
        assert_eq!(sim.node_as::<Catcher>(b).arrivals.len(), stranded);
    }

    #[test]
    fn crashed_node_destroys_deliveries_and_swallows_timers() {
        struct Ticker {
            fired: u32,
        }
        impl Node for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_micros(1), 0);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
                self.fired += 1;
                ctx.set_timer(Duration::from_micros(1), 0);
            }
        }
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Pitcher {
            target_port: PortId(0),
            n: 4,
            size: 1500,
        }));
        let b = sim.add_node(Box::new(Ticker { fired: 0 }));
        sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(10),
            Duration::from_micros(1),
            64,
        );
        sim.run_until(Time::ZERO + Duration::from_nanos(500));
        sim.crash_node(b);
        assert!(!sim.node_is_up(b));
        sim.run_until(Time::ZERO + Duration::from_micros(50));
        assert_eq!(sim.faulted_deliveries(), 4, "all deliveries destroyed");
        assert_eq!(sim.node_as::<Ticker>(b).fired, 0, "timers swallowed");
        sim.restart_node(b);
        assert!(sim.node_is_up(b));
        // Restart alone does not resurrect the periodic timer — the node's
        // on_fault hook is responsible (Ticker has none), so it stays quiet.
        sim.run_until(Time::ZERO + Duration::from_micros(60));
        assert_eq!(sim.node_as::<Ticker>(b).fired, 0);
    }

    #[test]
    fn node_fault_hooks_fire_on_crash_and_restart() {
        #[derive(Default)]
        struct Recorder {
            faults: Vec<crate::node::NodeFault>,
        }
        impl Node for Recorder {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: crate::node::NodeFault) {
                self.faults.push(fault);
                if fault == crate::node::NodeFault::Restart {
                    // Hooks may use the full Ctx, e.g. re-arm timers.
                    ctx.set_timer(Duration::from_micros(1), 7);
                }
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(Recorder::default()));
        sim.crash_node(n);
        sim.crash_node(n); // idempotent: second crash is a no-op
        sim.restart_node(n);
        sim.restart_node(n); // idempotent
        use crate::node::NodeFault::{Crash, Restart};
        assert_eq!(sim.node_as::<Recorder>(n).faults, vec![Crash, Restart]);
    }

    #[test]
    fn crash_flushes_crashed_nodes_egress() {
        // Echo node with a backlog on its return link: crash it mid-stream
        // and its egress queue + in-flight packet must die with it.
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Pitcher {
            target_port: PortId(0),
            n: 8,
            size: 1500,
        }));
        let b = sim.add_node(Box::new(Echo));
        let (_ab, ba) = sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(10),
            Duration::from_micros(1),
            64,
        );
        // Let some echoes start flowing back, then crash the echo node.
        sim.run_until(Time::ZERO + Duration::from_micros(4));
        sim.crash_node(b);
        sim.run();
        let st = sim.link_stats(ba);
        assert!(st.faulted_pkts > 0, "crashed node's egress flushed");
        assert_eq!(sim.link_queue_len(ba).0, 0);
    }

    #[test]
    fn degradation_changes_apply_to_future_transmissions() {
        let (mut sim, _a, b, ab, _ba) = fault_pair(2);
        // Slow the link 10x and add 9 µs of delay before anything runs.
        sim.set_link_rate(ab, Bandwidth::from_gbps(1));
        sim.set_link_delay(ab, Duration::from_micros(10));
        sim.run();
        let arr = &sim.node_as::<Catcher>(b).arrivals;
        // 12 µs serialization + 10 µs propagation for the first packet.
        assert_eq!(arr[0], Time::ZERO + Duration::from_micros(22));
        assert_eq!(arr[1].since(arr[0]), Duration::from_micros(12));
    }

    #[test]
    fn faults_are_inert_when_unused() {
        // A run that never touches the fault API must be identical to the
        // pre-fault engine: counters zero, deliveries complete.
        let (mut sim, _a, b, ab, ba) = fault_pair(5);
        sim.run();
        assert_eq!(sim.node_as::<Catcher>(b).arrivals.len(), 5);
        assert_eq!(sim.link_stats(ab).faulted_pkts, 0);
        assert_eq!(sim.link_stats(ba).faulted_pkts, 0);
        assert_eq!(sim.link_stats(ab).corrupted_pkts, 0);
        assert_eq!(sim.faulted_deliveries(), 0);
        assert_eq!(sim.corrupted_destroyed(), 0);
    }

    /// Sends `n` header-only MTP packets at start (header-only so every
    /// corruption event is guaranteed to land in the header region).
    struct MtpPitcher {
        n: u32,
    }
    impl Node for MtpPitcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.n {
                let hdr = crate::pool::boxed(mtp_wire::MtpHeader::default());
                let wire = hdr.wire_len() as u32;
                ctx.send(PortId(0), Packet::new(Headers::Mtp(hdr), wire));
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
    }

    /// Catches whole packets (not just arrival times).
    #[derive(Default)]
    struct PacketCatcher {
        got: Vec<Packet>,
    }
    impl Node for PacketCatcher {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, pkt: Packet) {
            self.got.push(pkt);
        }
    }

    fn corruption_pair(n: u32) -> (Simulator, NodeId, DirLinkId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(MtpPitcher { n }));
        let b = sim.add_node(Box::new(PacketCatcher::default()));
        let (ab, _ba) = sim.connect_symmetric(
            a,
            PortId(0),
            b,
            PortId(0),
            Bandwidth::from_gbps(10),
            Duration::from_micros(1),
            64,
        );
        (sim, b, ab)
    }

    #[test]
    fn bitflip_burst_delivers_damaged_packets() {
        let (mut sim, b, ab) = corruption_pair(4);
        sim.bitflip_burst(ab, 2, 1, 99);
        sim.run();
        let got = &sim.node_as::<PacketCatcher>(b).got;
        assert_eq!(got.len(), 4, "corruption delivers, never destroys");
        let mangled = got
            .iter()
            .filter(|p| matches!(p.headers, Headers::Mangled { .. }))
            .count();
        assert_eq!(mangled, 2, "exactly the burst length is damaged");
        assert_eq!(sim.link_stats(ab).corrupted_pkts, 2);
        // A mangled header-only packet can never verify back.
        for p in got.iter() {
            if matches!(p.headers, Headers::Mangled { .. }) {
                let mut p = p.clone();
                assert!(crate::corrupt::sanitize(&mut p).is_err());
            }
        }
    }

    #[test]
    fn truncate_burst_shortens_and_delivers() {
        let (mut sim, b, ab) = corruption_pair(3);
        sim.truncate_burst(ab, 3, 7);
        sim.run();
        let got = &sim.node_as::<PacketCatcher>(b).got;
        assert_eq!(got.len(), 3);
        let full = mtp_wire::MtpHeader::default().wire_len() as u32;
        for p in got.iter() {
            assert!(p.wire_len < full, "truncation shrinks the frame");
            assert!(matches!(p.headers, Headers::Mangled { .. }));
        }
        assert_eq!(sim.link_stats(ab).corrupted_pkts, 3);
    }

    #[test]
    fn corruption_is_seed_deterministic() {
        let run = || {
            let (mut sim, b, ab) = corruption_pair(6);
            sim.bitflip_burst(ab, 4, 2, 12345);
            sim.run();
            sim.node_as::<PacketCatcher>(b).got.clone()
        };
        assert_eq!(run(), run(), "same seed, byte-identical damage");
    }

    #[test]
    fn corrupt_rate_full_odds_hits_every_packet() {
        let (mut sim, b, ab) = corruption_pair(5);
        sim.set_corrupt_rate(ab, 1_000_000, 1, 3);
        sim.run();
        assert_eq!(sim.link_stats(ab).corrupted_pkts, 5);
        let got = &sim.node_as::<PacketCatcher>(b).got;
        assert!(got
            .iter()
            .all(|p| matches!(p.headers, Headers::Mangled { .. })));
    }

    #[test]
    fn corrupted_destroyed_counts_unaudited_damage() {
        // Corrupt a packet, then crash its destination while it is in
        // propagation: the engine destroys damaged goods no receiver ever
        // audits, and must own up to it.
        let (mut sim, b, ab) = corruption_pair(2);
        sim.bitflip_burst(ab, 2, 1, 5);
        sim.run_until(Time::ZERO + Duration::from_nanos(200));
        sim.crash_node(b);
        sim.run();
        assert_eq!(sim.link_stats(ab).corrupted_pkts, 2);
        assert!(sim.corrupted_destroyed() > 0);
    }
}
