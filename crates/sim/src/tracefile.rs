//! Per-packet event tracing.
//!
//! When enabled, the engine records one [`TraceEvent`] for every packet
//! milestone — offered to a link, queued/marked/trimmed/dropped,
//! transmission start, delivery — into a bounded ring buffer. This is the
//! moral equivalent of a pcap for the simulated world: enough to
//! reconstruct any packet's life, cheap enough to leave on in tests, and
//! exportable as JSON for offline inspection.

use serde::Serialize;

use crate::node::{NodeId, PortId};
use crate::packet::PacketId;
use crate::time::Time;

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceKind {
    /// A node offered the packet to one of its egress links.
    Offered,
    /// The queue discipline accepted it (possibly CE-marking it).
    Queued {
        /// True if this enqueue set the CE mark.
        marked: bool,
    },
    /// The queue discipline dropped it.
    Dropped,
    /// The queue discipline trimmed its payload (NDP).
    Trimmed,
    /// Serialization onto the wire began.
    TxStart,
    /// The packet arrived at a node.
    Delivered,
    /// A forwarding element had no route for the packet's destination and
    /// discarded it (see `RouteError` in `mtp-net`).
    NoRoute,
    /// A corruption fault damaged the packet's wire bytes on this link
    /// (the packet was still delivered; whoever verifies it next decides
    /// its fate).
    Corrupted,
    /// A receiver's integrity check rejected the packet: the header failed
    /// its CRC, the frame was truncated, or a payload checksum failed at a
    /// consuming endpoint. The packet was counted and discarded.
    Malformed,
}

/// Compact encoding of a [`TraceKind`] for the serial == sharded run
/// digest (`shard::digest_parts`); the values are part of that pin.
/// `Queued` folds its `marked` flag into a second code so the encoding
/// stays lossless.
pub(crate) fn kind_code(kind: TraceKind) -> u16 {
    match kind {
        TraceKind::Offered => 0,
        TraceKind::Queued { marked: false } => 1,
        TraceKind::Queued { marked: true } => 2,
        TraceKind::Dropped => 3,
        TraceKind::Trimmed => 4,
        TraceKind::TxStart => 5,
        TraceKind::Delivered => 6,
        TraceKind::NoRoute => 7,
        TraceKind::Corrupted => 8,
        TraceKind::Malformed => 9,
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceEvent {
    /// When it happened.
    pub time: Time,
    /// The packet (0 while unassigned, i.e. before first transmission).
    pub pkt: PacketId,
    /// The node involved (sender for egress events, receiver for delivery).
    pub node: NodeId,
    /// The port involved.
    pub port: PortId,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded ring of trace events.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position once the ring is full.
    head: usize,
    /// Total events ever recorded (may exceed `cap`).
    pub total: u64,
}

impl TraceRing {
    /// A ring holding the last `cap` events.
    pub fn new(cap: usize) -> TraceRing {
        assert!(cap > 0);
        TraceRing {
            buf: Vec::with_capacity(cap.min(4096)),
            cap,
            head: 0,
            total: 0,
        }
    }

    /// Record one event.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// The retained events for one packet, oldest first.
    pub fn packet_history(&self, pkt: PacketId) -> Vec<TraceEvent> {
        self.events().into_iter().filter(|e| e.pkt == pkt).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, pkt: u64) -> TraceEvent {
        TraceEvent {
            time: Time(t),
            pkt: PacketId(pkt),
            node: NodeId(0),
            port: PortId(0),
            kind: TraceKind::Offered,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = TraceRing::new(3);
        for i in 0..5 {
            r.push(ev(i, i));
        }
        let evs = r.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].time, Time(2));
        assert_eq!(evs[2].time, Time(4));
        assert_eq!(r.total, 5);
    }

    #[test]
    fn packet_history_filters() {
        let mut r = TraceRing::new(10);
        r.push(ev(1, 7));
        r.push(ev(2, 8));
        r.push(ev(3, 7));
        let h = r.packet_history(PacketId(7));
        assert_eq!(h.len(), 2);
        assert_eq!(h[1].time, Time(3));
    }
}
