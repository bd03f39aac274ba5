//! The [`Node`] trait and the per-event [`Ctx`] handle.
//!
//! Everything attached to the simulated network — hosts, switches, proxies,
//! offload boxes — implements [`Node`]. The simulator delivers packets and
//! timer expirations to nodes; nodes react by sending packets out their
//! ports and arming timers through the [`Ctx`] they are handed.
//!
//! Nodes are identified by [`NodeId`] and own a set of numbered ports
//! ([`PortId`]); a port is connected to exactly one link.

use std::any::Any;

use serde::Serialize;

use crate::packet::Packet;
use crate::time::Time;

/// Identifies a node within one simulator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct NodeId(pub usize);

/// Identifies a port on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct PortId(pub usize);

/// Identifies an armed timer, for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u64);

/// A node's retransmission timer: the deadline it last armed, so that an
/// unchanged deadline arms nothing. Every simulated node that carries a
/// sender re-arms through this type, so the rule lives here alone.
///
/// The timer a new deadline supersedes is not cancelled: it still fires,
/// its handler calls [`fired`](Self::fired), and the next
/// [`sync`](Self::sync) arms the current deadline again, whether or not a
/// timer for it is pending (DESIGN.md, "Stale timers"). Cancelling here
/// would change every pinned event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtoTimer {
    armed: Option<Time>,
}

impl RtoTimer {
    /// Arm a timer at `deadline` with `token`, unless the last one armed
    /// is for the same deadline; `None` arms nothing and forgets it.
    #[inline]
    pub fn sync(&mut self, ctx: &mut Ctx<'_>, deadline: Option<Time>, token: u64) {
        if let Some(at) = deadline {
            if self.armed != deadline {
                ctx.set_timer_at(at, token);
            }
        }
        self.armed = deadline;
    }

    /// Nothing is armed any more: the timer fired, or the node crashed
    /// (the engine swallows a crashed node's timers).
    #[inline]
    pub fn fired(&mut self) {
        self.armed = None;
    }
}

/// Administrative fault transitions delivered to [`Node::on_fault`].
///
/// A crash means the device loses all volatile state: forwarding caches,
/// policy accounting, buffered segments. While crashed, the simulator
/// destroys packets addressed to the node and swallows its timers, so the
/// hook only needs to reset in-memory structures. On restart the node must
/// re-arm any periodic timers it relies on (they were swallowed during the
/// outage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// The device is going down; drop volatile state.
    Crash,
    /// The device is coming back up; re-initialize and re-arm timers.
    Restart,
}

/// A participant in the simulation.
///
/// `Any` is a supertrait so harness code can downcast a finished node back
/// to its concrete type and read results out of it
/// (see [`Simulator::node_as`](crate::engine::Simulator::node_as)).
pub trait Node: Any {
    /// A packet arrived on `port`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet);

    /// A timer armed with `token` fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called once when the simulation starts, before any event runs.
    /// Endpoints typically arm their first send here.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// An administrative fault (crash or restart) was applied to this node
    /// by a fault scheduler. Default: ignore — a node with no volatile
    /// network state needs no handling.
    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: NodeFault) {
        let _ = (ctx, fault);
    }

    /// Human-readable name for traces.
    fn name(&self) -> &str {
        "node"
    }

    /// Report this node's local accounting counters for the conservation
    /// audit ([`Simulator::audit`](crate::engine::Simulator::audit)): add
    /// every counter the node keeps locally into `out`. The audit checks
    /// that the sum over all nodes matches the registry mirrors, so a
    /// device that bumps a local counter without its registry mirror (or
    /// vice versa) is caught. Default: report nothing.
    fn audit_counters(&self, out: &mut NodeAuditCounters) {
        let _ = out;
    }
}

/// Sum of node-local accounting counters, gathered via
/// [`Node::audit_counters`] and reconciled against the metrics registry at
/// audit time. Every field corresponds 1:1 to a registry metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeAuditCounters {
    /// Packets this node's integrity check rejected
    /// (mirror: `Metric::PktsMalformed`).
    pub malformed: u64,
    /// Packets discarded for lack of a route (mirror: `Metric::PktsNoRoute`).
    pub no_route: u64,
    /// Packets dropped by an admission policy
    /// (mirror: `Metric::PktsPolicyDropped`).
    pub policy_dropped: u64,
    /// Messages submitted to a sending transport
    /// (mirror: `Metric::MsgsSubmitted`).
    pub msgs_submitted: u64,
    /// Messages fully acknowledged at a sender
    /// (mirror: `Metric::MsgsCompleted`).
    pub msgs_completed: u64,
    /// Messages delivered first-copy at a sink
    /// (mirror: `Metric::MsgsDelivered`).
    pub msgs_delivered: u64,
    /// First-copy payload bytes delivered at a sink
    /// (mirror: `Metric::GoodputBytes`).
    pub goodput_bytes: u64,
    /// Retransmission timeouts fired (mirror: `Metric::Timeouts`).
    pub timeouts: u64,
    /// Data retransmissions sent (mirror: `Metric::Retransmissions`).
    pub retransmissions: u64,
}

/// Handle given to a node while it processes an event. All interaction with
/// the simulated world goes through this: reading the clock, transmitting,
/// arming timers, inspecting the node's own egress queues.
pub struct Ctx<'a> {
    pub(crate) inner: &'a mut crate::engine::SimInner,
    pub(crate) node: NodeId,
}

impl Ctx<'_> {
    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.inner.now
    }

    /// Transmit `pkt` out of `port`. The packet is serialized immediately if
    /// the link is idle, otherwise offered to the port's queue discipline
    /// (which may mark, trim, or drop it).
    ///
    /// # Panics
    /// Panics if `port` is not connected to a link — that is a topology
    /// wiring bug, not a runtime condition.
    pub fn send(&mut self, port: PortId, pkt: Packet) {
        self.inner.send_from(self.node, port, pkt);
    }

    /// Arm a timer to fire after `delay`; `token` is handed back to
    /// [`Node::on_timer`]. Returns an id usable with
    /// [`cancel_timer`](Self::cancel_timer).
    pub fn set_timer(&mut self, delay: crate::time::Duration, token: u64) -> TimerId {
        let at = self.inner.now + delay;
        self.inner.schedule_timer(at, self.node, token)
    }

    /// Arm a timer at an absolute time.
    pub fn set_timer_at(&mut self, at: Time, token: u64) -> TimerId {
        self.inner.schedule_timer(at, self.node, token)
    }

    /// Cancel a previously armed timer in O(1). Cancelling an already-fired
    /// or already-cancelled timer is a no-op (the id's generation no longer
    /// matches), and leaves no state behind.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.inner.cancel_timer(id);
    }

    /// Number of bytes queued at this node's egress `port`.
    pub fn egress_len_bytes(&self, port: PortId) -> usize {
        self.inner.egress_queue_len(self.node, port).1
    }

    /// True if `port` is connected to a link.
    pub fn port_connected(&self, port: PortId) -> bool {
        self.inner.port_connected(self.node, port)
    }

    /// Deterministic per-simulation random source.
    pub fn rng(&mut self) -> &mut rand::rngs::SmallRng {
        &mut self.inner.rng
    }

    /// Add `n` to registry counter `m`. Recording is a plain array add —
    /// no allocation, safe in the hottest device paths.
    pub fn count(&mut self, m: mtp_telemetry::Metric, n: u64) {
        self.inner.telemetry.count(m, n);
    }

    /// Move registry gauge `g` by `d`.
    pub fn gauge_add(&mut self, g: mtp_telemetry::Gauge, d: i64) {
        self.inner.telemetry.gauge_add(g, d);
    }

    /// Record sample `v` into registry histogram `h`.
    pub fn record_hist(&mut self, h: mtp_telemetry::HistId, v: u64) {
        self.inner.telemetry.record(h, v);
    }

    /// Record a [`TraceKind::NoRoute`](crate::tracefile::TraceKind::NoRoute)
    /// event: this node is discarding `pkt` because no forwarding entry
    /// covers it. `in_port` is where the packet arrived. Also bumps the
    /// registry's `pkts_no_route` mirror, which the audit reconciles
    /// against the node's own counter.
    pub fn trace_no_route(&mut self, pkt: &Packet, in_port: PortId) {
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::PktsNoRoute, 1);
        self.inner.trace(
            pkt.id,
            self.node,
            in_port,
            crate::tracefile::TraceKind::NoRoute,
        );
    }

    /// Record a [`TraceKind::Malformed`](crate::tracefile::TraceKind::Malformed)
    /// event: this node's integrity check rejected `pkt` (header CRC
    /// failure, truncated frame, or payload checksum failure at a consuming
    /// endpoint) and is discarding it. `in_port` is where it arrived. Also
    /// bumps the registry's `pkts_malformed` mirror, which the audit
    /// reconciles against the node's own counter. Nodes reach it through
    /// the integrity gates, [`admit_relay`](crate::corrupt::admit_relay)
    /// and [`admit_terminal`](crate::corrupt::admit_terminal).
    pub fn trace_malformed(&mut self, pkt: &Packet, in_port: PortId) {
        self.inner
            .telemetry
            .count(mtp_telemetry::Metric::PktsMalformed, 1);
        self.inner.trace(
            pkt.id,
            self.node,
            in_port,
            crate::tracefile::TraceKind::Malformed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// Drives an [`RtoTimer`] through a fixed sequence of deadlines at
    /// start and records each timer that fires.
    #[derive(Default)]
    struct Rearm {
        rto: RtoTimer,
        fired: Vec<(Time, u64)>,
    }

    impl Node for Rearm {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let at = |us| Some(Time::ZERO + Duration::from_micros(us));
            self.rto.sync(ctx, at(10), 1);
            self.rto.sync(ctx, at(10), 2); // unchanged: nothing armed
            self.rto.sync(ctx, at(20), 3); // moved: armed; 1 still pending
            self.rto.sync(ctx, None, 4); // nothing armed, and forgotten
            assert_eq!(self.rto, RtoTimer::default());
            self.rto.sync(ctx, at(20), 5); // after `None`: armed again
            self.rto.fired();
            assert_eq!(self.rto, RtoTimer::default());
            self.rto.sync(ctx, at(20), 6); // after `fired`: armed again
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.fired.push((ctx.now(), token));
        }

        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
    }

    #[test]
    fn rto_timer_arms_once_per_distinct_deadline() {
        let mut sim = crate::Simulator::new(1);
        let id = sim.add_node(Box::<Rearm>::default());
        sim.run();
        let us = |n| Time::ZERO + Duration::from_micros(n);
        assert_eq!(
            sim.node_as::<Rearm>(id).fired,
            [(us(10), 1), (us(20), 3), (us(20), 5), (us(20), 6)]
        );
    }
}
