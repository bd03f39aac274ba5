//! The switch node: forwarding, pathlet stamping, and ingress policy.
//!
//! A [`SwitchNode`] composes three pluggable pieces:
//!
//! 1. a [`Forwarder`] choosing the egress port for each packet;
//! 2. per-egress [`Stamp`]s that append `(pathlet, TC, feedback)` entries
//!    to MTP data packets as they pass — the network half of pathlet
//!    congestion control (paper §3.1.3). Stamping *grows the packet* by the
//!    entry's wire size, faithfully modelling the header-overhead concern
//!    of paper §4;
//! 3. an optional [`IngressPolicy`] that may mark or drop packets before
//!    forwarding — used by the fair-share enforcer (paper Fig. 7) to apply
//!    per-entity policy on a single shared queue.

use mtp_sim::corrupt::admit_relay;
use mtp_sim::packet::Packet;
use mtp_sim::time::Time;
use mtp_sim::{Ctx, Node, NodeFault, PortId};
use mtp_wire::{EcnCodepoint, Feedback, PathFeedback, PathletId, PktType, TrafficClass};

use crate::routes::RouteError;

/// Chooses the egress port for each packet.
pub trait Forwarder {
    /// Return the egress port, or a structured [`RouteError`] naming why the
    /// packet is undeliverable (the switch counts each cause and traces the
    /// discard).
    fn route(
        &mut self,
        ctx: &mut Ctx<'_>,
        in_port: PortId,
        pkt: &Packet,
    ) -> Result<PortId, RouteError>;

    /// Drop volatile forwarding state (message pins, committed-byte
    /// accounting, snooped congestion) on a device crash. Static route
    /// tables are configuration, not volatile state, and survive.
    fn reset(&mut self) {}
}

/// What a stamp writes into passing MTP data packets.
#[derive(Debug, Clone, Copy)]
pub enum StampKind {
    /// Identify the pathlet only (`EcnMark { ce: false }`); the IP-level CE
    /// bit set by the egress queue is attributed to it by the receiver.
    Presence,
    /// Report the egress queue depth in bytes (load-aware balancing).
    QueueDepth,
}

/// A per-egress-port pathlet stamp.
#[derive(Debug)]
pub struct Stamp {
    /// The pathlet this egress belongs to.
    pub pathlet: PathletId,
    /// Traffic class the pathlet assigns (pass-through of the packet's own
    /// TC when `None`).
    pub tc: Option<TrafficClass>,
    /// What to report.
    pub kind: StampKind,
}

impl Stamp {
    /// A stamp for `pathlet` reporting `kind`.
    pub fn new(pathlet: PathletId, kind: StampKind) -> Stamp {
        Stamp {
            pathlet,
            tc: None,
            kind,
        }
    }

    /// Override the traffic class the pathlet assigns.
    pub fn with_tc(mut self, tc: TrafficClass) -> Stamp {
        self.tc = Some(tc);
        self
    }

    fn feedback(&self, ctx: &Ctx<'_>, port: PortId) -> Feedback {
        match self.kind {
            StampKind::Presence => Feedback::EcnMark { ce: false },
            StampKind::QueueDepth => Feedback::QueueDepth {
                bytes: ctx.egress_len_bytes(port) as u32,
            },
        }
    }
}

/// Pre-forwarding packet policy.
pub trait IngressPolicy {
    /// Inspect (and possibly mark) a packet; return `false` to drop it.
    fn admit(&mut self, now: Time, pkt: &mut Packet) -> bool;

    /// Drop volatile accounting (per-entity usage, epoch state) on a
    /// device crash.
    fn reset(&mut self) {}
}

/// Per-switch counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped for lack of a route.
    pub no_route: u64,
    /// Packets dropped because they carry no destination address.
    pub no_address: u64,
    /// Packets dropped by the ingress policy.
    pub policy_dropped: u64,
    /// Packets CE-marked by the ingress policy.
    pub policy_marked: u64,
    /// Feedback entries stamped.
    pub stamped: u64,
    /// Packets rejected by the wire-integrity check (corrupted in flight).
    pub malformed: u64,
}

/// A switch with a pluggable forwarder, per-port pathlet stamps, and an
/// optional ingress policy.
pub struct SwitchNode {
    forwarder: Box<dyn Forwarder>,
    /// Indexed by egress `PortId.0`; `None` for an unstamped port.
    stamps: Vec<Option<Stamp>>,
    policy: Option<Box<dyn IngressPolicy>>,
    /// Counters.
    pub stats: SwitchStats,
    name: String,
}

impl SwitchNode {
    /// A switch using `forwarder`.
    pub fn new(name: impl Into<String>, forwarder: Box<dyn Forwarder>) -> SwitchNode {
        SwitchNode {
            forwarder,
            stamps: Vec::new(),
            policy: None,
            stats: SwitchStats::default(),
            name: name.into(),
        }
    }

    /// Attach a pathlet stamp to an egress port.
    pub fn with_stamp(mut self, port: PortId, stamp: Stamp) -> SwitchNode {
        if self.stamps.len() <= port.0 {
            self.stamps.resize_with(port.0 + 1, || None);
        }
        self.stamps[port.0] = Some(stamp);
        self
    }

    /// Attach an ingress policy.
    pub fn with_policy(mut self, policy: Box<dyn IngressPolicy>) -> SwitchNode {
        self.policy = Some(policy);
        self
    }
}

impl Node for SwitchNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, pkt: Packet) {
        // Verify wire integrity before the policy or forwarder trusts any
        // header field: a switch must not route on corrupted bytes.
        let Some(mut pkt) = admit_relay(ctx, in_port, pkt, &mut self.stats.malformed) else {
            return;
        };
        let now = ctx.now();
        if let Some(policy) = &mut self.policy {
            let was_ce = pkt.ecn.is_ce();
            if !policy.admit(now, &mut pkt) {
                self.stats.policy_dropped += 1;
                ctx.count(mtp_sim::Metric::PktsPolicyDropped, 1);
                return;
            }
            if pkt.ecn.is_ce() && !was_ce {
                self.stats.policy_marked += 1;
            }
        }
        let out_port = match self.forwarder.route(ctx, in_port, &pkt) {
            Ok(port) => port,
            Err(err) => {
                match err {
                    RouteError::NoAddress => self.stats.no_address += 1,
                    RouteError::NoRoute(_) => self.stats.no_route += 1,
                }
                ctx.trace_no_route(&pkt, in_port);
                mtp_sim::pool::recycle_packet(pkt);
                return;
            }
        };
        // Stamp pathlet feedback into MTP data packets leaving this port.
        if let Some(Some(stamp)) = self.stamps.get(out_port.0) {
            let is_data = pkt
                .headers
                .as_mtp()
                .map(|h| h.pkt_type == PktType::Data)
                .unwrap_or(false);
            if is_data {
                let fb = stamp.feedback(ctx, out_port);
                let hdr = pkt.headers.as_mtp_mut().expect("checked is_data");
                let entry = PathFeedback {
                    path: stamp.pathlet,
                    tc: stamp.tc.unwrap_or(hdr.tc),
                    feedback: fb,
                };
                if hdr.path_feedback.len() < 255 {
                    pkt.wire_len += entry.wire_len() as u32;
                    let hdr = pkt.headers.as_mtp_mut().expect("mtp");
                    hdr.path_feedback.push(entry);
                    self.stats.stamped += 1;
                }
            }
        }
        self.stats.forwarded += 1;
        ctx.send(out_port, pkt);
    }

    fn on_fault(&mut self, _ctx: &mut Ctx<'_>, fault: NodeFault) {
        if let NodeFault::Crash = fault {
            // Volatile state dies with the device: message pins and
            // committed-byte accounting in the forwarder, per-entity
            // usage in the ingress policy. Static routes and stamp
            // configuration survive (they model control-plane config).
            self.forwarder.reset();
            if let Some(policy) = &mut self.policy {
                policy.reset();
            }
        }
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.stats.malformed;
        // Both route-failure causes are traced (and registry-counted) as
        // no-route discards.
        out.no_route += self.stats.no_route + self.stats.no_address;
        out.policy_dropped += self.stats.policy_dropped;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A policy that CE-marks every ECT packet (useful in tests).
#[derive(Debug, Default)]
pub struct MarkAllPolicy;

impl IngressPolicy for MarkAllPolicy {
    fn admit(&mut self, _now: Time, pkt: &mut Packet) -> bool {
        if pkt.ecn.is_ect() {
            pkt.ecn = EcnCodepoint::Ce;
        }
        true
    }
}
