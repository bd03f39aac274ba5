//! An application-level (L7) replica load balancer (paper Fig. 1 ②a/③b).
//!
//! The paper's motivating cluster balances requests across backend storage
//! replicas, using feedback about replica load (C3-style, ③b). With TCP
//! this requires terminating connections; with MTP the balancer only needs
//! to pick a replica per *message* and rewrite the destination address —
//! a per-message mutation that MTP's `(message, packet)` reliability
//! tolerates, and that the atomicity rule makes safe (every packet of a
//! request goes to the same replica).
//!
//! [`ReplicaLbNode`] sits between clients (port 0) and `N` replicas
//! (ports 1..=N). Requests addressed to the *service address* are pinned
//! per message to a replica chosen by the policy; everything flowing back
//! from replicas is forwarded to the client side. The `LeastOutstanding`
//! policy tracks in-flight requests per replica — the information the
//! paper's ③b feedback loop carries.

use std::collections::HashMap;

use mtp_sim::corrupt::admit_relay;
use mtp_sim::packet::Packet;
use mtp_sim::{Ctx, Node, PortId};
use mtp_wire::{MsgId, PktType};

/// Replica selection policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPolicy {
    /// Rotate through replicas regardless of load.
    RoundRobin,
    /// Send to the replica with the fewest outstanding requests
    /// (load-aware, in the spirit of C3 / paper ③b).
    LeastOutstanding,
}

/// Per-replica bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Replica {
    addr: u16,
    port: PortId,
    outstanding: u64,
    served: u64,
}

/// Load-balancer statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaLbStats {
    /// Request messages routed.
    pub requests: u64,
    /// Replies relayed back to clients.
    pub replies: u64,
    /// Packets rejected by the wire-integrity check (corrupted in flight).
    pub malformed: u64,
}

/// The L7 balancer node: clients on port 0, replica `i` on port `1 + i`.
pub struct ReplicaLbNode {
    service_addr: u16,
    replicas: Vec<Replica>,
    policy: ReplicaPolicy,
    rr_next: usize,
    /// Message → replica index, pinned for the message's lifetime so
    /// retransmissions follow the original choice (atomicity).
    pins: HashMap<MsgId, usize>,
    /// Counters.
    pub stats: ReplicaLbStats,
}

impl ReplicaLbNode {
    /// A balancer for `service_addr`, spreading over `replica_addrs`
    /// (replica `i` attached to port `1 + i`).
    pub fn new(service_addr: u16, replica_addrs: &[u16], policy: ReplicaPolicy) -> ReplicaLbNode {
        assert!(!replica_addrs.is_empty());
        ReplicaLbNode {
            service_addr,
            replicas: replica_addrs
                .iter()
                .enumerate()
                .map(|(i, &addr)| Replica {
                    addr,
                    port: PortId(1 + i),
                    outstanding: 0,
                    served: 0,
                })
                .collect(),
            policy,
            rr_next: 0,
            pins: HashMap::new(),
            stats: ReplicaLbStats::default(),
        }
    }

    /// Requests served per replica (same order as construction).
    pub fn served_per_replica(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.served).collect()
    }

    /// Requests currently outstanding per replica.
    pub fn outstanding_per_replica(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.outstanding).collect()
    }

    fn choose(&mut self) -> usize {
        match self.policy {
            ReplicaPolicy::RoundRobin => {
                let i = self.rr_next % self.replicas.len();
                self.rr_next = (self.rr_next + 1) % self.replicas.len();
                i
            }
            ReplicaPolicy::LeastOutstanding => self
                .replicas
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.outstanding)
                .map(|(i, _)| i)
                .expect("non-empty replica set"),
        }
    }
}

impl Node for ReplicaLbNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // The balancer rewrites the destination address and pins messages
        // by id — both reads of the header — so it must verify integrity
        // first. Payload-damaged packets with intact headers are still
        // routable and are relayed (the endpoint detects and counts them).
        let Some(mut pkt) = admit_relay(ctx, port, pkt, &mut self.stats.malformed) else {
            return;
        };
        if port == PortId(0) {
            // Client side: route service-addressed data to a replica;
            // everything else (e.g. ACKs for replies, addressed to a
            // replica directly) follows its destination.
            let (is_service_data, msg_id, last) = match pkt.headers.as_mtp() {
                Some(h) => (
                    h.pkt_type == PktType::Data && h.dst_port == self.service_addr,
                    h.msg_id,
                    h.is_last_pkt(),
                ),
                None => (false, MsgId(0), false),
            };
            if is_service_data {
                let idx = match self.pins.get(&msg_id) {
                    Some(&i) => i,
                    None => {
                        let i = self.choose();
                        self.pins.insert(msg_id, i);
                        i
                    }
                };
                let hdr = pkt.headers.as_mtp_mut().expect("mtp data");
                hdr.dst_port = self.replicas[idx].addr;
                if last && !hdr.is_retx() {
                    self.replicas[idx].outstanding += 1;
                    self.stats.requests += 1;
                }
                let out_port = self.replicas[idx].port;
                ctx.send(out_port, pkt);
            } else if let Some(h) = pkt.headers.as_mtp() {
                // ACKs from clients for replica replies: route by address.
                let dst = h.dst_port;
                if let Some(r) = self.replicas.iter().find(|r| r.addr == dst) {
                    ctx.send(r.port, pkt);
                }
                // Unroutable client traffic is dropped (no default route).
            }
        } else {
            // Replica side: account reply completions, relay to client.
            let ridx = port.0 - 1;
            if let Some(h) = pkt.headers.as_mtp() {
                if h.pkt_type == PktType::Data && h.is_last_pkt() && !h.is_retx() {
                    if let Some(r) = self.replicas.get_mut(ridx) {
                        r.outstanding = r.outstanding.saturating_sub(1);
                        r.served += 1;
                        self.stats.replies += 1;
                    }
                }
            }
            ctx.send(PortId(0), pkt);
        }
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.stats.malformed;
    }

    fn name(&self) -> &str {
        "replica-lb"
    }
}
