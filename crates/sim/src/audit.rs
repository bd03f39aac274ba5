//! Packet-conservation audit.
//!
//! Every packet offered to a link must end up in exactly one place:
//! transmitted, dropped by a queue discipline, destroyed by a fault, still
//! queued, or still serializing. Every transmitted packet must be
//! delivered, destroyed at a crashed destination, or still propagating.
//! Bytes obey the same laws with two extra sinks (NDP trim loss and
//! corruption truncation loss). [`Simulator::audit`] checks all of these
//! at any instant — the laws carry "still in flight" terms, so no
//! quiescence is required — plus two cross-checks that only exist to catch
//! accounting bugs:
//!
//! * every engine counter has a mirror in the metrics registry, and the
//!   two are summed independently, so a site that bumps one but not the
//!   other fails the audit;
//! * every node's local counters ([`Node::audit_counters`]) are reconciled
//!   against the registry mirrors recorded through [`Ctx`]
//!   (`trace_malformed`, `trace_no_route`, `Ctx::count`).
//!
//! [`Node::audit_counters`]: crate::node::Node::audit_counters
//! [`Ctx`]: crate::node::Ctx

use mtp_telemetry::{Gauge, Metric};

use crate::engine::Simulator;
use crate::node::NodeAuditCounters;

/// The result of a conservation audit: empty `violations` means every law
/// held.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// One human-readable line per violated law.
    pub violations: Vec<String>,
    /// Directed links covered by the per-link laws.
    pub links_checked: usize,
    /// Conservation laws evaluated (per-link laws count once per link).
    pub laws_checked: usize,
}

impl AuditReport {
    /// True if every law held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the full violation list unless every law held.
    #[track_caller]
    pub fn assert_ok(&self) {
        assert!(self.ok(), "conservation audit failed:\n{self}");
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.violations.is_empty() {
            write!(
                f,
                "audit ok: {} laws over {} links",
                self.laws_checked, self.links_checked
            )
        } else {
            for v in &self.violations {
                writeln!(f, "  VIOLATION: {v}")?;
            }
            write!(
                f,
                "  ({} of {} laws violated over {} links)",
                self.violations.len(),
                self.laws_checked,
                self.links_checked
            )
        }
    }
}

/// Shared test-support teardown: audit `sim` and panic with the full
/// violation list if any conservation law failed. Every integration suite
/// and figure binary calls this once per simulation, after its last
/// `run_until`, so a counter that drifts anywhere in the workspace fails
/// loudly.
#[track_caller]
pub fn assert_conservation(sim: &Simulator) {
    sim.audit().assert_ok();
}

/// Engine-side sums that must equal their registry mirrors.
#[derive(Default)]
struct EngineSums {
    offered_pkts: u64,
    offered_bytes: u64,
    tx_pkts: u64,
    tx_bytes: u64,
    dropped_pkts: u64,
    dropped_bytes: u64,
    marked_pkts: u64,
    trimmed_pkts: u64,
    trim_loss_bytes: u64,
    corrupt_loss_bytes: u64,
    faulted_pkts: u64,
    faulted_bytes: u64,
    corrupted_pkts: u64,
}

impl Simulator {
    /// Check every packet- and byte-conservation law and return the
    /// report. Callable at any point in a run (the laws include in-flight
    /// terms); integration tests and figure binaries call
    /// `sim.audit().assert_ok()` at teardown.
    pub fn audit(&self) -> AuditReport {
        let mut violations = Vec::new();
        let mut laws = 0usize;

        // Packets handed to nodes and still being processed cannot be
        // audited mid-dispatch; `audit` is a harness-level call, so every
        // node slot must be occupied.
        debug_assert!(
            self.nodes.iter().all(Option::is_some),
            "audit called re-entrantly from inside node dispatch"
        );

        let mut sums = EngineSums::default();

        // ---- L1/L3: per-link conservation --------------------------------
        for (i, link) in self.inner.links.iter().enumerate() {
            let s = &link.stats;
            sums.offered_pkts += s.offered_pkts;
            sums.offered_bytes += s.offered_bytes;
            sums.tx_pkts += s.tx_pkts;
            sums.tx_bytes += s.tx_bytes;
            sums.dropped_pkts += s.dropped_pkts;
            sums.dropped_bytes += s.dropped_bytes;
            sums.marked_pkts += s.marked_pkts;
            sums.trimmed_pkts += s.trimmed_pkts;
            sums.trim_loss_bytes += s.trim_loss_bytes;
            sums.corrupt_loss_bytes += s.corrupt_loss_bytes;
            sums.faulted_pkts += s.faulted_pkts;
            sums.faulted_bytes += s.faulted_bytes;
            sums.corrupted_pkts += s.corrupted_pkts;

            let queued_pkts = link.queue.len_pkts() as u64;
            let queued_bytes = link.queue.len_bytes() as u64;
            let (fly_pkts, fly_bytes) = match &link.in_flight {
                Some(p) => (1u64, p.wire_len as u64),
                None => (0, 0),
            };

            laws += 1;
            let pkt_sinks = s.tx_pkts + s.dropped_pkts + s.faulted_pkts + queued_pkts + fly_pkts;
            if s.offered_pkts != pkt_sinks {
                violations.push(format!(
                    "link {i}: packet law: offered {} != tx {} + dropped {} + faulted {} \
                     + queued {queued_pkts} + serializing {fly_pkts} (= {pkt_sinks})",
                    s.offered_pkts, s.tx_pkts, s.dropped_pkts, s.faulted_pkts
                ));
            }

            laws += 1;
            let byte_sinks = s.tx_bytes
                + s.dropped_bytes
                + s.faulted_bytes
                + s.trim_loss_bytes
                + s.corrupt_loss_bytes
                + queued_bytes
                + fly_bytes;
            if s.offered_bytes != byte_sinks {
                violations.push(format!(
                    "link {i}: byte law: offered {} != tx {} + dropped {} + faulted {} \
                     + trim_loss {} + corrupt_loss {} + queued {queued_bytes} \
                     + serializing {fly_bytes} (= {byte_sinks})",
                    s.offered_bytes,
                    s.tx_bytes,
                    s.dropped_bytes,
                    s.faulted_bytes,
                    s.trim_loss_bytes,
                    s.corrupt_loss_bytes
                ));
            }
        }

        // ---- L2/L4: global wire-to-node conservation ---------------------
        // Packets that finished serializing are either delivered, destroyed
        // at a crashed destination, or still propagating (parked in their
        // link's propagation ring — ring entries are never cancelled, so
        // every one is pending).
        let mut prop_pkts = 0u64;
        let mut prop_bytes = 0u64;
        for link in &self.inner.links {
            for (_, _, pkt) in &link.prop {
                prop_pkts += 1;
                prop_bytes += pkt.wire_len as u64;
            }
        }
        // In a sharded run the boundary terms extend the law: packets
        // injected by the runtime (boundary_in) are extra sources, packets
        // handed to the runtime (boundary_out) are extra sinks. A packet
        // staged in the outbox is already counted in boundary_out, so the
        // law holds at any instant — including mid-epoch with boundary
        // traffic in flight. Both terms are zero in non-sharded runs,
        // reducing to the original law.
        laws += 1;
        let tx_sources = sums.tx_pkts + self.inner.boundary_in_pkts;
        let deliver_sinks = self.delivered_pkts
            + self.faulted_deliveries
            + prop_pkts
            + self.inner.boundary_out_pkts;
        if tx_sources != deliver_sinks {
            violations.push(format!(
                "global packet law: tx {} + boundary_in {} != delivered {} \
                 + faulted_deliveries {} + propagating {prop_pkts} \
                 + boundary_out {} (= {deliver_sinks})",
                sums.tx_pkts,
                self.inner.boundary_in_pkts,
                self.delivered_pkts,
                self.faulted_deliveries,
                self.inner.boundary_out_pkts
            ));
        }
        laws += 1;
        let tx_byte_sources = sums.tx_bytes + self.inner.boundary_in_bytes;
        let deliver_byte_sinks = self.delivered_bytes
            + self.faulted_delivery_bytes
            + prop_bytes
            + self.inner.boundary_out_bytes;
        if tx_byte_sources != deliver_byte_sinks {
            violations.push(format!(
                "global byte law: tx {} + boundary_in {} != delivered {} \
                 + faulted_delivery_bytes {} + propagating {prop_bytes} \
                 + boundary_out {} (= {deliver_byte_sinks})",
                sums.tx_bytes,
                self.inner.boundary_in_bytes,
                self.delivered_bytes,
                self.faulted_delivery_bytes,
                self.inner.boundary_out_bytes
            ));
        }

        // ---- L5/L6: registry cross-checks ---------------------------------
        let reg = &self.inner.telemetry;
        let mirror = |violations: &mut Vec<String>, m: Metric, engine: u64| {
            if reg.get(m) != engine {
                violations.push(format!(
                    "registry mirror {}: registry {} != engine {engine}",
                    m.name(),
                    reg.get(m)
                ));
            }
        };
        let mirrors: &[(Metric, u64)] = &[
            (Metric::PktsOffered, sums.offered_pkts),
            (Metric::BytesOffered, sums.offered_bytes),
            (Metric::PktsTx, sums.tx_pkts),
            (Metric::BytesTx, sums.tx_bytes),
            (Metric::PktsDropped, sums.dropped_pkts),
            (Metric::BytesDropped, sums.dropped_bytes),
            (Metric::PktsMarked, sums.marked_pkts),
            (Metric::PktsTrimmed, sums.trimmed_pkts),
            (Metric::BytesTrimLoss, sums.trim_loss_bytes),
            (Metric::BytesCorruptLoss, sums.corrupt_loss_bytes),
            (Metric::PktsFaulted, sums.faulted_pkts),
            (Metric::BytesFaulted, sums.faulted_bytes),
            (Metric::PktsCorrupted, sums.corrupted_pkts),
            (Metric::PktsDelivered, self.delivered_pkts),
            (Metric::BytesDelivered, self.delivered_bytes),
            (Metric::FaultedDeliveries, self.faulted_deliveries),
            (Metric::BytesFaultedDeliveries, self.faulted_delivery_bytes),
            (Metric::CorruptedDestroyed, self.inner.corrupted_destroyed),
            (Metric::PktsBoundaryOut, self.inner.boundary_out_pkts),
            (Metric::BytesBoundaryOut, self.inner.boundary_out_bytes),
            (Metric::PktsBoundaryIn, self.inner.boundary_in_pkts),
            (Metric::BytesBoundaryIn, self.inner.boundary_in_bytes),
        ];
        for &(m, engine) in mirrors {
            laws += 1;
            mirror(&mut violations, m, engine);
        }

        laws += 1;
        let links_down = self.inner.links.iter().filter(|l| !l.up).count() as i64;
        if reg.gauge(Gauge::LinksDown) != links_down {
            violations.push(format!(
                "gauge links_down: registry {} != engine {links_down}",
                reg.gauge(Gauge::LinksDown)
            ));
        }
        laws += 1;
        let nodes_down = self.node_up.iter().filter(|up| !**up).count() as i64;
        if reg.gauge(Gauge::NodesDown) != nodes_down {
            violations.push(format!(
                "gauge nodes_down: registry {} != engine {nodes_down}",
                reg.gauge(Gauge::NodesDown)
            ));
        }

        // Node-local counters vs the registry mirrors recorded through
        // Ctx. This is the message ledger too: submitted/completed/
        // delivered/goodput reconcile endpoint accounting end to end.
        let mut node_sums = NodeAuditCounters::default();
        for node in self.nodes.iter().flatten() {
            node.audit_counters(&mut node_sums);
        }
        let node_mirrors: &[(Metric, u64, &str)] = &[
            (Metric::PktsMalformed, node_sums.malformed, "malformed"),
            (Metric::PktsNoRoute, node_sums.no_route, "no_route"),
            (
                Metric::PktsPolicyDropped,
                node_sums.policy_dropped,
                "policy_dropped",
            ),
            (
                Metric::MsgsSubmitted,
                node_sums.msgs_submitted,
                "msgs_submitted",
            ),
            (
                Metric::MsgsCompleted,
                node_sums.msgs_completed,
                "msgs_completed",
            ),
            (
                Metric::MsgsDelivered,
                node_sums.msgs_delivered,
                "msgs_delivered",
            ),
            (
                Metric::GoodputBytes,
                node_sums.goodput_bytes,
                "goodput_bytes",
            ),
            (Metric::Timeouts, node_sums.timeouts, "timeouts"),
            (
                Metric::Retransmissions,
                node_sums.retransmissions,
                "retransmissions",
            ),
        ];
        for &(m, node_total, label) in node_mirrors {
            laws += 1;
            if reg.get(m) != node_total {
                violations.push(format!(
                    "node ledger {label}: registry {} {} != node-local sum {node_total}",
                    m.name(),
                    reg.get(m)
                ));
            }
        }

        AuditReport {
            violations,
            links_checked: self.inner.links.len(),
            laws_checked: laws,
        }
    }
}
