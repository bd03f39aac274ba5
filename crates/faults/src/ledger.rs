//! The exactly-once delivery ledger.
//!
//! Failure experiments all end with the same question: did every message
//! the application submitted arrive **exactly once**, despite the faults?
//! [`Ledger`] snapshots both ends of an MTP session and checks the full
//! contract: no lost messages, no duplicate deliveries, no phantom
//! deliveries the sender never submitted, and byte totals that agree.

use mtp_core::{MtpSenderNode, MtpSinkNode};
use mtp_sim::{NodeId, Simulator};

/// End-to-end outcome of the MTP sessions into one sink, in
/// deterministic order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// `(msg_id, bytes)` per sink delivery event, sorted by id.
    pub delivered: Vec<(u64, u32)>,
    /// `(bytes, completed_ps)` per sender schedule entry that finished,
    /// sender by sender.
    pub completed: Vec<(u32, u64)>,
    /// Scheduled messages that never completed at their sender.
    pub unfinished: usize,
    /// Sink-side first-copy payload bytes.
    pub goodput: u64,
}

impl Ledger {
    /// Snapshot `senders` and the one `sink` they all send to from `sim`
    /// (a fan-in's senders draw message ids from disjoint ranges).
    pub fn capture(sim: &Simulator, senders: &[NodeId], sink: NodeId) -> Ledger {
        let receiver = sim.node_as::<MtpSinkNode>(sink);
        let mut delivered: Vec<(u64, u32)> = receiver
            .delivered
            .iter()
            .map(|d| (d.id.0, d.bytes))
            .collect();
        delivered.sort_unstable();
        let msgs = senders
            .iter()
            .flat_map(|&snd| &sim.node_as::<MtpSenderNode>(snd).msgs);
        let completed: Vec<(u32, u64)> = msgs
            .clone()
            .filter_map(|m| m.completed.map(|c| (m.bytes, c.0)))
            .collect();
        let unfinished = msgs.count() - completed.len();
        Ledger {
            delivered,
            completed,
            unfinished,
            goodput: receiver.total_goodput(),
        }
    }

    /// Check the exactly-once contract for a run where every scheduled
    /// message was expected to finish. Returns one message per violation
    /// (empty means the contract holds) — the non-panicking form the
    /// scenario runner reports as data.
    pub fn check_exactly_once(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.unfinished != 0 {
            v.push(format!("{} unfinished messages", self.unfinished));
        }
        if self.delivered.len() != self.completed.len() {
            v.push(format!(
                "{} deliveries != {} completions",
                self.delivered.len(),
                self.completed.len()
            ));
        }
        for w in self.delivered.windows(2) {
            if w[0].0 == w[1].0 {
                v.push(format!("duplicate delivery of {}", w[0].0));
            }
        }
        let sent: u64 = self.completed.iter().map(|&(b, _)| b as u64).sum();
        let got: u64 = self.delivered.iter().map(|&(_, b)| b as u64).sum();
        if sent != got {
            v.push(format!(
                "byte totals disagree: sent {sent}, delivered {got}"
            ));
        }
        if self.goodput != got {
            v.push(format!(
                "goodput counts duplicates: goodput {}, delivered {got}",
                self.goodput
            ));
        }
        v
    }

    /// Assert the exactly-once contract for a run where every scheduled
    /// message was expected to finish. Panics with a diagnostic naming
    /// `ctx` on any violation.
    pub fn assert_exactly_once(&self, ctx: &str) {
        let v = self.check_exactly_once();
        assert!(
            v.is_empty(),
            "[{ctx}] exactly-once violated: {}",
            v.join("; ")
        );
    }
}
