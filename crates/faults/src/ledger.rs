//! The exactly-once delivery ledger.
//!
//! Failure experiments all end with the same question: did every message
//! the application submitted arrive **exactly once**, despite the faults?
//! [`Ledger`] snapshots both ends of an MTP session and checks the full
//! contract: no lost messages, no duplicate deliveries, no phantom
//! deliveries the sender never submitted, and byte totals that agree.

use mtp_core::{MtpSenderNode, MtpSinkNode};

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
    /// Snapshot `senders` and the one `sink` they all send to (a fan-in's
    /// senders draw message ids from disjoint ranges).
    pub fn capture<'a>(
        senders: impl IntoIterator<Item = &'a MtpSenderNode>,
        sink: &MtpSinkNode,
    ) -> Ledger {
        let mut delivered: Vec<(u64, u32)> =
            sink.delivered.iter().map(|d| (d.id.0, d.bytes)).collect();
        delivered.sort_unstable();
        let mut completed = Vec::new();
        let mut unfinished = 0;
        for m in senders.into_iter().flat_map(|s| &s.msgs) {
            match m.completed {
                Some(c) => completed.push((m.bytes, c.0)),
                None => unfinished += 1,
            }
        }
        Ledger {
            delivered,
            completed,
            unfinished,
            goodput: sink.total_goodput(),
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
