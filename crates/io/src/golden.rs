//! The golden workload and its simulator reference run.
//!
//! Interop proof structure: generate one seeded workload, run it through
//! the discrete-event simulator (virtual time, modeled links), then run
//! the *same* workload through the wire driver (real time, real kernel
//! sockets), and demand that the delivered *content* is byte-identical —
//! same message ids, same lengths, same per-message payload digests (as
//! [`crate::payload`] defines content), and an exactly-once
//! [`Ledger`] on both sides. Timings legitimately differ between the two
//! worlds; content may not.
//!
//! Message ids make this comparison possible: both worlds submit the
//! workload's messages in schedule order to a core constructed with the
//! same `msg_id_base`, and the sender allocates ids monotonically, so
//! message *k* gets the same id in both runs.

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_faults::Ledger;
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{LinkCfg, PortId, Simulator};
use mtp_wire::{EntityId, MsgId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::payload;

/// The `msg_id_base` both worlds construct their sender with.
pub const GOLDEN_MSG_ID_BASE: u64 = 7 << 32;

/// One seeded message workload, identical across worlds.
#[derive(Debug, Clone)]
pub struct GoldenWorkload {
    /// The seed that produced it (recorded for diagnostics).
    pub seed: u64,
    /// `(submit_offset, bytes)` per message, in submission order.
    pub msgs: Vec<(Duration, u32)>,
}

impl GoldenWorkload {
    /// Generate `n` messages of `min..=max` bytes, submissions staggered
    /// a few microseconds apart so the sim schedule is deterministic.
    pub fn generate(seed: u64, n: usize, min: u32, max: u32) -> GoldenWorkload {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut at = Duration(0);
        let msgs = (0..n)
            .map(|_| {
                let bytes = rng.gen_range(min..=max);
                let this = at;
                at += Duration::from_micros(rng.gen_range(1..=20));
                (this, bytes)
            })
            .collect();
        GoldenWorkload { seed, msgs }
    }

    /// The schedule as sim host submissions starting at `Time::ZERO`.
    pub fn schedule(&self) -> Vec<ScheduledMsg> {
        self.msgs
            .iter()
            .map(|&(off, bytes)| ScheduledMsg::new(Time::ZERO + off, bytes))
            .collect()
    }

    /// Total payload bytes across the workload.
    pub fn total_bytes(&self) -> u64 {
        self.msgs.iter().map(|&(_, b)| b as u64).sum()
    }

    /// The content digest a correct run must reproduce: every message
    /// delivered exactly once with [`crate::payload::fill`] content.
    pub fn expected_digest(&self) -> u64 {
        let mut scratch = Vec::new();
        let triples: Vec<(u64, u32, u64)> = self
            .msgs
            .iter()
            .enumerate()
            .map(|(k, &(_, bytes))| {
                let id = MsgId(GOLDEN_MSG_ID_BASE + k as u64);
                (
                    id.0,
                    bytes,
                    payload::synth_message_digest(id, bytes, &mut scratch),
                )
            })
            .collect();
        payload::content_digest(&triples)
    }
}

/// What the simulator reference run produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Exactly-once ledger (already asserted).
    pub ledger: Ledger,
    /// Combined content digest of everything delivered.
    pub content_digest: u64,
}

/// Run `workload` through the simulator on a clean 10 Gbps / 2 µs
/// loopback-like link pair and return its ledger and content digest.
///
/// The sim never materializes payload bytes, so its digest is
/// *synthesized* from the delivered `(id, bytes)` pairs — which is the
/// point: if the wire run reassembles different bytes for any message,
/// its digest (computed from real buffers) will disagree.
pub fn run_sim_golden(workload: &GoldenWorkload) -> SimOutcome {
    let rate = Bandwidth::from_gbps(10);
    let d = Duration::from_micros(2);
    let mut sim = Simulator::new(workload.seed);
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        1,
        2,
        EntityId(0),
        GOLDEN_MSG_ID_BASE,
        workload.schedule(),
    )));
    let sink = sim.add_node(Box::new(
        MtpSinkNode::new(2, Duration::from_micros(100)).with_sack_redundancy(8),
    ));
    sim.connect(
        snd,
        PortId(0),
        sink,
        PortId(0),
        LinkCfg::drop_tail(rate, d, 1024),
        LinkCfg::drop_tail(rate, d, 1024),
    );
    let horizon = Time::ZERO + Duration::from_millis(500);
    sim.run_until(horizon);
    assert!(
        sim.node_as::<MtpSenderNode>(snd).all_done(),
        "golden sim run failed to complete within its horizon"
    );
    mtp_sim::assert_conservation(&sim);

    let ledger = Ledger::capture(&sim, snd, sink);
    ledger.assert_exactly_once("golden sim run");

    let mut scratch = Vec::new();
    let triples: Vec<(u64, u32, u64)> = ledger
        .delivered
        .iter()
        .map(|&(id, bytes)| {
            (
                id,
                bytes,
                payload::synth_message_digest(MsgId(id), bytes, &mut scratch),
            )
        })
        .collect();
    let content_digest = payload::content_digest(&triples);

    SimOutcome {
        ledger,
        content_digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_is_deterministic() {
        let a = GoldenWorkload::generate(11, 20, 100, 50_000);
        let b = GoldenWorkload::generate(11, 20, 100, 50_000);
        assert_eq!(a.msgs, b.msgs);
        let c = GoldenWorkload::generate(12, 20, 100, 50_000);
        assert_ne!(a.msgs, c.msgs);
    }

    #[test]
    fn sim_golden_reproduces_expected_digest() {
        let w = GoldenWorkload::generate(3, 12, 64, 20_000);
        let out = run_sim_golden(&w);
        assert_eq!(out.ledger.delivered.len(), 12);
        // The sim delivered every message exactly once, so its digest is
        // exactly the workload's closed-form expectation.
        assert_eq!(out.content_digest, w.expected_digest());
    }
}
