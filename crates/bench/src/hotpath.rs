//! Fixed-seed engine workloads for the golden-digest test.
//!
//! Three workloads stress the three hot paths of the discrete-event
//! engine:
//!
//! * [`timer_churn`] — timer scheduling and cancellation with no packets
//!   at all: the event-heap and timer-cancel paths in isolation;
//! * [`forward_chain`] — packets relayed down a chain of store-and-forward
//!   hops: the `send`/`TxDone`/`Deliver` path, with MTP headers so header
//!   allocation shows up;
//! * [`leafspine_incast`] — a 4×4 Clos running a full MTP incast: the
//!   engine under a realistic mixed event population (data, ACKs, timers,
//!   ECN queues).
//!
//! Each workload returns a [`HotpathRun`] whose `digest` is a
//! line-oriented dump of everything observable about the run — event
//! count, final clock, every link's counters, every retained trace
//! event. `tests/goldens.rs` compares digests against committed
//! golden files: an engine change that alters any event outcome, any
//! ordering, or any RNG draw shows up as a byte diff.

use std::fmt::Write as _;

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{Ctx, Headers, Node, Packet, PortId, Simulator};
use mtp_wire::{EntityId, MtpHeader, PktNum, PktType};

use crate::topo::{leaf_spine, ls_addr, PathSpec};

/// Outcome of one hotpath workload run.
pub struct HotpathRun {
    /// Events processed (calls to `Simulator::step` that returned true).
    pub events: u64,
    /// Deterministic dump of the run's observable state.
    pub digest: String,
}

/// Drive `sim` to completion (or `until`, if given); returns the event
/// count reported by the engine.
fn drive(sim: &mut Simulator, until: Option<Time>) -> u64 {
    match until {
        None => sim.run(),
        Some(t) => {
            sim.run_until(t);
        }
    }
    sim.events_processed()
}

/// Render everything observable about a finished run.
fn digest(sim: &Simulator, events: u64) -> String {
    let mut out = String::new();
    writeln!(out, "events={} final_now={}", events, sim.now().0).expect("write to String");
    for i in 0..sim.num_links() {
        let s = sim.link_stats(mtp_sim::DirLinkId(i));
        writeln!(
            out,
            "link {i}: offered={} tx={} bytes={} dropped={} marked={} trimmed={} maxq={}",
            s.offered_pkts,
            s.tx_pkts,
            s.tx_bytes,
            s.dropped_pkts,
            s.marked_pkts,
            s.trimmed_pkts,
            s.max_qlen_pkts
        )
        .expect("write to String");
    }
    for (i, e) in sim.trace_events().iter().enumerate() {
        writeln!(
            out,
            "trace {i}: t={} pkt={} node={} port={} kind={:?}",
            e.time.0, e.pkt.0, e.node.0, e.port.0, e.kind
        )
        .expect("write to String");
    }
    out
}

// ---------------------------------------------------------------- timers

/// Arms a tree of timers: each fire re-arms two children and immediately
/// cancels one of them, so every fire exercises one schedule-and-fire and
/// one schedule-and-cancel. `fired` counts real fires; cancelled timers
/// firing would double-count and corrupt the digest.
struct TimerChurnNode {
    budget: u64,
    fired: u64,
    cancelled_count: u64,
}

impl Node for TimerChurnNode {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for k in 0..64u64 {
            ctx.set_timer(Duration::from_nanos(100 + k * 7), k);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.fired += 1;
        if self.fired >= self.budget {
            return;
        }
        // Keep ~64 live timers: re-arm one child, plus one that is
        // immediately cancelled (the cancel hot path).
        let d1 = 50 + (token.wrapping_mul(2654435761) % 900);
        let d2 = 50 + (token.wrapping_mul(40503) % 900);
        ctx.set_timer(Duration::from_nanos(d1), token.wrapping_add(1));
        let victim = ctx.set_timer(Duration::from_nanos(d2), token ^ 0xff);
        ctx.cancel_timer(victim);
        self.cancelled_count += 1;
    }

    fn name(&self) -> &str {
        "timer-churn"
    }
}

/// Timer-churn workload: `budget` timer fires, one cancel per fire.
pub fn timer_churn(seed: u64, budget: u64) -> HotpathRun {
    let mut sim = Simulator::new(seed);
    let n = sim.add_node(Box::new(TimerChurnNode {
        budget,
        fired: 0,
        cancelled_count: 0,
    }));
    let events = drive(&mut sim, None);
    let mut d = digest(&sim, events);
    let node = sim.node_as::<TimerChurnNode>(n);
    writeln!(d, "fired={} cancelled={}", node.fired, node.cancelled_count)
        .expect("write to String");
    HotpathRun { events, digest: d }
}

// ---------------------------------------------------------- wheel stress

/// Dense RTO churn: a driver timer ticks every 100 ns and reschedules a
/// batch of per-connection retransmission timers — cancel the old
/// deadline, arm a new one a full RTO out. This is the pattern every
/// transport endpoint generates (each delivery pushes the RTO forward),
/// and it is the event queue's worst case: cancelled deadlines live ~1 ms
/// (10 000 ticks), so hundreds of thousands of tombstones accumulate and
/// every push/pop in a comparison-ordered heap pays a deep, cache-hostile
/// sift through them. A timing wheel does the same work with O(1) slot
/// ops regardless of the tombstone population.
struct RtoChurnNode {
    ticks: u64,
    budget: u64,
    cursor: usize,
    rto_ids: Vec<Option<mtp_sim::TimerId>>,
    rescheduled: u64,
    fired_rtos: u64,
}

impl RtoChurnNode {
    const DRIVER: u64 = u64::MAX;
    const CONNS: usize = 4096;
    const BATCH: usize = 32;
    const TICK_NS: u64 = 100;
    const RTO_US: u64 = 1000;
}

impl Node for RtoChurnNode {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for conn in 0..Self::CONNS {
            let id = ctx.set_timer(Duration::from_micros(Self::RTO_US), conn as u64);
            self.rto_ids[conn] = Some(id);
        }
        ctx.set_timer(Duration::from_nanos(Self::TICK_NS), Self::DRIVER);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != Self::DRIVER {
            // An RTO actually expired (only in the drain phase, once the
            // driver stops pushing deadlines forward).
            self.fired_rtos += 1;
            self.rto_ids[token as usize] = None;
            return;
        }
        self.ticks += 1;
        for _ in 0..Self::BATCH {
            let conn = self.cursor;
            self.cursor = (self.cursor + 1) % Self::CONNS;
            if let Some(old) = self.rto_ids[conn].take() {
                ctx.cancel_timer(old);
            }
            let id = ctx.set_timer(Duration::from_micros(Self::RTO_US), conn as u64);
            self.rto_ids[conn] = Some(id);
            self.rescheduled += 1;
        }
        if self.ticks < self.budget {
            ctx.set_timer(Duration::from_nanos(Self::TICK_NS), Self::DRIVER);
        }
    }

    fn name(&self) -> &str {
        "rto-churn"
    }
}

/// Wheel-stress workload: `ticks` driver ticks of batched RTO
/// reschedule/cancel churn, then a drain phase where every surviving
/// deadline fires.
pub fn wheel_stress(seed: u64, ticks: u64) -> HotpathRun {
    let mut sim = Simulator::new(seed);
    let n = sim.add_node(Box::new(RtoChurnNode {
        ticks: 0,
        budget: ticks,
        cursor: 0,
        rto_ids: vec![None; RtoChurnNode::CONNS],
        rescheduled: 0,
        fired_rtos: 0,
    }));
    let events = drive(&mut sim, None);
    let mut d = digest(&sim, events);
    let node = sim.node_as::<RtoChurnNode>(n);
    writeln!(
        d,
        "ticks={} rescheduled={} fired_rtos={}",
        node.ticks, node.rescheduled, node.fired_rtos
    )
    .expect("write to String");
    HotpathRun { events, digest: d }
}

// ----------------------------------------------------------------- chain

/// Sends `n` MTP-headered packets at start, then stops.
struct ChainSource {
    n: u32,
}

fn chain_packet(i: u32) -> Packet {
    let h = MtpHeader {
        src_port: 7,
        dst_port: 9,
        pkt_type: PktType::Data,
        msg_id: mtp_wire::MsgId(1),
        entity: EntityId(1),
        pkt_num: PktNum(i),
        pkt_len: 1400,
        ..MtpHeader::default()
    };
    // Vary sizes so serialization times differ and the heap reorders.
    Packet::new(Headers::Mtp(Box::new(h)), 600 + (i % 5) * 220)
}

impl Node for ChainSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.n {
            ctx.send(PortId(0), chain_packet(i));
        }
    }
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
    fn name(&self) -> &str {
        "chain-source"
    }
}

/// Forwards everything arriving on port 0 out port 1.
struct ChainRelay;

impl Node for ChainRelay {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        ctx.send(PortId(1), pkt);
    }
    fn name(&self) -> &str {
        "chain-relay"
    }
}

/// Counts and byte-sums what arrives at the end of the chain.
#[derive(Default)]
struct ChainSink {
    pkts: u64,
    bytes: u64,
}

impl Node for ChainSink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, pkt: Packet) {
        self.pkts += 1;
        self.bytes += pkt.wire_len as u64;
    }
    fn name(&self) -> &str {
        "chain-sink"
    }
}

/// Packet-forwarding-chain workload: `pkts` packets traverse `hops`
/// store-and-forward relays.
pub fn forward_chain(seed: u64, hops: usize, pkts: u32) -> HotpathRun {
    let mut sim = Simulator::new(seed);
    sim.enable_trace(4096);
    let src = sim.add_node(Box::new(ChainSource { n: pkts }));
    let relays: Vec<_> = (0..hops)
        .map(|_| sim.add_node(Box::new(ChainRelay)))
        .collect();
    let sink = sim.add_node(Box::new(ChainSink::default()));

    let rate = Bandwidth::from_gbps(100);
    let delay = Duration::from_nanos(500);
    // Queue deep enough that the initial burst is never tail-dropped:
    // every offered packet reaches the sink.
    let cap = pkts as usize + 8;
    let mut prev = (src, PortId(0));
    for &r in &relays {
        sim.connect_symmetric(prev.0, prev.1, r, PortId(0), rate, delay, cap);
        prev = (r, PortId(1));
    }
    sim.connect_symmetric(prev.0, prev.1, sink, PortId(0), rate, delay, cap);

    let events = drive(&mut sim, None);
    let mut d = digest(&sim, events);
    let s = sim.node_as::<ChainSink>(sink);
    writeln!(d, "sink pkts={} bytes={}", s.pkts, s.bytes).expect("write to String");
    HotpathRun { events, digest: d }
}

// ------------------------------------------------------------- leafspine

/// Leaf-spine incast workload: every host except the target runs an MTP
/// sender aimed at host 0 of leaf 0; the fabric is a 4×4 Clos with ECN
/// queues. Exercises the engine under the full protocol stack.
pub fn leafspine_incast(seed: u64) -> HotpathRun {
    const LEAVES: usize = 4;
    const SPINES: usize = 4;
    const HOSTS_PER_LEAF: usize = 4;
    let target = ls_addr(0, HOSTS_PER_LEAF, 0);

    let mut ls = leaf_spine(
        seed,
        LEAVES,
        SPINES,
        HOSTS_PER_LEAF,
        |leaf, i, addr| {
            if addr == target {
                Box::new(MtpSinkNode::new(addr, Duration::from_micros(100)))
            } else {
                let k = (leaf * HOSTS_PER_LEAF + i) as u64;
                // 6 messages of 30 KB each, staggered 2 us apart per host.
                let sched: Vec<ScheduledMsg> = (0..6)
                    .map(|m| {
                        ScheduledMsg::new(
                            Time::ZERO + Duration::from_micros(2 * k + 10 * m),
                            30 * 1024,
                        )
                    })
                    .collect();
                Box::new(MtpSenderNode::new(
                    MtpConfig::default(),
                    addr,
                    target,
                    EntityId(addr),
                    (k + 1) << 40,
                    sched,
                ))
            }
        },
        |_leaf| mtp_net::Strategy::Ecmp,
        PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1)),
        PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1)),
        false,
    );
    ls.sim.enable_trace(4096);

    let events = drive(&mut ls.sim, Some(Time::ZERO + Duration::from_millis(5)));
    let d = digest(&ls.sim, events);
    HotpathRun { events, digest: d }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(timer_churn(1, 2_000).digest, timer_churn(1, 2_000).digest);
        assert_eq!(
            forward_chain(1, 4, 200).digest,
            forward_chain(1, 4, 200).digest
        );
        assert_eq!(wheel_stress(1, 500).digest, wheel_stress(1, 500).digest);
    }

    #[test]
    fn wheel_stress_drains_every_deadline() {
        let r = wheel_stress(2, 500);
        // 500 ticks * 32 reschedules, and in the drain phase every one of
        // the 4096 connections' final deadlines fires exactly once.
        assert!(r.digest.contains("rescheduled=16000 fired_rtos=4096"));
    }

    #[test]
    fn chain_delivers_everything() {
        let r = forward_chain(3, 6, 300);
        assert!(r.digest.contains("sink pkts=300"));
    }

    #[test]
    fn incast_runs_and_digests() {
        let a = leafspine_incast(42);
        assert!(a.events > 10_000, "incast too small: {} events", a.events);
        let b = leafspine_incast(42);
        assert_eq!(a.digest, b.digest, "incast must be deterministic");
    }
}
