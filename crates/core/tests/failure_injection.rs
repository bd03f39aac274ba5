//! Failure injection: the MTP endpoint's repair machinery must deliver
//! every message through loss, reordering, trimming, and duplication-free
//! goodput accounting must hold throughout. Property-based: loss rate,
//! message sizes, and counts are all randomized (deterministically).

use proptest::prelude::*;

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{DropTailQueue, LinkCfg, LossyQueue, ReorderQueue, Simulator};
use mtp_sim::{NodeId, PortId};
use mtp_wire::EntityId;

fn run_with_queue(
    queue: Box<dyn mtp_sim::Qdisc>,
    schedule: Vec<ScheduledMsg>,
    horizon_ms: u64,
) -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(1);
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        1,
        2,
        EntityId(0),
        1 << 40,
        schedule,
    )));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(100))));
    let rate = Bandwidth::from_gbps(10);
    let d = Duration::from_micros(2);
    sim.connect(
        snd,
        PortId(0),
        sink,
        PortId(0),
        LinkCfg {
            rate,
            delay: d,
            queue,
        },
        LinkCfg::drop_tail(rate, d, 512),
    );
    sim.run_until(Time::ZERO + Duration::from_millis(horizon_ms));
    mtp_sim::assert_conservation(&sim);
    (sim, snd, sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any loss rate up to 30% on the data direction: every message is
    /// eventually delivered, exactly once, with exact byte counts.
    #[test]
    fn all_messages_survive_random_loss(
        loss in 0.0f64..0.3,
        seed in any::<u64>(),
        n_msgs in 1usize..8,
        msg_kb in 1u32..64,
    ) {
        let bytes = msg_kb * 1024;
        let schedule: Vec<ScheduledMsg> = (0..n_msgs)
            .map(|i| ScheduledMsg::new(Time::ZERO + Duration::from_micros(10 * i as u64), bytes))
            .collect();
        let queue = Box::new(LossyQueue::new(
            Box::new(DropTailQueue::new(512)),
            loss,
            seed,
        ));
        let (sim, snd, sink) = run_with_queue(queue, schedule, 400);
        let sender = sim.node_as::<MtpSenderNode>(snd);
        prop_assert!(sender.all_done(), "incomplete under {loss:.2} loss");
        let sink = sim.node_as::<MtpSinkNode>(sink);
        prop_assert_eq!(sink.delivered.len(), n_msgs);
        prop_assert_eq!(sink.total_goodput(), n_msgs as u64 * bytes as u64);
        // No message delivered twice.
        let mut ids: Vec<_> = sink.delivered.iter().map(|m| m.id).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), n_msgs);
    }

    /// Deterministic reordering inside the link: messages still deliver,
    /// and the receiver's spurious NACKs only cost retransmissions, never
    /// correctness.
    #[test]
    fn messages_survive_reordering(
        nth in 2u64..6,
        delay_pkts in 1usize..8,
        msg_kb in 8u32..128,
    ) {
        let schedule = vec![ScheduledMsg::new(Time::ZERO, msg_kb * 1024)];
        let queue = Box::new(ReorderQueue::new(
            Box::new(DropTailQueue::new(512)),
            nth,
            delay_pkts,
        ));
        let (sim, snd, sink) = run_with_queue(queue, schedule, 400);
        prop_assert!(sim.node_as::<MtpSenderNode>(snd).all_done());
        prop_assert_eq!(
            sim.node_as::<MtpSinkNode>(sink).total_goodput(),
            msg_kb as u64 * 1024
        );
    }
}

/// Catastrophic loss (55%) on data with spared control traffic: progress
/// is slow — the window floors and the capped-backoff RTO becomes the
/// engine of repair — but correctness holds.
#[test]
fn extreme_loss_eventually_completes() {
    let schedule = vec![ScheduledMsg::new(Time::ZERO, 50_000)];
    let queue =
        Box::new(LossyQueue::new(Box::new(DropTailQueue::new(512)), 0.55, 99).sparing_control(100));
    let (sim, snd, sink) = run_with_queue(queue, schedule, 2_000);
    assert!(
        sim.node_as::<MtpSenderNode>(snd).all_done(),
        "55% loss survived"
    );
    assert_eq!(sim.node_as::<MtpSinkNode>(sink).total_goodput(), 50_000);
}

/// Loss on the ACK direction: SACKs vanish, the sender RTO-retransmits,
/// the receiver re-ACKs duplicates, and completion still happens.
#[test]
fn ack_loss_is_repaired_by_retransmission() {
    let mut sim = Simulator::new(1);
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        1,
        2,
        EntityId(0),
        1 << 40,
        vec![ScheduledMsg::new(Time::ZERO, 100_000)],
    )));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(100))));
    let rate = Bandwidth::from_gbps(10);
    let d = Duration::from_micros(2);
    sim.connect(
        snd,
        PortId(0),
        sink,
        PortId(0),
        LinkCfg::drop_tail(rate, d, 512),
        // 40% of ACKs vanish.
        LinkCfg {
            rate,
            delay: d,
            queue: Box::new(LossyQueue::new(Box::new(DropTailQueue::new(512)), 0.4, 5)),
        },
    );
    sim.run_until(Time::ZERO + Duration::from_millis(500));
    mtp_sim::assert_conservation(&sim);
    let sender = sim.node_as::<MtpSenderNode>(snd);
    assert!(sender.all_done(), "completed despite ACK loss");
    let sink = sim.node_as::<MtpSinkNode>(sink);
    assert_eq!(
        sink.total_goodput(),
        100_000,
        "duplicates not double-counted"
    );
    assert!(
        sink.receiver.stats.duplicates > 0,
        "retransmissions did arrive"
    );
}

/// Closed-loop MTP workload: each message submitted on its predecessor's
/// completion; all finish in strict order.
#[test]
fn closed_loop_submission_is_sequential() {
    let mut sim = Simulator::new(1);
    let schedule: Vec<ScheduledMsg> = (0..20)
        .map(|_| ScheduledMsg::new(Time::ZERO, 50_000))
        .collect();
    let snd = sim.add_node(Box::new(
        MtpSenderNode::new(MtpConfig::default(), 1, 2, EntityId(0), 1 << 40, schedule)
            .closed_loop(),
    ));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(100))));
    let rate = Bandwidth::from_gbps(10);
    let d = Duration::from_micros(2);
    sim.connect(
        snd,
        PortId(0),
        sink,
        PortId(0),
        LinkCfg::drop_tail(rate, d, 256),
        LinkCfg::drop_tail(rate, d, 256),
    );
    sim.run_until(Time::ZERO + Duration::from_millis(100));
    mtp_sim::assert_conservation(&sim);
    let sender = sim.node_as::<MtpSenderNode>(snd);
    assert!(sender.all_done());
    // Submissions are strictly ordered: message i+1 submitted at message
    // i's completion time.
    for w in sender.msgs.windows(2) {
        assert_eq!(Some(w[1].submitted), w[0].completed);
    }
    assert_eq!(sim.node_as::<MtpSinkNode>(sink).delivered.len(), 20);
}

/// A receiver keeps no record of a completed message: ten messages from
/// one sender leave one run of completed ids and nothing to collect.
#[test]
fn receiver_keeps_no_record_of_completed_messages() {
    let mut sim = Simulator::new(1);
    let schedule: Vec<ScheduledMsg> = (0..10)
        .map(|i| ScheduledMsg::new(Time::ZERO + Duration::from_micros(i), 20_000))
        .collect();
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        1,
        2,
        EntityId(0),
        1 << 40,
        schedule,
    )));
    let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(100))));
    let rate = Bandwidth::from_gbps(10);
    let d = Duration::from_micros(2);
    sim.connect(
        snd,
        PortId(0),
        sink,
        PortId(0),
        LinkCfg::drop_tail(rate, d, 256),
        LinkCfg::drop_tail(rate, d, 256),
    );
    sim.run_until(Time::ZERO + Duration::from_millis(100));
    mtp_sim::assert_conservation(&sim);
    let now = sim.now();
    let sink = sim.node_as_mut::<MtpSinkNode>(sink);
    assert_eq!(sink.delivered.len(), 10);
    assert_eq!(sink.receiver.in_reassembly(), 0);
    assert_eq!(sink.receiver.resident(), 1, "one run of completed ids");
    assert_eq!(sink.receiver.poll_at(), None);
    assert_eq!(sink.receiver.on_poll(now), 0, "nothing to collect");
    assert_eq!(sink.receiver.buffered_bytes(), 0);
}
