//! Pins for the endpoint cores' `poll_at()` timer-deadline accessors.
//!
//! A wire driver owns no simulator: it blocks in `poll(2)` until the
//! core's next deadline and calls `on_timer` when it passes. These tests
//! prove that driving a sender purely off `poll_at()` reproduces the
//! *simulator's* firing schedule exactly — same RTO count at every
//! cutoff — and that quarantine releases are covered by the deadline
//! even when no packet is in flight (where `next_deadline()` alone
//! would sleep forever and never re-probe).

use mtp_core::{MtpConfig, MtpSender, MtpSenderNode, ScheduledMsg};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{Ctx, Headers, LinkCfg, Node, Packet, PortId, Simulator};
use mtp_wire::{
    EntityId, Feedback, MtpHeader, PathFeedback, PathletId, PktType, SackEntry, TrafficClass,
};

/// A node that swallows every packet: the sender facing it never hears
/// an ACK, so its entire behaviour is its RTO schedule.
struct Blackhole {
    name: String,
}

impl Node for Blackhole {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        mtp_sim::pool::recycle_packet(pkt);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

fn recycle_all(out: &mut Vec<Packet>) {
    for p in out.drain(..) {
        mtp_sim::pool::recycle_packet(p);
    }
}

fn data_hdr(p: &Packet) -> &MtpHeader {
    match &p.headers {
        Headers::Mtp(h) => h,
        _ => panic!("expected MTP header"),
    }
}

fn ack_for(pkts: &[&Packet]) -> MtpHeader {
    MtpHeader {
        pkt_type: PktType::Ack,
        sack: pkts
            .iter()
            .map(|p| {
                let h = data_hdr(p);
                SackEntry {
                    msg: h.msg_id,
                    pkt: h.pkt_num,
                }
            })
            .collect(),
        ..MtpHeader::default()
    }
}

/// Driving a standalone sender off `poll_at()` fires exactly as many
/// RTOs as the simulator's host adapter (which arms a sim timer at
/// `next_deadline()`) fires for the identical sender, at every cutoff.
#[test]
fn poll_at_reproduces_sim_rto_firing_schedule() {
    const MSG_BYTES: u32 = 100_000;
    const MSG_ID_BASE: u64 = 1 << 32;

    let mut sim = Simulator::new(1);
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        1,
        2,
        EntityId(0),
        MSG_ID_BASE,
        vec![ScheduledMsg::new(Time::ZERO, MSG_BYTES)],
    )));
    let hole = sim.add_node(Box::new(Blackhole {
        name: "blackhole".into(),
    }));
    let rate = Bandwidth::from_gbps(10);
    let d = Duration::from_micros(2);
    sim.connect(
        snd,
        PortId(0),
        hole,
        PortId(0),
        LinkCfg::drop_tail(rate, d, 1024),
        LinkCfg::drop_tail(rate, d, 1024),
    );

    let mut replica = MtpSender::new(MtpConfig::default(), 1, EntityId(0), MSG_ID_BASE);
    let mut out = Vec::new();
    replica.send_message(
        2,
        MSG_BYTES,
        0,
        TrafficClass::BEST_EFFORT,
        Time::ZERO,
        &mut out,
    );
    recycle_all(&mut out);

    // With failover disabled there is no quarantine deadline; poll_at is
    // exactly the RTO accessor the sim adapter arms.
    assert_eq!(replica.poll_at(), replica.next_deadline());

    for cutoff_us in [777, 1_913, 5_111, 19_777] {
        let cutoff = Time::ZERO + Duration::from_micros(cutoff_us);
        sim.run_until(cutoff);
        while let Some(t) = replica.poll_at() {
            if t > cutoff {
                break;
            }
            replica.on_timer(t, &mut out);
            recycle_all(&mut out);
        }
        let sim_timeouts = sim.node_as::<MtpSenderNode>(snd).sender.stats.timeouts;
        assert!(sim_timeouts > 0 || cutoff_us < 1_000, "sim RTOs firing");
        assert_eq!(
            replica.stats.timeouts, sim_timeouts,
            "RTO count diverged at cutoff {cutoff_us}µs"
        );
    }
}

/// With failover enabled and nothing in flight, `poll_at()` is exactly
/// the quarantine release instant — `next_deadline()` alone returns
/// `None` there, and a driver sleeping on it would never re-probe.
#[test]
fn poll_at_covers_quarantine_release_with_empty_inflight() {
    let cfg = MtpConfig::default().with_failover();
    let backoff = mtp_core::config::PROBE_BACKOFF;
    let mut s = MtpSender::new(cfg, 1, EntityId(0), 1000);
    let mut out = Vec::new();
    s.send_message(
        2,
        100_000,
        0,
        TrafficClass::BEST_EFFORT,
        Time::ZERO,
        &mut out,
    );

    // Steer the active pathlet to 7 via echoed feedback; the window the
    // ACK opens admits fresh packets charged to 7.
    let mut ack = ack_for(&[&out[0]]);
    ack.ack_path_feedback = vec![PathFeedback {
        path: PathletId(7),
        tc: TrafficClass::BEST_EFFORT,
        feedback: Feedback::EcnMark { ce: false },
    }];
    let mut on7 = Vec::new();
    s.on_ack(Time::ZERO + Duration::from_micros(10), &ack, &mut on7);
    assert_eq!(s.active_pathlet().0, PathletId(7));
    assert!(!on7.is_empty());

    // Two loss events attributed to pathlet 7 quarantine it.
    let nack_hdr = MtpHeader {
        pkt_type: PktType::Ack,
        nack: on7
            .iter()
            .map(|p| {
                let h = data_hdr(p);
                SackEntry {
                    msg: h.msg_id,
                    pkt: h.pkt_num,
                }
            })
            .collect(),
        ..MtpHeader::default()
    };
    let mut out2 = Vec::new();
    s.on_ack(Time::ZERO + Duration::from_micros(20), &nack_hdr, &mut out2);
    let quarantined_at = Time::ZERO + Duration::from_micros(30);
    s.on_ack(quarantined_at, &nack_hdr, &mut out2);
    assert_eq!(s.stats.quarantines, 1);

    // The quarantine release can never be later than poll_at().
    let release = quarantined_at + backoff;
    assert!(s.poll_at().expect("deadline while quarantined") <= release);

    // ACK everything outstanding (and everything each ACK's freed window
    // emits) at a fixed instant until the message completes: inflight
    // empties, so the RTO deadline disappears...
    let ack_now = Time::ZERO + Duration::from_micros(40);
    let mut pending: Vec<Packet> = Vec::new();
    pending.append(&mut out);
    pending.append(&mut on7);
    pending.append(&mut out2);
    while !pending.is_empty() {
        let batch: Vec<&Packet> = pending.iter().take(200).collect();
        let ack = ack_for(&batch);
        let keep = pending.split_off(batch.len());
        recycle_all(&mut pending);
        pending = keep;
        let mut emitted = Vec::new();
        s.on_ack(ack_now, &ack, &mut emitted);
        pending.append(&mut emitted);
    }
    assert_eq!(s.stats.msgs_completed, 1);
    assert_eq!(s.next_deadline(), None, "nothing in flight");

    // ...and poll_at() is *exactly* the quarantine release instant.
    assert_eq!(s.poll_at(), Some(release));

    // Firing the timer there releases the quarantine (one re-probe) and
    // clears the deadline entirely.
    s.on_timer(release, &mut out);
    recycle_all(&mut out);
    assert_eq!(s.stats.reprobes, 1);
    assert_eq!(s.poll_at(), None);
}

/// The receiver has no deadline: a completed message's record is gone at
/// once, so there is nothing for `on_poll` to collect, however late, and
/// a copy arriving then is still a duplicate.
#[test]
fn receiver_has_no_deadline() {
    use mtp_core::MtpReceiver;
    use mtp_wire::{EcnCodepoint, MsgId, PktNum};

    let mut r = MtpReceiver::new(2);
    assert_eq!(r.poll_at(), None, "no completions yet");

    let hdr = MtpHeader {
        pkt_type: PktType::Data,
        msg_id: MsgId(77),
        msg_len_pkts: 1,
        msg_len_bytes: 100,
        pkt_num: PktNum(0),
        pkt_len: 100,
        pkt_offset: 0,
        ..MtpHeader::default()
    };
    let t0 = Time::ZERO + Duration::from_micros(10);
    let (ack, newly) = r.on_data(t0, &hdr, EcnCodepoint::Ect0);
    mtp_sim::pool::recycle_packet(ack);
    assert_eq!(newly, 100);
    assert_eq!(r.in_reassembly(), 0, "no record once complete");
    assert_eq!(r.poll_at(), None, "nothing to collect");

    let late = t0 + Duration::from_millis(1_000);
    assert_eq!(r.on_poll(late), 0);
    let (ack, newly) = r.on_data(late, &hdr, EcnCodepoint::Ect0);
    mtp_sim::pool::recycle_packet(ack);
    assert_eq!(
        (newly, r.stats.duplicates),
        (0, 1),
        "a late copy is a duplicate"
    );
    assert_eq!(r.stats.msgs_delivered, 1);
    assert_eq!(r.poll_at(), None);
}
