//! The TCP half of the failure study: a flow pinned to one diamond path
//! (the deterministic stand-in for ECMP hashing) stalls for the whole
//! outage when that path is cut, while an MTP sender over the same
//! topology and fault schedule keeps completing messages on the survivor.

mod common;

use common::{diamond_spec, mtp_diamond};
use mtp_core::{MtpSenderNode, ScheduledMsg};
use mtp_faults::{parallel_paths, tcp_pair, FaultDriver, FaultSchedule};
use mtp_net::Strategy;
use mtp_sim::time::{Duration, Time};
use mtp_sim::LinkFailMode;
use mtp_tcp::{TcpConfig, TcpSenderNode};

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// Eight 50 KB messages submitted every 100 us; the cut lands mid-workload.
const MSG_BYTES: u64 = 50_000;
const N_MSGS: u64 = 8;

// Path A (both directions) is cut over [300 us, 5.3 ms).
const OUTAGE_START_US: u64 = 300;
const OUTAGE_END_US: u64 = 5_300;

#[test]
fn tcp_pinned_flow_stalls_for_the_whole_outage() {
    let schedule: Vec<(Time, u64)> = (0..N_MSGS).map(|i| (us(100 * i), MSG_BYTES)).collect();
    // The forward fan is fixed on path A: the deterministic stand-in for
    // ECMP, where a flow hashes onto one path and stays there.
    let mut d = parallel_paths(
        7,
        tcp_pair(TcpConfig::default(), schedule, Duration::from_micros(100)),
        diamond_spec(Strategy::Fixed),
    );
    let mut sched = FaultSchedule::new();
    sched.cut_both(
        d.a_fwd,
        d.a_rev,
        us(OUTAGE_START_US),
        us(OUTAGE_END_US),
        LinkFailMode::Blackhole,
    );
    let mut drv = FaultDriver::new(sched);
    drv.run_until(&mut d.sim, us(60_000));
    mtp_sim::assert_conservation(&d.sim);

    let snd = d.sim.node_as::<TcpSenderNode>(d.sender);
    assert!(snd.all_done(), "TCP never recovered after the restore");
    // The fault signature of a pinned flow: nothing completes inside the
    // outage (path B is idle and healthy the whole time, but the flow
    // cannot move to it), and RTOs pile up until the path comes back.
    let during = snd
        .msgs
        .iter()
        .filter_map(|m| m.completed)
        .filter(|&t| t > us(OUTAGE_START_US) && t < us(OUTAGE_END_US))
        .count();
    assert_eq!(during, 0, "a pinned TCP flow completed messages mid-outage");
    assert!(snd.timeouts() >= 2, "expected RTOs during the blackhole");
    // And it does recover: the first post-restore completion comes within
    // a few RTOs of the link returning, not at the end of the run.
    let first_after = snd
        .msgs
        .iter()
        .filter_map(|m| m.completed)
        .filter(|&t| t >= us(OUTAGE_END_US))
        .min()
        .expect("no completion after restore");
    assert!(
        first_after < us(40_000),
        "recovery took implausibly long: {first_after:?}"
    );
}

#[test]
fn mtp_failover_completes_messages_inside_the_same_outage() {
    let schedule: Vec<ScheduledMsg> = (0..N_MSGS)
        .map(|i| ScheduledMsg::new(us(100 * i), MSG_BYTES as u32))
        .collect();
    let mut d = mtp_diamond(7, schedule);
    let mut sched = FaultSchedule::new();
    sched.cut_both(
        d.a_fwd,
        d.a_rev,
        us(OUTAGE_START_US),
        us(OUTAGE_END_US),
        LinkFailMode::Blackhole,
    );
    let mut drv = FaultDriver::new(sched);
    drv.run_until(&mut d.sim, us(60_000));
    mtp_sim::assert_conservation(&d.sim);

    let snd = d.sim.node_as::<MtpSenderNode>(d.sender);
    assert!(snd.all_done(), "MTP failed to complete through the outage");
    let during = snd
        .msgs
        .iter()
        .filter_map(|m| m.completed)
        .filter(|&t| t > us(OUTAGE_START_US) && t < us(OUTAGE_END_US))
        .count();
    assert!(
        during > 0,
        "MTP should keep completing messages on the surviving path mid-outage"
    );
}
