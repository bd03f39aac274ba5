//! Property: under **any** single-link failure — any one of the four
//! directed path segments, blackhole or drain, cut at any moment during
//! the workload, never repaired — an MTP sender with failover enabled and
//! at least two pathlets alive completes every message exactly once.

mod common;

use common::mtp_diamond;
use mtp_core::{MtpSenderNode, ScheduledMsg};
use mtp_faults::{FaultDriver, FaultSchedule, Ledger};
use mtp_sim::time::{Duration, Time};
use mtp_sim::LinkFailMode;
use proptest::prelude::*;

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn any_single_link_failure_preserves_exactly_once(
        which in 0usize..4,
        cut_us in 20u64..2_000,
        blackhole in any::<bool>(),
        seed in 1u64..1_000,
        bulk_kb in 20u32..120,
    ) {
        let schedule: Vec<ScheduledMsg> = (0..6)
            .map(|i| ScheduledMsg::new(us(150 * i), bulk_kb * 1_000 + 777 * i as u32))
            .collect();
        let mut d = mtp_diamond(seed, schedule);
        let link = [d.a_fwd, d.a_rev, d.b_fwd, d.b_rev][which];
        let mode = if blackhole {
            LinkFailMode::Blackhole
        } else {
            LinkFailMode::Drain
        };
        let mut sched = FaultSchedule::new();
        sched.link_down(us(cut_us), link, mode);
        let mut drv = FaultDriver::new(sched);
        drv.run_until(&mut d.sim, us(200_000));
        mtp_sim::assert_conservation(&d.sim);
        let unfinished = d
            .sim
            .node_as::<MtpSenderNode>(d.sender)
            .msgs
            .iter()
            .filter(|m| m.completed.is_none())
            .count();
        prop_assert_eq!(
            unfinished, 0,
            "link {:?} cut at {}us ({:?}) wedged the session", link, cut_us, mode
        );
        let ledger = Ledger::capture([d.sim.node_as(d.sender)], d.sim.node_as(d.sink));
        ledger.assert_exactly_once("single-link-property");
    }
}
