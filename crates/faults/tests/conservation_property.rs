//! Property: on a random diamond workload under a random fault schedule —
//! cuts, drains, bit-flip and truncation bursts, and switch crash/restart
//! landing at arbitrary times — the engine's packet-conservation audit
//! holds, and the telemetry snapshot is a pure function of the seed:
//! running the same cell twice produces byte-identical counters, gauges,
//! and histograms.

mod common;

use common::mtp_diamond;
use mtp_core::ScheduledMsg;
use mtp_faults::{FaultDriver, FaultSchedule};
use mtp_sim::time::{Duration, Time};
use mtp_sim::LinkFailMode;
use proptest::prelude::*;

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// Cases per property: at least 24, more under `PROPTEST_CASES`.
fn cases() -> u32 {
    ProptestConfig::default().cases.max(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    #[test]
    fn conservation_and_replay_under_random_faults(
        seed in 1u64..10_000,
        n_msgs in 1u64..8,
        msg_kb in 1u32..60,
        faults in prop::collection::vec((0u8..5, 20u64..4_000, any::<u8>()), 0..8),
    ) {
        let run = || {
            let schedule: Vec<ScheduledMsg> = (0..n_msgs)
                .map(|i| ScheduledMsg::new(us(120 * i), msg_kb * 1_000 + 13 * i as u32))
                .collect();
            let mut d = mtp_diamond(seed, schedule);
            let links = [d.a_fwd, d.a_rev, d.b_fwd, d.b_rev];
            let mut sched = FaultSchedule::new();
            for (i, &(kind, at, pick)) in faults.iter().enumerate() {
                let link = links[pick as usize % links.len()];
                match kind {
                    0 => {
                        sched.link_down(us(at), link, LinkFailMode::Blackhole);
                        sched.link_up(us(at + 500), link);
                    }
                    1 => {
                        sched.link_down(us(at), link, LinkFailMode::Drain);
                        sched.link_up(us(at + 500), link);
                    }
                    2 => {
                        sched.bitflip_burst(us(at), link, 4, 2, 0x1000 + i as u64);
                    }
                    3 => {
                        sched.truncate_burst(us(at), link, 3, 0x2000 + i as u64);
                    }
                    _ => {
                        sched.crash_restart(d.sw2, us(at), us(at + 400));
                    }
                }
            }
            let mut drv = FaultDriver::new(sched);
            drv.run_until(&mut d.sim, us(200_000));
            assert_eq!(drv.remaining(), 0, "faults left unapplied");
            mtp_sim::assert_conservation(&d.sim);
            d.sim.snapshot()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(
            a.digest(),
            b.digest(),
            "telemetry snapshot not replay-stable at seed {}:\n{}",
            seed,
            a.diff(&b)
        );
    }
}
