//! The fault matrix: (fault type x timing x seed) sweeps over the diamond
//! topology, each cell checked against the exactly-once delivery ledger
//! and against a deterministic replay of itself.
//!
//! Fault types: link blackhole, link drain, far-switch crash/restart,
//! pathlet flap, rate/delay degradation with a bit-flip burst.
//! Timings: early (mid-slow-start) and mid-transfer. Seeds: three per
//! cell, also varying the message mix.

mod common;

use common::mtp_diamond;
use mtp_core::{MtpSenderNode, ScheduledMsg};
use mtp_faults::{FaultDriver, FaultSchedule, Ledger, ParallelPaths};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::LinkFailMode;

const SEEDS: [u64; 3] = [1, 2, 3];

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// A mixed workload: a few bulk messages plus a tail of small ones, all
/// submitted inside the first 1.5 ms so every fault timing overlaps
/// live traffic. Seed-dependent sizes keep cells from sharing a trace.
fn workload(seed: u64) -> Vec<ScheduledMsg> {
    let mut sched = Vec::new();
    for i in 0..4 {
        sched.push(ScheduledMsg::new(
            us(20 * i),
            200_000 + 10_000 * ((seed + i) % 3) as u32,
        ));
    }
    for i in 0..12 {
        sched.push(ScheduledMsg::new(
            us(100 + 120 * i),
            2_000 + 500 * ((seed + i) % 4) as u32,
        ));
    }
    sched
}

/// Run `schedule` against a fresh diamond and balance the ledger.
fn run_cell(seed: u64, ctx: &str, build: impl Fn(&ParallelPaths) -> FaultSchedule) -> Ledger {
    let mut d = mtp_diamond(seed, workload(seed));
    let sched = build(&d);
    let mut drv = FaultDriver::new(sched);
    drv.run_until(&mut d.sim, us(100_000));
    assert_eq!(drv.remaining(), 0, "[{ctx}] faults left unapplied");
    mtp_sim::assert_conservation(&d.sim);
    let ledger = Ledger::capture([d.sim.node_as(d.sender)], d.sim.node_as(d.sink));
    ledger.assert_exactly_once(ctx);
    ledger
}

/// Same cell twice: the ledger (ids, byte counts, completion timestamps)
/// must replay exactly.
fn run_cell_replayed(seed: u64, ctx: &str, build: impl Fn(&ParallelPaths) -> FaultSchedule) {
    let a = run_cell(seed, ctx, &build);
    let b = run_cell(seed, ctx, &build);
    assert_eq!(a, b, "[{ctx}] replay diverged");
}

#[test]
fn link_blackhole_early_and_mid() {
    for &seed in &SEEDS {
        for (tag, down, up) in [("early", 60, 2_060), ("mid", 400, 2_400)] {
            run_cell_replayed(seed, &format!("blackhole/{tag}/s{seed}"), |d| {
                let mut s = FaultSchedule::new();
                s.cut_both(d.a_fwd, d.a_rev, us(down), us(up), LinkFailMode::Blackhole);
                s
            });
        }
    }
}

#[test]
fn link_drain_early_and_mid() {
    for &seed in &SEEDS {
        for (tag, down, up) in [("early", 60, 2_060), ("mid", 400, 2_400)] {
            run_cell_replayed(seed, &format!("drain/{tag}/s{seed}"), |d| {
                let mut s = FaultSchedule::new();
                s.cut_both(d.a_fwd, d.a_rev, us(down), us(up), LinkFailMode::Drain);
                s
            });
        }
    }
}

#[test]
fn far_switch_crash_and_restart() {
    for &seed in &SEEDS {
        for (tag, down, up) in [("early", 60, 1_060), ("mid", 400, 1_400)] {
            run_cell_replayed(seed, &format!("crash/{tag}/s{seed}"), |d| {
                let mut s = FaultSchedule::new();
                s.crash_restart(d.sw2, us(down), us(up));
                s
            });
        }
    }
}

#[test]
fn near_switch_crash_and_restart() {
    // sw1 is on the only path from the sender: while it is down nothing
    // flows at all, so this cell checks pure outage recovery rather than
    // failover.
    for &seed in &SEEDS {
        run_cell_replayed(seed, &format!("crash-sw1/s{seed}"), |d| {
            let mut s = FaultSchedule::new();
            s.crash_restart(d.sw1, us(300), us(1_300));
            s
        });
    }
}

#[test]
fn pathlet_flap() {
    for &seed in &SEEDS {
        run_cell_replayed(seed, &format!("flap/s{seed}"), |d| {
            let mut s = FaultSchedule::new();
            s.flap(
                d.a_fwd,
                d.a_rev,
                us(100),
                Duration::from_micros(400),
                Duration::from_micros(600),
                3,
                LinkFailMode::Blackhole,
            );
            s
        });
    }
}

#[test]
fn degradation_and_corruption_burst() {
    for &seed in &SEEDS {
        run_cell_replayed(seed, &format!("degrade/s{seed}"), |d| {
            let mut s = FaultSchedule::new();
            // Path A falls to 1 Gbps with 50 us delay, delivers a burst
            // of damaged frames its receivers must reject, then recovers.
            s.degrade(
                us(150),
                d.a_fwd,
                Bandwidth::from_gbps(1),
                Duration::from_micros(50),
            );
            s.bitflip_burst(us(200), d.a_fwd, 8, 2, seed ^ 0xDE6);
            s.degrade(
                us(2_150),
                d.a_fwd,
                Bandwidth::from_gbps(10),
                Duration::from_micros(5),
            );
            s
        });
    }
}

/// Everything a corruption cell must account for: the delivery ledger,
/// how many frames the links damaged, and who detected each of them.
#[derive(Debug, PartialEq)]
struct CorruptionAudit {
    ledger: Ledger,
    corrupted: u64,
    /// (sender, sink, sw1, sw2, engine-destroyed) malformed counts.
    detected: [u64; 5],
}

/// Run a corruption schedule and close the books: exactly-once delivery,
/// and every link-damaged frame detected by exactly one device (or
/// destroyed by the engine before any device saw it — queue overflow,
/// crashed-node delivery).
fn run_corruption_cell(
    seed: u64,
    ctx: &str,
    build: impl Fn(&ParallelPaths) -> FaultSchedule,
) -> CorruptionAudit {
    let mut d = mtp_diamond(seed, workload(seed));
    let sched = build(&d);
    let mut drv = FaultDriver::new(sched);
    drv.run_until(&mut d.sim, us(100_000));
    assert_eq!(drv.remaining(), 0, "[{ctx}] faults left unapplied");
    mtp_sim::assert_conservation(&d.sim);
    let ledger = Ledger::capture([d.sim.node_as(d.sender)], d.sim.node_as(d.sink));
    ledger.assert_exactly_once(ctx);
    let corrupted: u64 = [d.a_fwd, d.a_rev, d.b_fwd, d.b_rev]
        .iter()
        .map(|&l| d.sim.link_stats(l).corrupted_pkts)
        .sum();
    assert!(corrupted > 0, "[{ctx}] the storm never damaged a frame");
    let detected = [
        d.sim.node_as::<MtpSenderNode>(d.sender).malformed,
        d.sim.node_as::<mtp_core::MtpSinkNode>(d.sink).malformed,
        d.sim.node_as::<mtp_net::SwitchNode>(d.sw1).stats.malformed,
        d.sim.node_as::<mtp_net::SwitchNode>(d.sw2).stats.malformed,
        d.sim.corrupted_destroyed(),
    ];
    assert_eq!(
        detected.iter().sum::<u64>(),
        corrupted,
        "[{ctx}] damaged frames unaccounted for (detected {detected:?})"
    );
    CorruptionAudit {
        ledger,
        corrupted,
        detected,
    }
}

fn run_corruption_cell_replayed(
    seed: u64,
    ctx: &str,
    build: impl Fn(&ParallelPaths) -> FaultSchedule,
) {
    let a = run_corruption_cell(seed, ctx, &build);
    let b = run_corruption_cell(seed, ctx, &build);
    assert_eq!(a, b, "[{ctx}] replay diverged");
}

#[test]
fn bitflip_storm_early_and_mid() {
    // Damaged frames are *delivered*, not destroyed: receivers must reject
    // them on the header CRC and recover by retransmission. Flips stay at
    // <= 3 bits so detection — and therefore the audit — is guaranteed.
    for &seed in &SEEDS {
        for (tag, at) in [("early", 60u64), ("mid", 400)] {
            run_corruption_cell_replayed(seed, &format!("bitflip/{tag}/s{seed}"), |d| {
                let mut s = FaultSchedule::new();
                s.bitflip_burst(us(at), d.a_fwd, 20, 3, seed ^ 0xB17);
                s.bitflip_burst(us(at + 50), d.b_fwd, 20, 1, seed ^ 0xB18);
                s.bitflip_burst(us(at + 100), d.a_rev, 12, 2, seed ^ 0xB19);
                s
            });
        }
    }
}

#[test]
fn truncation_storm() {
    for &seed in &SEEDS {
        run_corruption_cell_replayed(seed, &format!("truncate/s{seed}"), |d| {
            let mut s = FaultSchedule::new();
            s.truncate_burst(us(120), d.a_fwd, 16, seed ^ 0x7C);
            s.truncate_burst(us(300), d.b_rev, 8, seed ^ 0x7D);
            s
        });
    }
}

#[test]
fn steady_corruption_rate() {
    // A lossy span: for 3 ms both forward paths flip <=2 bits in a few
    // percent of frames (both, so failover cannot sidestep the storm),
    // then the links heal.
    for &seed in &SEEDS {
        run_corruption_cell_replayed(seed, &format!("rate/s{seed}"), |d| {
            let mut s = FaultSchedule::new();
            s.corrupt_rate(us(100), d.a_fwd, 50_000, 2, seed ^ 0x5EED);
            s.corrupt_rate(us(100), d.b_fwd, 30_000, 2, seed ^ 0x5EEE);
            s.corrupt_rate(us(3_100), d.a_fwd, 0, 0, 0);
            s.corrupt_rate(us(3_100), d.b_fwd, 0, 0, 0);
            s
        });
    }
}

#[test]
fn corruption_on_top_of_failover() {
    // The combined stress: path A is bit-flipping while path B blackholes
    // mid-transfer, so the sender is simultaneously rejecting damaged
    // frames and failing over. Exactly-once must still hold.
    for &seed in &SEEDS {
        run_corruption_cell_replayed(seed, &format!("combo/s{seed}"), |d| {
            let mut s = FaultSchedule::new();
            s.corrupt_rate(us(100), d.a_fwd, 30_000, 3, seed ^ 0xC0);
            s.cut_both(
                d.b_fwd,
                d.b_rev,
                us(400),
                us(2_400),
                LinkFailMode::Blackhole,
            );
            s.corrupt_rate(us(5_000), d.a_fwd, 0, 0, 0);
            s
        });
    }
}

#[test]
fn permanent_single_path_loss_still_completes() {
    // The survivor carries everything: path A never comes back.
    for &seed in &SEEDS {
        let ledger = run_cell(seed, &format!("permanent/s{seed}"), |d| {
            let mut s = FaultSchedule::new();
            s.link_down(us(250), d.a_fwd, LinkFailMode::Blackhole);
            s.link_down(us(250), d.a_rev, LinkFailMode::Blackhole);
            s
        });
        assert!(
            !ledger.completed.is_empty(),
            "workload actually ran (seed {seed})"
        );
    }
}

#[test]
fn failover_machinery_actually_engaged() {
    // Sanity for the whole matrix: a mid-transfer blackhole must drive
    // the sender's quarantine path, not just its generic RTO path.
    let mut d = mtp_diamond(1, workload(1));
    let mut s = FaultSchedule::new();
    s.cut_both(
        d.a_fwd,
        d.a_rev,
        us(400),
        us(2_400),
        LinkFailMode::Blackhole,
    );
    let mut drv = FaultDriver::new(s);
    drv.run_until(&mut d.sim, us(100_000));
    mtp_sim::assert_conservation(&d.sim);
    let stats = &d.sim.node_as::<MtpSenderNode>(d.sender).sender.stats;
    assert!(stats.quarantines > 0, "no pathlet was quarantined");
    assert!(
        stats.quarantines >= stats.failovers,
        "failovers only happen via quarantine"
    );
    Ledger::capture([d.sim.node_as(d.sender)], d.sim.node_as(d.sink))
        .assert_exactly_once("engaged");
}
