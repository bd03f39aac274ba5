//! Sharded-vs-serial equivalence on the multi-pod fabric.
//!
//! The tentpole proof: running the fabric under [`ShardedSimulator`] with
//! any shard count produces the byte-identical canonical digest — every
//! link counter, every trace event, every delivery total — as the
//! monolithic engine, including with fault and corruption schedules
//! active. Plus: the merged conservation audit holds not just at
//! completion but at epoch barriers with boundary packets still staged in
//! the runtime.

use mtp_bench::fabric::{build, fault_schedule, run_serial, run_sharded, FabricCfg};
use mtp_faults::FaultSchedule;
use mtp_sim::time::{Duration, Time};
use mtp_sim::{monolithic_digest, Metric};

/// Room for every trace event of a tiny-fabric run (the digest asserts
/// the ring never wrapped, so this must exceed the true event count).
const TRACE_CAP: usize = 1 << 17;

fn horizon() -> Time {
    Time::ZERO + Duration::from_millis(2)
}

/// The determinism matrix: {2, 3, 4} shards × 3 seeds, with the full
/// fault + corruption schedule live, then the figure-scale fabric (8
/// pods, 10 240 hosts) on 4 shards. Byte-identical digests, merged audit
/// clean, and the figure run's counts are those the retired `fig_fabric`
/// study recorded.
#[test]
fn sharded_digest_matches_serial_across_matrix() {
    for seed in [1u64, 2, 3] {
        let net = build(FabricCfg::tiny());
        let admin = fault_schedule(&net, seed);
        let serial = run_serial(&net, seed, Some(TRACE_CAP), horizon(), admin.clone());
        mtp_sim::assert_conservation(&serial);
        let want = monolithic_digest(&serial);
        for shards in [2usize, 3, 4] {
            let ss = run_sharded(
                &net,
                shards,
                seed,
                Some(TRACE_CAP),
                horizon(),
                admin.clone(),
            );
            let got = ss.digest();
            assert_eq!(
                got, want,
                "digest diverged: seed {seed}, {shards} shards (vs serial)"
            );
            ss.audit().assert_ok();
        }
    }

    // Untraced: the host start stagger spans ~4 ms, and 8 ms drains it.
    let net = build(FabricCfg::figure());
    let horizon = Time::ZERO + Duration::from_millis(8);
    let admin = fault_schedule(&net, 1);
    let serial = run_serial(&net, 1, None, horizon, admin.clone());
    mtp_sim::assert_conservation(&serial);
    let ss = run_sharded(&net, 4, 1, None, horizon, admin);
    assert_eq!(ss.digest(), monolithic_digest(&serial), "figure fabric");
    ss.audit().assert_ok();
    assert_eq!(
        (serial.events_processed(), ss.events_processed()),
        (883_808, 883_808)
    );
    assert_eq!(ss.lookahead().0, 5_021_506);
    let snap = ss.merged_snapshot();
    let counts = [
        Metric::PktsDelivered,
        Metric::PktsMalformed,
        Metric::PktsBoundaryIn,
    ]
    .map(|m| snap.counters[m as usize]);
    assert_eq!(counts, [431_664, 4, 61_488]);
}

/// A clean (fault-free) cross-check too: the equivalence must not depend
/// on the admin machinery being exercised. Two inputs: the tiny fabric
/// traced, and the bench-sized fabric (8 pods, 256 hosts) untraced at
/// shard counts up to one per pod.
#[test]
fn sharded_digest_matches_serial_without_faults() {
    let inputs: [(FabricCfg, u64, Option<usize>, &[usize]); 2] = [
        (FabricCfg::tiny(), 7, Some(TRACE_CAP), &[3]),
        (FabricCfg::bench(), 1, None, &[2, 4, 8]),
    ];
    for (cfg, seed, trace, shard_counts) in inputs {
        let net = build(cfg);
        let serial = run_serial(&net, seed, trace, horizon(), FaultSchedule::new());
        let want = monolithic_digest(&serial);
        for &shards in shard_counts {
            let ss = run_sharded(&net, shards, seed, trace, horizon(), FaultSchedule::new());
            assert_eq!(
                ss.digest(),
                want,
                "digest diverged: {} hosts, {shards} shards (vs serial)",
                cfg.num_hosts()
            );
            ss.audit().assert_ok();
        }
    }
}

/// Conservation under sharding: stepping the sharded run in small
/// increments, the merged audit passes at every barrier — including ones
/// where boundary packets are staged in the runtime (in flight between
/// shards), which the extended law counts as propagating, not lost.
#[test]
fn conservation_holds_mid_epoch_with_boundary_packets_staged() {
    let net = build(FabricCfg::tiny());
    let plan = net.graph.plan(3, 5, None);
    let mut ss = mtp_sim::ShardedSimulator::new(plan);
    ss.schedule_admin(fault_schedule(&net, 5).into_sorted());
    let mut saw_staged = false;
    let mut audits_with_staged = 0u32;
    // Steps shorter than a burst's fabric transit (~15 us) so plenty of
    // barriers land while cross-pod packets are in flight.
    let step = Duration::from_micros(7);
    let mut t = Time::ZERO + step;
    while t <= horizon() {
        ss.run_until(t);
        let (pkts, bytes) = ss.staged_boundary();
        if pkts > 0 {
            saw_staged = true;
            assert!(bytes > 0, "staged packets must carry bytes");
            audits_with_staged += 1;
        }
        ss.audit().assert_ok();
        t += step;
    }
    assert!(
        saw_staged,
        "the stepped run never caught a boundary packet in flight; \
         the mid-epoch half of this test never ran"
    );
    assert!(
        audits_with_staged >= 3,
        "too few mid-flight audits to be meaningful"
    );
    // And once more at completion, after the runtime has fully drained.
    assert!(!ss.run_until(Time(u64::MAX / 2)), "workload should drain");
    assert_eq!(ss.staged_boundary(), (0, 0));
    ss.audit().assert_ok();
}

/// Sharded runs are themselves deterministic: two identical sharded runs
/// (same shard count, same seed, same schedule) agree byte-for-byte.
#[test]
fn sharded_runs_are_reproducible() {
    let run = || {
        let net = build(FabricCfg::tiny());
        let admin = fault_schedule(&net, 9);
        run_sharded(&net, 4, 9, Some(TRACE_CAP), horizon(), admin).digest()
    };
    assert_eq!(run(), run());
}
