//! Loss repair on real sockets: the lossy relay across seeds, and a
//! blackholed pathlet drained by retransmission rotation.
//!
//! The simulator's fault suite proves exactly-once under *modeled*
//! loss; these tests prove the identical property when the loss happens
//! to real UDP datagrams — whole coalesced bundles of frames vanishing,
//! repeating, and arriving out of order at the kernel's whim plus the
//! relay's seeded faults.

use std::time::Duration as WallDuration;

use mtp_io::{loopback_available, run_wire_golden, GoldenWorkload, IoConfig, RelayConfig};

const WALL_BUDGET: WallDuration = WallDuration::from_secs(45);

fn wire_ok(test: &str) -> bool {
    if loopback_available() {
        return true;
    }
    eprintln!("NOTICE: UDP loopback unavailable; skipping {test}");
    false
}

/// Exactly-once delivery and the expected content digest hold across
/// several relay fault seeds — not just one lucky loss pattern.
#[test]
fn lossy_relay_exactly_once_across_seeds() {
    if !wire_ok("lossy_relay_exactly_once_across_seeds") {
        return;
    }
    for seed in [101u64, 202, 303] {
        let workload = GoldenWorkload::generate(seed, 20, 500, 24_000);
        let cfg = IoConfig::default();
        let wire = run_wire_golden(&cfg, &workload, Some(RelayConfig::lossy(seed)), WALL_BUDGET)
            .unwrap_or_else(|e| panic!("lossy wire run (seed {seed}): {e}"));
        let ctx = format!("relay loss seed {seed}");
        wire.ledger.assert_exactly_once(&ctx);
        assert_eq!(wire.ledger.unfinished, 0, "{ctx}: unfinished messages");
        assert_eq!(
            wire.content_digest,
            workload.expected_digest(),
            "{ctx}: delivered content diverged from the workload"
        );
    }
}

/// A pathlet port that goes permanently dark mid-run: the relay
/// blackholes lane 2 after 3 datagrams, and the sender's RTO rotation
/// moves the stranded messages onto surviving pathlets. Everything
/// still completes exactly once with the right bytes.
///
/// The trigger threshold is deliberately tiny: coalescing packs many
/// frames per datagram, and under heavy host load (the full workspace
/// suite running in parallel) a lane can see very few datagrams total —
/// a high threshold would let the blackhole never engage.
#[test]
fn blackholed_pathlet_drains_through_survivors() {
    if !wire_ok("blackholed_pathlet_drains_through_survivors") {
        return;
    }
    let workload = GoldenWorkload::generate(77, 24, 500, 24_000);
    let mut cfg = IoConfig::default();
    // Failover quarantine: repeated losses attributed to the dead
    // pathlet exclude it from future routing instead of retrying it
    // forever.
    cfg.mtp = cfg.mtp.with_failover();
    let relay_cfg = RelayConfig {
        drop_ppm: 0,
        dup_ppm: 0,
        reorder_ppm: 0,
        seed: 77,
        blackhole: Some((2, 3)),
    };
    let wire =
        run_wire_golden(&cfg, &workload, Some(relay_cfg), WALL_BUDGET).expect("blackhole wire run");
    let relay = wire.relay.expect("relay stats present");
    assert!(
        relay.blackholed > 0,
        "blackhole never engaged; the test exercised nothing (stats: {relay:?})"
    );
    assert!(
        wire.retransmissions > 0,
        "a dead pathlet must force retransmissions"
    );
    wire.ledger.assert_exactly_once("blackholed pathlet");
    assert_eq!(wire.ledger.unfinished, 0, "stranded messages never drained");
    assert_eq!(
        wire.content_digest,
        workload.expected_digest(),
        "delivered content diverged from the workload"
    );
}
