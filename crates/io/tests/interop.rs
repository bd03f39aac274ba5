//! The headline interop proof: one golden workload, two worlds.
//!
//! Generate a seeded workload, run it through the discrete-event
//! simulator, then replay the *identical* workload over real UDP
//! sockets on 127.0.0.1 — clean, and again through a lossy relay — and
//! demand byte-identical delivered content: same ledger shape, same
//! per-message digests, same combined content digest, on top of the
//! workload's closed-form expectation. Timing differs between worlds;
//! content may not.
//!
//! Skips VISIBLY (a NOTICE on stderr) when the environment cannot pass
//! UDP loopback traffic — a skip must never look like a pass.

use std::time::Duration as WallDuration;

use mtp_io::{
    loopback_available, run_sim_golden, run_wire_golden, GoldenWorkload, IoConfig, RelayConfig,
    WireOutcome,
};

const WALL_BUDGET: WallDuration = WallDuration::from_secs(45);

/// `true` when the wire side of the test can run; prints the skip
/// notice otherwise.
fn wire_ok(test: &str) -> bool {
    if loopback_available() {
        return true;
    }
    eprintln!("NOTICE: UDP loopback unavailable; skipping wire half of {test}");
    false
}

/// The assertions every wire run must satisfy against its sim
/// reference: exactly-once ledger, identical delivered sets, identical
/// content digests (and both equal to the closed-form expectation).
fn assert_interop(ctx: &str, workload: &GoldenWorkload, wire: &WireOutcome) {
    let sim = run_sim_golden(workload);

    wire.ledger.assert_exactly_once(ctx);
    assert_eq!(wire.ledger.unfinished, 0, "{ctx}: unfinished messages");
    assert_eq!(
        wire.ledger.delivered, sim.ledger.delivered,
        "{ctx}: delivered (id, bytes) sets diverge between worlds"
    );
    assert_eq!(
        wire.ledger.goodput, sim.ledger.goodput,
        "{ctx}: first-copy goodput diverges between worlds"
    );
    assert_eq!(
        wire.content_digest, sim.content_digest,
        "{ctx}: wire content digest disagrees with the simulator"
    );
    assert_eq!(
        wire.content_digest,
        workload.expected_digest(),
        "{ctx}: both worlds agree but on the wrong content"
    );
}

/// Clean loopback: the golden workload over real sockets reproduces the
/// simulator's delivered content byte for byte.
#[test]
fn wire_reproduces_sim_golden_workload() {
    if !wire_ok("wire_reproduces_sim_golden_workload") {
        return;
    }
    let cfg = IoConfig::default();
    for (seed, msgs, min, max) in [(7, 40, 500, 48_000), (42, 60, 1_000, 64_000)] {
        let workload = GoldenWorkload::generate(seed, msgs, min, max);
        let wire = run_wire_golden(&cfg, &workload, None, WALL_BUDGET).expect("clean wire run");
        assert_interop(&format!("interop clean seed {seed}"), &workload, &wire);
    }
}

/// The same proof through a relay that drops, duplicates, and reorders
/// real datagrams: retransmission repairs everything and the delivered
/// content is still byte-identical to the simulator's.
#[test]
fn wire_reproduces_sim_golden_workload_through_lossy_relay() {
    if !wire_ok("wire_reproduces_sim_golden_workload_through_lossy_relay") {
        return;
    }
    let cfg = IoConfig::default();
    // The relay's faults are per datagram (4 % drop, duplicate or hold),
    // so the input is sized by the datagrams it takes, not by messages:
    // at full 9000 B datagrams 2 MB is some 230 of them plus their ACKs,
    // and 0.96^300 is 5e-6. (Seed 21 once moved 30 messages in a hundred
    // datagrams and met no fault in one run of four.)
    const MIN_FORWARDED: u64 = 300;
    for (seed, msgs, min, max) in [(21, 60, 8_000, 64_000), (42, 60, 1_000, 64_000)] {
        let workload = GoldenWorkload::generate(seed, msgs, min, max);
        let lossy = Some(RelayConfig::lossy(seed));
        let wire = run_wire_golden(&cfg, &workload, lossy, WALL_BUDGET).expect("lossy wire run");
        let relay = wire.relay.expect("relay stats present");
        assert!(
            relay.forwarded >= MIN_FORWARDED,
            "seed {seed} crossed the relay in {} datagrams; too few to count on a fault",
            relay.forwarded
        );
        assert!(
            relay.dropped + relay.duplicated + relay.reordered > 0,
            "relay injected no faults; the lossy proof proved nothing \
             (stats: {relay:?})"
        );
        assert_interop(&format!("interop lossy seed {seed}"), &workload, &wire);
    }
}

/// Multi-pathlet spraying actually uses the pathlet sockets: a run
/// through a fault-free relay (which observes each lane separately)
/// shows sender→receiver traffic on every configured pathlet port, not
/// collapsed onto one.
#[test]
fn wire_sprays_across_pathlet_sockets() {
    if !wire_ok("wire_sprays_across_pathlet_sockets") {
        return;
    }
    let workload = GoldenWorkload::generate(5, 24, 500, 24_000);
    let cfg = IoConfig::default();
    assert!(cfg.pathlets > 1, "spray test needs multiple pathlets");
    let transparent = RelayConfig {
        drop_ppm: 0,
        dup_ppm: 0,
        reorder_ppm: 0,
        seed: 5,
        blackhole: None,
    };
    let wire =
        run_wire_golden(&cfg, &workload, Some(transparent), WALL_BUDGET).expect("clean wire run");
    assert_interop("interop spray", &workload, &wire);
    let relay = wire.relay.expect("relay stats present");
    assert_eq!(
        relay.lanes_with_traffic, cfg.pathlets,
        "24 messages hashed over {} pathlets left some loopback port \
         silent — spraying collapsed",
        cfg.pathlets
    );
}
