//! The 10 golden digests, byte-equal to
//! `crates/bench/golden/{engine,endpoint}/*.txt`: the two endpoint
//! workloads × seeds {1, 2, 3}, and the four engine workloads once each.
//! A change that alters any packet, counter, ordering or RNG draw fails
//! here. After an *intended* behaviour change, re-bless with
//! `cargo test -p mtp-bench --test goldens -- --ignored` and review the diff.

use std::path::PathBuf;

use mtp_bench::endpoint::{incast_churn, multipath_feedback};
use mtp_bench::hotpath::{forward_chain, leafspine_incast, timer_churn, wheel_stress};

/// The seeds a suite runs at. The engine workloads never draw from the
/// seeded RNG, so a second seed would only store a copy of the first.
fn seeds(suite: &str) -> &'static [u64] {
    if suite == "engine" {
        &[1]
    } else {
        &[1, 2, 3]
    }
}

/// (suite, workload, seed → digest). The sizes are part of the goldens.
type Workload = (&'static str, &'static str, fn(u64) -> String);
const WORKLOADS: [Workload; 6] = [
    ("engine", "timer_churn", |s| timer_churn(s, 200_000).digest),
    ("engine", "forward_chain", |s| {
        forward_chain(s, 8, 5_000).digest
    }),
    ("engine", "leafspine_incast", |s| leafspine_incast(s).digest),
    ("engine", "wheel_stress", |s| wheel_stress(s, 10_000).digest),
    ("endpoint", "incast_churn", |s| incast_churn(s).digest),
    ("endpoint", "multipath_feedback", |s| {
        multipath_feedback(s).digest
    }),
];

fn golden_path(suite: &str, name: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{suite}/{name}_seed{seed}.txt"))
}

fn golden(suite: &str, name: &str, seed: u64) -> String {
    let path = golden_path(suite, name, seed);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn digests_match_goldens() {
    let mut diverged = Vec::new();
    for (suite, name, run) in WORKLOADS {
        for &seed in seeds(suite) {
            if run(seed) != golden(suite, name, seed) {
                diverged.push(format!("{suite}/{name} seed {seed}"));
            }
        }
    }
    assert!(diverged.is_empty(), "digest != golden: {diverged:?}");
}

/// The comparison can fail. The endpoint workloads depend on the seed;
/// the engine workloads never draw from the seeded RNG, so that half
/// perturbs the size instead.
#[test]
fn a_different_run_does_not_match() {
    assert_ne!(
        incast_churn(1).digest,
        golden("endpoint", "incast_churn", 2)
    );
    assert_ne!(
        forward_chain(1, 8, 4_999).digest,
        golden("engine", "forward_chain", 1)
    );
}

#[test]
#[ignore = "overwrites crates/bench/golden/**"]
fn bless() {
    for (suite, name, run) in WORKLOADS {
        for &seed in seeds(suite) {
            std::fs::write(golden_path(suite, name, seed), run(seed)).expect("write golden");
        }
    }
}
