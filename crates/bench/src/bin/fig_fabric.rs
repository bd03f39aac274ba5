//! Fabric-scale study: a multi-pod Clos with ~10k endpoints, run both
//! monolithically and sharded across pods, proving the conservative-
//! lookahead runtime reproduces the serial engine byte-for-byte at a
//! scale where single-core simulation is the bottleneck.
//!
//! Prints the run summary and writes `results/fig_fabric.json`. Counts
//! and digests only: how fast the sharded engine runs is the benchmark's
//! `sim.shard.*` rows, not this record.
//!
//! Usage: `fig_fabric [--shards N]` (default 4).

use mtp_bench::fabric::{build, fault_schedule, run_serial, run_sharded, FabricCfg};
use mtp_bench::{write_json, ExperimentRecord};
use mtp_sim::monolithic_digest;
use mtp_sim::time::{Duration, Time};
use mtp_sim::Metric;
use serde::Serialize;

#[derive(Serialize)]
struct FabricData {
    pods: usize,
    hosts: usize,
    shards: usize,
    lookahead_us: f64,
    serial_events: u64,
    sharded_events: u64,
    digest_identical: bool,
    audit_clean: bool,
    pkts_delivered: u64,
    pkts_malformed: u64,
    pkts_boundary_crossings: u64,
}

fn counter(snap: &mtp_sim::Snapshot, m: Metric) -> u64 {
    snap.counters.get(m as usize).copied().unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shards = 4usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--shards needs a positive integer");
            }
            bad => {
                eprintln!("fig_fabric: unknown argument `{bad}`");
                eprintln!("usage: fig_fabric [--shards N]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let cfg = FabricCfg::figure();
    let seed = 1u64;
    // Host start stagger spans ~4 ms at this scale; leave room to drain.
    let horizon = Time::ZERO + Duration::from_millis(8);
    println!(
        "fabric: {} pods, {} hosts, {} shards",
        cfg.pods,
        cfg.num_hosts(),
        shards
    );
    let net = build(cfg);
    let faults = fault_schedule(&net, seed);

    let serial = run_serial(&net, seed, None, horizon, faults.clone());
    mtp_sim::assert_conservation(&serial);
    let serial_events = serial.events_processed();
    let want = monolithic_digest(&serial);
    println!("serial:  {serial_events:>9} events");

    let ss = run_sharded(&net, shards, seed, None, horizon, faults);
    let lookahead_us = ss.lookahead().0 as f64 / 1e6;
    let sharded_events = ss.events_processed();
    let digest_identical = ss.digest() == want;
    let audit = ss.audit();
    let snap = ss.merged_snapshot();
    println!("sharded: {sharded_events:>9} events  (lookahead {lookahead_us:.2} us)");
    println!(
        "digest {}  audit {}  delivered {} pkts  malformed {}  boundary crossings {}",
        if digest_identical {
            "identical"
        } else {
            "MISMATCH"
        },
        if audit.ok() { "clean" } else { "VIOLATED" },
        counter(&snap, Metric::PktsDelivered),
        counter(&snap, Metric::PktsMalformed),
        counter(&snap, Metric::PktsBoundaryIn),
    );

    let data = FabricData {
        pods: cfg.pods,
        hosts: cfg.num_hosts(),
        shards,
        lookahead_us,
        serial_events,
        sharded_events,
        digest_identical,
        audit_clean: audit.ok(),
        pkts_delivered: counter(&snap, Metric::PktsDelivered),
        pkts_malformed: counter(&snap, Metric::PktsMalformed),
        pkts_boundary_crossings: counter(&snap, Metric::PktsBoundaryIn),
    };
    let path = write_json(&ExperimentRecord {
        id: "fig_fabric",
        paper_claim: "An in-network-computing fabric is simulated at the scale the paper \
                      argues for (~10k endpoints across pods); pod-sharded conservative-\
                      lookahead execution reproduces the serial engine's results exactly \
                      while spreading the event load across cores.",
        data,
    });
    println!("wrote {}", path.display());
    if !digest_identical || !audit.ok() {
        std::process::exit(1);
    }
}
