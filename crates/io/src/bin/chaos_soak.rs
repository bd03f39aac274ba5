//! The chaos soak as a bench: seeded session-lifecycle fault matrix
//! over real loopback sockets, recorded to `results/BENCH_chaos.json`.
//!
//! Every scenario × seed run must end in exactly-once delivery or a
//! typed session failure — the process exits nonzero on any run that
//! hung, leaked a session, busted its reassembly cap, or lost data.
//!
//! Where UDP loopback is unavailable (sandboxed CI), the record is
//! written with `"skipped": true` and the process exits 0 after a
//! visible NOTICE — a skip must never look like a pass.

use std::path::PathBuf;

use serde::Serialize;

use mtp_io::{run_soak_suite, SoakRun};

#[derive(Debug, Serialize)]
struct BenchChaosRecord {
    bench: &'static str,
    skipped: bool,
    skip_reason: Option<&'static str>,
    seeds: Vec<u64>,
    pass: bool,
    runs: Vec<SoakRun>,
}

fn write_record(record: &BenchChaosRecord) -> PathBuf {
    let dir = mtp_telemetry::results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_chaos.json");
    let json = serde_json::to_string_pretty(record).expect("serializable record");
    std::fs::write(&path, json).expect("write results file");
    path
}

fn main() {
    let seeds = vec![11u64, 42, 1337];

    if !mtp_io::loopback_available() {
        eprintln!("NOTICE: UDP loopback unavailable; writing skipped BENCH_chaos.json");
        let path = write_record(&BenchChaosRecord {
            bench: "chaos",
            skipped: true,
            skip_reason: Some("UDP loopback unavailable in this environment"),
            seeds,
            pass: false,
            runs: Vec::new(),
        });
        println!("wrote {}", path.display());
        return;
    }

    let outcome = run_soak_suite(&seeds, std::time::Duration::from_secs(20)).expect("soak suite");
    for run in &outcome.runs {
        println!(
            "  {:18} seed {:>5}: {:24} {}/{} delivered, hs {} rounds, fin {} rounds, \
             {} retx, peak reasm {}B/{}B, {} leaked — {}",
            run.scenario,
            run.seed,
            run.outcome,
            run.delivered,
            run.submitted,
            run.handshake_rounds,
            run.close_rounds,
            run.retransmissions,
            run.peak_reasm_bytes,
            run.reasm_cap,
            run.sessions_leaked,
            if run.pass { "ok" } else { "FAIL" },
        );
    }
    let record = BenchChaosRecord {
        bench: "chaos",
        skipped: false,
        skip_reason: None,
        seeds,
        pass: outcome.pass,
        runs: outcome.runs,
    };
    let path = write_record(&record);
    println!("wrote {}", path.display());
    if !record.pass {
        eprintln!("FAIL: at least one chaos run ended outside the allowed terminal states");
        std::process::exit(1);
    }
    println!("every chaos run ended in exactly-once delivery or a typed session error");
}
