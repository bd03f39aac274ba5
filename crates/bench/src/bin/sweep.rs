//! Seed-robustness sweep: the headline Fig. 5 result across many seeds,
//! run in parallel (one deterministic simulation per worker thread).
//!
//! A single starting phase can flatter or sandbag either transport; this
//! sweep varies the flow's start offset within the alternation period and
//! reports mean ± stddev of the MTP-over-DCTCP goodput improvement,
//! establishing that the reproduced effect is not a phase artifact.

use mtp_bench::parallel::{mean_std, run_seeds};
use mtp_bench::topo::{mtp_pair, parallel_paths, tcp_pair, ParallelSpec, PathSpec};
use mtp_bench::{write_json, ExperimentRecord};
use mtp_core::{MtpConfig, MtpSinkNode, ScheduledMsg};
use mtp_net::Strategy;
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_tcp::{TcpConfig, TcpSinkNode};
use serde::Serialize;

const PERIOD: Duration = Duration(384_000_000);
const SAMPLE: Duration = Duration(32_000_000);
const SEEDS: u64 = 12;
const WARMUP_BINS: usize = 1_000 / 32;

fn steady_mean(series: &[f64]) -> f64 {
    let s = &series[WARMUP_BINS.min(series.len())..];
    s.iter().sum::<f64>() / s.len().max(1) as f64
}

fn one_seed(seed: u64) -> (f64, f64) {
    let fast = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
    let slow = PathSpec::new(Bandwidth::from_gbps(10), Duration::from_micros(1));
    let horizon = Time::ZERO + Duration::from_millis(6);
    // The base scenario is fully deterministic, so "seed" robustness here
    // means phase robustness: start the flow at a seed-dependent offset
    // inside the alternation period, so every run meets the flips at a
    // different point in slow start and in its sawtooth.
    let start = Time::ZERO + Duration::from_micros((seed * 37) % 384);
    let network = || ParallelSpec {
        a: fast,
        b: slow,
        host: PathSpec::host_default(),
        forward: Strategy::Alternate { period: PERIOD },
        reverse: Strategy::Fixed,
    };

    let mut dctcp = parallel_paths(
        seed,
        tcp_pair(TcpConfig::dctcp(), vec![(start, 200_000_000)], SAMPLE),
        network(),
    );
    dctcp.sim.run_until(horizon);
    mtp_sim::assert_conservation(&dctcp.sim);
    let d = steady_mean(
        &dctcp
            .sim
            .node_as::<TcpSinkNode>(dctcp.sink)
            .goodput
            .rates_gbps(),
    );

    let mut mtp = parallel_paths(
        seed,
        mtp_pair(
            MtpConfig::default(),
            vec![ScheduledMsg {
                at: start,
                ..ScheduledMsg::new(Time::ZERO, 200_000_000)
            }],
            SAMPLE,
            1,
        ),
        network(),
    );
    mtp.sim.run_until(horizon);
    mtp_sim::assert_conservation(&mtp.sim);
    let m = steady_mean(
        &mtp.sim
            .node_as::<MtpSinkNode>(mtp.sink)
            .goodput
            .rates_gbps(),
    );
    (d, m)
}

#[derive(Serialize)]
struct SweepData {
    seeds: u64,
    dctcp_mean_gbps: f64,
    dctcp_std: f64,
    mtp_mean_gbps: f64,
    mtp_std: f64,
    improvement_mean_pct: f64,
    improvement_std_pct: f64,
}

fn main() {
    let seeds: Vec<u64> = (1..=SEEDS).collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    println!("Fig. 5 across {SEEDS} seeds on {workers} workers...");
    let results = run_seeds(&seeds, workers, one_seed);

    let dctcp: Vec<f64> = results.iter().map(|(d, _)| *d).collect();
    let mtp: Vec<f64> = results.iter().map(|(_, m)| *m).collect();
    let improvements: Vec<f64> = results.iter().map(|(d, m)| (m / d - 1.0) * 100.0).collect();
    let (dm, ds) = mean_std(&dctcp);
    let (mm, ms) = mean_std(&mtp);
    let (im, is) = mean_std(&improvements);

    println!(
        "\n{:<8} {:>12} {:>12} {:>14}",
        "seed", "DCTCP Gbps", "MTP Gbps", "improvement"
    );
    for (seed, (d, m)) in seeds.iter().zip(&results) {
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>13.1}%",
            seed,
            d,
            m,
            (m / d - 1.0) * 100.0
        );
    }
    println!("\nDCTCP: {dm:.2} ± {ds:.2} Gbps");
    println!("MTP:   {mm:.2} ± {ms:.2} Gbps");
    println!("MTP improvement: {im:.1}% ± {is:.1}% (paper: ~33%; positive at every seed)");

    assert!(
        improvements.iter().all(|&i| i > 0.0),
        "MTP must win at every seed"
    );

    let path = write_json(&ExperimentRecord {
        id: "sweep",
        paper_claim: "the Fig. 5 improvement is robust across seeds, not a sampling artifact",
        data: SweepData {
            seeds: SEEDS,
            dctcp_mean_gbps: dm,
            dctcp_std: ds,
            mtp_mean_gbps: mm,
            mtp_std: ms,
            improvement_mean_pct: im,
            improvement_std_pct: is,
        },
    });
    println!("wrote {}", path.display());
}
