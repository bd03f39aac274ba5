//! Message-aware load balancing over parallel paths (paper §5.2, Fig. 6
//! in miniature).
//!
//! Because every MTP packet advertises its message's total size, an
//! in-network load balancer can pin each message to the path with the
//! least outstanding work — elephants and mice are separated without
//! reordering any message internally. Compare against per-packet spraying,
//! which balances perfectly but violates MTP's intra-message ordering
//! assumption and triggers spurious NACK repair.
//!
//! Run with: `cargo run --example multipath_lb`

use mtp_bench::topo::{mtp_pair, parallel_paths, ParallelSpec, PathSpec};
use mtp_core::{MtpConfig, MtpSenderNode, ScheduledMsg};
use mtp_net::Strategy;
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_wire::PathletId;

fn workload() -> Vec<ScheduledMsg> {
    // One elephant plus a stream of mice, all submitted together: the
    // balancer must keep the mice away from the elephant's path.
    let mut elephant = ScheduledMsg::new(Time::ZERO, 20_000_000);
    elephant.pri = 10; // bulk: lowest urgency (0 = most urgent)
    let mut msgs = vec![elephant];
    for i in 0..100u64 {
        // Mice keep the default priority 0 and may pass the elephant at
        // the sender as window space opens.
        msgs.push(ScheduledMsg::new(
            Time::ZERO + Duration::from_micros(3 * i),
            20_000,
        ));
    }
    msgs
}

fn run(name: &str, strategy: Strategy) {
    let a = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
    let b = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(2));
    let mut tp = parallel_paths(
        9,
        mtp_pair(
            MtpConfig::default(),
            workload(),
            Duration::from_micros(50),
            1,
        ),
        ParallelSpec {
            a,
            b,
            host: PathSpec::host_default(),
            forward: strategy,
            reverse: Strategy::Fixed,
            b_pathlet: PathletId(2),
        },
    );
    tp.sim.run_until(Time::ZERO + Duration::from_millis(20));
    let snd = tp.sim.node_as::<MtpSenderNode>(tp.sender);
    let mouse_fcts: Vec<f64> = snd.msgs[1..]
        .iter()
        .filter_map(|m| m.fct())
        .map(|d| d.as_micros_f64())
        .collect();
    let elephant = snd.msgs[0].fct().map(|d| d.as_micros_f64());
    let mean = mouse_fcts.iter().sum::<f64>() / mouse_fcts.len().max(1) as f64;
    let p99 = mtp_workload::percentile(&mouse_fcts, 99.0);
    let elephant_str = elephant.map_or("unfinished".into(), |e| format!("{e:>9.1} us"));
    println!(
        "{name:<10} elephant {elephant_str:>12} | {:>3}/100 mice, mean {mean:>7.1} us p99 {p99:>8.1} us | retx {}",
        mouse_fcts.len(),
        snd.sender.stats.retransmissions
    );
}

fn main() {
    println!("multipath load balancing: 1 x 20 MB elephant + 100 x 20 KB mice");
    println!("two 100 Gbps paths; path B has +1 us delay\n");
    run("ECMP", Strategy::Ecmp);
    run("spray", Strategy::Spray { next: 0 });
    run(
        "MTP-LB",
        Strategy::mtp_lb(2, vec![Some(PathletId(1)), Some(PathletId(2))]),
    );
    println!("\nMTP-LB pins the elephant to one path and steers mice to the other;");
    println!("spraying reorders inside messages and pays for it in repair traffic.");
}
