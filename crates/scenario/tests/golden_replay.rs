//! Golden replay: eleven corpus scenarios are byte-identical to a
//! hand-written build-and-run of the same experiment.
//!
//! Each test spells the experiment out inline — its own endpoint nodes
//! around the one network builder, same constants, same fault schedule,
//! same seed — as the independent reference, which goes through none of
//! the scenario engine's parsing, schema or cell construction, and
//! compares it with the engine's cell run: same exactly-once ledger, same
//! clean conservation audit, same engine digest. It also pins the digest
//! recorded in the checked-in scenario file, so editing
//! `scenarios/*.toml` out from under the reference fails here, not in CI
//! archaeology. Every experiment here exists only as a scenario; the
//! Fig. 5, Fig. 6, leaf-spine and phase-sweep sequences are those of the
//! retired `fig5`, `fig6`, `leafspine` and `sweep` binaries, measurements
//! included, so the reported numbers are the ones those binaries
//! recorded (numbers a scenario report does not carry are asserted here
//! as the literals of the retired records).
//!
//! The five Fig. 2 files, the five Fig. 3 and Fig. 7 files and the five
//! §4 ablation files are checked the other way round: each cell's
//! reported numbers against the ones the retired `fig2`, `fig3`, `fig7`
//! and `ablations` binaries recorded, copied in as literals, bit for bit,
//! plus the digest the file pins.

use std::path::Path;

use mtp_core::{MtpConfig, MtpDuplexHost, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_faults::topo::{CLIENT_ADDR, SERVER_ADDR};
use mtp_faults::{
    parallel_paths, FaultDriver, FaultSchedule, Ledger, LinkSpec, ParallelPaths, ParallelSpec,
    PATHLET_A, PATHLET_B,
};
use mtp_scenario::run::{engine_digest, execute_cell, fnv64, CellResult, ProxyReport};
use mtp_scenario::schema::{from_str, Protocol, Scenario, Topology};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{LinkFailMode, Node};
use mtp_tcp::{TcpConfig, TcpSenderNode, TcpSinkNode, TcpWorkloadMode};
use mtp_wire::EntityId;

use mtp_bench::study::{tcp_periodic, us};
use mtp_bench::topo::{leaf_spine, ls_addr};
use mtp_net::Strategy;
use mtp_wire::PathletId;
use mtp_workload::{mean_std, poisson_schedule, FctCollector, SizeDist};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The failure studies' periodic workload as an MTP schedule.
fn mtp_periodic(count: u64, bytes: u64, every_us: u64) -> Vec<ScheduledMsg> {
    (0..count)
        .map(|i| ScheduledMsg::new(us(every_us * i), bytes as u32))
        .collect()
}

/// An MTP sender/sink pair, spelled out: client 1 to server 2, entity 0,
/// message ids from 2^40, each SACK block repeated in `sack_redundancy`
/// ACKs.
fn mtp_ends(
    cfg: MtpConfig,
    schedule: Vec<ScheduledMsg>,
    goodput_bin: Duration,
    sack_redundancy: usize,
) -> (Box<dyn Node>, Box<dyn Node>) {
    (
        Box::new(MtpSenderNode::new(
            cfg,
            CLIENT_ADDR,
            SERVER_ADDR,
            EntityId(0),
            1 << 40,
            schedule,
        )),
        Box::new(MtpSinkNode::new(SERVER_ADDR, goodput_bin).with_sack_redundancy(sack_redundancy)),
    )
}

/// A TCP sender/sink pair, spelled out: one persistent connection from
/// port 100.
fn tcp_ends(
    cfg: TcpConfig,
    schedule: Vec<(Time, u64)>,
    goodput_bin: Duration,
) -> (Box<dyn Node>, Box<dyn Node>) {
    (
        Box::new(TcpSenderNode::with_addrs(
            cfg.clone(),
            TcpWorkloadMode::Persistent,
            100,
            schedule,
            CLIENT_ADDR,
            SERVER_ADDR,
        )),
        Box::new(TcpSinkNode::new(cfg, goodput_bin)),
    )
}

/// The studies' diamond: two default paths, ACKs sprayed back.
fn diamond(forward: Strategy) -> ParallelSpec {
    ParallelSpec {
        a: LinkSpec::path_default(),
        b: LinkSpec::path_default(),
        host: LinkSpec::host_default(),
        forward,
        reverse: Strategy::Spray { next: 0 },
        b_pathlet: PATHLET_B,
    }
}

/// The diamond with a failover-enabled MTP pair behind the message-aware
/// balancer; the sink repeats SACK blocks 8 times.
fn mtp_diamond(seed: u64, schedule: Vec<ScheduledMsg>) -> ParallelPaths {
    parallel_paths(
        seed,
        mtp_ends(
            MtpConfig::default().with_failover(),
            schedule,
            Duration::from_micros(100),
            8,
        ),
        diamond(Strategy::mtp_lb(2, vec![Some(PATHLET_A), Some(PATHLET_B)])),
    )
}

fn load_scenario(name: &str) -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn pinned_digest(s: &Scenario, proto: &str, seed: u64) -> String {
    let key = format!("{proto}/{seed}");
    s.asserts
        .digests
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("scenario `{}` pins no digest for {key}", s.name))
}

// ------------------------------------------------- failover_diamond

/// The failure study's constants.
const FO_SEED: u64 = 11;
const FO_N_MSGS: u64 = 40;
const FO_MSG_BYTES: u64 = 30_000;
const FO_EVERY_US: u64 = 50;
const FO_OUT_START: u64 = 500;
const FO_OUT_END: u64 = 2_500;
const FO_HORIZON: u64 = 60_000;

fn failover_outage(d: &ParallelPaths) -> FaultSchedule {
    let mut sched = FaultSchedule::new();
    sched.cut_both(
        d.a_fwd,
        d.a_rev,
        us(FO_OUT_START),
        us(FO_OUT_END),
        LinkFailMode::Blackhole,
    );
    sched
}

#[test]
fn failover_scenario_is_byte_identical_to_inline_reference() {
    let s = load_scenario("failover_diamond.toml");

    // Reference path, inline: MTP contender.
    let mut d = mtp_diamond(FO_SEED, mtp_periodic(FO_N_MSGS, FO_MSG_BYTES, FO_EVERY_US));
    let mut drv = FaultDriver::new(failover_outage(&d));
    drv.run_until(&mut d.sim, us(FO_HORIZON));
    assert!(d.sim.audit().ok(), "reference run fails conservation");
    let fig_ledger = Ledger::capture([d.sim.node_as(d.sender)], d.sim.node_as(d.sink));
    let records: Vec<(Time, Option<Time>)> = d
        .sim
        .node_as::<MtpSenderNode>(d.sender)
        .msgs
        .iter()
        .map(|m| (m.submitted, m.completed))
        .collect();
    let fig_digest = engine_digest(&d.sim, &records);

    // Scenario-engine path.
    let cell = execute_cell(&s, Protocol::Mtp, FO_SEED);
    assert_eq!(
        cell.result.violations,
        Vec::<String>::new(),
        "scenario cell must pass"
    );
    assert_eq!(cell.result.digest, fig_digest, "engine digest diverged");
    assert_eq!(fig_ledger.check_exactly_once(), Vec::<String>::new());
    assert_eq!(cell.ledgers, [fig_ledger], "exactly-once ledger diverged");
    assert_eq!(
        pinned_digest(&s, "mtp", FO_SEED),
        fig_digest,
        "scenario file pins a stale digest"
    );

    // TCP contenders share the reference schedule byte-for-byte too.
    for (proto, cfg) in [
        (Protocol::TcpNewReno, TcpConfig::default()),
        (Protocol::TcpDctcp, TcpConfig::dctcp()),
    ] {
        let mut d = parallel_paths(
            FO_SEED,
            tcp_ends(
                cfg,
                tcp_periodic(FO_N_MSGS, FO_MSG_BYTES, FO_EVERY_US),
                Duration::from_micros(100),
            ),
            diamond(Strategy::Fixed),
        );
        let mut drv = FaultDriver::new(failover_outage(&d));
        drv.run_until(&mut d.sim, us(FO_HORIZON));
        let records: Vec<(Time, Option<Time>)> = d
            .sim
            .node_as::<TcpSenderNode>(d.sender)
            .msgs
            .iter()
            .map(|m| (m.submitted, m.completed))
            .collect();
        let fig_digest = engine_digest(&d.sim, &records);
        let cell = execute_cell(&s, proto, FO_SEED);
        assert_eq!(cell.result.digest, fig_digest, "{proto:?} digest diverged");
        assert_eq!(pinned_digest(&s, proto.key(), FO_SEED), fig_digest);
    }
}

// ----------------------------------------------- corruption_diamond

/// The corruption study's constants.
const CO_SEED: u64 = 23;
const CO_RATE_ON: u64 = 100;
const CO_RATE_OFF: u64 = 3_000;
const CO_PPM: u32 = 40_000;
const CO_FLIPS: u8 = 2;
const CO_HORIZON: u64 = 60_000;

fn corruption_storm(d: &ParallelPaths) -> FaultSchedule {
    let mut sched = FaultSchedule::new();
    sched.corrupt_rate(us(CO_RATE_ON), d.a_fwd, CO_PPM, CO_FLIPS, CO_SEED ^ 0xA);
    sched.corrupt_rate(us(CO_RATE_ON), d.b_fwd, CO_PPM, CO_FLIPS, CO_SEED ^ 0xB);
    sched.corrupt_rate(us(CO_RATE_OFF), d.a_fwd, 0, 0, 0);
    sched.corrupt_rate(us(CO_RATE_OFF), d.b_fwd, 0, 0, 0);
    sched.bitflip_burst(us(400), d.a_rev, 12, 2, CO_SEED ^ 0xC);
    sched.truncate_burst(us(900), d.b_fwd, 8, CO_SEED ^ 0xD);
    sched
}

#[test]
fn corruption_scenario_is_byte_identical_to_inline_reference() {
    let s = load_scenario("corruption_diamond.toml");

    let mut d = mtp_diamond(CO_SEED, mtp_periodic(40, 30_000, 50));
    let mut drv = FaultDriver::new(corruption_storm(&d));
    drv.run_until(&mut d.sim, us(CO_HORIZON));
    assert!(d.sim.audit().ok(), "reference run fails conservation");
    let fig_ledger = Ledger::capture([d.sim.node_as(d.sender)], d.sim.node_as(d.sink));
    let records: Vec<(Time, Option<Time>)> = d
        .sim
        .node_as::<MtpSenderNode>(d.sender)
        .msgs
        .iter()
        .map(|m| (m.submitted, m.completed))
        .collect();
    let fig_digest = engine_digest(&d.sim, &records);

    let cell = execute_cell(&s, Protocol::Mtp, CO_SEED);
    assert_eq!(cell.result.violations, Vec::<String>::new());
    assert_eq!(cell.result.digest, fig_digest);
    assert_eq!(cell.ledgers, [fig_ledger]);
    assert_eq!(pinned_digest(&s, "mtp", CO_SEED), fig_digest);
    // The storm must actually have damaged frames for the accounting
    // assertion to mean anything.
    assert!(cell.result.corrupted_frames.unwrap_or(0) > 0);
}

// ------------------------------------------------------------- fig5

#[test]
fn fig5_scenario_is_byte_identical_to_figure_binary() {
    let s = load_scenario("fig5_alternation.toml");

    // fig5's constants, verbatim: 384 us alternation, 32 us sampling,
    // 8 ms horizon, 100 Gbps vs 10 Gbps paths, one 200 MB message.
    let period = Duration::from_micros(384);
    let sample = Duration::from_micros(32);
    let horizon = us(8_000);
    let network = || ParallelSpec {
        a: LinkSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1)),
        b: LinkSpec::new(Bandwidth::from_gbps(10), Duration::from_micros(1)),
        host: LinkSpec::host_default(),
        forward: Strategy::Alternate { period },
        reverse: Strategy::Fixed,
        b_pathlet: PATHLET_B,
    };
    let flow: u64 = 200_000_000;

    let mut m = parallel_paths(
        5,
        mtp_ends(
            MtpConfig::default(),
            vec![ScheduledMsg::new(Time::ZERO, flow as u32)],
            sample,
            1,
        ),
        network(),
    );
    m.sim.run_until(horizon);
    let records: Vec<(Time, Option<Time>)> = m
        .sim
        .node_as::<MtpSenderNode>(m.sender)
        .msgs
        .iter()
        .map(|r| (r.submitted, r.completed))
        .collect();
    let mtp_digest = engine_digest(&m.sim, &records);
    let mtp_series = m.sim.node_as::<MtpSinkNode>(m.sink).goodput.rates_gbps();

    let mut t = parallel_paths(
        5,
        tcp_ends(TcpConfig::dctcp(), vec![(Time::ZERO, flow)], sample),
        network(),
    );
    t.sim.run_until(horizon);
    let records: Vec<(Time, Option<Time>)> = t
        .sim
        .node_as::<TcpSenderNode>(t.sender)
        .msgs
        .iter()
        .map(|r| (r.submitted, r.completed))
        .collect();
    let tcp_digest = engine_digest(&t.sim, &records);
    let tcp_series = t.sim.node_as::<TcpSinkNode>(t.sink).goodput.rates_gbps();

    let mtp_cell = execute_cell(&s, Protocol::Mtp, 5);
    assert_eq!(mtp_cell.result.violations, Vec::<String>::new());
    assert_eq!(mtp_cell.result.digest, mtp_digest);
    assert_eq!(pinned_digest(&s, "mtp", 5), mtp_digest);

    let tcp_cell = execute_cell(&s, Protocol::TcpDctcp, 5);
    assert_eq!(tcp_cell.result.violations, Vec::<String>::new());
    assert_eq!(tcp_cell.result.digest, tcp_digest);
    assert_eq!(pinned_digest(&s, "tcp-dctcp", 5), tcp_digest);

    // The scenario reports the figure's numbers: the same series, its
    // mean after the same 31-bin warmup, and the same recovery time.
    let mean = |series: &[f64]| {
        let tail = &series[31.min(series.len())..];
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    for (cell, series) in [(&mtp_cell, &mtp_series), (&tcp_cell, &tcp_series)] {
        let r = &cell.result;
        assert_eq!(r.goodput_series_gbps.as_ref(), Some(series));
        assert_eq!(r.goodput_mean_gbps, Some(mean(series)));
        assert_eq!(r.recovery_us, Some(fig5_recovery_us(series)));
    }
    // And the figure's headline stands: MTP beats DCTCP across the flips
    // and recovers faster after each one.
    assert!(mean(&mtp_series) > mean(&tcp_series));
    assert!(fig5_recovery_us(&mtp_series) < fig5_recovery_us(&tcp_series));
}

/// fig5's convergence rule, verbatim: the mean time from the start of
/// each return to the 100 Gbps path until goodput first reaches 80 Gbps;
/// a phase with no recovery counts as the full phase.
fn fig5_recovery_us(series: &[f64]) -> f64 {
    let bins_per_phase = 12; // 384 us / 32 us
    let mut recoveries = Vec::new();
    let mut phase_start = 0usize;
    while phase_start + bins_per_phase <= series.len() {
        let is_fast_phase = (phase_start / bins_per_phase).is_multiple_of(2);
        if is_fast_phase && phase_start > 0 {
            let recover_bins = series[phase_start..phase_start + bins_per_phase]
                .iter()
                .position(|&r| r >= 80.0)
                .unwrap_or(bins_per_phase);
            recoveries.push(recover_bins as f64 * 32.0);
        }
        phase_start += bins_per_phase;
    }
    recoveries.iter().sum::<f64>() / recoveries.len().max(1) as f64
}

// ------------------------------------------------------------- fig6

/// fig6's build sequence, verbatim, behind `forward`, checked against
/// the scenario file that names the same balancer: engine digest,
/// exactly-once ledger, and the numbers fig6 recorded (small-message
/// p50/p99, completions, retransmissions, forward-path bytes).
fn fig6_matches_inline_reference(file: &str, forward: Strategy) {
    let s = load_scenario(file);

    // Arrivals: seed 6, the 10 KB-1 GB mix at 70 % of 200 Gbps for
    // 20 ms, priority = size class.
    let mut rng = SmallRng::seed_from_u64(6);
    let schedule = poisson_schedule(
        &mut rng,
        &SizeDist::fig6_mix(),
        Bandwidth::from_gbps(200),
        0.7,
        Time::ZERO,
        Duration::from_millis(20),
        None,
    )
    .into_iter()
    .map(|(t, b)| {
        let mut m = ScheduledMsg::new(t, b as u32);
        m.pri = (64 - b.leading_zeros()) as u8;
        m
    })
    .collect();
    let mut d = parallel_paths(
        6,
        mtp_ends(
            MtpConfig::default(),
            schedule,
            Duration::from_micros(100),
            1,
        ),
        ParallelSpec {
            a: LinkSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1)),
            b: LinkSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(2)),
            host: LinkSpec::new(Bandwidth::from_gbps(200), Duration::from_micros(1)),
            forward,
            reverse: Strategy::Fixed,
            b_pathlet: PATHLET_B,
        },
    );
    d.sim.run_until(Time::ZERO + Duration::from_millis(80));
    assert!(d.sim.audit().ok(), "reference run fails conservation");
    let ledger = Ledger::capture([d.sim.node_as(d.sender)], d.sim.node_as(d.sink));
    let sender = d.sim.node_as::<MtpSenderNode>(d.sender);
    let records: Vec<(Time, Option<Time>)> = sender
        .msgs
        .iter()
        .map(|m| (m.submitted, m.completed))
        .collect();
    let digest = engine_digest(&d.sim, &records);
    let mut fct = FctCollector::new();
    for m in &sender.msgs {
        if let Some(f) = m.fct() {
            fct.record(m.bytes as u64, f);
        }
    }
    let small = fct.summary_for_sizes(0, 100 * 1024);

    let cell = execute_cell(&s, Protocol::Mtp, 6);
    let r = &cell.result;
    assert_eq!(
        r.violations,
        Vec::<String>::new(),
        "scenario cell must pass"
    );
    assert_eq!(r.digest, digest, "engine digest diverged");
    assert_eq!(cell.ledgers, [ledger], "ledger diverged");
    assert_eq!(pinned_digest(&s, "mtp", 6), digest);
    assert_eq!(
        (r.p50_us, r.p99_us),
        (Some(small.p50_us), Some(small.p99_us))
    );
    assert_eq!(r.completed as usize, fct.samples.len());
    assert_eq!(r.retransmissions, sender.sender.stats.retransmissions);
    let tx = |l| d.sim.link_stats(l).tx_bytes;
    assert_eq!(r.path_tx_bytes, Some([tx(d.a_fwd), tx(d.b_fwd)]));
}

#[test]
fn fig6_ecmp_scenario_is_byte_identical_to_figure_binary() {
    fig6_matches_inline_reference("fig6_ecmp.toml", Strategy::Ecmp);
}

#[test]
fn fig6_spray_scenario_is_byte_identical_to_figure_binary() {
    fig6_matches_inline_reference("fig6_spray.toml", Strategy::Spray { next: 0 });
}

#[test]
fn fig6_mtp_lb_scenario_is_byte_identical_to_figure_binary() {
    fig6_matches_inline_reference(
        "fig6_mtp_lb.toml",
        Strategy::mtp_lb(2, vec![Some(PathletId(1)), Some(PathletId(2))]),
    );
}

// --------------------------------------------------------- leafspine

/// One balancer's row of the retired `leafspine` record: p99 completion
/// time of the messages under 100 KiB and of all messages, in
/// microseconds, and retransmissions. Every row completed 9240 of 9240.
struct LeafSpineRow {
    small_p99_us: f64,
    all_p99_us: f64,
    retransmissions: u64,
}

/// leafspine's build sequence, verbatim, behind one balancer, checked
/// against the scenario file that names the same balancer: engine
/// digest, one exactly-once ledger per (sender, sink) pair, and the
/// record's row. The binary seeded its simulator with 77 and host `k`'s
/// arrivals with `900 + k`; the file's seed 900 seeds both, and nothing
/// draws from the simulator's own RNG, so the runs are one and the same.
fn leafspine_matches_binary(
    file: &str,
    strategy: impl FnMut(usize) -> Strategy,
    spine_stamps: bool,
    row: LeafSpineRow,
) {
    const LEAVES: usize = 4;
    const SPINES: usize = 4;
    const HOSTS_PER_LEAF: usize = 4;
    const N: usize = LEAVES * HOSTS_PER_LEAF;

    // Host k: Poisson arrivals at 45 % of its 100 Gbps link for 5 ms,
    // bounded-Pareto (alpha 1.2) 10 KiB-10 MiB, priority = size class.
    let schedules: Vec<Vec<ScheduledMsg>> = (0..N)
        .map(|k| {
            let mut rng = SmallRng::seed_from_u64(900 + k as u64);
            poisson_schedule(
                &mut rng,
                &SizeDist::BoundedPareto {
                    alpha: 1.2,
                    min: 10 * 1024,
                    max: 10 << 20,
                },
                Bandwidth::from_gbps(100),
                0.45,
                Time::ZERO,
                Duration::from_millis(5),
                None,
            )
            .into_iter()
            .map(|(t, b)| {
                let mut m = ScheduledMsg::new(t, b as u32);
                m.pri = (64 - b.leading_zeros()) as u8;
                m
            })
            .collect()
        })
        .collect();
    let total: usize = schedules.iter().map(Vec::len).sum();
    let link = LinkSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
    let mut ls = leaf_spine(
        77,
        LEAVES,
        SPINES,
        HOSTS_PER_LEAF,
        |leaf, i, addr| {
            // Cross-leaf permutation: host k sends to host k + 4.
            let k = leaf * HOSTS_PER_LEAF + i;
            let dst_k = (k + HOSTS_PER_LEAF) % N;
            let dst = ls_addr(
                dst_k / HOSTS_PER_LEAF,
                HOSTS_PER_LEAF,
                dst_k % HOSTS_PER_LEAF,
            );
            Box::new(MtpDuplexHost {
                sender: MtpSenderNode::new(
                    MtpConfig::default(),
                    addr,
                    dst,
                    EntityId(addr),
                    (k as u64 + 1) << 40,
                    schedules[k].clone(),
                ),
                sink: MtpSinkNode::new(addr, Duration::from_micros(100)),
            })
        },
        strategy,
        link,
        link,
        spine_stamps,
    );
    ls.sim.run_until(Time::ZERO + Duration::from_millis(30));
    assert!(ls.sim.audit().ok(), "reference run fails conservation");
    let hosts: Vec<&MtpDuplexHost> = ls.hosts.iter().map(|&h| ls.sim.node_as(h)).collect();
    let mut fct = FctCollector::new();
    let mut retx = 0;
    let mut records: Vec<(Time, Option<Time>)> = Vec::new();
    for h in &hosts {
        retx += h.sender.sender.stats.retransmissions;
        for m in &h.sender.msgs {
            records.push((m.submitted, m.completed));
            if let Some(f) = m.fct() {
                fct.record(m.bytes as u64, f);
            }
        }
    }
    let ledgers: Vec<Ledger> = (0..N)
        .map(|k| Ledger::capture([&hosts[k].sender], &hosts[(k + HOSTS_PER_LEAF) % N].sink))
        .collect();
    for l in &ledgers {
        assert_eq!(l.check_exactly_once(), Vec::<String>::new());
    }
    let digest = engine_digest(&ls.sim, &records);
    let small = fct.summary_for_sizes(0, 100 * 1024);

    let s = load_scenario(file);
    let cell = execute_cell(&s, Protocol::Mtp, 900);
    let r = &cell.result;
    assert_eq!(
        r.violations,
        Vec::<String>::new(),
        "scenario cell must pass"
    );
    assert_eq!(r.digest, digest, "engine digest diverged");
    assert_eq!(pinned_digest(&s, "mtp", 900), digest);
    assert_eq!(cell.ledgers, ledgers, "ledgers diverged");

    // The record's row: reference and cell alike.
    assert_eq!((fct.samples.len(), total), (9240, 9240));
    assert_eq!((r.completed, r.completed + r.unfinished), (9240, 9240));
    assert_eq!(small.p99_us, row.small_p99_us);
    assert_eq!(r.p99_us, Some(row.small_p99_us));
    assert_eq!(fct.summary().p99_us, row.all_p99_us);
    assert_eq!(retx, row.retransmissions);
    assert_eq!(r.retransmissions, row.retransmissions);
}

#[test]
fn leafspine_ecmp_scenario_is_byte_identical_to_binary() {
    leafspine_matches_binary(
        "leafspine_ecmp.toml",
        |_| Strategy::Ecmp,
        false,
        LeafSpineRow {
            small_p99_us: 108.645986,
            all_p99_us: 468.14607,
            retransmissions: 1766,
        },
    );
}

#[test]
fn leafspine_spray_scenario_is_byte_identical_to_binary() {
    leafspine_matches_binary(
        "leafspine_spray.toml",
        |_| Strategy::Spray { next: 0 },
        false,
        LeafSpineRow {
            small_p99_us: 103.713177,
            all_p99_us: 509.590723,
            retransmissions: 6328,
        },
    );
}

#[test]
fn leafspine_mtp_lb_scenario_is_byte_identical_to_binary() {
    leafspine_matches_binary(
        "leafspine_mtp_lb.toml",
        |_| Strategy::mtp_lb(4, (0..4).map(|s| Some(PathletId(s as u16 + 1))).collect()),
        false,
        LeafSpineRow {
            small_p99_us: 132.936256,
            all_p99_us: 984.085995,
            retransmissions: 489,
        },
    );
}

#[test]
fn leafspine_mtp_conga_scenario_is_byte_identical_to_binary() {
    leafspine_matches_binary(
        "leafspine_mtp_conga.toml",
        |_| Strategy::conga_lb(4, Box::new(|addr| ((addr as usize - 1) / 4) as u16)),
        true,
        LeafSpineRow {
            small_p99_us: 152.038501,
            all_p99_us: 872.561986,
            retransmissions: 557,
        },
    );
}

// ------------------------------------------------------------- sweep

/// sweep's build sequence, verbatim: Fig. 5's network and flow for 6 ms,
/// seed `s` starting the flow at `(37 s) mod 384` us. Each cell must match
/// it (digest, goodput series, steady mean after 31 bins), and the
/// per-protocol and improvement mean ± std over the twelve phases must
/// equal the retired `sweep` record bit for bit.
#[test]
fn fig5_phase_sweep_scenario_is_byte_identical_to_binary() {
    let s = load_scenario("fig5_phase_sweep.toml");
    assert_eq!(s.seeds, (1..=12).collect::<Vec<u64>>());

    let sample = Duration::from_micros(32);
    let network = || ParallelSpec {
        a: LinkSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1)),
        b: LinkSpec::new(Bandwidth::from_gbps(10), Duration::from_micros(1)),
        host: LinkSpec::host_default(),
        forward: Strategy::Alternate {
            period: Duration::from_micros(384),
        },
        reverse: Strategy::Fixed,
        b_pathlet: PATHLET_B,
    };
    let horizon = Time::ZERO + Duration::from_millis(6);
    let steady_mean = |series: &[f64]| {
        let s = &series[31.min(series.len())..];
        s.iter().sum::<f64>() / s.len().max(1) as f64
    };
    // The cell against the reference's digest and series; returns the
    // reference's steady mean.
    let check = |proto: Protocol, seed: u64, digest: String, series: Vec<f64>| {
        let r = execute_cell(&s, proto, seed).result;
        assert_eq!(r.violations, Vec::<String>::new(), "{proto:?}/{seed}");
        assert_eq!(r.digest, digest, "{proto:?}/{seed} digest diverged");
        assert_eq!(pinned_digest(&s, proto.key(), seed), digest);
        assert_eq!(r.goodput_series_gbps.as_ref(), Some(&series));
        assert_eq!(r.goodput_mean_gbps, Some(steady_mean(&series)));
        steady_mean(&series)
    };

    let (mut dctcp, mut mtp) = (Vec::new(), Vec::new());
    for seed in 1..=12u64 {
        let start = Time::ZERO + Duration::from_micros((seed * 37) % 384);

        let mut t = parallel_paths(
            seed,
            tcp_ends(TcpConfig::dctcp(), vec![(start, 200_000_000)], sample),
            network(),
        );
        t.sim.run_until(horizon);
        assert!(t.sim.audit().ok(), "reference run fails conservation");
        let records: Vec<(Time, Option<Time>)> = t
            .sim
            .node_as::<TcpSenderNode>(t.sender)
            .msgs
            .iter()
            .map(|r| (r.submitted, r.completed))
            .collect();
        dctcp.push(check(
            Protocol::TcpDctcp,
            seed,
            engine_digest(&t.sim, &records),
            t.sim.node_as::<TcpSinkNode>(t.sink).goodput.rates_gbps(),
        ));

        let mut m = parallel_paths(
            seed,
            mtp_ends(
                MtpConfig::default(),
                vec![ScheduledMsg {
                    at: start,
                    ..ScheduledMsg::new(Time::ZERO, 200_000_000)
                }],
                sample,
                1,
            ),
            network(),
        );
        m.sim.run_until(horizon);
        assert!(m.sim.audit().ok(), "reference run fails conservation");
        let records: Vec<(Time, Option<Time>)> = m
            .sim
            .node_as::<MtpSenderNode>(m.sender)
            .msgs
            .iter()
            .map(|r| (r.submitted, r.completed))
            .collect();
        mtp.push(check(
            Protocol::Mtp,
            seed,
            engine_digest(&m.sim, &records),
            m.sim.node_as::<MtpSinkNode>(m.sink).goodput.rates_gbps(),
        ));
    }

    let improvements: Vec<f64> = dctcp
        .iter()
        .zip(&mtp)
        .map(|(d, m)| (m / d - 1.0) * 100.0)
        .collect();
    assert!(
        improvements.iter().all(|&i| i > 0.0),
        "MTP must win at every phase: {improvements:?}"
    );
    assert_eq!(mean_std(&dctcp), (43.60703821656042, 0.25105148960849943));
    assert_eq!(mean_std(&mtp), (51.38459925690018, 0.04532445859860336));
    assert_eq!(
        mean_std(&improvements),
        (17.839360266159506, 0.7254962695874184)
    );
}

// ------------------------------------------------------------- fig2

/// The retired `fig2` record's unlimited-window series: the proxy's
/// buffer at the end of every 100 us bin to 4 ms, in MB.
#[rustfmt::skip]
const FIG2_UNLIMITED_MB: [f64; 40] = [
    0.68474, 1.4162, 2.14474, 2.87474, 3.6062, 4.33474, 5.06474, 5.3728,
    5.1684, 4.96108, 4.7523, 4.54644, 4.62528, 4.90706, 5.18446, 5.46332,
    5.74656, 6.0298, 6.44444, 7.05034, 7.665, 8.27382, 8.87826, 9.50022,
    10.10758, 10.70764, 11.31938, 11.9428, 12.5341, 13.14438, 13.77072, 14.37078,
    14.98836, 15.5928, 16.1987, 16.82212, 17.41926, 18.01932, 18.64566, 19.23258,
];

/// Runs `file`'s one NewReno cell at seed 2, which must pass and match
/// the file's pinned digest, and returns it with the proxy's report.
fn fig2_cell(file: &str) -> (CellResult, ProxyReport) {
    let s = load_scenario(file);
    let mut r = execute_cell(&s, Protocol::TcpNewReno, 2).result;
    assert_eq!(r.violations, Vec::<String>::new(), "{file}");
    assert_eq!(pinned_digest(&s, "tcp-newreno", 2), r.digest, "{file}");
    let proxy = r.proxy.take().expect("a proxy cell reports its buffer");
    (r, proxy)
}

/// Fig. 2(a): the buffer series, bit for bit. It is not monotonic: the
/// client overruns its queue and times out once, between 750 and 800 us,
/// and the buffer falls from 5.37 MB at 800 us to 4.55 MB at 1 200 us.
/// From about 1.25 ms the proxy's server-side connection is in NewReno
/// fast recovery after 20 drops at the 40 Gbps queue. It repairs one hole
/// per partial ACK, one every ~614 us (its full 2 048-packet queue at
/// 40 Gbps), so the later growth is that stall as well as the mismatch.
#[test]
fn fig2_unlimited_scenario_reproduces_the_record() {
    let (r, proxy) = fig2_cell("fig2_unlimited.toml");
    let mb: Vec<f64> = (proxy.buffered_series_bytes.iter())
        .map(|&b| b as f64 / 1e6)
        .collect();
    assert_eq!(mb, FIG2_UNLIMITED_MB);
    assert_eq!((r.timeouts, r.retransmissions), (1, 11_058));
}

/// The retired record's capped rows: the file, its window cap (KiB), the
/// largest buffer (KiB), bytes relayed (MB) and head-of-line delay, the
/// time the largest buffer takes to drain at 40 Gbps (us); then the
/// client's retransmissions. Only the 4 MiB cap, about 2 870 segments,
/// overflows the 2 048-packet client queue.
#[rustfmt::skip]
const FIG2_CAPPED: [(&str, u64, f64, f64, f64, u64); 4] = [
    ("fig2_window_64k.toml", 64, 111.046875, 19.493556, 22.7424, 0),
    ("fig2_window_256k.toml", 256, 494.87109375, 19.690656, 101.3496, 0),
    ("fig2_window_1m.toml", 1024, 2030.87109375, 20.477448, 415.9224, 0),
    ("fig2_window_4m.toml", 4096, 8192.5390625, 12.760124, 1677.832, 5_530),
];

/// Fig. 2(b): each capped row, bit for bit.
#[test]
fn fig2_window_scenarios_reproduce_the_record() {
    for (file, cap_kb, max_buffered_kb, relayed_mb, hol_delay_us, retx) in FIG2_CAPPED {
        let s = load_scenario(file);
        let Topology::Proxy { window_cap_kb, .. } = s.topology else {
            panic!("{file} is no proxy");
        };
        assert_eq!(window_cap_kb, Some(cap_kb), "{file}");
        let (r, proxy) = fig2_cell(file);
        let max = proxy.max_buffered_bytes;
        let hol = Bandwidth::from_gbps(40).serialize_time(u32::try_from(max).unwrap());
        assert_eq!(max as f64 / 1024.0, max_buffered_kb, "{file}");
        assert_eq!(proxy.relayed_bytes as f64 / 1e6, relayed_mb, "{file}");
        assert_eq!(hol.as_micros_f64(), hol_delay_us, "{file}");
        assert_eq!(r.retransmissions, retx, "{file}");
    }
}

// ------------------------------------------------------------- fig3

/// One system of the retired `fig3` record, checked against its scenario
/// file: the summed 32 us goodput series (63 bins, by the [`fnv64`] of
/// its `{:?}` rendering), its mean after the 8-bin warmup and its σ over
/// the same bins, all bit for bit. Returns σ/µ, the figure's noise.
fn fig3_matches_record(file: &str, series_fnv: &str, mean: f64, std: f64) -> f64 {
    let s = load_scenario(file);
    let r = execute_cell(&s, Protocol::TcpNewReno, 3).result;
    assert_eq!(
        r.violations,
        Vec::<String>::new(),
        "scenario cell must pass"
    );
    assert_eq!(pinned_digest(&s, "tcp-newreno", 3), r.digest);
    let series = r
        .goodput_series_gbps
        .expect("a dumbbell reports its sinks' sum");
    assert_eq!(series.len(), 63);
    assert_eq!(fnv64(&format!("{series:?}")), series_fnv, "series diverged");
    assert_eq!(r.goodput_mean_gbps, Some(mean));
    // fig3's σ, verbatim: population variance of the post-warmup bins.
    let steady = &series[8..];
    let var = steady.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / steady.len() as f64;
    assert_eq!(var.sqrt(), std);
    std / mean
}

/// The retired record's persistent-connection row.
const FIG3_PERSISTENT: (f64, f64) = (68.31287272727276, 4.86417036952877);
/// The retired record's one-request-per-flow row.
const FIG3_ONE_RPF: (f64, f64) = (27.571127272727264, 5.506772577487225);

#[test]
fn fig3_conn_per_message_scenario_reproduces_the_record() {
    let (mean, std) = FIG3_ONE_RPF;
    let noise = fig3_matches_record("fig3_conn_per_message.toml", "3e343a57b7b41ce8", mean, std);
    // The figure's headline: a connection per request is the noisier.
    assert!(noise > FIG3_PERSISTENT.1 / FIG3_PERSISTENT.0);
}

#[test]
fn fig3_persistent_scenario_reproduces_the_record() {
    let (mean, std) = FIG3_PERSISTENT;
    let noise = fig3_matches_record("fig3_persistent.toml", "b72cfb4fb679c2ec", mean, std);
    assert!(noise < FIG3_ONE_RPF.1 / FIG3_ONE_RPF.0);
    assert!(mean > FIG3_ONE_RPF.0);
}

// ------------------------------------------------------------- fig7

/// One row of the retired `fig7` record, checked against its scenario
/// file: tenant 1's and tenant 2's goodput (each sink's mean over the
/// last quarter of its bins, summed per tenant) and tenant 2 ÷ tenant 1,
/// bit for bit. Returns the ratio.
fn fig7_matches_record(file: &str, proto: Protocol, row: [f64; 3]) -> f64 {
    let s = load_scenario(file);
    let r = execute_cell(&s, proto, 7).result;
    assert_eq!(
        r.violations,
        Vec::<String>::new(),
        "scenario cell must pass"
    );
    assert_eq!(pinned_digest(&s, proto.key(), 7), r.digest);
    let tenants = r
        .tenant_goodput_gbps
        .expect("a dumbbell reports its tenants");
    assert_eq!(tenants, row[..2]);
    assert_eq!(tenants[1] / tenants[0], row[2]);
    row[2]
}

#[test]
fn fig7_shared_queue_scenario_reproduces_the_record() {
    let row = [12.357439999999999, 84.97784, 6.876654064272213];
    let ratio = fig7_matches_record("fig7_shared_queue.toml", Protocol::TcpDctcp, row);
    // Per-flow fairness: eight flows take most of the link from one.
    assert!(ratio > 5.0);
}

#[test]
fn fig7_drr_scenario_reproduces_the_record() {
    let row = [48.67056, 48.66472, 0.9998800095992321];
    fig7_matches_record("fig7_drr.toml", Protocol::TcpDctcp, row);
}

#[test]
fn fig7_fair_share_scenario_reproduces_the_record() {
    let row = [43.32112, 45.49943999999999, 1.050283095173901];
    fig7_matches_record("fig7_fair_share.toml", Protocol::Mtp, row);
}

// ------------------------------------------------------ §4 ablations

/// Runs `file`'s one MTP cell at `seed`, which must pass and match the
/// file's pinned digest.
fn ablation_cell(file: &str, seed: u64) -> mtp_scenario::run::CellRun {
    let s = load_scenario(file);
    let cell = execute_cell(&s, Protocol::Mtp, seed);
    assert_eq!(cell.result.violations, Vec::<String>::new(), "{file}");
    assert_eq!(pinned_digest(&s, "mtp", seed), cell.result.digest, "{file}");
    cell
}

/// A1, pathlet granularity: Fig. 5's file and its one-pathlet twin at
/// the retired record's seed 11 and 6 ms horizon, whose steady means
/// (after 31 bins) must be the record's, bit for bit.
#[test]
fn abl_single_pathlet_scenario_reproduces_the_record() {
    let mean = |file: &str| {
        let mut s = load_scenario(file);
        s.seeds = vec![11];
        s.horizon_us = 6000;
        // The files' bounds are for their own seed and horizon.
        s.asserts.cells.clear();
        let r = execute_cell(&s, Protocol::Mtp, 11).result;
        assert_eq!(r.violations, Vec::<String>::new(), "{file}");
        r.goodput_mean_gbps
            .expect("a two-path cell reports goodput")
    };
    assert_eq!(mean("fig5_alternation.toml"), 51.34643312101906);
    assert_eq!(mean("abl_single_pathlet.toml"), 36.830127388534954);
}

/// A3, blob vs message mode: 10 MB sprayed as one message completes at
/// 16 421 us after 2 277 retransmissions; as 6 850 blob messages the
/// last completes at 882 us, with none.
#[test]
fn abl_spray_scenarios_reproduce_the_record() {
    let message = ablation_cell("abl_spray_message.toml", 17).result;
    assert_eq!(message.p50_us, Some(16421.48832));
    assert_eq!(message.retransmissions, 2277);

    let blob = ablation_cell("abl_spray_blob.toml", 17);
    let last = blob.ledgers[0].completed.iter().map(|&(_, ps)| ps).max();
    assert_eq!(last.map(|ps| Time(ps).as_micros_f64()), Some(882.10048));
    assert_eq!(blob.result.retransmissions, 0);
}

/// A4, NDP via MTP: the 16-way incast's p99 completion time and RTO
/// count, drop-tail then trimming.
#[test]
fn abl_incast_scenarios_reproduce_the_record() {
    for (file, p99_us, timeouts) in [
        ("abl_incast_droptail.toml", 3253.25344, 32),
        ("abl_incast_trimming.toml", 159.50968, 0),
    ] {
        let r = ablation_cell(file, 19).result;
        assert_eq!((r.p99_us, r.timeouts), (Some(p99_us), timeouts), "{file}");
    }
}
