//! Golden replay: three corpus scenarios are byte-identical to a
//! hand-written build-and-run of the same experiment.
//!
//! Each test spells the experiment out inline against the library
//! builders (same constants, same fault schedule, same seed) — the
//! independent reference, which goes through none of the scenario
//! engine's parsing, schema or cell construction — and compares it with
//! the engine's cell run: same exactly-once ledger, same clean
//! conservation audit, same engine digest. It also pins the digest
//! recorded in the checked-in scenario file, so editing
//! `scenarios/*.toml` out from under the reference fails here, not in CI
//! archaeology. The failure and corruption studies exist only as
//! scenarios; `fig5` is still a binary too, and its sequence here is
//! that binary's.

use std::path::Path;

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode};
use mtp_faults::{diamond_mtp, diamond_tcp, Diamond, FaultDriver, FaultSchedule, Ledger, LinkSpec};
use mtp_scenario::run::{engine_digest, execute_cell};
use mtp_scenario::schema::{from_str, Protocol, Scenario};
use mtp_sim::time::{Duration, Time};
use mtp_sim::LinkFailMode;
use mtp_tcp::{TcpConfig, TcpSenderNode, TcpSinkNode, TcpWorkloadMode};

use mtp_bench::study::{mtp_periodic, tcp_periodic, us};
use mtp_bench::topo::{two_path_mtp, two_path_tcp, PathSpec};
use mtp_net::Strategy;

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

fn failover_outage(d: &Diamond) -> FaultSchedule {
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
    let mut d = diamond_mtp(
        FO_SEED,
        MtpConfig::default().with_failover(),
        mtp_periodic(FO_N_MSGS, FO_MSG_BYTES, FO_EVERY_US),
        LinkSpec::path_default(),
    );
    let mut drv = FaultDriver::new(failover_outage(&d));
    drv.run_until(&mut d.sim, us(FO_HORIZON));
    assert!(d.sim.audit().ok(), "reference run fails conservation");
    let fig_ledger = Ledger::capture(&d.sim, d.sender, d.sink);
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
    assert_eq!(
        cell.ledger.as_ref(),
        Some(&fig_ledger),
        "exactly-once ledger diverged"
    );
    assert_eq!(fig_ledger.check_exactly_once(), Vec::<String>::new());
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
        let mut d = diamond_tcp(
            FO_SEED,
            cfg,
            TcpWorkloadMode::Persistent,
            tcp_periodic(FO_N_MSGS, FO_MSG_BYTES, FO_EVERY_US),
            LinkSpec::path_default(),
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

fn corruption_storm(d: &Diamond) -> FaultSchedule {
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

    let mut d = diamond_mtp(
        CO_SEED,
        MtpConfig::default().with_failover(),
        mtp_periodic(40, 30_000, 50),
        LinkSpec::path_default(),
    );
    let mut drv = FaultDriver::new(corruption_storm(&d));
    drv.run_until(&mut d.sim, us(CO_HORIZON));
    assert!(d.sim.audit().ok(), "reference run fails conservation");
    let fig_ledger = Ledger::capture(&d.sim, d.sender, d.sink);
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
    assert_eq!(cell.ledger.as_ref(), Some(&fig_ledger));
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
    let fast = PathSpec::new(
        mtp_sim::time::Bandwidth::from_gbps(100),
        Duration::from_micros(1),
    );
    let slow = PathSpec::new(
        mtp_sim::time::Bandwidth::from_gbps(10),
        Duration::from_micros(1),
    );
    let flow: u64 = 200_000_000;

    let mut m = two_path_mtp(
        5,
        Strategy::Alternate { period },
        fast,
        slow,
        vec![mtp_core::ScheduledMsg::new(Time::ZERO, flow as u32)],
        MtpConfig::default(),
        sample,
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

    let mut t = two_path_tcp(
        5,
        Strategy::Alternate { period },
        fast,
        slow,
        vec![(Time::ZERO, flow)],
        TcpConfig::dctcp(),
        TcpWorkloadMode::Persistent,
        sample,
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

    // The scenario's goodput means are the figure's means: same series,
    // same 31-bin warmup.
    let mean = |series: &[f64]| {
        let tail = &series[31.min(series.len())..];
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    assert_eq!(mtp_cell.result.goodput_mean_gbps, Some(mean(&mtp_series)));
    assert_eq!(tcp_cell.result.goodput_mean_gbps, Some(mean(&tcp_series)));
    // And the figure's headline stands: MTP beats DCTCP across the flips.
    assert!(mean(&mtp_series) > mean(&tcp_series));
}
