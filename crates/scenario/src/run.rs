//! The cell engine: build, run, measure, and check one scenario ×
//! protocol × seed cell.
//!
//! A cell is executed against the shared network builders
//! ([`mtp_faults::parallel_paths`], [`mtp_bench::topo::dumbbell`], …),
//! so a scenario file that names the same parameters as a hand-written
//! run reproduces the same packet-level run — the golden-replay tests pin
//! this byte-for-byte, and the retired figure binaries' numbers with it.
//! Every assertion is checked non-panicking: violations come back as
//! strings naming the assertion, never as a crash, so one broken cell
//! cannot take down a corpus run.

use mtp_bench::study::{completion_stats, corrupted_frames, tcp_periodic, us};
use mtp_bench::topo::{dumbbell, dumbbell_dst, dumbbell_src, leaf_spine, ls_addr};
use mtp_core::{MtpConfig, MtpDuplexHost, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_faults::{
    mtp_pair, parallel_paths, tcp_pair, FaultDriver, FaultSchedule, Ledger, LinkSpec, ParallelSpec,
    PATHLET_A, PATHLET_B,
};
use mtp_net::{src_addr, FairShareEnforcer, IngressPolicy, Strategy, SwitchNode, TcpProxyNode};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{
    DirLinkId, DrrQueue, LinkFailMode, Node, NodeAuditCounters, NodeId, PortId, Qdisc, Simulator,
    TrimmingQueue,
};
use mtp_tcp::{TcpConfig, TcpSenderNode, TcpSinkNode, TcpWorkloadMode};
use mtp_wire::PathletId;
use mtp_workload::{poisson_schedule, SizeDist};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::schema::{
    Asserts, CellAsserts, FailMode, FaultSpec, Isolation, LeafSpineStrategy, LinkParams, Protocol,
    Scenario, Topology, TwoPathStrategy, Workload,
};

/// Measured outcome of one cell, as written to the report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellResult {
    /// Owning scenario name.
    pub scenario: String,
    /// Protocol key (`mtp`, `tcp-newreno`, `tcp-dctcp`).
    pub protocol: String,
    /// The cell's simulator seed.
    pub seed: u64,
    /// Messages completed at their senders.
    pub completed: u64,
    /// Scheduled messages that never completed.
    pub unfinished: u64,
    /// Completions strictly inside `assert.window_us` (absent without a
    /// window).
    pub during_window: Option<u64>,
    /// Nearest-rank p50 message completion time, microseconds (of the
    /// messages below `assert.fct_below_bytes`, when set).
    pub p50_us: Option<f64>,
    /// Nearest-rank p99 message completion time, likewise.
    pub p99_us: Option<f64>,
    /// Sender retransmission timeouts.
    pub timeouts: u64,
    /// Sender retransmissions.
    pub retransmissions: u64,
    /// Mean sink goodput after `assert.warmup_bins` bins, Gbps
    /// (single-sink topologies and the dumbbell).
    pub goodput_mean_gbps: Option<f64>,
    /// Sink goodput per sampling bin, Gbps (single-sink topologies; on
    /// the dumbbell, the sum over its sinks).
    pub goodput_series_gbps: Option<Vec<f64>>,
    /// Per tenant, in tenant order: the sum over the tenant's sinks of
    /// each sink's mean goodput over the last quarter of its bins, Gbps
    /// (dumbbell only).
    pub tenant_goodput_gbps: Option<Vec<f64>>,
    /// Mean time from each return to path A until goodput reaches 80 %
    /// of path A's rate, microseconds (`alternate` two-path only).
    pub recovery_us: Option<f64>,
    /// Bytes sent on the forward links of paths A and B (diamond and
    /// two-path).
    pub path_tx_bytes: Option<[u64; 2]>,
    /// Frames damaged in flight (diamond only).
    pub corrupted_frames: Option<u64>,
    /// The proxy's buffer (proxy only).
    pub proxy: Option<ProxyReport>,
    /// [`fnv64`] digest of the run's observable state.
    pub digest: String,
    /// Violated assertions, empty when the cell passed.
    pub violations: Vec<String>,
}

/// What a TCP-terminating proxy held and passed on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProxyReport {
    /// Bytes buffered at the end of each sampling bin.
    pub buffered_series_bytes: Vec<u64>,
    /// The most bytes ever buffered.
    pub max_buffered_bytes: u64,
    /// Bytes passed on to the server connection.
    pub relayed_bytes: u64,
    /// RTO expirations of the proxy's server-side connection.
    pub server_timeouts: u64,
    /// Segments the proxy's server-side connection retransmitted.
    pub server_retransmissions: u64,
}

/// One executed cell: the reportable result plus the raw exactly-once
/// ledgers, which the golden-replay tests compare against hand-written
/// runs'.
pub struct CellRun {
    /// The reportable result.
    pub result: CellResult,
    /// MTP cells: one ledger per sink and the senders sending to it, in
    /// sender order. TCP cells: none.
    pub ledgers: Vec<Ledger>,
}

/// Outcome of a whole scenario: every protocol × seed cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Scenario description.
    pub description: String,
    /// True when no cell has violations.
    pub passed: bool,
    /// All cells, protocol-major in matrix order.
    pub cells: Vec<CellResult>,
}

/// Run every protocol × seed cell of `s`.
pub fn run_scenario(s: &Scenario) -> ScenarioResult {
    let mut cells = Vec::new();
    for p in &s.protocols {
        for &seed in &s.seeds {
            cells.push(execute_cell(s, *p, seed).result);
        }
    }
    ScenarioResult {
        name: s.name.clone(),
        description: s.description.clone(),
        passed: cells.iter().all(|c| c.violations.is_empty()),
        cells,
    }
}

// ------------------------------------------------------------- plumbing

/// An FNV-1a-shaped 64-bit fold, rendered as 16 lowercase hex digits.
/// The multiplier is `2^32 + 0x1b3`, not the FNV-1a-64 prime
/// (`2^40 + 0x1b3`), so this is not FNV-1a-64. Its values are pinned by
/// `scenarios/` and `benchmark/` — do not change.
pub fn fnv64(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

fn to_spec(l: LinkParams) -> LinkSpec {
    LinkSpec {
        rate: Bandwidth::from_gbps(l.rate_gbps),
        delay: Duration::from_micros(l.delay_us),
        cap_pkts: l.queue_pkts as usize,
        ecn_k: l.ecn_k as usize,
    }
}

/// Name → handle maps a topology publishes for fault resolution.
struct Names {
    pairs: Vec<(&'static str, (DirLinkId, DirLinkId))>,
    links: Vec<(&'static str, DirLinkId)>,
    nodes: Vec<(String, NodeId)>,
}

impl Names {
    fn pair(&self, name: &str) -> (DirLinkId, DirLinkId) {
        self.pairs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, p)| p)
            .expect("schema validated pair name")
    }

    fn link(&self, name: &str) -> DirLinkId {
        self.links
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, l)| l)
            .expect("schema validated link name")
    }

    fn node(&self, name: &str) -> NodeId {
        self.nodes
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, n)| n)
            .expect("schema validated node name")
    }
}

/// Materialize the scenario's fault specs against resolved handles. Burst
/// seeds mix the cell seed with the spec's `seed_xor`, matching the
/// figure binaries' `SEED ^ 0xA` idiom.
fn build_schedule(faults: &[FaultSpec], names: &Names, seed: u64) -> FaultSchedule {
    let mut sched = FaultSchedule::new();
    let mode = |m: FailMode| match m {
        FailMode::Blackhole => LinkFailMode::Blackhole,
        FailMode::Drain => LinkFailMode::Drain,
    };
    for f in faults {
        match f {
            FaultSpec::CutBoth {
                link,
                from_us,
                to_us,
                mode: m,
            } => {
                let (fwd, rev) = names.pair(link);
                sched.cut_both(fwd, rev, us(*from_us), us(*to_us), mode(*m));
            }
            FaultSpec::LinkDown {
                link,
                at_us,
                mode: m,
            } => {
                sched.link_down(us(*at_us), names.link(link), mode(*m));
            }
            FaultSpec::LinkUp { link, at_us } => {
                sched.link_up(us(*at_us), names.link(link));
            }
            FaultSpec::Degrade {
                link,
                at_us,
                rate_gbps,
                delay_us,
            } => {
                sched.degrade(
                    us(*at_us),
                    names.link(link),
                    Bandwidth::from_gbps(*rate_gbps),
                    Duration::from_micros(*delay_us),
                );
            }
            FaultSpec::CorruptRate {
                link,
                at_us,
                ppm,
                flips,
                seed_xor,
            } => {
                let s = if *ppm == 0 { 0 } else { seed ^ seed_xor };
                sched.corrupt_rate(us(*at_us), names.link(link), *ppm as u32, *flips as u8, s);
            }
            FaultSpec::BitflipBurst {
                link,
                at_us,
                pkts,
                flips,
                seed_xor,
            } => {
                sched.bitflip_burst(
                    us(*at_us),
                    names.link(link),
                    *pkts as u32,
                    *flips as u8,
                    seed ^ seed_xor,
                );
            }
            FaultSpec::TruncateBurst {
                link,
                at_us,
                pkts,
                seed_xor,
            } => {
                sched.truncate_burst(us(*at_us), names.link(link), *pkts as u32, seed ^ seed_xor);
            }
            FaultSpec::CrashRestart {
                node,
                from_us,
                to_us,
            } => {
                sched.crash_restart(names.node(node), us(*from_us), us(*to_us));
            }
        }
    }
    sched
}

/// Where each damaged frame was caught, diamond cells only.
struct CorruptionLedger {
    corrupted: u64,
    caught: u64,
}

/// `(submitted, completed, bytes)` of one scheduled message.
type MsgRecord = (Time, Option<Time>, u64);

/// Everything measured from one finished cell, before assertion checking.
struct Measured {
    sim: Simulator,
    /// One per scheduled message, sender order.
    records: Vec<MsgRecord>,
    timeouts: u64,
    retransmissions: u64,
    goodput_series: Option<Vec<f64>>,
    tenant_goodput: Option<Vec<f64>>,
    path_tx_bytes: Option<[u64; 2]>,
    corruption: Option<CorruptionLedger>,
    proxy: Option<ProxyReport>,
    /// See [`CellRun::ledgers`].
    ledgers: Vec<Ledger>,
}

/// The cell digest: [`fnv64`] over the cell's deterministic state dump
/// (event count, clock, per-link counters, every message's times).
/// Public so the golden-replay tests can digest an inline
/// figure-binary-style run and compare byte-for-byte.
pub fn engine_digest(sim: &Simulator, records: &[(Time, Option<Time>)]) -> String {
    fnv64(&cell_dump(sim, records.iter().copied()))
}

/// The deterministic dump digested per cell: the engine-observable state
/// (event count, clock, per-link counters — the same lines the perf-gate
/// digests) plus every message's submit/complete picoseconds.
fn cell_dump(sim: &Simulator, records: impl Iterator<Item = (Time, Option<Time>)>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "events={} final_now={}",
        sim.events_processed(),
        sim.now().0
    )
    .expect("write to String");
    for i in 0..sim.num_links() {
        let s = sim.link_stats(DirLinkId(i));
        writeln!(
            out,
            "link {i}: offered={} tx={} bytes={} dropped={} marked={} trimmed={} maxq={}",
            s.offered_pkts,
            s.tx_pkts,
            s.tx_bytes,
            s.dropped_pkts,
            s.marked_pkts,
            s.trimmed_pkts,
            s.max_qlen_pkts
        )
        .expect("write to String");
    }
    for (k, (submitted, done)) in records.enumerate() {
        match done {
            Some(t) => writeln!(out, "msg {k}: submitted={} completed={}", submitted.0, t.0),
            None => writeln!(out, "msg {k}: submitted={} completed=-", submitted.0),
        }
        .expect("write to String");
    }
    out
}

fn mtp_cfg(s: &Scenario) -> MtpConfig {
    if s.mtp.failover {
        MtpConfig::default().with_failover()
    } else {
        MtpConfig::default()
    }
}

fn tcp_cfg(p: Protocol) -> TcpConfig {
    match p {
        Protocol::TcpNewReno => TcpConfig::default(),
        Protocol::TcpDctcp => TcpConfig::dctcp(),
        Protocol::Mtp => unreachable!("mtp cells never build a TCP config"),
    }
}

/// The single sender's `(submit, bytes)` schedule; a Poisson process
/// offers its load against the host link, and a chunked `single` submits
/// every chunk at its start time.
fn single_flow_schedule(s: &Scenario, seed: u64, host: &LinkSpec) -> Vec<(Time, u64)> {
    match &s.workload {
        Workload::Periodic {
            count,
            bytes,
            interval_us,
        } => tcp_periodic(*count, *bytes, *interval_us),
        Workload::Single {
            bytes,
            start_step_us,
            chunk_bytes,
        } => {
            let at = match (start_step_us, &s.topology) {
                (
                    Some(step),
                    Topology::TwoPath {
                        strategy: TwoPathStrategy::Alternate { period_us },
                        ..
                    },
                ) => us((u128::from(seed) * u128::from(*step) % u128::from(*period_us)) as u64),
                _ => Time::ZERO,
            };
            let chunk = chunk_bytes.unwrap_or(*bytes);
            (0..bytes.div_ceil(chunk))
                .map(|i| (at, chunk.min(bytes - i * chunk)))
                .collect()
        }
        Workload::Poisson {
            load,
            min_bytes,
            max_bytes,
            until_us,
        } => poisson_schedule(
            &mut SmallRng::seed_from_u64(seed),
            &pareto(*min_bytes, *max_bytes),
            host.rate,
            *load,
            Time::ZERO,
            Duration::from_micros(*until_us),
            None,
        ),
        _ => unreachable!("schema restricts single-sender topologies to periodic/single/poisson"),
    }
}

/// A Poisson message, whose priority is its size class: shorter is more
/// urgent, the request-aware half of Fig. 6's balancer.
fn size_class_msg(at: Time, bytes: u64) -> ScheduledMsg {
    ScheduledMsg {
        pri: (64 - bytes.leading_zeros()) as u8,
        ..ScheduledMsg::new(at, bytes as u32)
    }
}

/// The heavy-tailed message sizes `poisson` and `tenants` draw from.
fn pareto(min: u64, max: u64) -> SizeDist {
    SizeDist::BoundedPareto {
        alpha: 1.1,
        min,
        max,
    }
}

// ---------------------------------------------------------------- drive

/// A diamond or two-path cell: both are [`parallel_paths`] under a
/// different [`ParallelSpec`], and an MTP and a TCP cell differ in which
/// node types are built and read (and in the diamond's forward fan-out:
/// message-aware for MTP, pinned to path A for TCP).
fn run_parallel_paths(s: &Scenario, p: Protocol, seed: u64) -> Measured {
    let mtp_lb = || Strategy::mtp_lb(2, vec![Some(PATHLET_A), Some(PATHLET_B)]);
    let (spec, goodput_bin, sack_redundancy) = match &s.topology {
        // Equal paths, ACKs sprayed back, and the sink's SACK redundancy
        // that covers for the ACKs a reverse cut kills.
        Topology::Diamond { path } => (
            ParallelSpec {
                a: to_spec(*path),
                b: to_spec(*path),
                host: LinkSpec::host_default(),
                forward: match p {
                    Protocol::Mtp => mtp_lb(),
                    _ => Strategy::Fixed,
                },
                reverse: Strategy::Spray { next: 0 },
                b_pathlet: PATHLET_B,
            },
            Duration::from_micros(100),
            8,
        ),
        Topology::TwoPath {
            a,
            b,
            host,
            strategy,
            goodput_bin_us,
            pathlets,
        } => (
            ParallelSpec {
                a: to_spec(*a),
                b: to_spec(*b),
                host: host.map_or_else(LinkSpec::host_default, to_spec),
                forward: match strategy {
                    TwoPathStrategy::Alternate { period_us } => Strategy::Alternate {
                        period: Duration::from_micros(*period_us),
                    },
                    TwoPathStrategy::Ecmp => Strategy::Ecmp,
                    TwoPathStrategy::Spray => Strategy::Spray { next: 0 },
                    TwoPathStrategy::MtpLb => mtp_lb(),
                },
                reverse: Strategy::Fixed,
                b_pathlet: if *pathlets == 1 { PATHLET_A } else { PATHLET_B },
            },
            Duration::from_micros(*goodput_bin_us),
            1,
        ),
        _ => unreachable!("caller dispatched on topology"),
    };
    let schedule = single_flow_schedule(s, seed, &spec.host);
    let ends = match p {
        Protocol::Mtp => {
            let poisson = matches!(s.workload, Workload::Poisson { .. });
            let schedule = schedule
                .into_iter()
                .map(|(t, b)| {
                    if poisson {
                        size_class_msg(t, b)
                    } else {
                        ScheduledMsg::new(t, b as u32)
                    }
                })
                .collect();
            mtp_pair(mtp_cfg(s), schedule, goodput_bin, sack_redundancy)
        }
        tcp => tcp_pair(tcp_cfg(tcp), schedule, goodput_bin),
    };
    let mut d = parallel_paths(seed, ends, spec);
    // The schema refuses names a topology kind does not publish, so
    // resolving against the full set serves both kinds.
    let names = Names {
        pairs: vec![("a", (d.a_fwd, d.a_rev)), ("b", (d.b_fwd, d.b_rev))],
        links: vec![
            ("a_fwd", d.a_fwd),
            ("a_rev", d.a_rev),
            ("b_fwd", d.b_fwd),
            ("b_rev", d.b_rev),
        ],
        nodes: Vec::new(),
    };
    FaultDriver::new(build_schedule(&s.faults, &names, seed))
        .run_until(&mut d.sim, us(s.horizon_us));

    let (records, timeouts, retransmissions, goodput_series, malformed, ledgers);
    match p {
        Protocol::Mtp => {
            let snd = d.sim.node_as::<MtpSenderNode>(d.sender);
            let sink = d.sim.node_as::<MtpSinkNode>(d.sink);
            records = snd
                .msgs
                .iter()
                .map(|m| (m.submitted, m.completed, m.bytes as u64))
                .collect();
            timeouts = snd.sender.stats.timeouts;
            retransmissions = snd.sender.stats.retransmissions;
            goodput_series = sink.goodput.rates_gbps();
            malformed = snd.malformed + sink.malformed;
            ledgers = vec![Ledger::capture([snd], sink)];
        }
        _ => {
            let snd = d.sim.node_as::<TcpSenderNode>(d.sender);
            let sink = d.sim.node_as::<TcpSinkNode>(d.sink);
            records = snd
                .msgs
                .iter()
                .map(|m| (m.submitted, m.completed, m.size))
                .collect();
            timeouts = snd.timeouts();
            retransmissions = snd.retransmissions();
            goodput_series = sink.goodput.rates_gbps();
            malformed = snd.malformed + sink.malformed;
            ledgers = Vec::new();
        }
    }
    let corruption = s.asserts.corruption_accounting.then(|| CorruptionLedger {
        corrupted: corrupted_frames(&d),
        caught: malformed
            + d.sim.node_as::<SwitchNode>(d.sw1).stats.malformed
            + d.sim.node_as::<SwitchNode>(d.sw2).stats.malformed
            + d.sim.corrupted_destroyed(),
    });
    let path_tx_bytes = [d.a_fwd, d.b_fwd].map(|l| d.sim.link_stats(l).tx_bytes);
    Measured {
        sim: d.sim,
        records,
        timeouts,
        retransmissions,
        goodput_series: Some(goodput_series),
        tenant_goodput: None,
        path_tx_bytes: Some(path_tx_bytes),
        corruption,
        proxy: None,
        ledgers,
    }
}

/// A dumbbell cell: one sender/sink pair per tenant sender through the
/// shared link, with the tenants' isolation or NDP trimming on it. Sender
/// `i` has address `i + 1`, the tenant from `Workload::tenant_of_sender`
/// as its MTP entity, and connection/message ids from `(i + 1) × 10^6` /
/// `(i + 1) << 40`.
fn run_dumbbell(s: &Scenario, p: Protocol, seed: u64) -> Measured {
    let Topology::Dumbbell {
        edge,
        shared,
        goodput_bin_us,
        isolation,
        trimming,
    } = &s.topology
    else {
        unreachable!("caller dispatched on topology")
    };
    let (edge, shared) = (to_spec(*edge), to_spec(*shared));
    let bin = Duration::from_micros(*goodput_bin_us);
    let tenant_of = s.workload.tenant_of_sender();
    let policy = (*isolation == Some(Isolation::FairShare)).then(|| {
        // One enforcement epoch per round trip of the shared link.
        Box::new(FairShareEnforcer::new(shared.rate, shared.delay.mul(2))) as Box<dyn IngressPolicy>
    });
    let drr = (*isolation == Some(Isolation::Drr)).then(|| {
        // One band per tenant, by the tenant of the source address.
        let tenant_of = tenant_of.clone();
        Box::new(DrrQueue::new(
            usize::from(tenant_of[tenant_of.len() - 1]),
            shared.cap_pkts,
            1500,
            Some(shared.ecn_k),
            Box::new(move |pkt| {
                src_addr(pkt)
                    .and_then(|a| tenant_of.get(usize::from(a).wrapping_sub(1)))
                    .map_or(0, |&t| usize::from(t) - 1)
            }),
        )) as Box<dyn Qdisc>
    });
    // NDP: a data queue of the shared link's cap and K, with 256 slots
    // for trimmed headers and control ahead of it.
    let trim = trimming.then(|| {
        Box::new(TrimmingQueue::new(shared.cap_pkts, shared.ecn_k, 256)) as Box<dyn Qdisc>
    });
    let make_sender = |i: usize| -> Box<dyn Node> {
        let (src, dst) = (dumbbell_src(i), dumbbell_dst(i));
        let mtp = |sched| {
            let entity = mtp_wire::EntityId(tenant_of[i]);
            MtpSenderNode::new(mtp_cfg(s), src, dst, entity, (i as u64 + 1) << 40, sched)
        };
        match (&s.workload, p) {
            (
                Workload::Streams {
                    messages, bytes, ..
                },
                Protocol::Mtp,
            ) => {
                let sched = vec![ScheduledMsg::new(Time::ZERO, *bytes as u32); *messages as usize];
                Box::new(mtp(sched).closed_loop())
            }
            (
                Workload::Streams {
                    messages, bytes, ..
                },
                tcp,
            ) => {
                let mode = if s.tcp.conn_per_message {
                    TcpWorkloadMode::ConnPerMessage
                } else {
                    TcpWorkloadMode::Persistent
                };
                let sched = vec![(Time::ZERO, *bytes); *messages as usize];
                let conn_id_base = (i as u32 + 1) * 1_000_000;
                Box::new(
                    TcpSenderNode::with_addrs(tcp_cfg(tcp), mode, conn_id_base, sched, src, dst)
                        .closed_loop(),
                )
            }
            (
                Workload::Tenants {
                    elephants,
                    elephant_bytes,
                    mice_load,
                    mice_min_bytes,
                    mice_max_bytes,
                    ..
                },
                _,
            ) => Box::new(mtp(if (i as u64) < *elephants {
                vec![ScheduledMsg::new(Time::ZERO, *elephant_bytes as u32)]
            } else {
                // Each mouse runs its own seeded open-loop Poisson
                // process at `mice_load` of its edge link.
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                poisson_schedule(
                    &mut rng,
                    &pareto(*mice_min_bytes, *mice_max_bytes),
                    edge.rate,
                    *mice_load,
                    Time::ZERO,
                    Duration::from_micros(s.horizon_us),
                    None,
                )
                .into_iter()
                .map(|(t, b)| ScheduledMsg::new(t, b as u32))
                .collect()
            })),
            _ => unreachable!("schema restricts dumbbell to tenants/streams"),
        }
    };
    let d = dumbbell(
        seed,
        tenant_of.len(),
        make_sender,
        |i| -> Box<dyn Node> {
            match p {
                Protocol::Mtp => Box::new(MtpSinkNode::new(dumbbell_dst(i), bin)),
                tcp => Box::new(TcpSinkNode::new(tcp_cfg(tcp), bin)),
            }
        },
        edge,
        shared,
        policy,
        drr.or(trim),
    );
    let mut sim = d.sim;
    let names = Names {
        pairs: Vec::new(),
        links: vec![("shared", d.bottleneck)],
        nodes: Vec::new(),
    };
    let mut drv = FaultDriver::new(build_schedule(&s.faults, &names, seed));
    drv.run_until(&mut sim, us(s.horizon_us));

    let (records, timeouts, retransmissions, ledgers, sink_series): (_, _, _, _, Vec<Vec<f64>>);
    match p {
        Protocol::Mtp => {
            (records, timeouts, retransmissions) =
                sender_totals(d.senders.iter().map(|&h| sim.node_as(h)));
            ledgers = d
                .senders
                .iter()
                .zip(&d.sinks)
                .map(|(&snd, &sink)| Ledger::capture([sim.node_as(snd)], sim.node_as(sink)))
                .collect();
            sink_series = d
                .sinks
                .iter()
                .map(|&h| sim.node_as::<MtpSinkNode>(h).goodput.rates_gbps())
                .collect();
        }
        _ => {
            // The audit counters include connections a per-message
            // sender has already retired.
            let mut counters = NodeAuditCounters::default();
            let mut recs = Vec::new();
            for &h in &d.senders {
                let snd = sim.node_as::<TcpSenderNode>(h);
                recs.extend(snd.msgs.iter().map(|m| (m.submitted, m.completed, m.size)));
                snd.audit_counters(&mut counters);
            }
            (records, timeouts, retransmissions) =
                (recs, counters.timeouts, counters.retransmissions);
            ledgers = Vec::new();
            sink_series = d
                .sinks
                .iter()
                .map(|&h| sim.node_as::<TcpSinkNode>(h).goodput.rates_gbps())
                .collect();
        }
    }
    // The sum over the sinks, bin by bin.
    let mut total: Vec<f64> = Vec::new();
    for series in &sink_series {
        if total.len() < series.len() {
            total.resize(series.len(), 0.0);
        }
        for (t, r) in total.iter_mut().zip(series) {
            *t += r;
        }
    }
    // Each sink's steady state, past its convergence transient.
    let mut tenant_goodput = vec![0.0; tenant_of.last().map_or(0, |&t| t as usize)];
    for (series, &t) in sink_series.iter().zip(&tenant_of) {
        let tail = &series[series.len() * 3 / 4..];
        tenant_goodput[t as usize - 1] += tail.iter().sum::<f64>() / tail.len().max(1) as f64;
    }
    Measured {
        sim,
        records,
        timeouts,
        retransmissions,
        goodput_series: Some(total),
        tenant_goodput: Some(tenant_goodput),
        path_tx_bytes: None,
        corruption: None,
        proxy: None,
        ledgers,
    }
}

/// Message records of MTP senders in order, with their summed timeouts
/// and retransmissions.
fn sender_totals<'a>(
    senders: impl Iterator<Item = &'a MtpSenderNode>,
) -> (Vec<MsgRecord>, u64, u64) {
    let (mut records, mut timeouts, mut retransmissions) = (Vec::new(), 0, 0);
    for node in senders {
        records.extend(
            node.msgs
                .iter()
                .map(|m| (m.submitted, m.completed, m.bytes as u64)),
        );
        timeouts += node.sender.stats.timeouts;
        retransmissions += node.sender.stats.retransmissions;
    }
    (records, timeouts, retransmissions)
}

fn run_leaf_spine(s: &Scenario, seed: u64) -> Measured {
    let Topology::LeafSpine {
        leaves,
        spines,
        hosts_per_leaf,
        host_link,
        spine_link,
        strategy,
    } = &s.topology
    else {
        unreachable!("caller dispatched on topology")
    };
    let (spines, hpl) = (*spines as usize, *hosts_per_leaf as usize);
    let n = *leaves as usize * hpl;
    let host_rate = to_spec(*host_link).rate;
    let cfg = mtp_cfg(s);
    let sender = |addr: u16, dst: u16, k: usize, sched| {
        MtpSenderNode::new(
            cfg.clone(),
            addr,
            dst,
            mtp_wire::EntityId(addr),
            (k as u64 + 1) << 40,
            sched,
        )
    };
    // Pathlet-aware spreading under failover, so quarantining a crashed
    // spine's pathlet re-steers onto survivors.
    let strategy = strategy.unwrap_or(if s.mtp.failover {
        LeafSpineStrategy::MtpLb
    } else {
        LeafSpineStrategy::Ecmp
    });
    let ls = leaf_spine(
        seed,
        *leaves as usize,
        spines,
        hpl,
        |leaf, i, addr| -> Box<dyn mtp_sim::Node> {
            let k = leaf * hpl + i;
            match &s.workload {
                // The aggregator is host 0 of leaf 0; every other host
                // fans in to it.
                Workload::Fanin { .. } if k == 0 => {
                    Box::new(MtpSinkNode::new(addr, Duration::from_micros(100)))
                }
                Workload::Fanin {
                    rounds,
                    bytes,
                    stagger_us,
                    round_gap_us,
                } => {
                    let sched = (0..*rounds)
                        .map(|m| {
                            let at = us(stagger_us * k as u64 + round_gap_us * m);
                            ScheduledMsg::new(at, *bytes as u32)
                        })
                        .collect();
                    Box::new(sender(addr, ls_addr(0, hpl, 0), k, sched))
                }
                Workload::Permutation {
                    load,
                    min_bytes,
                    max_bytes,
                    alpha,
                    until_us,
                } => {
                    let sizes = SizeDist::BoundedPareto {
                        alpha: *alpha,
                        min: *min_bytes,
                        max: *max_bytes,
                    };
                    let sched = poisson_schedule(
                        &mut SmallRng::seed_from_u64(seed + k as u64),
                        &sizes,
                        host_rate,
                        *load,
                        Time::ZERO,
                        Duration::from_micros(*until_us),
                        None,
                    )
                    .into_iter()
                    .map(|(t, b)| size_class_msg(t, b))
                    .collect();
                    let dst = (k + hpl) % n;
                    Box::new(MtpDuplexHost {
                        sender: sender(addr, ls_addr(dst / hpl, hpl, dst % hpl), k, sched),
                        sink: MtpSinkNode::new(addr, Duration::from_micros(100)),
                    })
                }
                _ => unreachable!("schema restricts leaf-spine to fanin/permutation"),
            }
        },
        |_leaf| match strategy {
            LeafSpineStrategy::Ecmp => Strategy::Ecmp,
            LeafSpineStrategy::Spray => Strategy::Spray { next: 0 },
            LeafSpineStrategy::MtpLb => Strategy::mtp_lb(
                spines,
                (1..=spines).map(|p| Some(PathletId(p as u16))).collect(),
            ),
            LeafSpineStrategy::MtpConga => Strategy::conga_lb(
                spines,
                Box::new(move |addr| ((addr as usize - 1) / hpl) as u16),
            ),
        },
        to_spec(*host_link),
        to_spec(*spine_link),
        strategy == LeafSpineStrategy::MtpConga,
    );
    let mut sim = ls.sim;
    let names = Names {
        pairs: Vec::new(),
        links: Vec::new(),
        nodes: ls
            .spines
            .iter()
            .enumerate()
            .map(|(i, &n)| (format!("spine{i}"), n))
            .collect(),
    };
    let mut drv = FaultDriver::new(build_schedule(&s.faults, &names, seed));
    drv.run_until(&mut sim, us(s.horizon_us));

    let (records, timeouts, retransmissions, ledgers);
    if let Workload::Permutation { .. } = s.workload {
        // Every host's sender half against the sink half it sends to.
        let hosts: Vec<&MtpDuplexHost> = ls.hosts.iter().map(|&h| sim.node_as(h)).collect();
        (records, timeouts, retransmissions) = sender_totals(hosts.iter().map(|h| &h.sender));
        ledgers = (0..n)
            .map(|k| Ledger::capture([&hosts[k].sender], &hosts[(k + hpl) % n].sink))
            .collect();
    } else {
        // One ledger across the fan-in: all senders' completions against
        // the single sink's deliveries.
        let (sink, senders) = ls.hosts.split_first().expect("the aggregator is host 0");
        let senders = senders.iter().map(|&h| sim.node_as::<MtpSenderNode>(h));
        (records, timeouts, retransmissions) = sender_totals(senders.clone());
        ledgers = vec![Ledger::capture(senders, sim.node_as(*sink))];
    }
    Measured {
        sim,
        records,
        timeouts,
        retransmissions,
        goodput_series: None,
        tenant_goodput: None,
        path_tx_bytes: None,
        corruption: None,
        proxy: None,
        ledgers,
    }
}

/// Sink goodput bin, and the proxy's buffer sampling bin, of a proxy
/// cell.
const PROXY_BIN_US: u64 = 100;

/// A proxy cell: a TCP client, a TCP-terminating proxy and a sink in a
/// line, the proxy's buffer sampled at the end of every 100 us bin. Both
/// connections start established, without a SYN handshake. The client is
/// connection 1 from address 1, the proxy's server side connection 2.
fn run_proxy(s: &Scenario, p: Protocol, seed: u64) -> Measured {
    let Topology::Proxy {
        client,
        server,
        window_cap_kb,
    } = &s.topology
    else {
        unreachable!("caller dispatched on topology")
    };
    let (client, server) = (to_spec(*client), to_spec(*server));
    let cfg = TcpConfig {
        handshake: false,
        ..tcp_cfg(p)
    };
    let mut sim = Simulator::new(seed);
    let schedule = single_flow_schedule(s, seed, &client);
    let snd = sim.add_node(Box::new(TcpSenderNode::new(
        cfg.clone(),
        TcpWorkloadMode::Persistent,
        1,
        schedule,
    )));
    let relay_cap = window_cap_kb.map(|kb| kb * 1024);
    let proxy = TcpProxyNode::new(cfg.clone(), cfg.clone(), 1, 2, relay_cap);
    let proxy = sim.add_node(Box::new(proxy));
    let bin = Duration::from_micros(PROXY_BIN_US);
    let sink = sim.add_node(Box::new(TcpSinkNode::new(cfg, bin)));
    for (a, port, b, l) in [(snd, 0, proxy, client), (proxy, 1, sink, server)] {
        sim.connect(a, PortId(port), b, PortId(0), l.link_cfg(), l.link_cfg());
    }

    // The schema refuses every fault on a proxy, so there is no driver.
    let mut buffered_series_bytes = Vec::new();
    let mut t = 0;
    while t < s.horizon_us {
        t = (t + PROXY_BIN_US).min(s.horizon_us);
        sim.run_until(us(t));
        buffered_series_bytes.push(sim.node_as::<TcpProxyNode>(proxy).buffered_bytes());
    }

    let relay = sim.node_as::<TcpProxyNode>(proxy);
    let report = ProxyReport {
        buffered_series_bytes,
        max_buffered_bytes: relay.max_buffered,
        relayed_bytes: relay.relayed,
        server_timeouts: relay.server_timeouts(),
        server_retransmissions: relay.server_retransmissions(),
    };
    let client = sim.node_as::<TcpSenderNode>(snd);
    let records = (client.msgs.iter())
        .map(|m| (m.submitted, m.completed, m.size))
        .collect();
    let (timeouts, retransmissions) = (client.timeouts(), client.retransmissions());
    let goodput_series = sim.node_as::<TcpSinkNode>(sink).goodput.rates_gbps();
    Measured {
        sim,
        records,
        timeouts,
        retransmissions,
        goodput_series: Some(goodput_series),
        tenant_goodput: None,
        path_tx_bytes: None,
        corruption: None,
        proxy: Some(report),
        ledgers: Vec::new(),
    }
}

// ---------------------------------------------------------------- check

fn check_cell_asserts(
    c: &CellAsserts,
    p: Protocol,
    r: &CellResult,
    m: &Measured,
    out: &mut Vec<String>,
) {
    if c.exactly_once {
        // TCP keeps no delivery ledger: every transfer must complete.
        if p != Protocol::Mtp && r.unfinished > 0 {
            out.push("assert exactly_once: tcp sender did not complete every transfer".into());
        }
        let several = m.ledgers.len() > 1;
        for (i, l) in m.ledgers.iter().enumerate() {
            let pair = if several {
                format!("pair {i}: ")
            } else {
                String::new()
            };
            out.extend(
                l.check_exactly_once()
                    .into_iter()
                    .map(|v| format!("assert exactly_once: {pair}{v}")),
            );
        }
    }
    if let Some(want) = c.completed {
        if r.completed != want {
            out.push(format!(
                "assert completed: expected {want}, got {}",
                r.completed
            ));
        }
    }
    if let Some(min) = c.completed_min {
        if r.completed < min {
            out.push(format!(
                "assert completed_min: expected >= {min}, got {}",
                r.completed
            ));
        }
    }
    if let Some(min) = c.during_window_min {
        let got = r.during_window.unwrap_or(0);
        if got < min {
            out.push(format!(
                "assert during_window_min: expected >= {min}, got {got}"
            ));
        }
    }
    if let Some(max) = c.during_window_max {
        let got = r.during_window.unwrap_or(0);
        if got > max {
            out.push(format!(
                "assert during_window_max: expected <= {max}, got {got}"
            ));
        }
    }
    if let Some(bound) = c.p50_max_us {
        match r.p50_us {
            Some(v) if v <= bound => {}
            Some(v) => out.push(format!("assert p50_max_us: expected <= {bound}, got {v}")),
            None => out.push(format!(
                "assert p50_max_us: expected <= {bound}, but nothing completed"
            )),
        }
    }
    if let Some(bound) = c.p99_max_us {
        match r.p99_us {
            Some(v) if v <= bound => {}
            Some(v) => out.push(format!("assert p99_max_us: expected <= {bound}, got {v}")),
            None => out.push(format!(
                "assert p99_max_us: expected <= {bound}, but nothing completed"
            )),
        }
    }
    if let Some(max) = c.timeouts_max {
        if r.timeouts > max {
            out.push(format!(
                "assert timeouts_max: expected <= {max}, got {}",
                r.timeouts
            ));
        }
    }
    if let Some(max) = c.tenant_ratio_max {
        // The schema guarantees at least two tenants.
        let t = r.tenant_goodput_gbps.as_deref().unwrap_or_default();
        let (lo, hi) = t.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &g| {
            (lo.min(g), hi.max(g))
        });
        let ratio = hi / lo;
        if ratio.is_nan() || ratio > max {
            out.push(format!(
                "assert tenant_ratio_max: expected <= {max}, got {ratio:.3}"
            ));
        }
    }
    if let Some(min) = c.goodput_mean_min_gbps {
        match r.goodput_mean_gbps {
            Some(v) if v >= min => {}
            Some(v) => out.push(format!(
                "assert goodput_mean_min_gbps: expected >= {min}, got {v:.3}"
            )),
            None => out.push(format!(
                "assert goodput_mean_min_gbps: expected >= {min}, but no goodput series"
            )),
        }
    }
}

/// Fig. 5's convergence rule. The series splits into phases of
/// `bins_per_phase` bins, path A first; for every return to path A, the
/// time until goodput first reaches `threshold_gbps` (a whole phase when
/// it never does), averaged.
fn mean_recovery_us(
    series: &[f64],
    bins_per_phase: usize,
    bin_us: f64,
    threshold_gbps: f64,
) -> f64 {
    let (sum, n) = series
        .chunks_exact(bins_per_phase)
        .step_by(2)
        .skip(1)
        .map(|phase| {
            let bins = phase.iter().position(|&r| r >= threshold_gbps);
            bins.unwrap_or(bins_per_phase) as f64 * bin_us
        })
        .fold((0.0, 0usize), |(sum, n), t| (sum + t, n + 1));
    sum / n.max(1) as f64
}

/// Build, run, measure, and check one cell. Never panics on assertion
/// failure — violations come back inside the result.
pub fn execute_cell(s: &Scenario, p: Protocol, seed: u64) -> CellRun {
    let mut m = match &s.topology {
        Topology::Diamond { .. } | Topology::TwoPath { .. } => run_parallel_paths(s, p, seed),
        Topology::Dumbbell { .. } => run_dumbbell(s, p, seed),
        Topology::LeafSpine { .. } => run_leaf_spine(s, seed),
        Topology::Proxy { .. } => run_proxy(s, p, seed),
    };

    let stats = completion_stats(
        m.records.iter().copied(),
        s.asserts.window_us,
        s.asserts.fct_below_bytes,
    );
    let warm = s.asserts.warmup_bins as usize;
    let goodput_mean = m.goodput_series.as_ref().map(|series| {
        let tail = &series[warm.min(series.len())..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    });
    let recovery_us = match (&s.topology, &m.goodput_series) {
        (
            Topology::TwoPath {
                a,
                strategy: TwoPathStrategy::Alternate { period_us },
                goodput_bin_us,
                ..
            },
            Some(series),
        ) => Some(mean_recovery_us(
            series,
            (period_us / goodput_bin_us) as usize,
            *goodput_bin_us as f64,
            0.8 * a.rate_gbps as f64,
        )),
        _ => None,
    };
    let digest = fnv64(&cell_dump(
        &m.sim,
        m.records.iter().map(|&(s, c, _)| (s, c)),
    ));

    let mut r = CellResult {
        scenario: s.name.clone(),
        protocol: p.key().to_string(),
        seed,
        completed: stats.completed as u64,
        unfinished: (m.records.len() - stats.completed) as u64,
        during_window: s.asserts.window_us.map(|_| stats.during_window as u64),
        p50_us: stats.p50_us,
        p99_us: stats.p99_us,
        timeouts: m.timeouts,
        retransmissions: m.retransmissions,
        goodput_mean_gbps: goodput_mean,
        goodput_series_gbps: m.goodput_series.take(),
        tenant_goodput_gbps: m.tenant_goodput.take(),
        recovery_us,
        path_tx_bytes: m.path_tx_bytes,
        corrupted_frames: m.corruption.as_ref().map(|c| c.corrupted),
        proxy: m.proxy.take(),
        digest,
        violations: Vec::new(),
    };

    let mut v = Vec::new();
    check_asserts(&s.asserts, p, seed, &r, &m, &mut v);
    r.violations = v;
    CellRun {
        result: r,
        ledgers: m.ledgers,
    }
}

fn check_asserts(
    a: &Asserts,
    p: Protocol,
    seed: u64,
    r: &CellResult,
    m: &Measured,
    out: &mut Vec<String>,
) {
    if a.conservation {
        let report = m.sim.audit();
        out.extend(
            report
                .violations
                .iter()
                .map(|v| format!("assert conservation: {v}")),
        );
    }
    if let Some(c) = m.corruption.as_ref() {
        if c.corrupted == 0 {
            out.push("assert corruption_accounting: the storm never damaged a frame".to_string());
        } else if c.caught != c.corrupted {
            out.push(format!(
                "assert corruption_accounting: {} accounted for, {} damaged",
                c.caught, c.corrupted
            ));
        }
    }
    if let Some((_, cell)) = a.cells.iter().find(|(proto, _)| *proto == p) {
        check_cell_asserts(cell, p, r, m, out);
    }
    let key = format!("{}/{seed}", p.key());
    if let Some((_, want)) = a.digests.iter().find(|(k, _)| *k == key) {
        if *want != r.digest {
            out.push(format!("assert digests: expected {want}, got {}", r.digest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::from_str;

    fn smoke_scenario() -> Scenario {
        from_str(
            r#"
[scenario]
name = "smoke"
seeds = [3]
horizon_us = 20000
protocols = ["mtp"]

[topology]
kind = "diamond"
[topology.path]
rate_gbps = 10
delay_us = 5

[workload]
kind = "periodic"
count = 4
bytes = 20000
interval_us = 50

[assert]
conservation = true
[assert.cells.mtp]
exactly_once = true
completed = 4
"#,
        )
        .expect("valid scenario")
    }

    #[test]
    fn smoke_cell_passes_and_is_deterministic() {
        let s = smoke_scenario();
        let a = execute_cell(&s, Protocol::Mtp, 3);
        assert!(
            a.result.violations.is_empty(),
            "violations: {:?}",
            a.result.violations
        );
        assert_eq!(a.result.completed, 4);
        let b = execute_cell(&s, Protocol::Mtp, 3);
        assert_eq!(a.result, b.result, "replay must be byte-identical");
        assert_eq!(a.ledgers, b.ledgers);
    }

    /// The one cell function on both node types, without the corpus: the
    /// same small two-path scenario as `mtp` and as `tcp-dctcp`.
    #[test]
    fn one_cell_path_measures_mtp_and_tcp_alike() {
        let s = from_str(
            r#"
[scenario]
name = "two-path-smoke"
seeds = [3]
horizon_us = 20000
protocols = ["mtp", "tcp-dctcp"]

[topology]
kind = "two-path"
strategy = "spray"
goodput_bin_us = 100
[topology.a]
rate_gbps = 10
delay_us = 5
[topology.b]
rate_gbps = 10
delay_us = 5

[workload]
kind = "periodic"
count = 4
bytes = 20000
interval_us = 50

[[fault]]
kind = "link_down"
link = "b_fwd"
at_us = 60
mode = "drain"

[[fault]]
kind = "link_up"
link = "b_fwd"
at_us = 160

[assert]
conservation = true
[assert.cells.mtp]
exactly_once = true
completed = 4
[assert.cells.tcp-dctcp]
exactly_once = true
completed = 4
"#,
        )
        .expect("valid scenario");
        for p in [Protocol::Mtp, Protocol::TcpDctcp] {
            let r = execute_cell(&s, p, 3).result;
            assert!(r.violations.is_empty(), "{p:?}: {:?}", r.violations);
            assert_eq!((r.completed, r.unfinished), (4, 0), "{p:?} records");
            assert!(
                r.goodput_mean_gbps.is_some_and(|g| g > 0.0),
                "{p:?} reports no goodput series"
            );
            assert!(r.p50_us.is_some(), "{p:?} reports no completion times");
            assert!(r.retransmissions > 0, "{p:?}: the b_fwd outage never bit");
        }
    }

    #[test]
    fn unsatisfiable_bound_reports_instead_of_panicking() {
        let mut s = smoke_scenario();
        s.asserts.cells[0].1.completed = Some(9999);
        let r = run_scenario(&s);
        assert!(!r.passed);
        let v = &r.cells[0].violations;
        assert!(
            v.iter().any(|v| v.contains("assert completed")),
            "violations: {v:?}"
        );
    }
}
