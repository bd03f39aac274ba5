//! The typed scenario model.
//!
//! A scenario file composes five ingredients, each a TOML table:
//!
//! * `[scenario]` — name, seeds, horizon, and the protocol matrix;
//! * `[topology]` — which network shape to build and its link parameters;
//! * `[workload]` — what the application submits;
//! * `[[fault]]` — the scripted fault schedule, referring to links and
//!   nodes by the topology's published names;
//! * `[assert]` — the typed pass/fail contract: conservation audit,
//!   exactly-once ledger, corruption accounting, completion counts, FCT
//!   percentile bounds, goodput bounds, and pinned per-cell digests.
//!
//! Decoding is strict: unknown keys anywhere, out-of-range values
//! (zero-latency links, zero-byte messages, >3-bit corruption flips, …),
//! and incompatible combinations (a TCP cell on a topology with no TCP
//! driver, a during-outage bound with no outage window) are all rejected
//! with a [`SchemaError`] naming the offending field. Decode never
//! panics on arbitrary input — the proptest suite pins this.

use std::fmt;

use crate::toml::{format_key, parse, Table, TomlError, Value};

/// A schema-level rejection: which field, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// Dotted path of the offending field (e.g. `topology.path.delay_us`).
    pub field: String,
    /// What is wrong with it.
    pub msg: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario field `{}`: {}", self.field, self.msg)
    }
}

impl std::error::Error for SchemaError {}

/// Any way loading a scenario file can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The bytes were not parseable TOML (subset).
    Parse(TomlError),
    /// The TOML was well-formed but not a valid scenario.
    Schema(SchemaError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "{e}"),
            LoadError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn err(field: impl Into<String>, msg: impl Into<String>) -> SchemaError {
    SchemaError {
        field: field.into(),
        msg: msg.into(),
    }
}

/// One transport contender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// MTP (`mtp-core` sender/sink).
    Mtp,
    /// TCP NewReno.
    TcpNewReno,
    /// DCTCP.
    TcpDctcp,
}

impl Protocol {
    /// The wire name used in scenario files and reports.
    pub fn key(&self) -> &'static str {
        match self {
            Protocol::Mtp => "mtp",
            Protocol::TcpNewReno => "tcp-newreno",
            Protocol::TcpDctcp => "tcp-dctcp",
        }
    }

    fn from_key(s: &str, field: &str) -> Result<Protocol, SchemaError> {
        match s {
            "mtp" => Ok(Protocol::Mtp),
            "tcp-newreno" => Ok(Protocol::TcpNewReno),
            "tcp-dctcp" => Ok(Protocol::TcpDctcp),
            other => Err(err(
                field,
                format!("unknown protocol `{other}` (expected mtp, tcp-newreno, or tcp-dctcp)"),
            )),
        }
    }
}

/// MTP-specific options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MtpOpts {
    /// Enable the endpoint failover machinery.
    pub failover: bool,
}

/// TCP-specific options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpOpts {
    /// Open a fresh connection per message (handshake and slow start
    /// every time, Fig. 3) instead of one persistent connection.
    /// Dumbbell only.
    pub conn_per_message: bool,
}

/// The paper's standard queue: 128 packets, ECN marking from 20.
const DEFAULT_QUEUE_PKTS: u64 = 128;
const DEFAULT_ECN_K: u64 = 20;

/// One link's parameters: rate, delay and its ECN FIFO, by default the
/// paper's standard 128-packet ECN(20) queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Link rate in Gbps (1..=1000).
    pub rate_gbps: u64,
    /// One-way propagation delay in microseconds (1..=1_000_000;
    /// zero-latency links are rejected).
    pub delay_us: u64,
    /// Queue capacity in packets (1..=100_000; default 128).
    pub queue_pkts: u64,
    /// ECN marking threshold in packets (<= `queue_pkts`; default 20).
    pub ecn_k: u64,
}

/// The fan-out strategy at the first-hop switch of a two-path topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPathStrategy {
    /// Switch between the paths every `period_us` (Fig. 5's optical
    /// switch).
    Alternate {
        /// Flip period in microseconds.
        period_us: u64,
    },
    /// Per-message ECMP hashing.
    Ecmp,
    /// Per-packet spray.
    Spray,
    /// The message-aware MTP balancer (Fig. 6); MTP only.
    MtpLb,
}

/// The uplink strategy every leaf of a leaf-spine fabric runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafSpineStrategy {
    /// Per-message ECMP hashing.
    Ecmp,
    /// Per-packet spray.
    Spray,
    /// The message-aware MTP balancer over one pathlet per spine.
    MtpLb,
    /// CONGA-style balancing on the spines' per-destination-leaf
    /// downlink queue depths, snooped from passing ACKs; the only
    /// strategy that makes spines stamp.
    MtpConga,
}

/// How a dumbbell's shared link separates tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    /// Deficit round robin with one band per tenant, classified by the
    /// sender address's tenant (Fig. 7's separate queues).
    Drr,
    /// One FIFO behind a fair-share enforcer on the left switch, which
    /// marks over-share entities (Fig. 7's MTP system); MTP only.
    FairShare,
}

/// The network shape a scenario runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// One sender, one sink, two identical parallel paths; MTP runs the
    /// message-aware load balancer, TCP is pinned to path A. Supports
    /// all protocols.
    Diamond {
        /// Both inter-switch paths.
        path: LinkParams,
    },
    /// One sender, one sink, two (possibly asymmetric) paths with a
    /// scripted fan-out strategy. Supports all protocols except behind
    /// `mtp-lb`.
    TwoPath {
        /// Path A.
        a: LinkParams,
        /// Path B.
        b: LinkParams,
        /// Both host links; `None` is `LinkSpec::host_default()`
        /// (100 Gbps, 1 µs).
        host: Option<LinkParams>,
        /// The first-hop fan-out strategy.
        strategy: TwoPathStrategy,
        /// Sink goodput sampling bin in microseconds.
        goodput_bin_us: u64,
        /// Pathlets sw1 stamps: 2 gives each path its own, 1 stamps both
        /// as path A's (§4: "a single pathlet mimics TCP"); `mtp-lb`
        /// needs 2.
        pathlets: u64,
    },
    /// N sender/receiver pairs through one shared bottleneck. TCP runs
    /// only the `streams` workload there.
    Dumbbell {
        /// Host-to-switch edge links.
        edge: LinkParams,
        /// The shared bottleneck.
        shared: LinkParams,
        /// Sink goodput sampling bin in microseconds.
        goodput_bin_us: u64,
        /// Tenant separation on the shared link; `None` is one FIFO.
        isolation: Option<Isolation>,
        /// The shared link trims overflowing MTP packets to their headers
        /// and queues those ahead of data (§4's NDP), instead of dropping
        /// them; set as `trimming` in `[topology.shared]`. Not with
        /// `isolation`.
        trimming: bool,
    },
    /// A 2-tier Clos fabric (MTP only).
    LeafSpine {
        /// Number of leaf switches (>= 2).
        leaves: u64,
        /// Number of spine switches (>= 1).
        spines: u64,
        /// Hosts per leaf (>= 1).
        hosts_per_leaf: u64,
        /// Host-to-leaf links.
        host_link: LinkParams,
        /// Leaf-to-spine links.
        spine_link: LinkParams,
        /// The leaves' uplink strategy; `None` is `mtp-lb` under
        /// `[mtp] failover` and `ecmp` otherwise.
        strategy: Option<LeafSpineStrategy>,
    },
}

impl Topology {
    /// The wire name of this topology kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Topology::Diamond { .. } => "diamond",
            Topology::TwoPath { .. } => "two-path",
            Topology::Dumbbell { .. } => "dumbbell",
            Topology::LeafSpine { .. } => "leaf-spine",
        }
    }

    /// True when `p` has a driver on this topology running `w`.
    pub fn supports(&self, p: Protocol, w: &Workload) -> bool {
        match self {
            Topology::Diamond { .. } => true,
            Topology::TwoPath { strategy, .. } => {
                p == Protocol::Mtp || *strategy != TwoPathStrategy::MtpLb
            }
            Topology::Dumbbell { isolation, .. } => {
                p == Protocol::Mtp
                    || (matches!(w, Workload::Streams { .. })
                        && *isolation != Some(Isolation::FairShare))
            }
            Topology::LeafSpine { .. } => p == Protocol::Mtp,
        }
    }

    /// Directed-link names fault scripts may reference on this topology.
    pub fn link_names(&self) -> &'static [&'static str] {
        match self {
            Topology::Diamond { .. } => &["a_fwd", "a_rev", "b_fwd", "b_rev"],
            Topology::TwoPath { .. } => &["a_fwd", "b_fwd"],
            Topology::Dumbbell { .. } => &["shared"],
            Topology::LeafSpine { .. } => &[],
        }
    }

    /// Link-*pair* names `cut_both` may reference on this topology.
    pub fn pair_names(&self) -> &'static [&'static str] {
        match self {
            Topology::Diamond { .. } => &["a", "b"],
            _ => &[],
        }
    }

    /// True when `node` is a crashable node name on this topology
    /// (`spine0..spineN` on leaf-spine).
    pub fn node_name_ok(&self, node: &str) -> bool {
        match self {
            Topology::LeafSpine { spines, .. } => match node.strip_prefix("spine") {
                Some(idx) => idx
                    .parse::<u64>()
                    .is_ok_and(|i| i < *spines && idx == i.to_string()),
                None => false,
            },
            _ => false,
        }
    }
}

/// What the application submits.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// `count` messages of `bytes` each, one every `interval_us`
    /// (diamond / two-path).
    Periodic {
        /// Number of messages.
        count: u64,
        /// Message size in bytes.
        bytes: u64,
        /// Submission interval in microseconds.
        interval_us: u64,
    },
    /// One message of `bytes` at t = 0 (diamond / two-path), or
    /// ⌈`bytes` / `chunk_bytes`⌉ messages at that time, the last one short.
    Single {
        /// Message size in bytes.
        bytes: u64,
        /// Alternate two-path only: start at
        /// `(seed × start_step_us) mod alternate_period_us` instead, so
        /// each seed meets the flips at its own phase.
        start_step_us: Option<u64>,
        /// Split `bytes` into messages of this size (blob mode, §3.1.2);
        /// at most 100 000 of them.
        chunk_bytes: Option<u64>,
    },
    /// An open-loop Poisson arrival process at `load` of the host link
    /// until `until_us`, seeded by the cell seed, with bounded-Pareto
    /// (α = 1.1) sizes; an MTP message's priority is its size class
    /// (two-path).
    Poisson {
        /// Offered load as a fraction of the host link (0, 1].
        load: f64,
        /// Smallest message in bytes.
        min_bytes: u64,
        /// Largest message in bytes.
        max_bytes: u64,
        /// Last arrival time, microseconds (<= `horizon_us`).
        until_us: u64,
    },
    /// Elephant and mice tenant classes on a dumbbell: `elephants`
    /// senders each submit one `elephant_bytes` message at t = 0;
    /// `mice` senders each run an open-loop Poisson arrival process at
    /// `mice_load` of the edge capacity with bounded-Pareto sizes.
    Tenants {
        /// Number of elephant senders.
        elephants: u64,
        /// Elephant message size in bytes.
        elephant_bytes: u64,
        /// Number of mice senders.
        mice: u64,
        /// Mice offered load as a fraction of edge capacity (0, 1].
        mice_load: f64,
        /// Smallest mouse message in bytes.
        mice_min_bytes: u64,
        /// Largest mouse message in bytes.
        mice_max_bytes: u64,
    },
    /// Closed-loop streams on a dumbbell: tenant `t` (from 1) runs
    /// `senders[t - 1]` senders, each submitting `messages` messages of
    /// `bytes` one after another, the next when the previous completes.
    Streams {
        /// Senders per tenant, in tenant order (1..=4 tenants of
        /// 1..=16 senders).
        senders: Vec<u64>,
        /// Messages per sender.
        messages: u64,
        /// Message size in bytes.
        bytes: u64,
    },
    /// RPC fan-in rounds on a leaf-spine fabric: every host except the
    /// aggregator (leaf 0, host 0) submits `rounds` messages of `bytes`,
    /// host `k` staggered by `k * stagger_us`, round `m` at
    /// `m * round_gap_us`.
    Fanin {
        /// Rounds per sender.
        rounds: u64,
        /// Message size in bytes.
        bytes: u64,
        /// Per-host stagger in microseconds.
        stagger_us: u64,
        /// Gap between a host's rounds in microseconds.
        round_gap_us: u64,
    },
    /// A cross-leaf permutation on a leaf-spine fabric: every host both
    /// sends and sinks, host `k` sending to host
    /// `(k + hosts_per_leaf) mod n` an open-loop Poisson process at
    /// `load` of the host link until `until_us`, seeded `seed + k`, with
    /// bounded-Pareto sizes; an MTP message's priority is its size class.
    Permutation {
        /// Offered load per host as a fraction of the host link (0, 1].
        load: f64,
        /// Smallest message in bytes.
        min_bytes: u64,
        /// Largest message in bytes.
        max_bytes: u64,
        /// Pareto shape (> 1).
        alpha: f64,
        /// Last arrival time, microseconds (<= `horizon_us`).
        until_us: u64,
    },
}

impl Workload {
    /// The wire name of this workload kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::Periodic { .. } => "periodic",
            Workload::Single { .. } => "single",
            Workload::Poisson { .. } => "poisson",
            Workload::Tenants { .. } => "tenants",
            Workload::Streams { .. } => "streams",
            Workload::Fanin { .. } => "fanin",
            Workload::Permutation { .. } => "permutation",
        }
    }

    /// The tenant (from 1) of each dumbbell sender, in sender order:
    /// every `tenants` sender is a tenant of its own. Empty for workloads
    /// that do not run on the dumbbell.
    pub fn tenant_of_sender(&self) -> Vec<u16> {
        match self {
            Workload::Tenants {
                elephants, mice, ..
            } => (1..=(elephants + mice) as u16).collect(),
            Workload::Streams { senders, .. } => (1..)
                .zip(senders)
                .flat_map(|(t, &n)| std::iter::repeat_n(t, n as usize))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// Link failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Destroy the queue and in-flight packet.
    Blackhole,
    /// Finish accepted packets, refuse new offers.
    Drain,
}

/// One scripted fault, with links/nodes referenced by topology name.
/// Burst/rate seeds are expressed as `seed_xor`: the injected seed is
/// `cell_seed ^ seed_xor`, so every seed in the matrix draws distinct
/// but reproducible damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Cut both directions of a path over `[from_us, to_us)`.
    CutBoth {
        /// Pair name (see [`Topology::pair_names`]).
        link: String,
        /// Cut time, microseconds.
        from_us: u64,
        /// Restore time, microseconds.
        to_us: u64,
        /// Failure mode.
        mode: FailMode,
    },
    /// Take one link direction down at `at_us`.
    LinkDown {
        /// Directed-link name.
        link: String,
        /// Injection time, microseconds.
        at_us: u64,
        /// Failure mode.
        mode: FailMode,
    },
    /// Bring one link direction back up at `at_us`.
    LinkUp {
        /// Directed-link name.
        link: String,
        /// Injection time, microseconds.
        at_us: u64,
    },
    /// Change a link direction's rate and delay at `at_us`.
    Degrade {
        /// Directed-link name.
        link: String,
        /// Injection time, microseconds.
        at_us: u64,
        /// New rate, Gbps.
        rate_gbps: u64,
        /// New one-way delay, microseconds.
        delay_us: u64,
    },
    /// Arm (`ppm > 0`) or disarm (`ppm = 0`) a steady bit-flip rate.
    CorruptRate {
        /// Directed-link name.
        link: String,
        /// Injection time, microseconds.
        at_us: u64,
        /// Damage probability, packets per million.
        ppm: u64,
        /// Bits flipped per damaged packet (0 only when disarming).
        flips: u64,
        /// XORed into the cell seed for the damage RNG.
        seed_xor: u64,
    },
    /// Flip bits in each of the next `pkts` packets and deliver them.
    BitflipBurst {
        /// Directed-link name.
        link: String,
        /// Injection time, microseconds.
        at_us: u64,
        /// Packets to damage.
        pkts: u64,
        /// Bits flipped per packet (1..=3 for exact accounting).
        flips: u64,
        /// XORed into the cell seed.
        seed_xor: u64,
    },
    /// Truncate each of the next `pkts` packets and deliver them.
    TruncateBurst {
        /// Directed-link name.
        link: String,
        /// Injection time, microseconds.
        at_us: u64,
        /// Packets to truncate.
        pkts: u64,
        /// XORed into the cell seed.
        seed_xor: u64,
    },
    /// Crash a node at `from_us`, restart it at `to_us`.
    CrashRestart {
        /// Node name (see [`Topology::node_name_ok`]).
        node: String,
        /// Crash time, microseconds.
        from_us: u64,
        /// Restart time, microseconds.
        to_us: u64,
    },
}

/// Per-protocol assertion bounds. Every field is optional; unset bounds
/// are not checked.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellAsserts {
    /// MTP: the full exactly-once ledger must balance. TCP: the sender
    /// must report `all_done` (every transfer completed).
    pub exactly_once: bool,
    /// Exact completed-message count.
    pub completed: Option<u64>,
    /// Lower bound on completed messages.
    pub completed_min: Option<u64>,
    /// Lower bound on completions inside `assert.window_us`.
    pub during_window_min: Option<u64>,
    /// Upper bound on completions inside `assert.window_us`.
    pub during_window_max: Option<u64>,
    /// Upper bound on the p50 message completion time, microseconds.
    pub p50_max_us: Option<f64>,
    /// Upper bound on the p99 message completion time, microseconds.
    pub p99_max_us: Option<f64>,
    /// Upper bound on sender timeouts.
    pub timeouts_max: Option<u64>,
    /// Lower bound on mean sink goodput (after `assert.warmup_bins`
    /// bins), Gbps.
    pub goodput_mean_min_gbps: Option<f64>,
    /// Upper bound on the largest tenant's goodput over the smallest's
    /// (dumbbell with at least two tenants).
    pub tenant_ratio_max: Option<f64>,
}

/// The scenario's typed pass/fail contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Asserts {
    /// Run the packet/byte conservation audit on every cell.
    pub conservation: bool,
    /// Check the corruption ledger: detected + destroyed == damaged
    /// (diamond only).
    pub corruption_accounting: bool,
    /// The `[from, to)` window `during_window_*` bounds refer to,
    /// microseconds.
    pub window_us: Option<(u64, u64)>,
    /// Goodput bins skipped before the mean (slow-start warmup).
    pub warmup_bins: u64,
    /// When set, `p50_us`/`p99_us` (and their bounds) cover only
    /// messages smaller than this many bytes.
    pub fct_below_bytes: Option<u64>,
    /// Per-protocol bounds, in file order.
    pub cells: Vec<(Protocol, CellAsserts)>,
    /// Pinned cell digests: `("proto/seed", fnv64-hex)`, in file order.
    pub digests: Vec<(String, String)>,
}

impl Default for Asserts {
    fn default() -> Asserts {
        Asserts {
            conservation: true,
            corruption_accounting: false,
            window_us: None,
            warmup_bins: 0,
            fct_below_bytes: None,
            cells: Vec::new(),
            digests: Vec::new(),
        }
    }
}

/// One fully-validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (also the report file stem): `[a-z0-9_-]+`.
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Seeds to run every protocol against.
    pub seeds: Vec<u64>,
    /// Simulation horizon in microseconds.
    pub horizon_us: u64,
    /// The protocol matrix.
    pub protocols: Vec<Protocol>,
    /// MTP options.
    pub mtp: MtpOpts,
    /// TCP options.
    pub tcp: TcpOpts,
    /// The network.
    pub topology: Topology,
    /// The application workload.
    pub workload: Workload,
    /// The scripted fault schedule.
    pub faults: Vec<FaultSpec>,
    /// The pass/fail contract.
    pub asserts: Asserts,
}

// -------------------------------------------------------------- decode

fn field(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// Reject leftover (unknown) keys in `t`.
fn ensure_empty(t: &Table, prefix: &str) -> Result<(), SchemaError> {
    if let Some(k) = t.keys().next() {
        return Err(err(field(prefix, k), "unknown key"));
    }
    Ok(())
}

fn take(t: &mut Table, key: &str, prefix: &str) -> Result<Value, SchemaError> {
    t.remove(key)
        .ok_or_else(|| err(field(prefix, key), "missing required key"))
}

fn as_table(v: Value, f: &str) -> Result<Table, SchemaError> {
    match v {
        Value::Table(t) => Ok(t),
        other => Err(err(
            f,
            format!("expected a table, got {}", other.type_name()),
        )),
    }
}

fn as_str(v: Value, f: &str) -> Result<String, SchemaError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(err(
            f,
            format!("expected a string, got {}", other.type_name()),
        )),
    }
}

fn as_u64(v: Value, f: &str) -> Result<u64, SchemaError> {
    match v {
        Value::Int(i) if i >= 0 => Ok(i as u64),
        Value::Int(i) => Err(err(f, format!("must be non-negative, got {i}"))),
        other => Err(err(
            f,
            format!("expected an integer, got {}", other.type_name()),
        )),
    }
}

fn as_f64(v: Value, f: &str) -> Result<f64, SchemaError> {
    match v {
        Value::Float(x) if x.is_finite() => Ok(x),
        Value::Int(i) => Ok(i as f64),
        Value::Float(_) => Err(err(f, "must be a finite number")),
        other => Err(err(
            f,
            format!("expected a number, got {}", other.type_name()),
        )),
    }
}

fn as_bool(v: Value, f: &str) -> Result<bool, SchemaError> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(err(
            f,
            format!("expected a boolean, got {}", other.type_name()),
        )),
    }
}

fn take_table(t: &mut Table, key: &str, prefix: &str) -> Result<Table, SchemaError> {
    let f = field(prefix, key);
    as_table(take(t, key, prefix)?, &f)
}

fn take_str(t: &mut Table, key: &str, prefix: &str) -> Result<String, SchemaError> {
    let f = field(prefix, key);
    as_str(take(t, key, prefix)?, &f)
}

fn take_u64_in(
    t: &mut Table,
    key: &str,
    prefix: &str,
    lo: u64,
    hi: u64,
) -> Result<u64, SchemaError> {
    let f = field(prefix, key);
    let v = as_u64(take(t, key, prefix)?, &f)?;
    if v < lo || v > hi {
        return Err(err(
            f,
            format!("out of range: must be in {lo}..={hi}, got {v}"),
        ));
    }
    Ok(v)
}

fn take_opt_u64_in(
    t: &mut Table,
    key: &str,
    prefix: &str,
    lo: u64,
    hi: u64,
) -> Result<Option<u64>, SchemaError> {
    let f = field(prefix, key);
    match t.remove(key) {
        None => Ok(None),
        Some(v) => {
            let v = as_u64(v, &f)?;
            if v < lo || v > hi {
                return Err(err(
                    f,
                    format!("out of range: must be in {lo}..={hi}, got {v}"),
                ));
            }
            Ok(Some(v))
        }
    }
}

fn take_opt_f64_min(
    t: &mut Table,
    key: &str,
    prefix: &str,
    lo: f64,
) -> Result<Option<f64>, SchemaError> {
    let f = field(prefix, key);
    match t.remove(key) {
        None => Ok(None),
        Some(v) => {
            let v = as_f64(v, &f)?;
            if v < lo {
                return Err(err(f, format!("out of range: must be >= {lo}, got {v}")));
            }
            Ok(Some(v))
        }
    }
}

/// An offered load: a fraction in (0, 1].
fn take_load(t: &mut Table, key: &str, prefix: &str) -> Result<f64, SchemaError> {
    let f = field(prefix, key);
    let v = as_f64(take(t, key, prefix)?, &f)?;
    if v <= 0.0 || v > 1.0 {
        return Err(err(f, format!("out of range: must be in (0, 1], got {v}")));
    }
    Ok(v)
}

/// A `[min, max]` message-size range in bytes.
fn take_sizes(
    t: &mut Table,
    min_key: &str,
    max_key: &str,
    prefix: &str,
) -> Result<(u64, u64), SchemaError> {
    let min = take_u64_in(t, min_key, prefix, 1, MAX_MSG_BYTES)?;
    let max = take_u64_in(t, max_key, prefix, 1, MAX_MSG_BYTES)?;
    if min > max {
        return Err(err(
            field(prefix, min_key),
            format!("must be <= {max_key} ({max})"),
        ));
    }
    Ok((min, max))
}

fn take_bool_or(
    t: &mut Table,
    key: &str,
    prefix: &str,
    default: bool,
) -> Result<bool, SchemaError> {
    let f = field(prefix, key);
    match t.remove(key) {
        None => Ok(default),
        Some(v) => as_bool(v, &f),
    }
}

/// Largest message MTP's `ScheduledMsg` can carry (u32 byte count).
const MAX_MSG_BYTES: u64 = u32::MAX as u64;
/// Largest `seed_xor`: TOML integers are i64, so anything larger could
/// not be re-read after emission.
const MAX_SEED_XOR: u64 = i64::MAX as u64;
/// Horizon ceiling: 10 simulated seconds.
const MAX_HORIZON_US: u64 = 10_000_000;
/// Most messages a chunked `single` workload may split into.
const MAX_CHUNKS: u64 = 100_000;

fn decode_link(mut t: Table, prefix: &str) -> Result<LinkParams, SchemaError> {
    let rate_gbps = take_u64_in(&mut t, "rate_gbps", prefix, 1, 1_000)?;
    let delay_us = match take_u64_in(&mut t, "delay_us", prefix, 1, 1_000_000) {
        Err(e) if e.msg.starts_with("out of range") => {
            // Name the real constraint for the zero-latency case.
            let f = field(prefix, "delay_us");
            return Err(err(
                f,
                format!("{} (zero-latency links are not supported)", e.msg),
            ));
        }
        other => other?,
    };
    let queue_pkts =
        take_opt_u64_in(&mut t, "queue_pkts", prefix, 1, 100_000)?.unwrap_or(DEFAULT_QUEUE_PKTS);
    let ecn_k = take_opt_u64_in(&mut t, "ecn_k", prefix, 0, 100_000)?.unwrap_or(DEFAULT_ECN_K);
    if ecn_k > queue_pkts {
        return Err(err(
            field(prefix, "ecn_k"),
            format!("must be <= queue_pkts ({queue_pkts}), got {ecn_k}"),
        ));
    }
    ensure_empty(&t, prefix)?;
    Ok(LinkParams {
        rate_gbps,
        delay_us,
        queue_pkts,
        ecn_k,
    })
}

fn take_link(t: &mut Table, key: &str, prefix: &str) -> Result<LinkParams, SchemaError> {
    let f = field(prefix, key);
    decode_link(take_table(t, key, prefix)?, &f)
}

fn decode_topology(mut t: Table) -> Result<Topology, SchemaError> {
    const P: &str = "topology";
    let kind = take_str(&mut t, "kind", P)?;
    let topo = match kind.as_str() {
        "diamond" => Topology::Diamond {
            path: take_link(&mut t, "path", P)?,
        },
        "two-path" => {
            let a = take_link(&mut t, "a", P)?;
            let b = take_link(&mut t, "b", P)?;
            let host = match t.remove("host") {
                None => None,
                Some(v) => Some(decode_link(as_table(v, "topology.host")?, "topology.host")?),
            };
            let goodput_bin_us =
                take_opt_u64_in(&mut t, "goodput_bin_us", P, 1, 1_000_000)?.unwrap_or(100);
            let pathlets = take_opt_u64_in(&mut t, "pathlets", P, 1, 2)?.unwrap_or(2);
            let strategy = match take_str(&mut t, "strategy", P)?.as_str() {
                "alternate" => TwoPathStrategy::Alternate {
                    period_us: take_u64_in(&mut t, "alternate_period_us", P, 1, MAX_HORIZON_US)?,
                },
                "ecmp" => TwoPathStrategy::Ecmp,
                "spray" => TwoPathStrategy::Spray,
                "mtp-lb" => TwoPathStrategy::MtpLb,
                other => {
                    return Err(err(
                        field(P, "strategy"),
                        format!(
                            "unknown strategy `{other}` (expected alternate, ecmp, spray, or mtp-lb)"
                        ),
                    ));
                }
            };
            if pathlets == 1 && strategy == TwoPathStrategy::MtpLb {
                return Err(err(
                    field(P, "pathlets"),
                    "strategy `mtp-lb` balances over two pathlets",
                ));
            }
            Topology::TwoPath {
                a,
                b,
                host,
                strategy,
                goodput_bin_us,
                pathlets,
            }
        }
        "dumbbell" => {
            let edge = take_link(&mut t, "edge", P)?;
            const S: &str = "topology.shared";
            let mut shared = take_table(&mut t, "shared", P)?;
            let trimming = take_bool_or(&mut shared, "trimming", S, false)?;
            let shared = decode_link(shared, S)?;
            let goodput_bin_us =
                take_opt_u64_in(&mut t, "goodput_bin_us", P, 1, 1_000_000)?.unwrap_or(100);
            let isolation = match t.remove("isolation") {
                None => None,
                Some(v) => Some(match as_str(v, "topology.isolation")?.as_str() {
                    "drr" => Isolation::Drr,
                    "fair-share" => Isolation::FairShare,
                    other => {
                        return Err(err(
                            field(P, "isolation"),
                            format!("unknown isolation `{other}` (expected drr or fair-share)"),
                        ));
                    }
                }),
            };
            if trimming && isolation.is_some() {
                return Err(err(
                    field(S, "trimming"),
                    "a trimming queue is one FIFO; it cannot also isolate tenants",
                ));
            }
            Topology::Dumbbell {
                edge,
                shared,
                goodput_bin_us,
                isolation,
                trimming,
            }
        }
        "leaf-spine" => Topology::LeafSpine {
            leaves: take_u64_in(&mut t, "leaves", P, 2, 16)?,
            spines: take_u64_in(&mut t, "spines", P, 1, 16)?,
            hosts_per_leaf: take_u64_in(&mut t, "hosts_per_leaf", P, 1, 16)?,
            host_link: take_link(&mut t, "host_link", P)?,
            spine_link: take_link(&mut t, "spine_link", P)?,
            strategy: match t.remove("strategy") {
                None => None,
                Some(v) => Some(match as_str(v, "topology.strategy")?.as_str() {
                    "ecmp" => LeafSpineStrategy::Ecmp,
                    "spray" => LeafSpineStrategy::Spray,
                    "mtp-lb" => LeafSpineStrategy::MtpLb,
                    "mtp-conga" => LeafSpineStrategy::MtpConga,
                    other => {
                        return Err(err(
                            field(P, "strategy"),
                            format!(
                                "unknown strategy `{other}` (expected ecmp, spray, mtp-lb, or mtp-conga)"
                            ),
                        ));
                    }
                }),
            },
        },
        other => {
            return Err(err(
                field(P, "kind"),
                format!(
                    "unknown topology `{other}` (expected diamond, two-path, dumbbell, or leaf-spine)"
                ),
            ));
        }
    };
    ensure_empty(&t, P)?;
    Ok(topo)
}

fn decode_workload(mut t: Table, horizon_us: u64) -> Result<Workload, SchemaError> {
    const P: &str = "workload";
    let kind = take_str(&mut t, "kind", P)?;
    let w = match kind.as_str() {
        "periodic" => Workload::Periodic {
            count: take_u64_in(&mut t, "count", P, 1, 100_000)?,
            bytes: take_u64_in(&mut t, "bytes", P, 1, MAX_MSG_BYTES)?,
            interval_us: take_u64_in(&mut t, "interval_us", P, 1, MAX_HORIZON_US)?,
        },
        "single" => {
            let bytes = take_u64_in(&mut t, "bytes", P, 1, MAX_MSG_BYTES)?;
            Workload::Single {
                bytes,
                start_step_us: take_opt_u64_in(&mut t, "start_step_us", P, 1, MAX_HORIZON_US)?,
                chunk_bytes: take_opt_u64_in(
                    &mut t,
                    "chunk_bytes",
                    P,
                    bytes.div_ceil(MAX_CHUNKS),
                    bytes,
                )?,
            }
        }
        "poisson" => {
            let load = take_load(&mut t, "load", P)?;
            let (min_bytes, max_bytes) = take_sizes(&mut t, "min_bytes", "max_bytes", P)?;
            Workload::Poisson {
                load,
                min_bytes,
                max_bytes,
                until_us: take_u64_in(&mut t, "until_us", P, 1, horizon_us)?,
            }
        }
        "tenants" => {
            let elephants = take_u64_in(&mut t, "elephants", P, 0, 16)?;
            let elephant_bytes = take_u64_in(&mut t, "elephant_bytes", P, 1, MAX_MSG_BYTES)?;
            let mice = take_u64_in(&mut t, "mice", P, 0, 16)?;
            if elephants + mice == 0 {
                return Err(err(field(P, "elephants"), "need at least one tenant"));
            }
            let mice_load = take_load(&mut t, "mice_load", P)?;
            let (mice_min_bytes, mice_max_bytes) =
                take_sizes(&mut t, "mice_min_bytes", "mice_max_bytes", P)?;
            Workload::Tenants {
                elephants,
                elephant_bytes,
                mice,
                mice_load,
                mice_min_bytes,
                mice_max_bytes,
            }
        }
        "streams" => {
            let f = field(P, "senders");
            let senders = match take(&mut t, "senders", P)? {
                Value::Array(items) if (1..=4).contains(&items.len()) => {
                    let mut out = Vec::new();
                    for v in items {
                        let n = as_u64(v, &f)?;
                        if !(1..=16).contains(&n) {
                            return Err(err(
                                f,
                                format!("out of range: every tenant needs 1..=16 senders, got {n}"),
                            ));
                        }
                        out.push(n);
                    }
                    out
                }
                Value::Array(_) => return Err(err(f, "need 1..=4 tenants")),
                other => {
                    return Err(err(
                        f,
                        format!("expected an array, got {}", other.type_name()),
                    ));
                }
            };
            Workload::Streams {
                senders,
                messages: take_u64_in(&mut t, "messages", P, 1, 100_000)?,
                bytes: take_u64_in(&mut t, "bytes", P, 1, MAX_MSG_BYTES)?,
            }
        }
        "fanin" => Workload::Fanin {
            rounds: take_u64_in(&mut t, "rounds", P, 1, 1_000)?,
            bytes: take_u64_in(&mut t, "bytes", P, 1, MAX_MSG_BYTES)?,
            stagger_us: take_u64_in(&mut t, "stagger_us", P, 0, MAX_HORIZON_US)?,
            round_gap_us: take_u64_in(&mut t, "round_gap_us", P, 1, MAX_HORIZON_US)?,
        },
        "permutation" => {
            let load = take_load(&mut t, "load", P)?;
            let (min_bytes, max_bytes) = take_sizes(&mut t, "min_bytes", "max_bytes", P)?;
            let f = field(P, "alpha");
            let alpha = as_f64(take(&mut t, "alpha", P)?, &f)?;
            if alpha <= 1.0 {
                return Err(err(f, format!("out of range: must be > 1, got {alpha}")));
            }
            Workload::Permutation {
                load,
                min_bytes,
                max_bytes,
                alpha,
                until_us: take_u64_in(&mut t, "until_us", P, 1, horizon_us)?,
            }
        }
        other => {
            return Err(err(
                field(P, "kind"),
                format!(
                    "unknown workload `{other}` (expected periodic, single, poisson, tenants, streams, fanin, or permutation)"
                ),
            ));
        }
    };
    ensure_empty(&t, P)?;
    Ok(w)
}

fn decode_fault(mut t: Table, prefix: &str, horizon_us: u64) -> Result<FaultSpec, SchemaError> {
    let kind = take_str(&mut t, "kind", prefix)?;
    let mode = |t: &mut Table, prefix: &str| -> Result<FailMode, SchemaError> {
        let f = field(prefix, "mode");
        match take_str(t, "mode", prefix)?.as_str() {
            "blackhole" => Ok(FailMode::Blackhole),
            "drain" => Ok(FailMode::Drain),
            other => Err(err(
                f,
                format!("unknown mode `{other}` (expected blackhole or drain)"),
            )),
        }
    };
    let spec = match kind.as_str() {
        "cut_both" => {
            let from_us = take_u64_in(&mut t, "from_us", prefix, 0, horizon_us)?;
            let to_us = take_u64_in(&mut t, "to_us", prefix, 0, horizon_us)?;
            if to_us <= from_us {
                return Err(err(
                    field(prefix, "to_us"),
                    format!("must be > from_us ({from_us}), got {to_us}"),
                ));
            }
            FaultSpec::CutBoth {
                link: take_str(&mut t, "link", prefix)?,
                from_us,
                to_us,
                mode: mode(&mut t, prefix)?,
            }
        }
        "link_down" => FaultSpec::LinkDown {
            link: take_str(&mut t, "link", prefix)?,
            at_us: take_u64_in(&mut t, "at_us", prefix, 0, horizon_us)?,
            mode: mode(&mut t, prefix)?,
        },
        "link_up" => FaultSpec::LinkUp {
            link: take_str(&mut t, "link", prefix)?,
            at_us: take_u64_in(&mut t, "at_us", prefix, 0, horizon_us)?,
        },
        "degrade" => FaultSpec::Degrade {
            link: take_str(&mut t, "link", prefix)?,
            at_us: take_u64_in(&mut t, "at_us", prefix, 0, horizon_us)?,
            rate_gbps: take_u64_in(&mut t, "rate_gbps", prefix, 1, 1_000)?,
            delay_us: take_u64_in(&mut t, "delay_us", prefix, 1, 1_000_000)?,
        },
        "corrupt_rate" => {
            let ppm = take_u64_in(&mut t, "ppm", prefix, 0, 1_000_000)?;
            let flips = take_u64_in(&mut t, "flips", prefix, 0, 3)?;
            if ppm > 0 && flips == 0 {
                return Err(err(field(prefix, "flips"), "must be >= 1 when ppm > 0"));
            }
            FaultSpec::CorruptRate {
                link: take_str(&mut t, "link", prefix)?,
                at_us: take_u64_in(&mut t, "at_us", prefix, 0, horizon_us)?,
                ppm,
                flips,
                seed_xor: take_opt_u64_in(&mut t, "seed_xor", prefix, 0, MAX_SEED_XOR)?
                    .unwrap_or(0),
            }
        }
        "bitflip_burst" => FaultSpec::BitflipBurst {
            link: take_str(&mut t, "link", prefix)?,
            at_us: take_u64_in(&mut t, "at_us", prefix, 0, horizon_us)?,
            pkts: take_u64_in(&mut t, "pkts", prefix, 1, 1_000_000)?,
            flips: take_u64_in(&mut t, "flips", prefix, 1, 3)?,
            seed_xor: take_opt_u64_in(&mut t, "seed_xor", prefix, 0, MAX_SEED_XOR)?.unwrap_or(0),
        },
        "truncate_burst" => FaultSpec::TruncateBurst {
            link: take_str(&mut t, "link", prefix)?,
            at_us: take_u64_in(&mut t, "at_us", prefix, 0, horizon_us)?,
            pkts: take_u64_in(&mut t, "pkts", prefix, 1, 1_000_000)?,
            seed_xor: take_opt_u64_in(&mut t, "seed_xor", prefix, 0, MAX_SEED_XOR)?.unwrap_or(0),
        },
        "crash_restart" => {
            let from_us = take_u64_in(&mut t, "from_us", prefix, 0, horizon_us)?;
            let to_us = take_u64_in(&mut t, "to_us", prefix, 0, horizon_us)?;
            if to_us <= from_us {
                return Err(err(
                    field(prefix, "to_us"),
                    format!("must be > from_us ({from_us}), got {to_us}"),
                ));
            }
            FaultSpec::CrashRestart {
                node: take_str(&mut t, "node", prefix)?,
                from_us,
                to_us,
            }
        }
        other => {
            return Err(err(
                field(prefix, "kind"),
                format!("unknown fault kind `{other}`"),
            ));
        }
    };
    ensure_empty(&t, prefix)?;
    Ok(spec)
}

fn decode_cell_asserts(mut t: Table, prefix: &str) -> Result<CellAsserts, SchemaError> {
    let c = CellAsserts {
        exactly_once: take_bool_or(&mut t, "exactly_once", prefix, false)?,
        completed: take_opt_u64_in(&mut t, "completed", prefix, 0, u64::MAX)?,
        completed_min: take_opt_u64_in(&mut t, "completed_min", prefix, 0, u64::MAX)?,
        during_window_min: take_opt_u64_in(&mut t, "during_window_min", prefix, 0, u64::MAX)?,
        during_window_max: take_opt_u64_in(&mut t, "during_window_max", prefix, 0, u64::MAX)?,
        p50_max_us: take_opt_f64_min(&mut t, "p50_max_us", prefix, 0.0)?,
        p99_max_us: take_opt_f64_min(&mut t, "p99_max_us", prefix, 0.0)?,
        timeouts_max: take_opt_u64_in(&mut t, "timeouts_max", prefix, 0, u64::MAX)?,
        goodput_mean_min_gbps: take_opt_f64_min(&mut t, "goodput_mean_min_gbps", prefix, 0.0)?,
        tenant_ratio_max: take_opt_f64_min(&mut t, "tenant_ratio_max", prefix, 1.0)?,
    };
    ensure_empty(&t, prefix)?;
    Ok(c)
}

fn decode_asserts(mut t: Table) -> Result<Asserts, SchemaError> {
    const P: &str = "assert";
    let conservation = take_bool_or(&mut t, "conservation", P, true)?;
    let corruption_accounting = take_bool_or(&mut t, "corruption_accounting", P, false)?;
    let window_us = match t.remove("window_us") {
        None => None,
        Some(Value::Array(items)) if items.len() == 2 => {
            let f = field(P, "window_us");
            let a = as_u64(items[0].clone(), &f)?;
            let b = as_u64(items[1].clone(), &f)?;
            if b <= a {
                return Err(err(
                    f,
                    format!("window end must be > start, got [{a}, {b}]"),
                ));
            }
            Some((a, b))
        }
        Some(_) => {
            return Err(err(
                field(P, "window_us"),
                "expected a [from_us, to_us] pair",
            ));
        }
    };
    let warmup_bins = take_opt_u64_in(&mut t, "warmup_bins", P, 0, 1_000_000)?.unwrap_or(0);
    let fct_below_bytes = take_opt_u64_in(&mut t, "fct_below_bytes", P, 1, MAX_MSG_BYTES)?;
    let mut cells = Vec::new();
    if let Some(v) = t.remove("cells") {
        let ct = as_table(v, &field(P, "cells"))?;
        for (k, v) in ct.iter() {
            let f = format!("{P}.cells.{k}");
            let proto = Protocol::from_key(k, &f)?;
            cells.push((proto, decode_cell_asserts(as_table(v.clone(), &f)?, &f)?));
        }
    }
    let mut digests = Vec::new();
    if let Some(v) = t.remove("digests") {
        let dt = as_table(v, &field(P, "digests"))?;
        for (k, v) in dt.iter() {
            let f = format!("{P}.digests.{}", format_key(k));
            let hex = as_str(v.clone(), &f)?;
            if hex.len() != 16 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
                return Err(err(f, "digest must be 16 lowercase hex characters"));
            }
            if hex.chars().any(|c| c.is_ascii_uppercase()) {
                return Err(err(f, "digest must be 16 lowercase hex characters"));
            }
            digests.push((k.to_string(), hex));
        }
    }
    ensure_empty(&t, P)?;
    Ok(Asserts {
        conservation,
        corruption_accounting,
        window_us,
        warmup_bins,
        fct_below_bytes,
        cells,
        digests,
    })
}

/// Decode and validate a scenario from parsed TOML.
pub fn from_table(mut root: Table) -> Result<Scenario, SchemaError> {
    const P: &str = "scenario";
    let mut s = take_table(&mut root, "scenario", "")?;
    let name = take_str(&mut s, "name", P)?;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
    {
        return Err(err(
            field(P, "name"),
            "must be non-empty and use only [a-z0-9_-] (it names the report file)",
        ));
    }
    let description = match s.remove("description") {
        None => String::new(),
        Some(v) => as_str(v, &field(P, "description"))?,
    };
    let seeds = {
        let f = field(P, "seeds");
        match take(&mut s, "seeds", P)? {
            Value::Array(items) if !items.is_empty() && items.len() <= 64 => {
                let mut out = Vec::new();
                for v in items {
                    out.push(as_u64(v, &f)?);
                }
                for w in out.windows(2) {
                    if out.iter().filter(|&&x| x == w[0]).count() > 1 {
                        return Err(err(f, format!("duplicate seed {}", w[0])));
                    }
                }
                out
            }
            Value::Array(items) if items.is_empty() => {
                return Err(err(f, "need at least one seed"));
            }
            Value::Array(_) => return Err(err(f, "at most 64 seeds")),
            other => {
                return Err(err(
                    f,
                    format!("expected an array, got {}", other.type_name()),
                ));
            }
        }
    };
    let horizon_us = take_u64_in(&mut s, "horizon_us", P, 1, MAX_HORIZON_US)?;
    let protocols = {
        let f = field(P, "protocols");
        match take(&mut s, "protocols", P)? {
            Value::Array(items) if !items.is_empty() => {
                let mut out: Vec<Protocol> = Vec::new();
                for v in items {
                    let p = Protocol::from_key(&as_str(v, &f)?, &f)?;
                    if out.contains(&p) {
                        return Err(err(f, format!("duplicate protocol `{}`", p.key())));
                    }
                    out.push(p);
                }
                out
            }
            Value::Array(_) => return Err(err(f, "need at least one protocol")),
            other => {
                return Err(err(
                    f,
                    format!("expected an array, got {}", other.type_name()),
                ));
            }
        }
    };
    ensure_empty(&s, P)?;

    let mtp = match root.remove("mtp") {
        None => MtpOpts::default(),
        Some(v) => {
            let mut t = as_table(v, "mtp")?;
            let o = MtpOpts {
                failover: take_bool_or(&mut t, "failover", "mtp", false)?,
            };
            ensure_empty(&t, "mtp")?;
            o
        }
    };
    let tcp = match root.remove("tcp") {
        None => TcpOpts::default(),
        Some(v) => {
            let mut t = as_table(v, "tcp")?;
            let o = TcpOpts {
                conn_per_message: take_bool_or(&mut t, "conn_per_message", "tcp", false)?,
            };
            ensure_empty(&t, "tcp")?;
            o
        }
    };

    let topology = decode_topology(take_table(&mut root, "topology", "")?)?;
    let workload = decode_workload(take_table(&mut root, "workload", "")?, horizon_us)?;

    let mut faults = Vec::new();
    if let Some(v) = root.remove("fault") {
        let items = match v {
            Value::Array(items) => items,
            other => {
                return Err(err(
                    "fault",
                    format!("expected [[fault]] tables, got {}", other.type_name()),
                ));
            }
        };
        for (i, item) in items.into_iter().enumerate() {
            let prefix = format!("fault[{i}]");
            faults.push(decode_fault(as_table(item, &prefix)?, &prefix, horizon_us)?);
        }
    }

    let asserts = match root.remove("assert") {
        None => Asserts::default(),
        Some(v) => decode_asserts(as_table(v, "assert")?)?,
    };
    ensure_empty(&root, "")?;

    let sc = Scenario {
        name,
        description,
        seeds,
        horizon_us,
        protocols,
        mtp,
        tcp,
        topology,
        workload,
        faults,
        asserts,
    };
    validate(&sc)?;
    Ok(sc)
}

/// Cross-field validation: protocol/topology/workload compatibility,
/// link and node references, assertion prerequisites.
fn validate(s: &Scenario) -> Result<(), SchemaError> {
    for p in &s.protocols {
        if !s.topology.supports(*p, &s.workload) {
            let (f, on) = match s.topology {
                Topology::TwoPath { .. } => ("topology.strategy", "strategy `mtp-lb`".to_string()),
                Topology::Dumbbell {
                    isolation: Some(Isolation::FairShare),
                    ..
                } => ("topology.isolation", "isolation `fair-share`".to_string()),
                Topology::Dumbbell { .. } => (
                    "scenario.protocols",
                    format!("topology `dumbbell` with workload `{}`", s.workload.kind()),
                ),
                _ => (
                    "scenario.protocols",
                    format!("topology `{}`", s.topology.kind()),
                ),
            };
            return Err(err(
                f,
                format!(
                    "protocol `{}` has no driver on {on} (only mtp runs there)",
                    p.key()
                ),
            ));
        }
    }
    let workload_ok = matches!(
        (&s.topology, &s.workload),
        (
            Topology::Diamond { .. } | Topology::TwoPath { .. },
            Workload::Periodic { .. } | Workload::Single { .. },
        ) | (Topology::TwoPath { .. }, Workload::Poisson { .. })
            | (
                Topology::Dumbbell { .. },
                Workload::Tenants { .. } | Workload::Streams { .. }
            )
            | (
                Topology::LeafSpine { .. },
                Workload::Fanin { .. } | Workload::Permutation { .. }
            )
    );
    if !workload_ok {
        return Err(err(
            "workload.kind",
            format!(
                "workload `{}` does not run on topology `{}`",
                s.workload.kind(),
                s.topology.kind()
            ),
        ));
    }
    let alternates = matches!(
        s.topology,
        Topology::TwoPath {
            strategy: TwoPathStrategy::Alternate { .. },
            ..
        }
    );
    if matches!(
        s.workload,
        Workload::Single {
            start_step_us: Some(_),
            ..
        }
    ) && !alternates
    {
        return Err(err(
            "workload.start_step_us",
            "a stepped start needs an alternate two-path (it is a phase of the flip period)",
        ));
    }
    if s.tcp.conn_per_message {
        if s.protocols.iter().all(|&p| p == Protocol::Mtp) {
            return Err(err(
                "tcp.conn_per_message",
                "no TCP protocol in scenario.protocols",
            ));
        }
        if !matches!(s.topology, Topology::Dumbbell { .. }) {
            return Err(err(
                "tcp.conn_per_message",
                format!(
                    "only the dumbbell opens a connection per message, not `{}`",
                    s.topology.kind()
                ),
            ));
        }
    }
    for (i, f) in s.faults.iter().enumerate() {
        let prefix = format!("fault[{i}]");
        match f {
            FaultSpec::CutBoth { link, .. } => {
                if !s.topology.pair_names().contains(&link.as_str()) {
                    return Err(err(
                        field(&prefix, "link"),
                        format!(
                            "unknown link pair `{link}` on `{}` (valid: {:?})",
                            s.topology.kind(),
                            s.topology.pair_names()
                        ),
                    ));
                }
            }
            FaultSpec::LinkDown { link, .. }
            | FaultSpec::LinkUp { link, .. }
            | FaultSpec::Degrade { link, .. }
            | FaultSpec::CorruptRate { link, .. }
            | FaultSpec::BitflipBurst { link, .. }
            | FaultSpec::TruncateBurst { link, .. } => {
                if !s.topology.link_names().contains(&link.as_str()) {
                    return Err(err(
                        field(&prefix, "link"),
                        format!(
                            "unknown link `{link}` on `{}` (valid: {:?})",
                            s.topology.kind(),
                            s.topology.link_names()
                        ),
                    ));
                }
            }
            FaultSpec::CrashRestart { node, .. } => {
                if !s.topology.node_name_ok(node) {
                    return Err(err(
                        field(&prefix, "node"),
                        format!("unknown node `{node}` on `{}`", s.topology.kind()),
                    ));
                }
            }
        }
    }
    // Corruption accounting needs hardened-device counters, which the
    // runner reads off the diamond's named switches.
    if s.asserts.corruption_accounting && !matches!(s.topology, Topology::Diamond { .. }) {
        return Err(err(
            "assert.corruption_accounting",
            "only supported on the diamond topology",
        ));
    }
    for (p, c) in &s.asserts.cells {
        let f = format!("assert.cells.{}", p.key());
        if !s.protocols.contains(p) {
            return Err(err(f, "protocol is not in scenario.protocols"));
        }
        if (c.during_window_min.is_some() || c.during_window_max.is_some())
            && s.asserts.window_us.is_none()
        {
            return Err(err(f, "during_window_* bounds need assert.window_us"));
        }
        if c.goodput_mean_min_gbps.is_some()
            && !matches!(
                s.topology,
                Topology::TwoPath { .. } | Topology::Diamond { .. }
            )
        {
            return Err(err(f, "goodput bounds need a single-sink topology"));
        }
        let tenants = s.workload.tenant_of_sender().last().copied().unwrap_or(0);
        if c.tenant_ratio_max.is_some() && tenants < 2 {
            return Err(err(
                format!("{f}.tenant_ratio_max"),
                "needs a dumbbell workload with at least two tenants",
            ));
        }
    }
    for (key, _) in &s.asserts.digests {
        let f = format!("assert.digests.{}", format_key(key));
        let Some((proto, seed)) = key.split_once('/') else {
            return Err(err(f, "digest key must be `protocol/seed`"));
        };
        let p = Protocol::from_key(proto, &f)?;
        if !s.protocols.contains(&p) {
            return Err(err(f, "protocol is not in scenario.protocols"));
        }
        // Canonical spelling only: the runner looks a pin up by
        // `protocol/{seed}`, so `mtp/011` or `mtp/+11` would match no cell.
        let Some(seed) = seed.parse::<u64>().ok().filter(|n| n.to_string() == seed) else {
            return Err(err(f, format!("`{seed}` is not a seed in plain decimal")));
        };
        if !s.seeds.contains(&seed) {
            return Err(err(f, format!("seed {seed} is not in scenario.seeds")));
        }
    }
    Ok(())
}

/// Parse + decode + validate a scenario from TOML text.
pub fn from_str(input: &str) -> Result<Scenario, LoadError> {
    let root = parse(input).map_err(LoadError::Parse)?;
    from_table(root).map_err(LoadError::Schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"
[scenario]
name = "smoke"
seeds = [1]
horizon_us = 1000
protocols = ["mtp"]

[topology]
kind = "diamond"
[topology.path]
rate_gbps = 10
delay_us = 5

[workload]
kind = "periodic"
count = 2
bytes = 1000
interval_us = 10
"#
        .to_string()
    }

    #[test]
    fn minimal_decodes() {
        let s = from_str(&minimal()).expect("decode");
        assert_eq!(s.name, "smoke");
        assert!(s.asserts.conservation);
        assert_eq!(s.topology.kind(), "diamond");
    }

    #[test]
    fn unknown_key_is_named() {
        let doc = minimal() + "\n[extra]\nx = 1\n";
        let e = from_str(&doc).expect_err("unknown table");
        match e {
            LoadError::Schema(e) => assert_eq!(e.field, "extra"),
            other => panic!("wrong error: {other}"),
        }
        let doc = minimal().replace("count = 2", "count = 2\nbogus = 3");
        let e = from_str(&doc).expect_err("unknown key");
        match e {
            LoadError::Schema(e) => assert_eq!(e.field, "workload.bogus"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn zero_latency_link_is_rejected_by_name() {
        let doc = minimal().replace("delay_us = 5", "delay_us = 0");
        let e = from_str(&doc).expect_err("zero latency");
        match e {
            LoadError::Schema(e) => {
                assert_eq!(e.field, "topology.path.delay_us");
                assert!(e.msg.contains("zero-latency"), "{}", e.msg);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn digest_pin_seed_must_be_spelled_as_the_runner_looks_it_up() {
        let pin = |key: &str| {
            from_str(&format!(
                "{}\n[assert.digests]\n\"{key}\" = \"0000000000000000\"\n",
                minimal()
            ))
        };
        pin("mtp/1").expect("canonical key");
        for key in ["mtp/01", "mtp/+1"] {
            match pin(key).expect_err("non-canonical seed") {
                LoadError::Schema(e) => {
                    assert_eq!(e.field, format!("assert.digests.\"{key}\""));
                    assert!(e.msg.contains("not a seed"), "{}", e.msg);
                }
                other => panic!("wrong error: {other}"),
            }
        }
    }

    #[test]
    fn tcp_on_leaf_spine_is_rejected() {
        let doc = r#"
[scenario]
name = "bad"
seeds = [1]
horizon_us = 1000
protocols = ["tcp-dctcp"]

[topology]
kind = "leaf-spine"
leaves = 2
spines = 2
hosts_per_leaf = 2
[topology.host_link]
rate_gbps = 100
delay_us = 1
[topology.spine_link]
rate_gbps = 100
delay_us = 1

[workload]
kind = "fanin"
rounds = 1
bytes = 1000
stagger_us = 1
round_gap_us = 10
"#;
        let e = from_str(doc).expect_err("tcp on clos");
        match e {
            LoadError::Schema(e) => assert_eq!(e.field, "scenario.protocols"),
            other => panic!("wrong error: {other}"),
        }
    }
}
