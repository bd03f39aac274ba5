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

use std::fmt::{self, Display};
use std::ops::RangeInclusive;

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
        PROTOCOLS.name(self)
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// A client, a TCP-terminating proxy and a server in a line (Fig. 2):
    /// the proxy ends the client's connection and re-sends its bytes on
    /// its own to the server. TCP only; both connections start without a
    /// SYN handshake, and the goodput and buffer samples are 100 us bins.
    Proxy {
        /// Client-to-proxy link.
        client: LinkParams,
        /// Proxy-to-server link.
        server: LinkParams,
        /// Cap on the bytes the proxy holds, in KiB; the client's window
        /// shrinks with the free space. `None` is an unlimited window.
        window_cap_kb: Option<u64>,
    },
}

impl Topology {
    /// The wire name of this topology kind.
    pub fn kind(&self) -> &'static str {
        TOPOLOGIES.name(self)
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
            Topology::Proxy { .. } => p != Protocol::Mtp,
        }
    }

    /// True when `w` runs on this topology.
    pub fn runs(&self, w: &Workload) -> bool {
        matches!(
            (self, w),
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
                | (Topology::Proxy { .. }, Workload::Single { .. })
        )
    }

    /// Directed-link names fault scripts may reference on this topology.
    pub fn link_names(&self) -> &'static [&'static str] {
        match self {
            Topology::Diamond { .. } => &["a_fwd", "a_rev", "b_fwd", "b_rev"],
            Topology::TwoPath { .. } => &["a_fwd", "b_fwd"],
            Topology::Dumbbell { .. } => &["shared"],
            Topology::LeafSpine { .. } | Topology::Proxy { .. } => &[],
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
        WORKLOADS.name(self)
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
#[derive(Debug, Clone, PartialEq, Default)]
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

// ---------------------------------------------------------------- keys

/// Largest message MTP's `ScheduledMsg` can carry (u32 byte count).
const MAX_MSG_BYTES: u64 = u32::MAX as u64;
/// Largest integer a scenario file can hold: TOML integers are i64.
const MAX_INT: u64 = i64::MAX as u64;
/// Horizon ceiling: 10 simulated seconds.
const MAX_HORIZON_US: u64 = 10_000_000;
/// Most messages a chunked `single` workload may split into.
const MAX_CHUNKS: u64 = 100_000;
/// Largest proxy window cap, in KiB: 4 GiB, the reach of TCP's 32-bit
/// receive window.
const MAX_WINDOW_KB: u64 = 4 << 20;
/// Most messages one cell may schedule. The corpus's largest upper bound
/// is ≈ 0.26 M (the leaf-spine permutations); a 1.3 ms `tenants` cell
/// that asked for ≈ 2 × 10⁷ aborted the runner growing one sender's
/// queue by 1.88 GB. `periodic` (`count`), `single` (`MAX_CHUNKS`) and
/// `fanin` (255 senders × 1 000 rounds) are held below it by their
/// ranges; the other kinds by [`scheduled_rule`].
const MAX_SCHEDULED: f64 = 1e6;

/// A link before its keys are read.
const BLANK_LINK: LinkParams = LinkParams {
    rate_gbps: 0,
    delay_us: 0,
    queue_pkts: 0,
    ecn_k: 0,
};

/// A sum type's wire names, in the order a refusal lists them.
pub struct Names<T: 'static> {
    /// What a refusal calls the value: "unknown {what} `x`".
    pub what: &'static str,
    /// Whether that refusal lists the expected names.
    pub listed: bool,
    /// Each name and its value; for [`Topology`], [`Workload`] and
    /// [`FaultSpec`] the value is the blank variant the key function
    /// fills.
    pub all: &'static [(&'static str, T)],
}

impl<T> Names<T> {
    /// The wire name of `v`'s variant.
    pub fn name(&self, v: &T) -> &'static str {
        let d = std::mem::discriminant(v);
        self.all
            .iter()
            .find(|(_, b)| std::mem::discriminant(b) == d)
            .map_or("", |(n, _)| n)
    }

    fn value(&self, name: &str) -> Option<&T> {
        self.all.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    fn unknown(&self, other: &str) -> String {
        let msg = format!("unknown {} `{other}`", self.what);
        let names: Vec<&str> = self.all.iter().map(|(n, _)| *n).collect();
        match names.split_last() {
            Some((last, [one])) if self.listed => format!("{msg} (expected {one} or {last})"),
            Some((last, init)) if self.listed => {
                format!("{msg} (expected {}, or {last})", init.join(", "))
            }
            _ => msg,
        }
    }
}

/// The protocols.
pub const PROTOCOLS: Names<Protocol> = Names {
    what: "protocol",
    listed: true,
    all: &[
        ("mtp", Protocol::Mtp),
        ("tcp-newreno", Protocol::TcpNewReno),
        ("tcp-dctcp", Protocol::TcpDctcp),
    ],
};

/// The topology kinds.
#[rustfmt::skip]
pub const TOPOLOGIES: Names<Topology> = Names {
    what: "topology",
    listed: true,
    all: &[
        ("diamond", Topology::Diamond { path: BLANK_LINK }),
        ("two-path", Topology::TwoPath { a: BLANK_LINK, b: BLANK_LINK, host: None, strategy: TwoPathStrategy::Ecmp, goodput_bin_us: 0, pathlets: 0 }),
        ("dumbbell", Topology::Dumbbell { edge: BLANK_LINK, shared: BLANK_LINK, goodput_bin_us: 0, isolation: None, trimming: false }),
        ("leaf-spine", Topology::LeafSpine { leaves: 0, spines: 0, hosts_per_leaf: 0, host_link: BLANK_LINK, spine_link: BLANK_LINK, strategy: None }),
        ("proxy", Topology::Proxy { client: BLANK_LINK, server: BLANK_LINK, window_cap_kb: None }),
    ],
};

/// The two-path fan-out strategies.
pub const TWO_PATH_STRATEGIES: Names<TwoPathStrategy> = Names {
    what: "strategy",
    listed: true,
    all: &[
        ("alternate", TwoPathStrategy::Alternate { period_us: 0 }),
        ("ecmp", TwoPathStrategy::Ecmp),
        ("spray", TwoPathStrategy::Spray),
        ("mtp-lb", TwoPathStrategy::MtpLb),
    ],
};

/// The leaf-spine uplink strategies.
pub const LEAF_SPINE_STRATEGIES: Names<LeafSpineStrategy> = Names {
    what: "strategy",
    listed: true,
    all: &[
        ("ecmp", LeafSpineStrategy::Ecmp),
        ("spray", LeafSpineStrategy::Spray),
        ("mtp-lb", LeafSpineStrategy::MtpLb),
        ("mtp-conga", LeafSpineStrategy::MtpConga),
    ],
};

/// The dumbbell's tenant isolations.
pub const ISOLATIONS: Names<Isolation> = Names {
    what: "isolation",
    listed: true,
    all: &[
        ("drr", Isolation::Drr),
        ("fair-share", Isolation::FairShare),
    ],
};

/// The workload kinds.
#[rustfmt::skip]
pub const WORKLOADS: Names<Workload> = Names {
    what: "workload",
    listed: true,
    all: &[
        ("periodic", Workload::Periodic { count: 0, bytes: 0, interval_us: 0 }),
        ("single", Workload::Single { bytes: 0, start_step_us: None, chunk_bytes: None }),
        ("poisson", Workload::Poisson { load: 0.0, min_bytes: 0, max_bytes: 0, until_us: 0 }),
        ("tenants", Workload::Tenants { elephants: 0, elephant_bytes: 0, mice: 0, mice_load: 0.0, mice_min_bytes: 0, mice_max_bytes: 0 }),
        ("streams", Workload::Streams { senders: Vec::new(), messages: 0, bytes: 0 }),
        ("fanin", Workload::Fanin { rounds: 0, bytes: 0, stagger_us: 0, round_gap_us: 0 }),
        ("permutation", Workload::Permutation { load: 0.0, min_bytes: 0, max_bytes: 0, alpha: 0.0, until_us: 0 }),
    ],
};

/// The fault kinds.
#[rustfmt::skip]
pub const FAULTS: Names<FaultSpec> = Names {
    what: "fault kind",
    listed: false,
    all: &[
        ("cut_both", FaultSpec::CutBoth { link: String::new(), from_us: 0, to_us: 0, mode: FailMode::Blackhole }),
        ("link_down", FaultSpec::LinkDown { link: String::new(), at_us: 0, mode: FailMode::Blackhole }),
        ("link_up", FaultSpec::LinkUp { link: String::new(), at_us: 0 }),
        ("degrade", FaultSpec::Degrade { link: String::new(), at_us: 0, rate_gbps: 0, delay_us: 0 }),
        ("corrupt_rate", FaultSpec::CorruptRate { link: String::new(), at_us: 0, ppm: 0, flips: 0, seed_xor: 0 }),
        ("bitflip_burst", FaultSpec::BitflipBurst { link: String::new(), at_us: 0, pkts: 0, flips: 0, seed_xor: 0 }),
        ("truncate_burst", FaultSpec::TruncateBurst { link: String::new(), at_us: 0, pkts: 0, seed_xor: 0 }),
        ("crash_restart", FaultSpec::CrashRestart { node: String::new(), from_us: 0, to_us: 0 }),
    ],
};

/// The link failure modes.
pub const FAIL_MODES: Names<FailMode> = Names {
    what: "mode",
    listed: true,
    all: &[
        ("blackhole", FailMode::Blackhole),
        ("drain", FailMode::Drain),
    ],
};

impl Default for Topology {
    /// The first kind's blank, as the decoder starts from it.
    fn default() -> Topology {
        TOPOLOGIES.all[0].1.clone()
    }
}

impl Default for Workload {
    /// The first kind's blank, as the decoder starts from it.
    fn default() -> Workload {
        WORKLOADS.all[0].1.clone()
    }
}

impl Default for FaultSpec {
    /// The first kind's blank, as the decoder starts from it.
    fn default() -> FaultSpec {
        FAULTS.all[0].1.clone()
    }
}

/// A range of finite reals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reals {
    /// The bound or more.
    From(f64),
    /// More than the bound.
    Above(f64),
    /// A fraction in (0, 1]: an offered load.
    Fraction,
}

impl Reals {
    /// True when `v` is in the range.
    fn contains(&self, v: f64) -> bool {
        match *self {
            Reals::From(lo) => v >= lo,
            Reals::Above(lo) => v > lo,
            Reals::Fraction => v > 0.0 && v <= 1.0,
        }
    }
}

impl fmt::Display for Reals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reals::From(lo) => write!(f, ">= {lo}"),
            Reals::Above(lo) => write!(f, "> {lo}"),
            Reals::Fraction => write!(f, "in (0, 1]"),
        }
    }
}

/// A list key's length and items, and how their refusals read.
pub struct List {
    /// Items allowed.
    pub len: RangeInclusive<usize>,
    /// The refusal of too few items.
    pub few: &'static str,
    /// The refusal of too many.
    pub many: &'static str,
    /// Each integer item's range.
    pub each: RangeInclusive<u64>,
    /// What an out-of-range item's refusal says it needs.
    pub need: &'static str,
}

const SEEDS: List = List {
    len: 1..=64,
    few: "need at least one seed",
    many: "at most 64 seeds",
    each: 0..=MAX_INT,
    need: "",
};

const SENDERS: List = List {
    len: 1..=4,
    few: "need 1..=4 tenants",
    many: "need 1..=4 tenants",
    each: 1..=16,
    need: "every tenant needs 1..=16 senders",
};

type Walk = Result<(), SchemaError>;

/// One walk over the scenario's keys. Each schema type's key function
/// calls it once per key, in file order, with the key's range and
/// default; `scenario_keys` is the root. A key is in scope exactly where
/// its function lists it.
///
/// The decoder is the library's walk: it reads a TOML table and refuses,
/// by field path, a missing, mistyped, out-of-range or unlisted key. The
/// property suite's emitter, generator and probes are the others. Every
/// walk leaves `v` holding the key's value.
pub trait Keys: Sized {
    /// Whether the optional `key` is given; `set` is whether the value in
    /// hand differs from the key's default.
    fn has(&mut self, key: &str, set: bool) -> bool;
    /// An integer in `range`.
    fn u64(&mut self, key: &str, v: &mut u64, range: RangeInclusive<u64>) -> Walk;
    /// A finite number in `range`.
    fn f64(&mut self, key: &str, v: &mut f64, range: Reals) -> Walk;
    /// A boolean.
    fn bool(&mut self, key: &str, v: &mut bool) -> Walk;
    /// A string.
    fn str(&mut self, key: &str, v: &mut String) -> Walk;
    /// One of `names`; on a sum type's `kind`, its variant.
    fn pick<T: Clone>(&mut self, key: &str, v: &mut T, names: &Names<T>) -> Walk;
    /// A list of integers.
    fn u64s(&mut self, key: &str, v: &mut Vec<u64>, list: &List) -> Walk;
    /// A list of distinct names, at least one.
    fn picks<T: Clone + PartialEq>(&mut self, key: &str, v: &mut Vec<T>, names: &Names<T>) -> Walk;
    /// An optional `[from_us, to_us]` pair.
    fn span(&mut self, key: &str, v: &mut Option<(u64, u64)>) -> Walk;
    /// A nested table, walked by `f`.
    fn table(&mut self, key: &str, f: impl FnOnce(&mut Self) -> Walk) -> Walk;
    /// An optional array of tables (`[[key]]`), each walked by `f`.
    fn tables<T: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<T>,
        f: impl FnMut(&mut Self, &mut T) -> Walk,
    ) -> Walk;
    /// An optional table of tables keyed by one of `names`, each walked
    /// by `f`, in file order.
    fn named<T: Clone, V: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<(T, V)>,
        names: &Names<T>,
        f: impl FnMut(&mut Self, &mut V) -> Walk,
    ) -> Walk;
    /// An optional table of pinned digests: any key, each value 16
    /// lowercase hex digits.
    fn pins(&mut self, key: &str, v: &mut Vec<(String, String)>) -> Walk;
    /// A relationship between keys already walked: refused at `key` with
    /// `msg` unless `ok`. `fix` is the repair that makes it hold: the
    /// decoder and the emitter ignore it, the generator calls it.
    fn rule(&mut self, key: impl Display, ok: bool, msg: impl Display, fix: impl FnOnce()) -> Walk;

    /// An integer in `range`, `default` when absent.
    fn u64_or(&mut self, key: &str, v: &mut u64, range: RangeInclusive<u64>, default: u64) -> Walk {
        or(self, key, v, default, |k, v| k.u64(key, v, range))
    }
    /// A boolean, `default` when absent.
    fn bool_or(&mut self, key: &str, v: &mut bool, default: bool) -> Walk {
        or(self, key, v, default, |k, v| k.bool(key, v))
    }
    /// A string, empty when absent.
    fn str_or(&mut self, key: &str, v: &mut String) -> Walk {
        or(self, key, v, String::new(), |k, v| k.str(key, v))
    }
    /// An optional integer in `range`.
    fn opt_u64(&mut self, key: &str, v: &mut Option<u64>, range: RangeInclusive<u64>) -> Walk {
        or(self, key, v, None, |k, v| {
            k.u64(key, v.get_or_insert(0), range)
        })
    }
    /// An optional number in `range`.
    fn opt_f64(&mut self, key: &str, v: &mut Option<f64>, range: Reals) -> Walk {
        or(self, key, v, None, |k, v| {
            k.f64(key, v.get_or_insert(0.0), range)
        })
    }
    /// An optional one of `names`.
    fn opt_pick<T: Clone + PartialEq>(
        &mut self,
        key: &str,
        v: &mut Option<T>,
        names: &Names<T>,
    ) -> Walk {
        let blank = &names.all[0].1;
        or(self, key, v, None, |k, v| {
            k.pick(key, v.get_or_insert_with(|| blank.clone()), names)
        })
    }
    /// An optional table, walked by `f`.
    fn opt_table<T: Default + PartialEq>(
        &mut self,
        key: &str,
        v: &mut Option<T>,
        f: impl FnOnce(&mut Self, &mut T) -> Walk,
    ) -> Walk {
        or(self, key, v, None, |k, v| {
            k.table(key, |k| f(k, v.get_or_insert_with(T::default)))
        })
    }
    /// A table whose keys keep their defaults when it is absent.
    fn table_or(&mut self, key: &str, f: impl FnOnce(&mut Self) -> Walk) -> Walk {
        if self.has(key, true) {
            return self.table(key, f);
        }
        Ok(())
    }
}

/// `v` through `f` when `key` is given, `default` when it is absent.
fn or<K: Keys, T: PartialEq>(
    k: &mut K,
    key: &str,
    v: &mut T,
    default: T,
    f: impl FnOnce(&mut K, &mut T) -> Walk,
) -> Walk {
    if k.has(key, *v != default) {
        return f(k, v);
    }
    *v = default;
    Ok(())
}

// The key functions are tables, one key a line, so rustfmt leaves them as
// written.

/// A link's rate and delay: a link table's first rows, and a `degrade`
/// fault's new values.
#[rustfmt::skip]
fn rate_delay<K: Keys>(k: &mut K, rate_gbps: &mut u64, delay_us: &mut u64) -> Walk {
    k.u64("rate_gbps", rate_gbps, 1..=1_000)?;
    k.u64("delay_us", delay_us, 1..=1_000_000).map_err(|mut e| {
        if e.msg.starts_with("out of range") {
            e.msg.push_str(" (zero-latency links are not supported)");
        }
        e
    })
}

#[rustfmt::skip]
fn link_keys<K: Keys>(k: &mut K, l: &mut LinkParams) -> Walk {
    rate_delay(k, &mut l.rate_gbps, &mut l.delay_us)?;
    k.u64_or("queue_pkts", &mut l.queue_pkts, 1..=100_000, DEFAULT_QUEUE_PKTS)?;
    k.u64_or("ecn_k", &mut l.ecn_k, 0..=100_000, DEFAULT_ECN_K)?;
    let (queue_pkts, ecn_k) = (l.queue_pkts, l.ecn_k);
    let msg = format_args!("must be <= queue_pkts ({queue_pkts}), got {ecn_k}");
    k.rule("ecn_k", ecn_k <= queue_pkts, msg, || l.ecn_k = queue_pkts)
}

#[rustfmt::skip]
fn topology_keys<K: Keys>(k: &mut K, t: &mut Topology) -> Walk {
    k.pick("kind", t, &TOPOLOGIES)?;
    match t {
        Topology::Diamond { path } => k.table("path", |k| link_keys(k, path)),
        Topology::TwoPath { a, b, host, strategy, goodput_bin_us, pathlets } => {
            k.table("a", |k| link_keys(k, a))?;
            k.table("b", |k| link_keys(k, b))?;
            k.opt_table("host", host, link_keys)?;
            k.u64_or("goodput_bin_us", goodput_bin_us, 1..=1_000_000, 100)?;
            k.u64_or("pathlets", pathlets, 1..=2, 2)?;
            k.pick("strategy", strategy, &TWO_PATH_STRATEGIES)?;
            if let TwoPathStrategy::Alternate { period_us } = strategy {
                k.u64("alternate_period_us", period_us, 1..=MAX_HORIZON_US)?;
                // The runner cuts the goodput series into phases of whole bins.
                let (period, bin) = (*period_us, *goodput_bin_us);
                let msg = format_args!("must be a multiple of goodput_bin_us ({bin}), got {period}");
                k.rule("alternate_period_us", period.is_multiple_of(bin), msg, || *period_us = (period - period % bin).max(bin))?;
            }
            let ok = *pathlets == 2 || *strategy != TwoPathStrategy::MtpLb;
            k.rule("pathlets", ok, "strategy `mtp-lb` balances over two pathlets", || *pathlets = 2)
        }
        Topology::Dumbbell { edge, shared, goodput_bin_us, isolation, trimming } => {
            k.table("edge", |k| link_keys(k, edge))?;
            k.table("shared", |k| {
                k.bool_or("trimming", trimming, false)?;
                link_keys(k, shared)
            })?;
            k.u64_or("goodput_bin_us", goodput_bin_us, 1..=1_000_000, 100)?;
            k.opt_pick("isolation", isolation, &ISOLATIONS)?;
            let msg = "a trimming queue is one FIFO; it cannot also isolate tenants";
            k.rule("shared.trimming", !*trimming || isolation.is_none(), msg, || *trimming = false)
        }
        Topology::LeafSpine { leaves, spines, hosts_per_leaf, host_link, spine_link, strategy } => {
            k.u64("leaves", leaves, 2..=16)?;
            k.u64("spines", spines, 1..=16)?;
            k.u64("hosts_per_leaf", hosts_per_leaf, 1..=16)?;
            k.table("host_link", |k| link_keys(k, host_link))?;
            k.table("spine_link", |k| link_keys(k, spine_link))?;
            k.opt_pick("strategy", strategy, &LEAF_SPINE_STRATEGIES)
        }
        Topology::Proxy { client, server, window_cap_kb } => {
            k.table("client", |k| link_keys(k, client))?;
            k.table("server", |k| link_keys(k, server))?;
            k.opt_u64("window_cap_kb", window_cap_kb, 1..=MAX_WINDOW_KB)
        }
    }
}

/// A `[min, max]` message-size range in bytes.
#[rustfmt::skip]
fn size_keys<K: Keys>(k: &mut K, [lo, hi]: [&str; 2], min: &mut u64, max: &mut u64) -> Walk {
    k.u64(lo, min, 1..=MAX_MSG_BYTES)?;
    k.u64(hi, max, 1..=MAX_MSG_BYTES)?;
    k.rule(lo, *min <= *max, format_args!("must be <= {hi} ({max})"), || *min = *max)
}

/// An upper bound on the messages an open-loop process schedules:
/// `load` of a `rate_gbps` link for `until_us` (125 B per Gbps·µs), none
/// of them smaller than `min_bytes`.
fn open_loop_messages(load: f64, rate_gbps: u64, until_us: u64, min_bytes: u64) -> f64 {
    load * (rate_gbps * 125) as f64 * until_us as f64 / min_bytes as f64
}

/// The cell schedules at most [`MAX_SCHEDULED`] messages: `estimate`,
/// `what` it counts, refused at `key`. The repair divides `scale` (a
/// factor of the estimate) by the whole number that brings it under.
fn scheduled_rule<K: Keys>(
    k: &mut K,
    key: &str,
    estimate: f64,
    what: &str,
    scale: &mut f64,
) -> Walk {
    let msg = format_args!("schedules about {estimate:.3e} messages ({what}), more than the {MAX_SCHEDULED:.0e} a cell may");
    k.rule(key, estimate <= MAX_SCHEDULED, msg, || {
        *scale /= (estimate / MAX_SCHEDULED).floor() + 1.0
    })
}

#[rustfmt::skip]
fn workload_keys<K: Keys>(k: &mut K, w: &mut Workload, t: &Topology, horizon_us: u64) -> Walk {
    const BYTES: RangeInclusive<u64> = 1..=MAX_MSG_BYTES;
    k.pick("kind", w, &WORKLOADS)?;
    let (kind, on) = (w.kind(), t.kind());
    let msg = format_args!("workload `{kind}` does not run on topology `{on}`");
    k.rule("kind", t.runs(w), msg, || {
        if let Some((_, first)) = WORKLOADS.all.iter().find(|(_, b)| t.runs(b)) {
            *w = first.clone();
        }
    })?;
    match w {
        Workload::Periodic { count, bytes, interval_us } => {
            k.u64("count", count, 1..=100_000)?;
            k.u64("bytes", bytes, BYTES)?;
            k.u64("interval_us", interval_us, 1..=MAX_HORIZON_US)
        }
        Workload::Single { bytes, start_step_us, chunk_bytes } => {
            k.u64("bytes", bytes, BYTES)?;
            k.opt_u64("start_step_us", start_step_us, 1..=MAX_HORIZON_US)?;
            let alternates = matches!(t, Topology::TwoPath { strategy: TwoPathStrategy::Alternate { .. }, .. });
            let msg = "a stepped start needs an alternate two-path (it is a phase of the flip period)";
            k.rule("start_step_us", alternates || start_step_us.is_none(), msg, || *start_step_us = None)?;
            k.opt_u64("chunk_bytes", chunk_bytes, bytes.div_ceil(MAX_CHUNKS)..=*bytes)
        }
        Workload::Poisson { load, min_bytes, max_bytes, until_us } => {
            k.f64("load", load, Reals::Fraction)?;
            size_keys(k, ["min_bytes", "max_bytes"], min_bytes, max_bytes)?;
            k.u64("until_us", until_us, 1..=horizon_us)?;
            let host_gbps = match t {
                Topology::TwoPath { host, .. } => host.map_or(100, |h| h.rate_gbps),
                _ => 0,
            };
            let n = open_loop_messages(*load, host_gbps, *until_us, *min_bytes);
            scheduled_rule(k, "load", n, "load × host rate × until_us / min_bytes", load)
        }
        Workload::Tenants {
            elephants, elephant_bytes, mice, mice_load, mice_min_bytes, mice_max_bytes,
        } => {
            k.u64("elephants", elephants, 0..=16)?;
            k.u64("elephant_bytes", elephant_bytes, BYTES)?;
            k.u64("mice", mice, 0..=16)?;
            k.rule("elephants", *elephants + *mice > 0, "need at least one tenant", || *mice = 1)?;
            k.f64("mice_load", mice_load, Reals::Fraction)?;
            size_keys(k, ["mice_min_bytes", "mice_max_bytes"], mice_min_bytes, mice_max_bytes)?;
            // Each mouse offers its load to its own edge link; the at
            // most 16 elephant messages are not worth counting.
            let edge_gbps = if let Topology::Dumbbell { edge, .. } = t { edge.rate_gbps } else { 0 };
            let n = *mice as f64 * open_loop_messages(*mice_load, edge_gbps, horizon_us, *mice_min_bytes);
            let what = "mice × mice_load × edge rate × horizon_us / mice_min_bytes";
            scheduled_rule(k, "mice_load", n, what, mice_load)
        }
        Workload::Streams { senders, messages, bytes } => {
            k.u64s("senders", senders, &SENDERS)?;
            k.u64("messages", messages, 1..=100_000)?;
            let all: u64 = senders.iter().sum();
            let n = all * *messages;
            let msg = format_args!("schedules {n} messages (senders × messages), more than the {MAX_SCHEDULED:.0e} a cell may");
            k.rule("messages", n as f64 <= MAX_SCHEDULED, msg, || *messages = (MAX_SCHEDULED as u64 / all.max(1)).max(1))?;
            k.u64("bytes", bytes, BYTES)
        }
        Workload::Fanin { rounds, bytes, stagger_us, round_gap_us } => {
            k.u64("rounds", rounds, 1..=1_000)?;
            k.u64("bytes", bytes, BYTES)?;
            k.u64("stagger_us", stagger_us, 0..=MAX_HORIZON_US)?;
            k.u64("round_gap_us", round_gap_us, 1..=MAX_HORIZON_US)
        }
        Workload::Permutation { load, min_bytes, max_bytes, alpha, until_us } => {
            k.f64("load", load, Reals::Fraction)?;
            size_keys(k, ["min_bytes", "max_bytes"], min_bytes, max_bytes)?;
            k.f64("alpha", alpha, Reals::Above(1.0))?;
            k.u64("until_us", until_us, 1..=horizon_us)?;
            let (hosts, host_gbps) = match t {
                Topology::LeafSpine { leaves, hosts_per_leaf, host_link, .. } => (leaves * hosts_per_leaf, host_link.rate_gbps),
                _ => (0, 0),
            };
            let n = hosts as f64 * open_loop_messages(*load, host_gbps, *until_us, *min_bytes);
            scheduled_rule(k, "load", n, "hosts × load × host rate × until_us / min_bytes", load)
        }
    }
}

/// A `[from_us, to_us)` fault window inside the horizon.
#[rustfmt::skip]
fn window_keys<K: Keys>(k: &mut K, from_us: &mut u64, to_us: &mut u64, horizon_us: u64) -> Walk {
    k.u64("from_us", from_us, 0..=horizon_us)?;
    k.u64("to_us", to_us, 0..=horizon_us)?;
    let (from, to) = (*from_us, *to_us);
    k.rule("to_us", to > from, format_args!("must be > from_us ({from}), got {to}"), || {
        *from_us = from.min(to).min(horizon_us - 1);
        *to_us = from.max(to).max(*from_us + 1);
    })
}

/// A fault's `link`: one of the names topology `t` publishes for a link,
/// or for a pair of links when `pair`.
#[rustfmt::skip]
fn link_key<K: Keys>(k: &mut K, link: &mut String, t: &Topology, pair: bool) -> Walk {
    let (what, names) = if pair { ("link pair", t.pair_names()) } else { ("link", t.link_names()) };
    k.str("link", link)?;
    let ok = names.contains(&link.as_str());
    // Built only for a refusal: the repair rewrites `link`, so `msg` cannot borrow it.
    let msg = (!ok).then(|| format!("unknown {what} `{link}` on `{}` (valid: {names:?})", t.kind()));
    k.rule("link", ok, msg.unwrap_or_default(), || *link = names[link.len() % names.len()].to_string())
}

#[rustfmt::skip]
fn fault_keys<K: Keys>(k: &mut K, f: &mut FaultSpec, t: &Topology, horizon_us: u64) -> Walk {
    let at = 0..=horizon_us;
    k.pick("kind", f, &FAULTS)?;
    match f {
        FaultSpec::CutBoth { link, from_us, to_us, mode } => {
            window_keys(k, from_us, to_us, horizon_us)?;
            link_key(k, link, t, true)?;
            k.pick("mode", mode, &FAIL_MODES)
        }
        FaultSpec::LinkDown { link, at_us, mode } => {
            link_key(k, link, t, false)?;
            k.u64("at_us", at_us, at)?;
            k.pick("mode", mode, &FAIL_MODES)
        }
        FaultSpec::LinkUp { link, at_us } => {
            link_key(k, link, t, false)?;
            k.u64("at_us", at_us, at)
        }
        FaultSpec::Degrade { link, at_us, rate_gbps, delay_us } => {
            link_key(k, link, t, false)?;
            k.u64("at_us", at_us, at)?;
            rate_delay(k, rate_gbps, delay_us)
        }
        FaultSpec::CorruptRate { link, at_us, ppm, flips, seed_xor } => {
            k.u64("ppm", ppm, 0..=1_000_000)?;
            k.u64("flips", flips, 0..=3)?;
            k.rule("flips", *ppm == 0 || *flips > 0, "must be >= 1 when ppm > 0", || *flips = 1)?;
            link_key(k, link, t, false)?;
            k.u64("at_us", at_us, at)?;
            k.u64_or("seed_xor", seed_xor, 0..=MAX_INT, 0)
        }
        FaultSpec::BitflipBurst { link, at_us, pkts, flips, seed_xor } => {
            link_key(k, link, t, false)?;
            k.u64("at_us", at_us, at)?;
            k.u64("pkts", pkts, 1..=1_000_000)?;
            k.u64("flips", flips, 1..=3)?;
            k.u64_or("seed_xor", seed_xor, 0..=MAX_INT, 0)
        }
        FaultSpec::TruncateBurst { link, at_us, pkts, seed_xor } => {
            link_key(k, link, t, false)?;
            k.u64("at_us", at_us, at)?;
            k.u64("pkts", pkts, 1..=1_000_000)?;
            k.u64_or("seed_xor", seed_xor, 0..=MAX_INT, 0)
        }
        FaultSpec::CrashRestart { node, from_us, to_us } => {
            window_keys(k, from_us, to_us, horizon_us)?;
            k.str("node", node)?;
            let ok = t.node_name_ok(node);
            let msg = (!ok).then(|| format!("unknown node `{node}` on `{}`", t.kind()));
            k.rule("node", ok, msg.unwrap_or_default(), || *node = "spine0".into())
        }
    }
}

#[rustfmt::skip]
fn cell_keys<K: Keys>(k: &mut K, c: &mut CellAsserts) -> Walk {
    const COUNT: RangeInclusive<u64> = 0..=MAX_INT;
    k.bool_or("exactly_once", &mut c.exactly_once, false)?;
    k.opt_u64("completed", &mut c.completed, COUNT)?;
    k.opt_u64("completed_min", &mut c.completed_min, COUNT)?;
    k.opt_u64("during_window_min", &mut c.during_window_min, COUNT)?;
    k.opt_u64("during_window_max", &mut c.during_window_max, COUNT)?;
    k.opt_f64("p50_max_us", &mut c.p50_max_us, Reals::From(0.0))?;
    k.opt_f64("p99_max_us", &mut c.p99_max_us, Reals::From(0.0))?;
    k.opt_u64("timeouts_max", &mut c.timeouts_max, COUNT)?;
    k.opt_f64("goodput_mean_min_gbps", &mut c.goodput_mean_min_gbps, Reals::From(0.0))?;
    k.opt_f64("tenant_ratio_max", &mut c.tenant_ratio_max, Reals::From(1.0))
}

#[rustfmt::skip]
fn assert_keys<K: Keys>(k: &mut K, a: &mut Asserts) -> Walk {
    k.bool_or("conservation", &mut a.conservation, true)?;
    k.bool_or("corruption_accounting", &mut a.corruption_accounting, false)?;
    k.span("window_us", &mut a.window_us)?;
    if let Some((from, to)) = a.window_us {
        let msg = format_args!("window end must be > start, got [{from}, {to}]");
        k.rule("window_us", to > from, msg, || a.window_us = Some((to.min(from.saturating_sub(1)), from.max(1))))?;
    }
    k.u64_or("warmup_bins", &mut a.warmup_bins, 0..=1_000_000, 0)?;
    k.opt_u64("fct_below_bytes", &mut a.fct_below_bytes, 1..=MAX_MSG_BYTES)?;
    k.named("cells", &mut a.cells, &PROTOCOLS, cell_keys)?;
    k.pins("digests", &mut a.digests)
}

/// Every protocol has a driver on the topology running the workload, and
/// `[tcp]`'s per-message connections have a TCP cell and a dumbbell.
#[rustfmt::skip]
fn driver_rules<K: Keys>(k: &mut K, s: &mut Scenario) -> Walk {
    let (t, w) = (&s.topology, &s.workload);
    let alien = s.protocols.iter().copied().find(|&p| !t.supports(p, w));
    let (key, on, name) = match t {
        Topology::TwoPath { .. } => ("topology.strategy", "strategy", "mtp-lb"),
        Topology::Dumbbell { isolation: Some(Isolation::FairShare), .. } => ("topology.isolation", "isolation", "fair-share"),
        Topology::Dumbbell { .. } => ("scenario.protocols", "topology `dumbbell` with workload", w.kind()),
        _ => ("scenario.protocols", "topology", t.kind()),
    };
    let (p, only) = (alien.map_or("", |p| p.key()), if alien == Some(Protocol::Mtp) { "TCP" } else { "mtp" });
    let msg = format_args!("protocol `{p}` has no driver on {on} `{name}` (only {only} runs there)");
    k.rule(key, alien.is_none(), msg, || {
        s.protocols.retain(|&p| t.supports(p, w));
        let first = PROTOCOLS.all.iter().map(|&(_, p)| p).find(|&p| t.supports(p, w));
        if s.protocols.is_empty() { s.protocols.extend(first) }
    })?;
    let tcp = s.protocols.iter().any(|&p| p != Protocol::Mtp);
    let (per_message, on) = (&mut s.tcp.conn_per_message, t.kind());
    let msg = "no TCP protocol in scenario.protocols";
    k.rule("tcp.conn_per_message", !*per_message || tcp, msg, || *per_message = false)?;
    let ok = !*per_message || matches!(t, Topology::Dumbbell { .. });
    let msg = format_args!("only the dumbbell opens a connection per message, not `{on}`");
    k.rule("tcp.conn_per_message", ok, msg, || *per_message = false)
}

/// What `[assert]`'s bounds and pins need from the rest of the file.
#[rustfmt::skip]
fn assert_rules<K: Keys>(k: &mut K, s: &mut Scenario) -> Walk {
    let (a, t, protocols, seeds) = (&mut s.asserts, &s.topology, &s.protocols, &s.seeds);
    // Corruption accounting needs hardened-device counters, which the
    // runner reads off the diamond's named switches.
    let ok = !a.corruption_accounting || matches!(t, Topology::Diamond { .. });
    let msg = "only supported on the diamond topology";
    k.rule("assert.corruption_accounting", ok, msg, || a.corruption_accounting = false)?;
    let stray = a.cells.iter().map(|&(p, _)| p).find(|p| !protocols.contains(p));
    let (key, msg) = (stray.map_or("", |p| p.key()), "protocol is not in scenario.protocols");
    k.rule(format_args!("assert.cells.{key}"), stray.is_none(), msg, || a.cells.retain(|(p, _)| protocols.contains(p)))?;
    for (p, c) in &mut a.cells {
        let key = p.key();
        let ok = c.during_window_min.is_none() && c.during_window_max.is_none() || a.window_us.is_some();
        let msg = "during_window_* bounds need assert.window_us";
        k.rule(format_args!("assert.cells.{key}"), ok, msg, || (c.during_window_min, c.during_window_max) = (None, None))?;
        let ok = c.goodput_mean_min_gbps.is_none() || !matches!(t, Topology::LeafSpine { .. });
        let msg = "leaf-spine cells report no goodput series";
        k.rule(format_args!("assert.cells.{key}.goodput_mean_min_gbps"), ok, msg, || c.goodput_mean_min_gbps = None)?;
        let ok = c.tenant_ratio_max.is_none() || s.workload.tenant_of_sender().last().is_some_and(|&n| n >= 2);
        let msg = "needs a dumbbell workload with at least two tenants";
        k.rule(format_args!("assert.cells.{key}.tenant_ratio_max"), ok, msg, || c.tenant_ratio_max = None)?;
    }
    let bad = a.digests.iter().find_map(|(key, _)| {
        let msg = pin_refusal(key, protocols, seeds)?;
        Some((format!("assert.digests.{}", format_key(key)), msg))
    });
    let (key, msg) = bad.as_ref().map_or(("", ""), |(k, m)| (k.as_str(), m.as_str()));
    k.rule(key, bad.is_none(), msg, || {
        for (i, (key, _)) in a.digests.iter_mut().enumerate() {
            if pin_refusal(key, protocols, seeds).is_some() {
                *key = format!("{}/{}", protocols[i % protocols.len()].key(), seeds[i % seeds.len()]);
            }
        }
        // A table holds each key once.
        a.digests.sort_unstable();
        a.digests.dedup_by(|x, y| x.0 == y.0);
    })
}

/// Why the runner would look up no cell by the pin `key`, if it would not.
fn pin_refusal(key: &str, protocols: &[Protocol], seeds: &[u64]) -> Option<String> {
    let Some((proto, seed)) = key.split_once('/') else {
        return Some("digest key must be `protocol/seed`".into());
    };
    let Some(p) = PROTOCOLS.value(proto) else {
        return Some(PROTOCOLS.unknown(proto));
    };
    if !protocols.contains(p) {
        return Some("protocol is not in scenario.protocols".into());
    }
    // Canonical spelling only: the runner looks a pin up by
    // `protocol/{seed}`, so `mtp/011` or `mtp/+11` would match no cell.
    let Some(seed) = seed.parse::<u64>().ok().filter(|n| n.to_string() == seed) else {
        return Some(format!("`{seed}` is not a seed in plain decimal"));
    };
    (!seeds.contains(&seed)).then(|| format!("seed {seed} is not in scenario.seeds"))
}

/// Every key of a scenario file, in file order, and every relationship
/// between them after the keys it reads: the one declaration the decoder,
/// and the property suite's emitter and generator, walk.
#[rustfmt::skip]
pub fn scenario_keys<K: Keys>(k: &mut K, s: &mut Scenario) -> Walk {
    k.table("scenario", |k| {
        k.str("name", &mut s.name)?;
        let stem = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_';
        let ok = !s.name.is_empty() && s.name.chars().all(stem);
        k.rule("name", ok, "must be non-empty and use only [a-z0-9_-] (it names the report file)", || {
            s.name.retain(stem);
            if s.name.is_empty() { s.name.push('_') }
        })?;
        k.str_or("description", &mut s.description)?;
        k.u64s("seeds", &mut s.seeds, &SEEDS)?;
        let seeds = &s.seeds;
        let dup = seeds.iter().copied().find(|&x| seeds.iter().filter(|&&y| y == x).count() > 1);
        let msg = format_args!("duplicate seed {}", dup.unwrap_or_default());
        k.rule("seeds", dup.is_none(), msg, || {
            s.seeds.sort_unstable();
            s.seeds.dedup();
        })?;
        k.u64("horizon_us", &mut s.horizon_us, 1..=MAX_HORIZON_US)?;
        k.picks("protocols", &mut s.protocols, &PROTOCOLS)
    })?;
    k.table_or("mtp", |k| k.bool_or("failover", &mut s.mtp.failover, false))?;
    k.table_or("tcp", |k| k.bool_or("conn_per_message", &mut s.tcp.conn_per_message, false))?;
    k.table("topology", |k| topology_keys(k, &mut s.topology))?;
    let horizon_us = s.horizon_us;
    k.table("workload", |k| workload_keys(k, &mut s.workload, &s.topology, horizon_us))?;
    driver_rules(k, s)?;
    k.tables("fault", &mut s.faults, |k, f| fault_keys(k, f, &s.topology, horizon_us))?;
    k.table_or("assert", |k| assert_keys(k, &mut s.asserts))?;
    assert_rules(k, s)
}

// -------------------------------------------------------------- decode

fn field(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

fn mistyped(expected: &str, v: &Value) -> String {
    format!("expected {expected}, got {}", v.type_name())
}

/// The decoder: the [`Keys`] walk over one TOML table, `path` naming it
/// in refusals.
struct Decoder {
    t: Table,
    path: String,
}

impl Decoder {
    /// The decoder of table `v`, refused at `path` if it is no table.
    fn open(path: String, v: Value) -> Result<Decoder, SchemaError> {
        match v {
            Value::Table(t) => Ok(Decoder { t, path }),
            other => Err(err(path, mistyped("a table", &other))),
        }
    }

    /// Table `v` at `path`, walked by `f` from a blank `T`.
    fn walk<T: Default>(
        path: String,
        v: Value,
        f: impl FnOnce(&mut Decoder, &mut T) -> Walk,
    ) -> Result<T, SchemaError> {
        let mut d = Decoder::open(path, v)?;
        let mut x = T::default();
        f(&mut d, &mut x)?;
        d.finish()?;
        Ok(x)
    }

    fn fail(&self, key: &str, msg: impl Into<String>) -> SchemaError {
        err(field(&self.path, key), msg)
    }

    fn take(&mut self, key: &str) -> Result<Value, SchemaError> {
        self.t
            .remove(key)
            .ok_or_else(|| self.fail(key, "missing required key"))
    }

    /// Refuse the first key no walk took.
    fn finish(&self) -> Walk {
        match self.t.keys().next() {
            Some(k) => Err(self.fail(k, "unknown key")),
            None => Ok(()),
        }
    }

    fn int(&self, key: &str, v: Value) -> Result<u64, SchemaError> {
        match v {
            Value::Int(i) if i >= 0 => Ok(i as u64),
            Value::Int(i) => Err(self.fail(key, format!("must be non-negative, got {i}"))),
            other => Err(self.fail(key, mistyped("an integer", &other))),
        }
    }

    fn name<'n, T>(&self, key: &str, v: Value, names: &'n Names<T>) -> Result<&'n T, SchemaError> {
        match v {
            Value::Str(s) => names
                .value(&s)
                .ok_or_else(|| self.fail(key, names.unknown(&s))),
            other => Err(self.fail(key, mistyped("a string", &other))),
        }
    }

    /// A list's items, refused with `few` or `many` outside `len`.
    fn list(
        &mut self,
        key: &str,
        len: &RangeInclusive<usize>,
        few: &str,
        many: &str,
    ) -> Result<Vec<Value>, SchemaError> {
        match self.take(key)? {
            Value::Array(items) if items.len() < *len.start() => Err(self.fail(key, few)),
            Value::Array(items) if items.len() > *len.end() => Err(self.fail(key, many)),
            Value::Array(items) => Ok(items),
            other => Err(self.fail(key, mistyped("an array", &other))),
        }
    }
}

impl Keys for Decoder {
    fn has(&mut self, key: &str, _: bool) -> bool {
        self.t.get(key).is_some()
    }

    fn u64(&mut self, key: &str, v: &mut u64, range: RangeInclusive<u64>) -> Walk {
        let x = self.take(key)?;
        *v = self.int(key, x)?;
        if !range.contains(v) {
            let (lo, hi) = range.into_inner();
            return Err(self.fail(
                key,
                format!("out of range: must be in {lo}..={hi}, got {v}"),
            ));
        }
        Ok(())
    }

    fn f64(&mut self, key: &str, v: &mut f64, range: Reals) -> Walk {
        *v = match self.take(key)? {
            Value::Float(x) if x.is_finite() => x,
            Value::Int(i) => i as f64,
            Value::Float(_) => return Err(self.fail(key, "must be a finite number")),
            other => return Err(self.fail(key, mistyped("a number", &other))),
        };
        if !range.contains(*v) {
            return Err(self.fail(key, format!("out of range: must be {range}, got {v}")));
        }
        Ok(())
    }

    fn bool(&mut self, key: &str, v: &mut bool) -> Walk {
        match self.take(key)? {
            Value::Bool(b) => *v = b,
            other => return Err(self.fail(key, mistyped("a boolean", &other))),
        }
        Ok(())
    }

    fn str(&mut self, key: &str, v: &mut String) -> Walk {
        match self.take(key)? {
            Value::Str(s) => *v = s,
            other => return Err(self.fail(key, mistyped("a string", &other))),
        }
        Ok(())
    }

    fn pick<T: Clone>(&mut self, key: &str, v: &mut T, names: &Names<T>) -> Walk {
        let x = self.take(key)?;
        *v = self.name(key, x, names)?.clone();
        Ok(())
    }

    fn u64s(&mut self, key: &str, v: &mut Vec<u64>, list: &List) -> Walk {
        v.clear();
        for x in self.list(key, &list.len, list.few, list.many)? {
            let n = self.int(key, x)?;
            if !list.each.contains(&n) {
                return Err(self.fail(key, format!("out of range: {}, got {n}", list.need)));
            }
            v.push(n);
        }
        Ok(())
    }

    fn picks<T: Clone + PartialEq>(&mut self, key: &str, v: &mut Vec<T>, names: &Names<T>) -> Walk {
        v.clear();
        let items = self.list(key, &(0..=usize::MAX), "", "")?;
        if items.is_empty() {
            return Err(self.fail(key, format!("need at least one {}", names.what)));
        }
        for x in items {
            let p = self.name(key, x, names)?;
            if v.contains(p) {
                let msg = format!("duplicate {} `{}`", names.what, names.name(p));
                return Err(self.fail(key, msg));
            }
            v.push(p.clone());
        }
        Ok(())
    }

    fn span(&mut self, key: &str, v: &mut Option<(u64, u64)>) -> Walk {
        let pair = match self.t.remove(key) {
            None => return Ok(()),
            Some(Value::Array(items)) => <[Value; 2]>::try_from(items).ok(),
            Some(_) => None,
        };
        let Some([from, to]) = pair else {
            return Err(self.fail(key, "expected a [from_us, to_us] pair"));
        };
        *v = Some((self.int(key, from)?, self.int(key, to)?));
        Ok(())
    }

    fn table(&mut self, key: &str, f: impl FnOnce(&mut Self) -> Walk) -> Walk {
        let v = self.take(key)?;
        Decoder::walk(field(&self.path, key), v, |d, ()| f(d))
    }

    fn tables<T: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<T>,
        mut f: impl FnMut(&mut Self, &mut T) -> Walk,
    ) -> Walk {
        let items = match self.t.remove(key) {
            None => return Ok(()),
            Some(Value::Array(items)) => items,
            Some(other) => {
                let msg = mistyped(&format!("[[{key}]] tables"), &other);
                return Err(self.fail(key, msg));
            }
        };
        for (i, item) in items.into_iter().enumerate() {
            let path = format!("{}[{i}]", field(&self.path, key));
            v.push(Decoder::walk(path, item, &mut f)?);
        }
        Ok(())
    }

    fn named<T: Clone, V: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<(T, V)>,
        names: &Names<T>,
        mut f: impl FnMut(&mut Self, &mut V) -> Walk,
    ) -> Walk {
        let Some(x) = self.t.remove(key) else {
            return Ok(());
        };
        let entries = Decoder::open(field(&self.path, key), x)?;
        for (name, x) in entries.t.iter() {
            let path = format!("{}.{name}", entries.path);
            let Some(t) = names.value(name) else {
                return Err(err(path, names.unknown(name)));
            };
            v.push((t.clone(), Decoder::walk(path, x.clone(), &mut f)?));
        }
        Ok(())
    }

    fn pins(&mut self, key: &str, v: &mut Vec<(String, String)>) -> Walk {
        let Some(x) = self.t.remove(key) else {
            return Ok(());
        };
        let pins = Decoder::open(field(&self.path, key), x)?;
        for (k, x) in pins.t.iter() {
            let f = format!("{}.{}", pins.path, format_key(k));
            let Value::Str(hex) = x else {
                return Err(err(f, mistyped("a string", x)));
            };
            let lower_hex = |c: char| c.is_ascii_digit() || ('a'..='f').contains(&c);
            if hex.len() != 16 || !hex.chars().all(lower_hex) {
                return Err(err(f, "digest must be 16 lowercase hex characters"));
            }
            v.push((k.to_string(), hex.clone()));
        }
        Ok(())
    }

    fn rule(&mut self, key: impl Display, ok: bool, msg: impl Display, _: impl FnOnce()) -> Walk {
        if ok {
            return Ok(());
        }
        Err(self.fail(&key.to_string(), msg.to_string()))
    }
}

/// Decode a scenario from parsed TOML: the decoder's walk over
/// [`scenario_keys`], refused at the first key or rule that does not hold.
pub fn from_table(root: Table) -> Result<Scenario, SchemaError> {
    let mut d = Decoder {
        t: root,
        path: String::new(),
    };
    let mut s = Scenario::default();
    scenario_keys(&mut d, &mut s)?;
    d.finish()?;
    Ok(s)
}

/// Parse TOML text and decode it with [`from_table`].
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
