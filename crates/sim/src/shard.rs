//! Sharded parallel execution: several [`Simulator`]s, one per topology
//! shard, advancing in lock-step epochs under conservative lookahead.
//!
//! ## Execution model
//!
//! A partitioner (see `mtp-net`'s `partition` module) cuts a topology at
//! its inter-shard links, replacing each cut directed link with an
//! *egress half* in the transmitting shard and an *ingress half* in the
//! receiving shard (see [`crate::BoundaryKind`]). Every shard then runs
//! its own fully deterministic engine — its own timing wheel, packet
//! pools, RNG, and telemetry registry — on its own thread.
//!
//! Synchronization is classic conservative lookahead (Chandy–Misra–Bryant
//! specialized to a static topology): let `L` be the minimum propagation
//! delay over all boundary links. Shards advance in epochs of at most `L`
//! simulated time and exchange boundary packets only at epoch barriers.
//!
//! **Why this is safe** (the lookahead proof sketch): an epoch ending at
//! barrier `B` covers the half-open interval `(B - step, B]` with
//! `step <= L`. A packet that finishes serializing in the epoch does so at
//! some `t_tx > B - step`; its arrival in the far shard is
//! `t_arr = t_tx + delay >= t_tx + L > B - step + L >= B`. So every
//! boundary arrival produced during an epoch is due *strictly after* that
//! epoch's barrier — injecting them at the barrier never schedules into a
//! shard's past, and no event a shard processed could have depended on a
//! boundary packet it had not yet received. The argument holds for any
//! barrier spacing `<= L`, which is why `run_until` may use a final
//! partial epoch and why audits at any barrier are sound.
//!
//! ## Determinism and the digest merge rule
//!
//! Within a shard, determinism is the engine's own (seeded RNGs, `(time,
//! seq)` event order). Across shards, two rules make the *merged* run
//! reproduce the monolithic one byte-for-byte:
//!
//! * **packet ids**: every node's packet-id namespace is set to its
//!   *global* node id (see [`Simulator::set_pkt_namespace`]), so ids are a
//!   function of `(node, per-node send count)` and never of interleaving;
//! * **canonical injection order**: staged boundary arrivals are injected
//!   at each barrier sorted by `(arrival time, global link id, per-link
//!   crossing count)` — a total order that no thread scheduling can
//!   perturb.
//!
//! The merged digest ([`render_digest`]) sorts per-shard link stats by
//! global link id and per-shard trace events by their full content key
//! `(time, global node, port, packet id, kind)`; the same function applied
//! to a monolithic run (identity maps) must produce the identical string.
//! Caveat: if two *different* events carry the same content key and their
//! relative order affects node behavior (e.g. two boundary packets
//! arriving at one node in the same picosecond), monolithic and sharded
//! runs may process them in different orders. Topologies intended for
//! digest comparison avoid such ties with picosecond-level per-link delay
//! skew; the determinism test matrix is the proof that the fabric
//! workloads are tie-free.
//!
//! ## Conservation under sharding
//!
//! Each shard's own audit runs the extended global law
//! `tx + boundary_in == delivered + faulted + propagating + boundary_out`;
//! [`ShardedSimulator::audit`] additionally checks the runtime-level law
//! that the boundary flows balance:
//! `sum(boundary_out) - sum(boundary_in) == packets staged in the runtime`
//! (and the same in bytes). Boundary packets sitting in the runtime's
//! staging buffers are therefore counted as propagating-between-shards,
//! never lost, and the audit holds mid-epoch at any barrier.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::audit::AuditReport;
use crate::engine::{DirLinkId, LinkStats, Simulator};
use crate::fault::{FaultEvent, FaultKind};
use crate::node::NodeId;
use crate::packet::Packet;
use crate::time::{Duration, Time};
use crate::tracefile::kind_code;

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// Everything needed to build and run one shard of a partitioned topology.
pub struct ShardBuildPlan {
    /// Builds the shard's simulator (nodes, interior links, boundary
    /// half-links, packet-id namespaces, trace setup). Runs *on the
    /// shard's worker thread*, so node types need not be `Send`.
    pub build: Box<dyn FnOnce() -> Simulator + Send>,
    /// Global node id of each local node, indexed by local id.
    pub node_globals: Vec<usize>,
    /// Global directed-link id of each local link, indexed by local id.
    /// Boundary links appear in two shards (egress and ingress halves
    /// share the global id of the cut link).
    pub dir_globals: Vec<usize>,
}

/// One cut directed link: where its egress half lives and where its
/// ingress half lives.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryRoute {
    /// Global id of the cut directed link.
    pub global: usize,
    /// Shard holding the egress half.
    pub src_shard: usize,
    /// Local id of the egress half in `src_shard`.
    pub src_dir: DirLinkId,
    /// Shard holding the ingress half.
    pub dst_shard: usize,
    /// Local id of the ingress half in `dst_shard`.
    pub dst_dir: DirLinkId,
}

/// A partitioned topology, ready to hand to [`ShardedSimulator::new`].
pub struct ShardPlan {
    /// Conservative lookahead: the minimum propagation delay over all
    /// boundary links (must be positive). With no boundary links, any
    /// positive value works (a single shard runs whole epochs).
    pub lookahead: Duration,
    /// One build plan per shard.
    pub shards: Vec<ShardBuildPlan>,
    /// Every cut directed link.
    pub routes: Vec<BoundaryRoute>,
    /// Owner of each global directed link — `(shard, local id)` of the
    /// side that holds its egress state — indexed by global id. Used to
    /// route link-targeted admin (fault) operations.
    pub dir_owner: Vec<(usize, DirLinkId)>,
    /// Owner of each global node: `(shard, local id)`, indexed by global
    /// id. Used to route node-targeted admin operations.
    pub node_owner: Vec<(usize, NodeId)>,
}

// ---------------------------------------------------------------------------
// Fault routing
// ---------------------------------------------------------------------------

/// The shard owning `kind`'s target, plus a copy of `kind` with that
/// shard's local ids.
///
/// # Panics
/// Panics on [`FaultKind::LinkDelay`]: the epoch-safety argument rests on
/// no boundary link being faster than the lookahead, so the sharded
/// runtime does not change link delays at all.
fn route(
    mut kind: FaultKind,
    lookahead: Duration,
    dir_owner: &[(usize, DirLinkId)],
    node_owner: &[(usize, NodeId)],
) -> (usize, FaultKind) {
    let shard = match &mut kind {
        FaultKind::LinkDelay { link, delay } => panic!(
            "link-delay fault on link {} ({} ps): the sharded runtime cannot change link \
             delays, its lookahead ({} ps) is the minimum boundary delay",
            link.0, delay.0, lookahead.0
        ),
        FaultKind::LinkDown { link, .. }
        | FaultKind::LinkUp { link }
        | FaultKind::LinkRate { link, .. }
        | FaultKind::BitflipBurst { link, .. }
        | FaultKind::TruncateBurst { link, .. }
        | FaultKind::CorruptRate { link, .. } => {
            let (shard, local) = dir_owner[link.0];
            *link = local;
            shard
        }
        FaultKind::NodeCrash { node } | FaultKind::NodeRestart { node } => {
            let (shard, local) = node_owner[node.0];
            *node = local;
            shard
        }
    };
    (shard, kind)
}

// ---------------------------------------------------------------------------
// Canonical digests
// ---------------------------------------------------------------------------

/// The digest-relevant content of one simulator, with ids translated to
/// global coordinates so per-shard parts can merge.
#[derive(Debug, Clone)]
pub struct DigestParts {
    /// `(global dir id, stats)` for every link whose egress state this
    /// simulator owns (ingress half-links are skipped — their stats live
    /// with the egress shard).
    pub links: Vec<(usize, LinkStats)>,
    /// Trace events as content keys:
    /// `(time ps, global node, port, packet id, kind code)`.
    pub trace: Vec<(u64, usize, usize, u64, u16)>,
    /// Events processed by this simulator.
    pub events: u64,
    /// This simulator's clock.
    pub now: Time,
    /// Packets delivered to live nodes.
    pub delivered_pkts: u64,
    /// Wire bytes delivered to live nodes.
    pub delivered_bytes: u64,
    /// Packets destroyed on arrival at crashed nodes.
    pub faulted_deliveries: u64,
    /// Wire bytes destroyed on arrival at crashed nodes.
    pub faulted_delivery_bytes: u64,
    /// Corruption-damaged packets the engine destroyed.
    pub corrupted_destroyed: u64,
}

/// Extract [`DigestParts`] from a simulator. `node_globals` and
/// `dir_globals` map local ids to global ones (identity for a monolithic
/// run — see [`monolithic_digest`]).
///
/// # Panics
/// Panics if the trace ring wrapped: a digest over a partial trace window
/// would silently compare incomplete records. Raise the trace cap (or
/// disable tracing; an empty trace is a complete record of nothing).
pub fn digest_parts(sim: &Simulator, node_globals: &[usize], dir_globals: &[usize]) -> DigestParts {
    let mut links = Vec::new();
    for (d, &global) in dir_globals.iter().enumerate().take(sim.num_links()) {
        let dir = DirLinkId(d);
        if sim.link_is_boundary_ingress(dir) {
            continue;
        }
        links.push((global, *sim.link_stats(dir)));
    }
    let trace: Vec<_> = sim
        .trace_events()
        .iter()
        .map(|e| {
            (
                e.time.0,
                node_globals[e.node.0],
                e.port.0,
                e.pkt.0,
                kind_code(e.kind),
            )
        })
        .collect();
    assert!(
        sim.trace_total() == trace.len() as u64,
        "trace ring wrapped ({} recorded, {} retained): digest would be incomplete",
        sim.trace_total(),
        trace.len()
    );
    DigestParts {
        links,
        trace,
        events: sim.events_processed(),
        now: sim.now(),
        delivered_pkts: sim.delivered_pkts(),
        delivered_bytes: sim.delivered_bytes(),
        faulted_deliveries: sim.faulted_deliveries(),
        faulted_delivery_bytes: sim.faulted_delivery_bytes(),
        corrupted_destroyed: sim.corrupted_destroyed(),
    }
}

/// Merge parts (one per shard, or a single monolithic part) into the
/// canonical digest string: link stats sorted by global id, trace events
/// sorted by content key, counters summed, clock = max. A sharded run and
/// its monolithic twin must render byte-identically.
pub fn render_digest(parts: Vec<DigestParts>) -> String {
    let mut links: Vec<(usize, LinkStats)> = Vec::new();
    let mut trace: Vec<(u64, usize, usize, u64, u16)> = Vec::new();
    let mut events = 0u64;
    let mut now = Time::ZERO;
    let (mut dp, mut db, mut fd, mut fdb, mut cd) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for p in parts {
        links.extend(p.links);
        trace.extend(p.trace);
        events += p.events;
        now = now.max(p.now);
        dp += p.delivered_pkts;
        db += p.delivered_bytes;
        fd += p.faulted_deliveries;
        fdb += p.faulted_delivery_bytes;
        cd += p.corrupted_destroyed;
    }
    links.sort_by_key(|&(g, _)| g);
    trace.sort_unstable();
    let mut out = String::new();
    let _ = writeln!(out, "now={} events={}", now.0, events);
    let _ = writeln!(
        out,
        "delivered={dp}/{db} faulted_deliveries={fd}/{fdb} corrupted_destroyed={cd}"
    );
    for (g, s) in &links {
        let _ = writeln!(out, "link {g}: {s:?}");
    }
    let _ = writeln!(out, "trace={}", trace.len());
    for (t, node, port, pkt, kind) in &trace {
        let _ = writeln!(out, "{t} n{node} p{port} pkt{pkt:#x} k{kind}");
    }
    out
}

/// The canonical digest of a monolithic simulator (identity id maps) —
/// the serial side of a parallel == serial comparison.
pub fn monolithic_digest(sim: &Simulator) -> String {
    let nodes: Vec<usize> = (0..sim.num_nodes()).collect();
    let dirs: Vec<usize> = (0..sim.num_links()).collect();
    render_digest(vec![digest_parts(sim, &nodes, &dirs)])
}

// ---------------------------------------------------------------------------
// The sharded runtime
// ---------------------------------------------------------------------------

enum Cmd {
    Advance {
        until: Time,
        inject: Vec<(DirLinkId, Time, Packet)>,
        admin: Vec<FaultEvent>,
    },
    Digest,
    Audit,
    Snapshot,
    Stop,
}

enum Rep {
    Advanced {
        departures: Vec<(DirLinkId, Time, Packet)>,
        events: u64,
        more: bool,
    },
    Digest(Box<DigestParts>),
    Audit(ShardAudit),
    Snapshot(Box<mtp_telemetry::Registry>),
}

struct ShardAudit {
    violations: Vec<String>,
    links: usize,
    laws: usize,
    boundary_out: (u64, u64),
    boundary_in: (u64, u64),
}

struct Worker {
    tx: Sender<Cmd>,
    rx: Receiver<Rep>,
    handle: Option<JoinHandle<()>>,
}

/// A boundary arrival waiting in the runtime for its destination shard's
/// clock to reach it.
struct Staged {
    at: Time,
    /// Global id of the cut link (first tie-break key).
    global_dir: usize,
    /// Per-link crossing count (second tie-break key; preserves per-link
    /// FIFO order, which transmission order already fixed).
    fifo: u64,
    dst_dir: DirLinkId,
    pkt: Packet,
}

fn worker_main(
    build: Box<dyn FnOnce() -> Simulator + Send>,
    node_globals: Vec<usize>,
    dir_globals: Vec<usize>,
    rx: Receiver<Cmd>,
    tx: Sender<Rep>,
) {
    let mut sim = build();
    while let Ok(cmd) = rx.recv() {
        let rep = match cmd {
            Cmd::Advance {
                until,
                inject,
                admin,
            } => {
                // Injections first: every arrival is strictly in this
                // shard's future (the lookahead guarantee), so this only
                // parks packets in ingress rings — nothing dispatches
                // until run_until.
                for (dir, at, pkt) in inject {
                    sim.inject_arrival(dir, at, pkt);
                }
                // Admin events interleave exactly like a fault driver:
                // run to the event's time, apply, continue.
                for ev in admin {
                    sim.run_until(ev.at);
                    ev.kind.apply(&mut sim);
                }
                let more = sim.run_until(until);
                Rep::Advanced {
                    departures: sim.drain_boundary_out(),
                    events: sim.events_processed(),
                    more,
                }
            }
            Cmd::Digest => Rep::Digest(Box::new(digest_parts(&sim, &node_globals, &dir_globals))),
            Cmd::Audit => {
                let r = sim.audit();
                Rep::Audit(ShardAudit {
                    violations: r.violations,
                    links: r.links_checked,
                    laws: r.laws_checked,
                    boundary_out: sim.boundary_out(),
                    boundary_in: sim.boundary_in(),
                })
            }
            Cmd::Snapshot => Rep::Snapshot(Box::new(sim.telemetry().clone())),
            Cmd::Stop => break,
        };
        if tx.send(rep).is_err() {
            break;
        }
    }
}

/// A set of shard simulators advancing in lock-step epochs under
/// conservative lookahead (see the module docs for the model and its
/// safety argument).
///
/// Build one from a [`ShardPlan`] (produced by `mtp-net`'s partitioner),
/// optionally [`schedule_admin`](Self::schedule_admin) fault events with
/// global ids, then drive it with [`run_until`](Self::run_until). At any
/// barrier, [`audit`](Self::audit) checks conservation globally,
/// [`digest`](Self::digest) renders the canonical merged digest, and
/// [`merged_snapshot`](Self::merged_snapshot) merges the per-shard
/// telemetry registries.
pub struct ShardedSimulator {
    lookahead: Duration,
    now: Time,
    workers: Vec<Worker>,
    /// Arrivals staged for each destination shard, not yet injected.
    staged: Vec<Vec<Staged>>,
    staged_pkts: u64,
    staged_bytes: u64,
    /// Per-route crossing counters (indexed like `routes`).
    fifo: Vec<u64>,
    routes: Vec<BoundaryRoute>,
    /// Per source shard: local egress dir id → index into `routes`.
    route_by_src: Vec<HashMap<usize, usize>>,
    dir_owner: Vec<(usize, DirLinkId)>,
    node_owner: Vec<(usize, NodeId)>,
    /// Pending admin events per shard (local ids), sorted by (time,
    /// scheduling order), with a consumed-prefix cursor.
    admin: Vec<Vec<FaultEvent>>,
    admin_cursor: Vec<usize>,
    /// Last-reported events_processed per shard (exact at barriers).
    events: Vec<u64>,
    /// Whether any shard reported pending events at the last barrier.
    live: bool,
}

impl ShardedSimulator {
    /// Spawn one worker thread per shard and build each shard's simulator
    /// on its own thread.
    ///
    /// # Panics
    /// Panics on an empty plan or a non-positive lookahead.
    pub fn new(plan: ShardPlan) -> ShardedSimulator {
        assert!(!plan.shards.is_empty(), "plan has no shards");
        assert!(plan.lookahead.0 > 0, "lookahead must be positive");
        let n = plan.shards.len();
        let mut route_by_src: Vec<HashMap<usize, usize>> = vec![HashMap::new(); n];
        for (i, r) in plan.routes.iter().enumerate() {
            assert!(r.src_shard < n && r.dst_shard < n, "route to unknown shard");
            let prev = route_by_src[r.src_shard].insert(r.src_dir.0, i);
            assert!(prev.is_none(), "two routes share an egress half-link");
        }
        let mut workers = Vec::with_capacity(n);
        for (i, shard) in plan.shards.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = channel();
            let (rep_tx, rep_rx) = channel();
            let handle = std::thread::Builder::new()
                .name(format!("shard-{i}"))
                .spawn(move || {
                    worker_main(
                        shard.build,
                        shard.node_globals,
                        shard.dir_globals,
                        cmd_rx,
                        rep_tx,
                    )
                })
                .expect("spawn shard worker");
            workers.push(Worker {
                tx: cmd_tx,
                rx: rep_rx,
                handle: Some(handle),
            });
        }
        ShardedSimulator {
            lookahead: plan.lookahead,
            now: Time::ZERO,
            workers,
            staged: (0..n).map(|_| Vec::new()).collect(),
            staged_pkts: 0,
            staged_bytes: 0,
            fifo: vec![0; plan.routes.len()],
            routes: plan.routes,
            route_by_src,
            dir_owner: plan.dir_owner,
            node_owner: plan.node_owner,
            admin: (0..n).map(|_| Vec::new()).collect(),
            admin_cursor: vec![0; n],
            events: vec![0; n],
            live: true,
        }
    }

    /// The barrier clock: every shard has processed all events up to and
    /// including this time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The conservative lookahead bound (maximum epoch length).
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// `(packets, bytes)` currently staged in the runtime between shards
    /// (in flight across an epoch barrier).
    pub fn staged_boundary(&self) -> (u64, u64) {
        (self.staged_pkts, self.staged_bytes)
    }

    /// Total events processed across all shards, as of the last barrier.
    pub fn events_processed(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Schedule fault events, addressed with **global** ids; each is
    /// routed to the shard owning its target and applied there at its
    /// exact time with fault-driver interleaving. Must be called before
    /// the run passes the event times.
    ///
    /// # Panics
    /// Panics if any event is already in the past, or is a
    /// [`FaultKind::LinkDelay`] (a delay below the lookahead would break
    /// epoch safety, so the runtime changes none).
    pub fn schedule_admin(&mut self, events: Vec<FaultEvent>) {
        for ev in events {
            assert!(ev.at >= self.now, "admin event scheduled into the past");
            let (shard, kind) = route(ev.kind, self.lookahead, &self.dir_owner, &self.node_owner);
            self.admin[shard].push(FaultEvent { at: ev.at, kind });
        }
        for (q, &cursor) in self.admin.iter_mut().zip(&self.admin_cursor) {
            q[cursor..].sort_by_key(|e| e.at);
        }
    }

    fn recv(&self, shard: usize) -> Rep {
        self.workers[shard]
            .rx
            .recv()
            .unwrap_or_else(|_| panic!("shard {shard} worker died"))
    }

    /// Advance every shard to `target` in lock-step epochs of at most
    /// `lookahead`, exchanging boundary packets at each barrier. Returns
    /// whether any events remain anywhere (in a shard's queue, staged in
    /// the runtime, or pending admin).
    pub fn run_until(&mut self, target: Time) -> bool {
        assert!(target >= self.now, "run_until into the past");
        let n = self.workers.len();
        while self.now < target {
            let until = Time(self.now.0.saturating_add(self.lookahead.0).min(target.0));
            for s in 0..n {
                // Arrivals due this epoch, in canonical order.
                let (mut due, keep): (Vec<Staged>, Vec<Staged>) =
                    self.staged[s].drain(..).partition(|a| a.at <= until);
                self.staged[s] = keep;
                due.sort_by_key(|a| (a.at, a.global_dir, a.fifo));
                let mut inject = Vec::with_capacity(due.len());
                for a in due {
                    self.staged_pkts -= 1;
                    self.staged_bytes -= a.pkt.wire_len as u64;
                    inject.push((a.dst_dir, a.at, a.pkt));
                }
                // Admin events due this epoch (already time-sorted).
                let q = &self.admin[s];
                let mut cursor = self.admin_cursor[s];
                let start = cursor;
                while cursor < q.len() && q[cursor].at <= until {
                    cursor += 1;
                }
                let admin = q[start..cursor].to_vec();
                self.admin_cursor[s] = cursor;
                self.workers[s]
                    .tx
                    .send(Cmd::Advance {
                        until,
                        inject,
                        admin,
                    })
                    .unwrap_or_else(|_| panic!("shard {s} worker died"));
            }
            let mut any_more = false;
            for s in 0..n {
                let Rep::Advanced {
                    departures,
                    events,
                    more,
                } = self.recv(s)
                else {
                    panic!("shard {s}: unexpected reply");
                };
                self.events[s] = events;
                any_more |= more;
                for (src_dir, at, pkt) in departures {
                    let ri = *self.route_by_src[s]
                        .get(&src_dir.0)
                        .expect("departure on unrouted egress half-link");
                    let r = self.routes[ri];
                    debug_assert!(at > until, "boundary arrival not in the future");
                    self.fifo[ri] += 1;
                    self.staged_pkts += 1;
                    self.staged_bytes += pkt.wire_len as u64;
                    self.staged[r.dst_shard].push(Staged {
                        at,
                        global_dir: r.global,
                        fifo: self.fifo[ri],
                        dst_dir: r.dst_dir,
                        pkt,
                    });
                }
            }
            self.now = until;
            self.live = any_more;
            // Idle fast-forward: no shard has events, nothing is staged —
            // nothing can happen before the next admin event (which may
            // wake a shard) or `target`, whichever is first. Jump every
            // clock there in one command instead of grinding empty
            // epochs. Safe regardless of the lookahead: with no pending
            // events anywhere, no packet can be transmitted (and hence
            // none can cross a boundary) in the skipped interval.
            if !self.live && self.staged_pkts == 0 && self.now < target {
                let next_admin = self
                    .admin
                    .iter()
                    .zip(&self.admin_cursor)
                    .filter_map(|(q, &c)| q.get(c).map(|e| e.at))
                    .min();
                let jump = match next_admin {
                    Some(at) if at <= target => at,
                    _ => target,
                };
                if jump > self.now {
                    for s in 0..n {
                        self.workers[s]
                            .tx
                            .send(Cmd::Advance {
                                until: jump,
                                inject: Vec::new(),
                                admin: Vec::new(),
                            })
                            .unwrap_or_else(|_| panic!("shard {s} worker died"));
                    }
                    for s in 0..n {
                        let Rep::Advanced {
                            departures,
                            events,
                            more,
                        } = self.recv(s)
                        else {
                            panic!("shard {s}: unexpected reply");
                        };
                        debug_assert!(departures.is_empty(), "idle shard produced packets");
                        self.events[s] = events;
                        self.live |= more;
                    }
                    self.now = jump;
                }
            }
        }
        let admin_pending = self
            .admin
            .iter()
            .zip(&self.admin_cursor)
            .any(|(q, &c)| c < q.len());
        self.live || self.staged_pkts > 0 || admin_pending
    }

    /// Render the canonical merged digest (see [`render_digest`]). Only
    /// meaningful at a barrier — i.e. between [`run_until`](Self::run_until)
    /// calls, which is the only time this can be called anyway.
    pub fn digest(&self) -> String {
        let n = self.workers.len();
        for w in &self.workers {
            w.tx.send(Cmd::Digest).expect("worker died");
        }
        let mut parts = Vec::with_capacity(n);
        for s in 0..n {
            let Rep::Digest(p) = self.recv(s) else {
                panic!("shard {s}: unexpected reply");
            };
            parts.push(*p);
        }
        render_digest(parts)
    }

    /// Run every shard's conservation audit and the runtime-level
    /// boundary-flow law, merged into one report. Sound at any barrier,
    /// including with boundary packets staged between shards.
    pub fn audit(&self) -> AuditReport {
        let n = self.workers.len();
        for w in &self.workers {
            w.tx.send(Cmd::Audit).expect("worker died");
        }
        let mut violations = Vec::new();
        let mut links = 0usize;
        let mut laws = 0usize;
        let (mut out_p, mut out_b, mut in_p, mut in_b) = (0u64, 0u64, 0u64, 0u64);
        for s in 0..n {
            let Rep::Audit(a) = self.recv(s) else {
                panic!("shard {s}: unexpected reply");
            };
            violations.extend(a.violations.into_iter().map(|v| format!("shard {s}: {v}")));
            links += a.links;
            laws += a.laws;
            out_p += a.boundary_out.0;
            out_b += a.boundary_out.1;
            in_p += a.boundary_in.0;
            in_b += a.boundary_in.1;
        }
        // Runtime law: everything shards handed out either re-entered a
        // shard or is still staged here. Holds at every barrier because
        // outboxes are drained into the staging buffers before control
        // returns from run_until.
        laws += 1;
        if out_p != in_p + self.staged_pkts {
            violations.push(format!(
                "runtime packet law: boundary_out {out_p} != boundary_in {in_p} \
                 + staged {}",
                self.staged_pkts
            ));
        }
        laws += 1;
        if out_b != in_b + self.staged_bytes {
            violations.push(format!(
                "runtime byte law: boundary_out {out_b} != boundary_in {in_b} \
                 + staged {}",
                self.staged_bytes
            ));
        }
        AuditReport {
            violations,
            links_checked: links,
            laws_checked: laws,
        }
    }

    /// Merge every shard's telemetry registry into one snapshot
    /// (counters/gauges sum, histograms merge bucket-wise), as a
    /// monolithic run of the whole topology would have recorded.
    pub fn merged_snapshot(&self) -> mtp_telemetry::Snapshot {
        let n = self.workers.len();
        for w in &self.workers {
            w.tx.send(Cmd::Snapshot).expect("worker died");
        }
        let mut merged = mtp_telemetry::Registry::new();
        for s in 0..n {
            let Rep::Snapshot(r) = self.recv(s) else {
                panic!("shard {s}: unexpected reply");
            };
            merged.merge_from(&r);
        }
        merged.snapshot()
    }
}

impl Drop for ShardedSimulator {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Cmd::Stop);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "lookahead (1000000 ps)")]
    fn link_delay_fault_is_refused_naming_the_lookahead() {
        let mut ss = ShardedSimulator::new(ShardPlan {
            lookahead: Duration::from_micros(1),
            shards: vec![ShardBuildPlan {
                build: Box::new(|| Simulator::new(1)),
                node_globals: Vec::new(),
                dir_globals: Vec::new(),
            }],
            routes: Vec::new(),
            dir_owner: vec![(0, DirLinkId(0))],
            node_owner: Vec::new(),
        });
        ss.schedule_admin(vec![FaultEvent {
            at: Time::ZERO,
            kind: FaultKind::LinkDelay {
                link: DirLinkId(0),
                delay: Duration::from_micros(5),
            },
        }]);
    }
}
