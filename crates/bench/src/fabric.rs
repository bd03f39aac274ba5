//! Multi-pod fabric workload for the sharded engine.
//!
//! A parameterized Clos-of-pods: each pod is a leaf–spine fabric
//! (hosts → leaves → pod spines), and spines of equal index form a full
//! mesh *between* pods. The pod is the partition unit — intra-pod links
//! are always shard-interior, and only the longer spine–spine inter-pod
//! links are ever cut, so the conservative lookahead is their (large)
//! propagation delay.
//!
//! The traffic is a deterministic all-to-all message pattern over
//! MTP-headered packets routed by an opaque destination tag
//! ([`mtp_sim::AppData::Opaque`]). The tag survives wire corruption, so a
//! bit-flipped or truncated packet still reaches its destination host,
//! which detects the damage with [`mtp_sim::corrupt::admit_relay`] and
//! counts it — corruption schedules exercise the full detect-at-the-edge
//! path under sharding.
//!
//! Every link's propagation delay carries a unique picosecond-level skew
//! so no two trace events of the same kind can coincide — the digest
//! comparison between sharded and monolithic runs is then exact, not
//! modulo tie-breaks.

use std::sync::Arc;

use mtp_faults::{FaultDriver, FaultSchedule};
use mtp_net::TopoGraph;
use mtp_sim::corrupt::admit_relay;
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{
    AppData, Ctx, Headers, LinkCfg, Node, NodeAuditCounters, Packet, PortId, ShardedSimulator,
    Simulator,
};
use mtp_wire::{EntityId, MsgId, MtpHeader, PktNum, PktType};

/// Shape and workload intensity of a fabric run.
#[derive(Debug, Clone, Copy)]
pub struct FabricCfg {
    /// Number of pods (partition units).
    pub pods: usize,
    /// Leaves per pod.
    pub leaves_per_pod: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Spines per pod (each index forms an inter-pod mesh).
    pub spines_per_pod: usize,
    /// Messages each host sends.
    pub msgs_per_host: u32,
    /// Packets per message.
    pub pkts_per_msg: u32,
    /// Wire length of each data packet.
    pub payload: u32,
    /// Per-host start stagger (host `a` starts at `a * stagger_ns`).
    pub stagger_ns: u64,
    /// Gap between a host's consecutive messages.
    pub msg_gap_ns: u64,
}

impl FabricCfg {
    /// Small instance for integration tests: 3 pods, 12 hosts.
    pub fn tiny() -> FabricCfg {
        FabricCfg {
            pods: 3,
            leaves_per_pod: 2,
            hosts_per_leaf: 2,
            spines_per_pod: 2,
            msgs_per_host: 4,
            pkts_per_msg: 6,
            payload: 900,
            stagger_ns: 300,
            msg_gap_ns: 50_000,
        }
    }

    /// Perf-gate instance: 8 pods, 256 hosts, enough traffic to make the
    /// engine the bottleneck.
    pub fn bench() -> FabricCfg {
        FabricCfg {
            pods: 8,
            leaves_per_pod: 4,
            hosts_per_leaf: 8,
            spines_per_pod: 4,
            msgs_per_host: 4,
            pkts_per_msg: 16,
            payload: 1100,
            stagger_ns: 500,
            msg_gap_ns: 200_000,
        }
    }

    /// Figure-scale instance: 8 pods, ~10k endpoints.
    pub fn figure() -> FabricCfg {
        FabricCfg {
            pods: 8,
            leaves_per_pod: 16,
            hosts_per_leaf: 80,
            spines_per_pod: 4,
            msgs_per_host: 2,
            pkts_per_msg: 6,
            payload: 1100,
            stagger_ns: 400,
            msg_gap_ns: 400_000,
        }
    }

    /// Total host count.
    pub fn num_hosts(&self) -> usize {
        self.pods * self.leaves_per_pod * self.hosts_per_leaf
    }

    fn hosts_per_pod(&self) -> usize {
        self.leaves_per_pod * self.hosts_per_leaf
    }
}

// ------------------------------------------------------------------ nodes

/// The deterministic destination of host `addr`'s message `m`: a stride
/// walk over every other host, so traffic is all-to-all-ish and most of
/// it crosses pods.
fn dest_of(cfg: &FabricCfg, addr: usize, m: u32) -> usize {
    let n = cfg.num_hosts();
    let d = (addr + 1 + (m as usize) * 7919) % n;
    if d == addr {
        (d + 1) % n
    } else {
        d
    }
}

/// End host: sends its message schedule, sanitizes and counts what
/// arrives.
struct FabricHost {
    cfg: FabricCfg,
    addr: usize,
    rx_pkts: u64,
    rx_bytes: u64,
    rx_dirty: u64,
    malformed: u64,
}

impl FabricHost {
    fn packet(&self, m: u32, p: u32) -> Packet {
        let h = MtpHeader {
            src_port: 7,
            dst_port: 9,
            pkt_type: PktType::Data,
            msg_id: MsgId((self.addr as u64) << 20 | m as u64),
            entity: EntityId(self.addr as u16),
            msg_len_pkts: self.cfg.pkts_per_msg,
            msg_len_bytes: self.cfg.pkts_per_msg * self.cfg.payload,
            pkt_num: PktNum(p),
            pkt_len: self.cfg.payload as u16,
            pkt_offset: p * self.cfg.payload,
            ..MtpHeader::default()
        };
        // Vary sizes slightly so serialization times differ per packet.
        let len = self.cfg.payload + (p % 4) * 40;
        Packet::new(Headers::Mtp(Box::new(h)), len)
            .with_app(AppData::Opaque(dest_of(&self.cfg, self.addr, m) as u64))
    }
}

impl Node for FabricHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for m in 0..self.cfg.msgs_per_host {
            let at = Time::ZERO
                + Duration::from_nanos(
                    self.addr as u64 * self.cfg.stagger_ns + m as u64 * self.cfg.msg_gap_ns,
                );
            ctx.set_timer_at(at, m as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        for p in 0..self.cfg.pkts_per_msg {
            let pkt = self.packet(token as u32, p);
            ctx.send(PortId(0), pkt);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // The host counts payload damage itself (`rx_dirty`), so only the
        // header must verify.
        let Some(pkt) = admit_relay(ctx, port, pkt, &mut self.malformed) else {
            return;
        };
        self.rx_pkts += 1;
        self.rx_bytes += pkt.wire_len as u64;
        if pkt.payload_dirty {
            self.rx_dirty += 1;
        }
    }

    fn audit_counters(&self, out: &mut NodeAuditCounters) {
        out.malformed += self.malformed;
    }

    fn name(&self) -> &str {
        "fabric-host"
    }
}

/// Leaf switch: hosts on ports `0..H`, pod spines on ports `H..H+S`.
/// Routes by the opaque destination tag (so even mangled packets keep
/// flowing); sprays cross-leaf traffic over spines by packet id.
struct FabricLeaf {
    cfg: FabricCfg,
    pod: usize,
    leaf: usize,
}

impl Node for FabricLeaf {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: PortId, pkt: Packet) {
        let Some(AppData::Opaque(dst)) = pkt.app else {
            panic!("fabric packet without an Opaque destination tag");
        };
        let dst = dst as usize;
        let h = self.cfg.hosts_per_leaf;
        let base = (self.pod * self.cfg.leaves_per_pod + self.leaf) * h;
        if (base..base + h).contains(&dst) {
            ctx.send(PortId(dst - base), pkt);
        } else {
            let spine = (pkt.id.0 % self.cfg.spines_per_pod as u64) as usize;
            ctx.send(PortId(h + spine), pkt);
        }
    }

    fn name(&self) -> &str {
        "fabric-leaf"
    }
}

/// Pod spine: pod leaves on ports `0..L`, equal-index spines of the other
/// pods on ports `L..L+P-1`.
struct FabricSpine {
    cfg: FabricCfg,
    pod: usize,
}

impl Node for FabricSpine {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: PortId, pkt: Packet) {
        let Some(AppData::Opaque(dst)) = pkt.app else {
            panic!("fabric packet without an Opaque destination tag");
        };
        let dst = dst as usize;
        let pod = dst / self.cfg.hosts_per_pod();
        if pod == self.pod {
            let leaf = (dst / self.cfg.hosts_per_leaf) % self.cfg.leaves_per_pod;
            ctx.send(PortId(leaf), pkt);
        } else {
            let slot = if pod < self.pod { pod } else { pod - 1 };
            ctx.send(PortId(self.cfg.leaves_per_pod + slot), pkt);
        }
    }

    fn name(&self) -> &str {
        "fabric-spine"
    }
}

// ---------------------------------------------------------------- wiring

/// A built fabric description, plus the global ids a test or experiment
/// needs to aim faults at specific layers.
pub struct FabricNet {
    /// The abstract topology (partition with [`TopoGraph::plan`]).
    pub graph: Arc<TopoGraph>,
    /// Its shape.
    pub cfg: FabricCfg,
    /// Global node id of every host, indexed by host address.
    pub hosts: Vec<usize>,
    /// Link-pair ids of host↔leaf links.
    pub host_pairs: Vec<usize>,
    /// Link-pair ids of intra-pod leaf↔spine links.
    pub up_pairs: Vec<usize>,
    /// Link-pair ids of inter-pod spine↔spine links (the cut candidates).
    pub cross_pairs: Vec<usize>,
}

/// Intra-pod propagation delay (before per-link skew).
const INTRA_DELAY_PS: u64 = 1_000_000; // 1 us
/// Inter-pod propagation delay (before per-link skew) — the lookahead.
const INTER_DELAY_PS: u64 = 5_000_000; // 5 us

fn link_cfg(delay_ps: u64) -> impl Fn() -> LinkCfg + Send + Sync + 'static {
    move || LinkCfg::drop_tail(Bandwidth::from_gbps(100), Duration(delay_ps), 64)
}

/// Build the abstract fabric for `cfg`.
pub fn build(cfg: FabricCfg) -> FabricNet {
    let mut g = TopoGraph::new();
    let mut hosts = Vec::with_capacity(cfg.num_hosts());
    let mut host_pairs = Vec::new();
    let mut up_pairs = Vec::new();
    let mut cross_pairs = Vec::new();
    // Unique ps-level skew per directed link: no two links share a delay.
    let mut skew = 0u64;
    let mut next = |base: u64| {
        skew += 2;
        (base + skew, base + skew + 1)
    };

    let mut leaves = vec![Vec::new(); cfg.pods]; // [pod][leaf] -> node id
    let mut spines = vec![Vec::new(); cfg.pods]; // [pod][s] -> node id
    for pod in 0..cfg.pods {
        for leaf in 0..cfg.leaves_per_pod {
            let c = cfg;
            let leaf_id = g.add_node(pod, move || Box::new(FabricLeaf { cfg: c, pod, leaf }));
            for i in 0..cfg.hosts_per_leaf {
                let addr = (pod * cfg.leaves_per_pod + leaf) * cfg.hosts_per_leaf + i;
                let host_id = g.add_node(pod, move || {
                    Box::new(FabricHost {
                        cfg: c,
                        addr,
                        rx_pkts: 0,
                        rx_bytes: 0,
                        rx_dirty: 0,
                        malformed: 0,
                    })
                });
                hosts.push(host_id);
                let (d_ab, d_ba) = next(INTRA_DELAY_PS);
                host_pairs.push(g.connect(
                    host_id,
                    PortId(0),
                    leaf_id,
                    PortId(i),
                    link_cfg(d_ab),
                    link_cfg(d_ba),
                ));
            }
            leaves[pod].push(leaf_id);
        }
        for _s in 0..cfg.spines_per_pod {
            let c = cfg;
            let spine_id = g.add_node(pod, move || Box::new(FabricSpine { cfg: c, pod }));
            spines[pod].push(spine_id);
        }
    }
    // Intra-pod leaf <-> spine.
    for pod in 0..cfg.pods {
        for (s, &spine_id) in spines[pod].iter().enumerate() {
            for (l, &leaf_id) in leaves[pod].iter().enumerate() {
                let (d_ab, d_ba) = next(INTRA_DELAY_PS);
                up_pairs.push(g.connect(
                    leaf_id,
                    PortId(cfg.hosts_per_leaf + s),
                    spine_id,
                    PortId(l),
                    link_cfg(d_ab),
                    link_cfg(d_ba),
                ));
            }
        }
    }
    // Inter-pod mesh at each spine index (`s` indexes two pods' spine
    // lists at once, so a range loop is the clear spelling).
    #[allow(clippy::needless_range_loop)]
    for s in 0..cfg.spines_per_pod {
        for p in 0..cfg.pods {
            for q in (p + 1)..cfg.pods {
                let (d_ab, d_ba) = next(INTER_DELAY_PS);
                cross_pairs.push(g.connect(
                    spines[p][s],
                    PortId(cfg.leaves_per_pod + (q - 1)),
                    spines[q][s],
                    PortId(cfg.leaves_per_pod + p),
                    link_cfg(d_ab),
                    link_cfg(d_ba),
                ));
            }
        }
    }
    FabricNet {
        graph: Arc::new(g),
        cfg,
        hosts,
        host_pairs,
        up_pairs,
        cross_pairs,
    }
}

// ----------------------------------------------------------------- runs

/// A deterministic fault + corruption schedule over the fabric, in global
/// ids, sized to bite while traffic is in flight. The same schedule is
/// replayed by [`FaultDriver`] on the monolithic run and by
/// [`ShardedSimulator::schedule_admin`] on the sharded one.
pub fn fault_schedule(net: &FabricNet, seed: u64) -> FaultSchedule {
    use mtp_sim::{DirLinkId, LinkFailMode, NodeId};
    let at = |us: u64| Time::ZERO + Duration::from_micros(us);
    let pick = |pairs: &[usize], k: u64| -> DirLinkId {
        let pair =
            pairs[(seed.wrapping_mul(2654435761).wrapping_add(k) % pairs.len() as u64) as usize];
        DirLinkId(2 * pair + ((seed ^ k) % 2) as usize)
    };
    let victim_host = NodeId(net.hosts[(seed as usize * 31 + 7) % net.hosts.len()]);
    let mut s = FaultSchedule::new();
    // Damage structured headers on an access link and an uplink. Enough
    // flips that some land in the ~50-byte sealed header (most of the
    // frame is payload): the malformed path at the receiving host is
    // exercised, not just payload_dirty.
    s.bitflip_burst(at(20), pick(&net.host_pairs, 1), 6, 64, seed ^ 0xb17)
        .truncate_burst(at(35), pick(&net.up_pairs, 2), 4, seed ^ 0x7c4)
        // Background random corruption on an inter-pod link.
        .corrupt_rate(at(10), pick(&net.cross_pairs, 3), 200_000, 2, seed ^ 0x5eed)
        // A link failure and recovery on another inter-pod link.
        .link_down(at(40), pick(&net.cross_pairs, 4), LinkFailMode::Blackhole)
        .link_up(at(120), pick(&net.cross_pairs, 4))
        // A host crashes mid-run and comes back.
        .crash_restart(victim_host, at(60), at(150));
    s
}

/// Run the fabric monolithically (single engine) to `horizon`, replaying
/// `faults` at exact times, and return the finished simulator.
pub fn run_serial(
    net: &FabricNet,
    seed: u64,
    trace_cap: Option<usize>,
    horizon: Time,
    faults: FaultSchedule,
) -> Simulator {
    let mut sim = net.graph.build_monolithic(seed, trace_cap);
    FaultDriver::new(faults).run_until(&mut sim, horizon);
    sim
}

/// Run the fabric sharded `shards` ways to `horizon` with the same fault
/// schedule, and return the sharded runtime (for digest/audit/snapshot).
pub fn run_sharded(
    net: &FabricNet,
    shards: usize,
    seed: u64,
    trace_cap: Option<usize>,
    horizon: Time,
    faults: FaultSchedule,
) -> ShardedSimulator {
    let plan = net.graph.plan(shards, seed, trace_cap);
    let mut ss = ShardedSimulator::new(plan);
    ss.schedule_admin(faults.into_sorted());
    ss.run_until(horizon);
    ss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_runs_and_delivers() {
        let net = build(FabricCfg::tiny());
        let sim = run_serial(
            &net,
            1,
            None,
            Time::ZERO + Duration::from_millis(2),
            FaultSchedule::new(),
        );
        mtp_sim::assert_conservation(&sim);
        let mut rx = 0u64;
        for &h in &net.hosts {
            rx += sim.node_as::<FabricHost>(mtp_sim::NodeId(h)).rx_pkts;
        }
        let sent =
            net.cfg.num_hosts() as u64 * net.cfg.msgs_per_host as u64 * net.cfg.pkts_per_msg as u64;
        assert!(rx > 0, "no packets delivered");
        assert!(rx <= sent);
    }

    #[test]
    fn corruption_is_detected_at_hosts() {
        let net = build(FabricCfg::tiny());
        let sim = run_serial(
            &net,
            2,
            None,
            Time::ZERO + Duration::from_millis(2),
            fault_schedule(&net, 2),
        );
        mtp_sim::assert_conservation(&sim);
        let mut malformed = 0u64;
        for &h in &net.hosts {
            malformed += sim.node_as::<FabricHost>(mtp_sim::NodeId(h)).malformed;
        }
        assert!(
            malformed > 0,
            "the corruption schedule must damage at least one packet"
        );
    }
}
