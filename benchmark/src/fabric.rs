//! The benchmark's own Clos fabric and its seeded all-to-all traffic.
//!
//! The shape is that of `mtp_bench::fabric::FabricCfg::bench()` — 8 pods
//! of 4 leaves × 8 hosts under 4 pod spines, equal-index spines meshed
//! between pods — rebuilt here on [`TopoGraph`] so the benchmark's input
//! does not move when the experiment crate does. The pod is the
//! partition unit: only the spine–spine links are ever cut, so the
//! sharded engine's lookahead is their 5 µs propagation delay.
//!
//! Traffic is MTP-headered packets routed by an opaque destination tag;
//! destinations, start offsets and gaps come from the benchmark seed.
//! Every directed link has its own picosecond skew so no two events of
//! one kind coincide and the serial and sharded digests compare exactly.

use std::sync::Arc;

use mtp_net::TopoGraph;
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{sanitize, AppData, Ctx, Headers, LinkCfg, Node, NodeAuditCounters, Packet, PortId};
use mtp_wire::{EntityId, MsgId, PktNum, PktType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PODS: usize = 8;
const LEAVES_PER_POD: usize = 4;
const HOSTS_PER_LEAF: usize = 8;
const SPINES_PER_POD: usize = 4;
const HOSTS_PER_POD: usize = LEAVES_PER_POD * HOSTS_PER_LEAF;
/// Hosts in the fabric.
pub const HOSTS: usize = PODS * HOSTS_PER_POD;

/// Packets per message.
pub const PKTS_PER_MSG: u32 = 16;
/// Payload bytes the header of each data packet declares.
const PAYLOAD: u32 = 1100;
/// Mean gap between one host's messages. A message is 16 × ~90 ns of
/// serialization at 100 Gb/s, so access links run at about a quarter
/// load: queues form, nothing is dropped.
const MEAN_GAP_NS: u64 = 6_000;
/// Queue capacity per link direction. Sized so that no seed drops a
/// packet: the workload must deliver everything it sends.
const QUEUE_PKTS: usize = 4096;

const INTRA_DELAY_PS: u64 = 1_000_000; // 1 us
const INTER_DELAY_PS: u64 = 5_000_000; // 5 us, the lookahead

/// One host's message schedule: `(gap before the message in ns,
/// destination host)`.
type HostSchedule = Vec<(u32, u16)>;

/// The generated input of a fabric run.
pub struct Traffic {
    per_host: Arc<Vec<HostSchedule>>,
    /// When the last message starts.
    pub last_start: Time,
}

impl Traffic {
    /// Draw `msgs_per_host` messages for every host from `seed`.
    pub fn generate(seed: u64, msgs_per_host: u32) -> Traffic {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFAB_21C0);
        let mut last = 0u64;
        let per_host = (0..HOSTS)
            .map(|addr| {
                let mut at = 0u64;
                let sched = (0..msgs_per_host)
                    .map(|_| {
                        let gap = rng.gen_range(MEAN_GAP_NS / 2..MEAN_GAP_NS * 3 / 2);
                        at += gap;
                        let mut dst = rng.gen_range(0..HOSTS - 1);
                        if dst >= addr {
                            dst += 1;
                        }
                        (gap as u32, dst as u16)
                    })
                    .collect();
                last = last.max(at);
                sched
            })
            .collect();
        Traffic {
            per_host: Arc::new(per_host),
            last_start: Time::ZERO + Duration::from_nanos(last),
        }
    }

    /// Packets the schedule sends in all.
    pub fn packets(&self) -> u64 {
        self.per_host
            .iter()
            .map(|s| s.len() as u64 * PKTS_PER_MSG as u64)
            .sum()
    }

    /// A horizon by which every packet has long arrived.
    pub fn horizon(&self) -> Time {
        self.last_start + Duration::from_micros(500)
    }
}

/// End host: sends its schedule one message per timer, sanitizes and
/// counts what arrives.
pub struct FabricHost {
    traffic: Arc<Vec<HostSchedule>>,
    addr: usize,
    /// Packets received intact.
    pub rx_pkts: u64,
    /// Packets rejected by [`sanitize`].
    pub malformed: u64,
}

impl FabricHost {
    fn packet(&self, m: u32, p: u32, dst: u16) -> Packet {
        let mut h = mtp_sim::pool::take_header();
        h.src_port = 7;
        h.dst_port = 9;
        h.pkt_type = PktType::Data;
        h.msg_id = MsgId((self.addr as u64) << 32 | m as u64);
        h.entity = EntityId(self.addr as u16);
        h.msg_len_pkts = PKTS_PER_MSG;
        h.msg_len_bytes = PKTS_PER_MSG * PAYLOAD;
        h.pkt_num = PktNum(p);
        h.pkt_len = PAYLOAD as u16;
        h.pkt_offset = p * PAYLOAD;
        // Sizes vary slightly so serialization times differ per packet.
        let len = PAYLOAD + (p % 4) * 40;
        Packet::new(Headers::Mtp(h), len).with_app(AppData::Opaque(dst as u64))
    }
}

impl Node for FabricHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(&(gap, _)) = self.traffic[self.addr].first() {
            ctx.set_timer(Duration::from_nanos(gap as u64), 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let m = token as usize;
        let (_, dst) = self.traffic[self.addr][m];
        for p in 0..PKTS_PER_MSG {
            ctx.send(PortId(0), self.packet(m as u32, p, dst));
        }
        if let Some(&(gap, _)) = self.traffic[self.addr].get(m + 1) {
            ctx.set_timer(Duration::from_nanos(gap as u64), token + 1);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, mut pkt: Packet) {
        if sanitize(&mut pkt).is_err() {
            self.malformed += 1;
            ctx.trace_malformed(&pkt, port);
        } else {
            self.rx_pkts += 1;
        }
        mtp_sim::pool::recycle_packet(pkt);
    }

    fn audit_counters(&self, out: &mut NodeAuditCounters) {
        out.malformed += self.malformed;
    }

    fn name(&self) -> &str {
        "bench-host"
    }
}

fn dest(pkt: &Packet) -> usize {
    match pkt.app {
        Some(AppData::Opaque(dst)) => dst as usize,
        _ => panic!("fabric packet without a destination tag"),
    }
}

/// Leaf: hosts on ports `0..H`, pod spines on `H..H+S`; sprays
/// cross-leaf traffic over the spines by packet id.
struct Leaf {
    first_host: usize,
}

impl Node for Leaf {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: PortId, pkt: Packet) {
        let dst = dest(&pkt);
        if (self.first_host..self.first_host + HOSTS_PER_LEAF).contains(&dst) {
            ctx.send(PortId(dst - self.first_host), pkt);
        } else {
            let spine = (pkt.id.0 % SPINES_PER_POD as u64) as usize;
            ctx.send(PortId(HOSTS_PER_LEAF + spine), pkt);
        }
    }

    fn name(&self) -> &str {
        "bench-leaf"
    }
}

/// Pod spine: pod leaves on ports `0..L`, the equal-index spines of the
/// other pods on `L..L+P-1`.
struct Spine {
    pod: usize,
}

impl Node for Spine {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: PortId, pkt: Packet) {
        let dst = dest(&pkt);
        let pod = dst / HOSTS_PER_POD;
        if pod == self.pod {
            ctx.send(PortId((dst / HOSTS_PER_LEAF) % LEAVES_PER_POD), pkt);
        } else {
            let slot = if pod < self.pod { pod } else { pod - 1 };
            ctx.send(PortId(LEAVES_PER_POD + slot), pkt);
        }
    }

    fn name(&self) -> &str {
        "bench-spine"
    }
}

fn link(delay_ps: u64) -> impl Fn() -> LinkCfg + Send + Sync + 'static {
    move || LinkCfg::drop_tail(Bandwidth::from_gbps(100), Duration(delay_ps), QUEUE_PKTS)
}

/// The built topology description.
pub struct Fabric {
    /// The abstract graph; build it whole or partition it.
    pub graph: Arc<TopoGraph>,
    /// Global node id of every host, by address.
    pub hosts: Vec<usize>,
}

/// Describe the fabric carrying `traffic`.
pub fn build(traffic: &Traffic) -> Fabric {
    let mut g = TopoGraph::new();
    let mut hosts = Vec::with_capacity(HOSTS);
    // A unique picosecond skew per directed link.
    let mut skew = 0u64;
    let mut next = |base: u64| {
        skew += 2;
        (base + skew, base + skew + 1)
    };
    let mut leaves = vec![Vec::new(); PODS];
    let mut spines = vec![Vec::new(); PODS];
    for pod in 0..PODS {
        for leaf in 0..LEAVES_PER_POD {
            let first_host = (pod * LEAVES_PER_POD + leaf) * HOSTS_PER_LEAF;
            let leaf_id = g.add_node(pod, move || Box::new(Leaf { first_host }));
            for i in 0..HOSTS_PER_LEAF {
                let addr = first_host + i;
                let sched = Arc::clone(&traffic.per_host);
                let host_id = g.add_node(pod, move || {
                    Box::new(FabricHost {
                        traffic: Arc::clone(&sched),
                        addr,
                        rx_pkts: 0,
                        malformed: 0,
                    })
                });
                hosts.push(host_id);
                let (ab, ba) = next(INTRA_DELAY_PS);
                g.connect(host_id, PortId(0), leaf_id, PortId(i), link(ab), link(ba));
            }
            leaves[pod].push(leaf_id);
        }
        for _ in 0..SPINES_PER_POD {
            spines[pod].push(g.add_node(pod, move || Box::new(Spine { pod })));
        }
    }
    for pod in 0..PODS {
        for (s, &spine_id) in spines[pod].iter().enumerate() {
            for (l, &leaf_id) in leaves[pod].iter().enumerate() {
                let (ab, ba) = next(INTRA_DELAY_PS);
                g.connect(
                    leaf_id,
                    PortId(HOSTS_PER_LEAF + s),
                    spine_id,
                    PortId(l),
                    link(ab),
                    link(ba),
                );
            }
        }
    }
    // `s` indexes two pods' spine lists at once.
    #[allow(clippy::needless_range_loop)]
    for s in 0..SPINES_PER_POD {
        for p in 0..PODS {
            for q in (p + 1)..PODS {
                let (ab, ba) = next(INTER_DELAY_PS);
                g.connect(
                    spines[p][s],
                    PortId(LEAVES_PER_POD + (q - 1)),
                    spines[q][s],
                    PortId(LEAVES_PER_POD + p),
                    link(ab),
                    link(ba),
                );
            }
        }
    }
    Fabric {
        graph: Arc::new(g),
        hosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_decides_the_schedule() {
        let a = Traffic::generate(1, 4);
        let b = Traffic::generate(1, 4);
        let c = Traffic::generate(2, 4);
        assert_eq!(a.per_host, b.per_host);
        assert_ne!(a.per_host, c.per_host);
        assert_eq!(a.packets(), (HOSTS * 4) as u64 * PKTS_PER_MSG as u64);
        for (addr, sched) in a.per_host.iter().enumerate() {
            assert!(sched
                .iter()
                .all(|&(_, d)| d as usize != addr && (d as usize) < HOSTS));
        }
    }
}
