//! Every MTP device that consumes a frame hands its boxed header back to
//! the thread's pool (`mtp_sim::pool::recycle_header`), as the endpoint
//! nodes do, instead of freeing it.
//!
//! A counting allocator counts the frees of header-sized blocks on this
//! thread. A warm-up exchange through a compressor, an aggregator and a
//! KV cache fills the pool; a second, identical exchange then draws every
//! header it sends from the pool and returns every one it consumes, so it
//! frees none while the pool is below its cap (4096 boxes).
//!
//! This lives in an integration test so the counting allocator governs
//! the whole test binary, and its `unsafe` impl stays outside the
//! libraries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_net::{AggregatorNode, CompressorNode, KvCacheNode, KvClientNode, KvServerNode};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{LinkCfg, NodeId, PortId, Simulator};
use mtp_wire::{EntityId, MtpHeader};

struct CountingAlloc;

// Per-thread, so the libtest harness and other tests' threads stay out
// of the count.
thread_local! {
    static HEADER_FREES: Cell<u64> = const { Cell::new(0) };
}

fn header_frees() -> u64 {
    HEADER_FREES.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() == std::mem::size_of::<MtpHeader>() {
            // try_with: TLS may be gone during thread teardown.
            let _ = HEADER_FREES.try_with(|c| c.set(c.get() + 1));
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The pool's cap: beyond it, a recycled header is freed.
const POOL_CAP: usize = 4096;

fn link() -> LinkCfg {
    LinkCfg::ecn(Bandwidth::from_gbps(10), Duration::from_micros(1), 256, 40)
}

fn connect(sim: &mut Simulator, a: (NodeId, usize), b: (NodeId, usize)) {
    sim.connect(a.0, PortId(a.1), b.0, PortId(b.1), link(), link());
}

fn sender(addr: u16, dst: u16, msgs: u64) -> MtpSenderNode {
    let schedule = (0..msgs)
        .map(|i| ScheduledMsg::new(Time::ZERO + Duration::from_micros(20 * i), 20_000))
        .collect();
    MtpSenderNode::new(
        MtpConfig::default(),
        addr,
        dst,
        EntityId(addr),
        (addr as u64) << 40,
        schedule,
    )
}

fn sink(addr: u16) -> MtpSinkNode {
    MtpSinkNode::new(addr, Duration::from_micros(100))
}

/// Sender → compressor → sink, two workers → aggregator → sink, and KV
/// client → cache → server (hot key 7 alternating with cold keys), in
/// one simulator. Returns it with the compressor, aggregator and client.
fn exchange() -> (Simulator, [NodeId; 3]) {
    let mut sim = Simulator::new(1);
    let cfg = MtpConfig::default();

    let snd = sim.add_node(Box::new(sender(1, 2, 10)));
    let comp = sim.add_node(Box::new(CompressorNode::new(cfg.clone(), 5, 0.5, 5 << 40)));
    let rcv = sim.add_node(Box::new(sink(2)));
    connect(&mut sim, (snd, 0), (comp, 0));
    connect(&mut sim, (comp, 1), (rcv, 0));

    let agg = sim.add_node(Box::new(AggregatorNode::new(
        cfg.clone(),
        50,
        60,
        2,
        20_000,
        9 << 40,
    )));
    let ps = sim.add_node(Box::new(sink(60)));
    connect(&mut sim, (agg, 0), (ps, 0));
    for w in 1..=2u16 {
        let worker = sim.add_node(Box::new(sender(10 + w, 50, 10)));
        connect(&mut sim, (worker, 0), (agg, w as usize));
    }

    let schedule: Vec<(Time, u64)> = (0..40)
        .map(|i| {
            let key = if i % 2 == 0 { 7 } else { 100 + i };
            (Time::ZERO + Duration::from_micros(5 * i), key)
        })
        .collect();
    let client = sim.add_node(Box::new(KvClientNode::new(
        cfg.clone(),
        21,
        22,
        4_000,
        1 << 32,
        schedule,
    )));
    let cache = sim.add_node(Box::new(KvCacheNode::new(
        cfg.clone(),
        25,
        [7u64],
        4_000,
        2 << 32,
    )));
    let server = sim.add_node(Box::new(KvServerNode::new(
        cfg,
        22,
        4_000,
        Duration::from_micros(2),
        3 << 32,
    )));
    connect(&mut sim, (client, 0), (cache, 0));
    connect(&mut sim, (cache, 1), (server, 0));
    (sim, [comp, agg, client])
}

/// Run `sim` to quiescence; returns the header-sized frees meanwhile.
fn run(sim: &mut Simulator) -> u64 {
    let before = header_frees();
    assert!(
        !sim.run_until(Time::ZERO + Duration::from_millis(500)),
        "still running after 500 ms"
    );
    header_frees() - before
}

#[test]
fn devices_return_every_consumed_header_to_the_pool() {
    let (mut warm, _) = exchange();
    run(&mut warm);
    drop(warm);

    let (mut sim, [comp, agg, client]) = exchange();
    let freed = run(&mut sim);
    assert!(
        mtp_sim::pool::pooled() < POOL_CAP,
        "the pool filled up; a free past its cap proves nothing"
    );
    assert_eq!(sim.node_as::<CompressorNode>(comp).stats.msgs, 10);
    assert_eq!(sim.node_as::<AggregatorNode>(agg).stats.gradients_in, 20);
    assert_eq!(sim.node_as::<KvClientNode>(client).done(), 40);
    assert_eq!(freed, 0, "header boxes freed instead of recycled");
}
