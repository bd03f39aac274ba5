//! Proof that metric recording performs zero steady-state allocations.
//!
//! The registry's contract is that counters, gauges, and histograms can be
//! bumped from the simulator's hottest paths without touching the heap:
//! all storage is allocated when the registry is constructed. A counting
//! global allocator pins that down — after construction, a million
//! recordings of every kind must allocate nothing.
//!
//! Lives in an integration test so the counting allocator governs the
//! whole binary and the `unsafe` `GlobalAlloc` impl stays outside the
//! library's `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtp_telemetry::{Gauge, HistId, Metric, Registry};

struct CountingAlloc;

// Per-thread count so concurrently running tests in this binary don't
// pollute each other's measurements.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: TLS may be gone during thread teardown; those allocations
    // are not part of any measurement window anyway.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn recording_never_allocates() {
    let mut reg = Registry::new();

    let before = allocs();
    for i in 0..1_000_000u64 {
        reg.count(Metric::PktsOffered, 1);
        reg.count(Metric::BytesTx, 1500);
        reg.gauge_add(Gauge::MsgsInFlight, 1);
        reg.gauge_add(Gauge::MsgsInFlight, -1);
        reg.record(HistId::MsgFctUs, i % 100_000);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "metric recording must not allocate");
    assert_eq!(reg.get(Metric::PktsOffered), 1_000_000);
    assert_eq!(reg.hist(HistId::MsgFctUs).count, 1_000_000);
}

#[test]
fn snapshot_reads_do_not_disturb_counters() {
    let mut reg = Registry::new();
    reg.count(Metric::PktsDelivered, 42);
    let a = reg.snapshot();
    let b = reg.snapshot();
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.get(Metric::PktsDelivered), 42);
}
