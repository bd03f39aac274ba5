//! The counting allocator counts a known allocation pattern. Alone in
//! its own test binary: the counters are process-wide, and a second test
//! allocating in parallel would be counted too.

use mtp_benchmark::alloc::AllocSnap;
use mtp_benchmark::meter::{HostMeter, Timed};

#[test]
fn counts_a_known_pattern() {
    let before = AllocSnap::now();
    let a = std::hint::black_box(vec![0u8; 1000]);
    let b = std::hint::black_box(vec![0u64; 100]);
    let mid = AllocSnap::now().since(&before);
    assert_eq!(mid.allocs, 2);
    assert_eq!(mid.allocated, 1000 + 800);
    assert_eq!(mid.freed, 0);
    assert_eq!(AllocSnap::now().live() - before.live(), 1800);

    drop(a);
    let mut c = std::hint::black_box(Vec::<u8>::with_capacity(16));
    c.reserve_exact(64); // one resize: frees 16, takes at least 64
    let cap = c.capacity() as u64;
    drop(c);
    drop(b);
    let end = AllocSnap::now().since(&before);
    assert_eq!(end.allocs, 4);
    assert_eq!(end.allocated, 1800 + 16 + cap);
    assert_eq!(end.freed, end.allocated, "everything was given back");
    assert_eq!(AllocSnap::now().live(), before.live());

    // A timed region counts what its work slices allocate, across laps,
    // and nothing of the reference kernel between them.
    let mut meter = HostMeter::new(500.0);
    let mut timed = Timed::begin(&mut meter);
    let v = std::hint::black_box(vec![1u8; 4096]);
    timed.lap();
    drop(v);
    let m = timed.end();
    assert_eq!(m.alloc.allocs, 1);
    assert_eq!(m.alloc.allocated, 4096);
    assert_eq!(m.alloc.freed, 4096);
    assert_eq!(m.live_delta, 0);
}
