//! The host-speed meter and the timed region built on it.
//!
//! The hosts this benchmark runs on are shared virtual machines whose
//! speed changes under the benchmark. On the host that defined it the
//! same single-threaded simulation took between 135 ms and 790 ms
//! within one minute: plateaus lasting seconds (a busy sibling
//! hyper-thread, neighbours' cache and memory traffic) and bursts of
//! stolen time. Wall and CPU time dilate together, so neither is steady
//! and no median over a few seconds recovers the program's own speed.
//!
//! The harness therefore measures the host while it measures the
//! program. A timed region is cut into slices of a few milliseconds, and
//! between slices a fixed reference kernel of the harness's own runs for
//! a fraction of a millisecond. Both sample the same dilation. The
//! region's times are then divided by the **host factor**: what the
//! reference slices cost in this region over their nominal cost. A
//! factor of 1.3 means the host ran 1.3 times slower than nominal while
//! the region was measured, and its time is stated as 1/1.3 of what the
//! clock showed. Raw readings and the factor stay in the result file.
//!
//! The kernel has two parts: a dependent multiply-add chain, which feels
//! stolen time and a busy sibling thread and nothing else, and random
//! read-modify-writes over a 128 MiB table, which feel what neighbours
//! do to the shared cache and memory, as the simulator and the cores'
//! slabs do. Each part was tried alone and both together against every
//! workload over ten runs; together they were never much worse than the
//! raw readings and mostly better (`sim_fabric` 44 % → 20 % and 18 % →
//! 8 %, `scn_corpus` 21 % → 9 %, `wire_bulk` 12 % → 5 %, `wire_rpc` 23 %
//! → 10 %; `wire_pingpong`, bound by system calls, 6 % either way).
//! Tables that half fit the second-level cache were tried and left out:
//! they react to the sibling thread far more than the simulator does
//! and made matters worse. The correction is first order.
//!
//! What a reference slice costs on a quiet host depends on what the
//! workload leaves in the caches and the TLB, so each workload carries
//! its own nominal cost (`metrics::Workload::nominal_slice_us`): the
//! first decile of what the slices cost under that workload on the
//! defining host. Host factor 1.0 is that host, quiet.
//!
//! The kernel is harness code, not library code: no change to the
//! repository moves it, so a regression in the library shows in full.

use std::time::Instant;

use crate::alloc::AllocSnap;
use crate::host;

/// Words in the reference kernel's table (128 MiB).
const TABLE_WORDS: usize = 1 << 24;
/// MiB the table adds to the process's resident set; `peak_rss_mb` is
/// stated net of it.
pub const TABLE_MIB: f64 = (TABLE_WORDS * 8) as f64 / (1024.0 * 1024.0);

const LCG_MUL: u64 = 6364136223846793005;
const LCG_ADD: u64 = 1442695040888963407;

/// Read-modify-writes and chain steps per reference slice: about 0.4 ms
/// and 0.12 ms.
const SLICE_RMW: u64 = 25_000;
const SLICE_CHAIN: u64 = 100_000;

/// Runs the reference kernel and accumulates what it cost.
pub struct HostMeter {
    nominal_slice_ns: f64,
    table: Vec<u64>,
    state: u64,
    ref_ns: u64,
    slices: u64,
}

impl HostMeter {
    /// A meter for a workload under which a reference slice nominally
    /// costs `nominal_slice_us`. The table is made resident: the first
    /// slices would otherwise time page faults, not the host.
    pub fn new(nominal_slice_us: f64) -> HostMeter {
        let mut m = HostMeter {
            nominal_slice_ns: nominal_slice_us * 1e3,
            table: vec![1; TABLE_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
            ref_ns: 0,
            slices: 0,
        };
        for _ in 0..8 {
            m.tick();
        }
        m.take_factor();
        m
    }

    /// Run one reference slice.
    pub fn tick(&mut self) {
        let t0 = Instant::now();
        let mut x = self.state;
        for i in 0..SLICE_RMW {
            x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
            let k = (x >> 36) as usize & (TABLE_WORDS - 1);
            self.table[k] = self.table[k].wrapping_add(i);
        }
        for i in 0..SLICE_CHAIN {
            x = x
                .wrapping_mul(LCG_MUL)
                .wrapping_add(std::hint::black_box(i));
        }
        self.state = std::hint::black_box(x);
        self.ref_ns += t0.elapsed().as_nanos() as u64;
        self.slices += 1;
    }

    /// What the slices run since the last call cost, and forget them.
    pub fn take(&mut self) -> Reference {
        let r = Reference {
            slices: self.slices,
            ns: self.ref_ns,
            nominal_slice_ns: self.nominal_slice_ns,
        };
        self.ref_ns = 0;
        self.slices = 0;
        r
    }

    /// The host factor over the slices run since the last call, and
    /// forget them.
    pub fn take_factor(&mut self) -> f64 {
        self.take().factor()
    }
}

/// What a group of reference slices cost.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Slices run.
    pub slices: u64,
    /// Nanoseconds they took.
    pub ns: u64,
    nominal_slice_ns: f64,
}

impl Reference {
    /// Cost per slice over nominal cost; 1.0 when no slice ran.
    pub fn factor(&self) -> f64 {
        if self.slices == 0 {
            1.0
        } else {
            self.ns as f64 / self.slices as f64 / self.nominal_slice_ns
        }
    }
}

/// What a [`Timed`] region measured.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Wall seconds at nominal host speed (raw ÷ host factor).
    pub wall_s: f64,
    /// Process CPU seconds, all threads, at nominal host speed.
    pub cpu_s: f64,
    /// Wall seconds as the clock showed them.
    pub raw_wall_s: f64,
    /// CPU seconds as the clock showed them.
    pub raw_cpu_s: f64,
    /// How much slower than nominal the host ran during the region.
    pub host_factor: f64,
    /// The reference slices the factor comes from.
    pub reference: Reference,
    /// Allocator calls and bytes in the region.
    pub alloc: AllocSnap,
    /// Live heap bytes at the end minus at the start.
    pub live_delta: i64,
}

/// A timed region cut into slices with a reference slice between them.
/// Only the slices between [`Timed::begin`]/[`Timed::lap`]/[`Timed::end`]
/// count; the reference kernel's own time does not.
pub struct Timed<'m> {
    meter: &'m mut HostMeter,
    wall_ns: u64,
    cpu_s: f64,
    alloc: AllocSnap,
    live0: i64,
    slice_t0: Instant,
    slice_cpu0: f64,
    slice_alloc0: AllocSnap,
}

impl<'m> Timed<'m> {
    /// Run a reference slice, then start the first work slice.
    pub fn begin(meter: &'m mut HostMeter) -> Timed<'m> {
        meter.take_factor();
        meter.tick();
        let alloc0 = AllocSnap::now();
        Timed {
            meter,
            wall_ns: 0,
            cpu_s: 0.0,
            alloc: AllocSnap::default(),
            live0: alloc0.live(),
            slice_alloc0: alloc0,
            slice_cpu0: host::cpu_seconds(),
            slice_t0: Instant::now(),
        }
    }

    fn close_slice(&mut self) {
        self.wall_ns += self.slice_t0.elapsed().as_nanos() as u64;
        self.cpu_s += host::cpu_seconds() - self.slice_cpu0;
        let d = AllocSnap::now().since(&self.slice_alloc0);
        self.alloc.allocs += d.allocs;
        self.alloc.allocated += d.allocated;
        self.alloc.freed += d.freed;
    }

    fn open_slice(&mut self) {
        self.slice_alloc0 = AllocSnap::now();
        self.slice_cpu0 = host::cpu_seconds();
        self.slice_t0 = Instant::now();
    }

    /// End the current work slice, run a reference slice, start the next.
    pub fn lap(&mut self) {
        self.close_slice();
        self.meter.tick();
        self.open_slice();
    }

    /// Wall nanoseconds of work measured so far, the open slice included.
    pub fn elapsed_ns(&self) -> u64 {
        self.wall_ns + self.slice_t0.elapsed().as_nanos() as u64
    }

    /// End the last work slice and run the closing reference slice.
    pub fn end(mut self) -> Measured {
        self.close_slice();
        self.meter.tick();
        let reference = self.meter.take();
        let host_factor = reference.factor();
        let raw_wall_s = self.wall_ns as f64 * 1e-9;
        Measured {
            wall_s: raw_wall_s / host_factor,
            cpu_s: self.cpu_s / host_factor,
            raw_wall_s,
            raw_cpu_s: self.cpu_s,
            host_factor,
            reference,
            alloc: self.alloc,
            live_delta: AllocSnap::now().live() - self.live0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_cost_per_iteration_over_nominal() {
        let mut m = HostMeter::new(500.0);
        assert_eq!(m.take_factor(), 1.0);
        m.tick();
        m.tick();
        assert_eq!(m.slices, 2);
        let expect = m.ref_ns as f64 / 2.0 / 500_000.0;
        assert_eq!(m.take_factor(), expect);
        assert!(expect > 0.0);
        assert_eq!(m.take_factor(), 1.0, "taking the factor forgets the slices");
    }

    #[test]
    fn only_work_slices_are_timed() {
        let mut meter = HostMeter::new(500.0);
        let started = Instant::now();
        let mut t = Timed::begin(&mut meter);
        t.lap();
        let m = t.end();
        // (What the region counts of the allocator is checked in
        // `tests/alloc.rs`: the counters are process-wide and unit tests
        // share a process.)
        assert!(m.raw_wall_s > 0.0 && m.host_factor > 0.0);
        assert!((m.wall_s * m.host_factor - m.raw_wall_s).abs() < 1e-12);
        // Three reference slices ran (begin, lap, end) and none of their
        // time is in the region's.
        assert!(m.raw_wall_s < started.elapsed().as_secs_f64());
    }
}
