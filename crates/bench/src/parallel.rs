//! Parallel experiment driver.
//!
//! Simulations are strictly single-threaded for determinism, but
//! *independent seeds* are embarrassingly parallel: each worker thread
//! builds and runs its own `Simulator`. This module fans a seed list out
//! over threads and collects results in seed order, so a sweep's output is
//! as deterministic as a single run. Its only callers are its own tests,
//! which prove that on the leaf-spine incast workload; multi-seed sweeps
//! are scenario files (`scn` runs a file's seeds serially).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f(seed)` for every seed, in parallel across at most `workers`
/// threads, returning results in the same order as `seeds`. A `workers`
/// of 0 (e.g. from a miscomputed `available_parallelism() - N`) is
/// clamped to 1 rather than deadlocking or panicking.
///
/// `f` must build everything it needs inside the call (the `Simulator` is
/// not `Send`, and must not be): only the seed crosses the thread
/// boundary.
///
/// Seeds are claimed from a shared atomic cursor (dynamic load
/// balancing — a slow seed doesn't idle the other workers), and each
/// worker accumulates `(index, result)` pairs privately, handing its
/// chunk back through the thread's join handle. No locks, no channels:
/// result order is restored by index after all workers finish.
pub fn run_seeds<R, F>(seeds: &[u64], workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let workers = workers.max(1);
    let n = seeds.len();
    let cursor = AtomicUsize::new(0);

    let mut chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut chunk: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        chunk.push((i, f(seeds[i])));
                    }
                    chunk
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for chunk in chunks.drain(..) {
        for (i, r) in chunk {
            debug_assert!(results[i].is_none(), "seed index {i} produced twice");
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every seed ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_workload::mean_std;

    #[test]
    fn results_come_back_in_seed_order() {
        let seeds: Vec<u64> = (0..32).collect();
        let out = run_seeds(&seeds, 8, |s| s * 10);
        assert_eq!(out, seeds.iter().map(|s| s * 10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let seeds: Vec<u64> = (0..8).collect();
        let out = run_seeds(&seeds, 0, |s| s * 3);
        assert_eq!(out, seeds.iter().map(|s| s * 3).collect::<Vec<_>>());
        assert!(run_seeds::<u64, _>(&[], 0, |s| s).is_empty());
    }

    #[test]
    fn more_workers_than_seeds() {
        let out = run_seeds(&[3, 1], 16, |s| s + 1);
        assert_eq!(out, vec![4, 2]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Later seeds finish first; indices must still line up.
        let seeds: Vec<u64> = (0..24).collect();
        let out = run_seeds(&seeds, 6, |s| {
            std::thread::sleep(std::time::Duration::from_micros((24 - s) * 50));
            s
        });
        assert_eq!(out, seeds);
    }

    #[test]
    fn parallel_simulations_are_independent() {
        use mtp_sim::time::{Bandwidth, Duration};
        use mtp_sim::{Ctx, Headers, Node, Packet, PortId, Simulator};
        struct Echoer(u32);
        impl Node for Echoer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..self.0 {
                    ctx.send(PortId(0), Packet::new(Headers::Raw, 100));
                }
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        }
        #[derive(Default)]
        struct Count(u32);
        impl Node for Count {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {
                self.0 += 1;
            }
        }
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node(Box::new(Echoer(seed as u32 % 50 + 1)));
            let b = sim.add_node(Box::new(Count::default()));
            sim.connect_symmetric(
                a,
                PortId(0),
                b,
                PortId(0),
                Bandwidth::from_gbps(1),
                Duration::from_micros(1),
                1024,
            );
            sim.run();
            sim.node_as::<Count>(b).0
        };
        let seeds: Vec<u64> = (0..16).collect();
        let parallel = run_seeds(&seeds, 8, run);
        let serial: Vec<u32> = seeds.iter().map(|&s| run(s)).collect();
        assert_eq!(parallel, serial, "parallelism must not change results");
    }

    #[test]
    fn leafspine_parallel_matches_serial() {
        // Bench-sized check on a real topology: the full 4×4 leaf-spine
        // incast digest — event count, final clock, every link counter,
        // every trace event — must be identical whether seeds run serially
        // or fanned out across workers.
        let seeds: Vec<u64> = (1..=4).collect();
        let serial: Vec<String> = seeds
            .iter()
            .map(|&s| crate::hotpath::leafspine_incast(s).digest)
            .collect();
        let parallel = run_seeds(&seeds, 4, |s| crate::hotpath::leafspine_incast(s).digest);
        assert_eq!(parallel, serial, "worker threads must not perturb runs");
    }

    #[test]
    fn mean_std_math() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]).1, 0.0);
    }
}
