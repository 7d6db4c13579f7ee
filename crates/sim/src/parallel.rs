//! Parallel multi-trial execution.
//!
//! Every experiment aggregates tens to hundreds of independent seeded
//! trials. Trials share nothing, so we parallelize with scoped threads
//! over contiguous index chunks: each worker computes its chunk into a
//! thread-local vector and the chunks are concatenated in worker order.
//! Workers never contend on shared state — no mutex, no atomic cursor
//! — and the output is in index order by construction, with no
//! dependency beyond the standard library.
//!
//! Because every trial derives its seed from its *index* (not from which
//! worker ran it or when), results are independent of the worker count:
//! `run_trials` on a 64-core box and a sequential fallback produce
//! identical vectors.

/// Runs `f` over `0..trials` on up to `available_parallelism` worker
/// threads and returns the results in index order. `f` must be `Sync`
/// because multiple workers call it concurrently (on distinct indices).
///
/// Falls back to sequential execution for tiny workloads, where thread
/// startup would dominate.
pub fn run_trials<R, F>(trials: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    run_trials_on(workers, trials, f)
}

/// [`run_trials`] with an explicit worker count — the testable core, and
/// an override for callers that know better than `available_parallelism`
/// (e.g. trials so long that imbalance dominates).
///
/// Indices are split into `workers` contiguous chunks whose sizes differ
/// by at most one; worker `w` computes chunk `w` into its own vector.
pub fn run_trials_on<R, F>(workers: usize, trials: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(trials);
    if workers <= 1 {
        return (0..trials).map(f).collect();
    }
    let base = trials / workers;
    let extra = trials % workers;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // The first `extra` chunks get one additional trial.
                let start = w * base + w.min(extra);
                let end = start + base + usize::from(w < extra);
                let f = &f;
                scope.spawn(move || (start..end).map(f).collect::<Vec<R>>())
            })
            .collect();
        let mut out = Vec::with_capacity(trials);
        for h in handles {
            out.extend(h.join().expect("trial worker panicked"));
        }
        out
    })
}

/// Maps `f` over a slice in parallel, preserving order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_trials(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_are_in_index_order() {
        let out = run_trials(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn results_stay_in_index_order_with_skewed_workloads() {
        // Early indices take much longer than late ones, so without the
        // chunked collect, late workers would finish (and once wrote)
        // first. The output must still be in index order.
        let expect: Vec<usize> = (0..23).map(|i| i * i).collect();
        for workers in [2, 3, 5, 8, 23, 64] {
            let out = run_trials_on(workers, 23, |i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                i * i
            });
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn output_is_independent_of_worker_count() {
        // Per-trial seeding means the result vector must not depend on
        // how many workers ran it (1 = the sequential fallback).
        let run = |workers| {
            run_trials_on(workers, 17, |i| {
                use rand::{RngExt as _, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + i as u64);
                (0..50).map(|_| rng.random_range(0u64..1_000)).sum::<u64>()
            })
        };
        let sequential = run(1);
        for workers in [2, 4, 7, 17] {
            assert_eq!(run(workers), sequential, "workers={workers}");
        }
    }

    #[test]
    fn chunk_split_covers_all_indices_exactly_once() {
        // Uneven splits: trials not divisible by workers.
        for (workers, trials) in [(3usize, 10usize), (4, 6), (7, 8), (5, 5), (9, 2)] {
            let out = run_trials_on(workers, trials, |i| i);
            assert_eq!(out, (0..trials).collect::<Vec<_>>(), "{workers}w/{trials}t");
        }
    }

    #[test]
    fn each_index_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = run_trials(257, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        let distinct: BTreeSet<_> = out.iter().collect();
        assert_eq!(distinct.len(), 257);
    }

    #[test]
    fn zero_and_one_trials() {
        assert!(run_trials(0, |i| i).is_empty());
        assert_eq!(run_trials(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_simulation_trials_are_independent() {
        // Smoke test of the intended use: independent seeded simulations.
        use crate::convergence::run_to_ring;
        use crate::init::{generate, InitialTopology};
        use swn_core::config::ProtocolConfig;
        use swn_core::id::evenly_spaced_ids;

        let ids = evenly_spaced_ids(12);
        let reports = run_trials(8, |seed| {
            let mut net = generate(
                InitialTopology::RandomSparse { extra: 2 },
                &ids,
                ProtocolConfig::default(),
                seed as u64,
            )
            .into_network(seed as u64);
            run_to_ring(&mut net, 5000)
        });
        assert!(reports
            .iter()
            .all(super::super::convergence::ConvergenceReport::stabilized));
        // Sequential re-run of one trial reproduces the parallel result.
        let mut net = generate(
            InitialTopology::RandomSparse { extra: 2 },
            &ids,
            ProtocolConfig::default(),
            3,
        )
        .into_network(3);
        let seq = run_to_ring(&mut net, 5000);
        assert_eq!(seq.rounds_to_ring, reports[3].rounds_to_ring);
        assert_eq!(seq.messages_to_ring, reports[3].messages_to_ring);
    }
}
