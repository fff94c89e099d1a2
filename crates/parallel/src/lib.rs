//! # tclose-parallel
//!
//! Scoped-thread parallelism for the microaggregation hot path.
//!
//! The workspace builds fully offline, so rayon cannot be vendored; this
//! crate provides the three primitives the rest of the system needs on top
//! of plain [`std::thread::scope`]:
//!
//! * [`chunk_ranges`] — split `0..n` into contiguous chunks balanced to
//!   within one item of each other;
//! * [`parallel_map`] — order-preserving map over a `Vec` with dynamic
//!   one-item-at-a-time dispatch, so load balances by cost (the experiment
//!   runner's workhorse, generalised here from `tclose-eval`);
//! * [`map_blocks`] — the kernel substrate: apply a function to **fixed
//!   size** blocks of `0..n` and return the per-block results in block
//!   order.
//!
//! ## Determinism model
//!
//! Floating-point reduction order must not depend on how many threads
//! happen to run, or parallel microaggregation (MDAV / V-MDAV, crate
//! `tclose-microagg`) could not promise clusterings byte-identical to the
//! sequential ones. [`map_blocks`] therefore fixes the *block structure*
//! (blocks of exactly [`BLOCK`] items, independent of the worker count)
//! and only distributes whole blocks over threads; callers reduce the
//! returned partials sequentially in block order. The worker count then
//! only decides who computes each block, never what is computed — one
//! worker and sixteen produce bit-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Fixed block granularity (in items) of [`map_blocks`].
///
/// Small enough to give every core work on ≥ 100k-record scans, large
/// enough that the per-block bookkeeping is negligible next to the
/// arithmetic inside a block. Part of the determinism contract: results
/// of blocked reductions depend on this constant, never on thread count.
pub const BLOCK: usize = 4096;

/// Splits `0..n` into `parts` contiguous ranges whose lengths differ by at
/// most one item (the first `n % parts` ranges take the extra item).
///
/// Returns fewer than `parts` ranges when `n < parts` (never an empty
/// range) and an empty vector for `n == 0`.
///
/// # Panics
/// Panics if `parts == 0` while `n > 0`.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    assert!(parts > 0, "cannot split {n} items into 0 chunks");
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0usize;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(lo..lo + len);
        lo += len;
    }
    debug_assert_eq!(lo, n);
    out
}

/// Thread-count policy for the parallel kernels.
///
/// A `Parallelism` is a *maximum*: kernels clamp it further so no thread
/// receives less than one [`BLOCK`] of work. Because every kernel reduces
/// over the fixed block structure, the chosen worker count never changes
/// results — `sequential()` and `workers(16)` yield bit-identical output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    workers: usize,
}

impl Parallelism {
    /// One worker per available core ([`std::thread::available_parallelism`]).
    ///
    /// The core count is read once per process and cached: the query
    /// reads the affinity mask and the cgroup CPU quota (about 13 µs per
    /// call on a 2-core Linux container), so later changes to either are
    /// not seen.
    pub fn auto() -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        Parallelism {
            workers: *CORES.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            }),
        }
    }

    /// Single-threaded execution.
    pub fn sequential() -> Self {
        Parallelism { workers: 1 }
    }

    /// Exactly `workers` threads (clamped to at least 1).
    pub fn workers(workers: usize) -> Self {
        Parallelism {
            workers: workers.max(1),
        }
    }

    /// The configured maximum worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Workers actually worth spawning for `n` items at `min_per_worker`
    /// items each: `min(workers, max(1, n / min_per_worker))`.
    pub fn effective(&self, n: usize, min_per_worker: usize) -> usize {
        let cap = (n / min_per_worker.max(1)).max(1);
        self.workers.min(cap)
    }
}

impl Default for Parallelism {
    /// [`Parallelism::auto`].
    fn default() -> Self {
        Self::auto()
    }
}

/// Applies `f` to every item of `inputs` using up to `available_parallelism`
/// scoped threads, returning the outputs in input order.
///
/// Items are handed out **one at a time** from a shared counter, so load
/// balances by *cost*, not just count: when one item takes much longer than
/// the rest (e.g. an Algorithm-1 experiment cell next to Algorithm-3
/// cells), the other workers keep draining the queue instead of idling
/// behind a static chunk assignment. For cost-uniform work split into
/// contiguous ranges, use [`chunk_ranges`] directly. Falls back to
/// sequential execution for tiny inputs where thread spin-up would
/// dominate.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_map_with(inputs, Parallelism::auto(), f)
}

/// [`parallel_map`] with an explicit thread-count policy.
///
/// The worker count only decides *who* computes each item, never the
/// result: outputs are returned in input order and each item is computed
/// independently, so `sequential()` and `workers(16)` produce identical
/// output vectors. This is the entry point callers expose to end users
/// (e.g. the CLI's `--workers`).
pub fn parallel_map_with<I, O, F>(inputs: Vec<I>, par: Parallelism, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    // `effective` caps workers at n, so a single item (or an explicitly
    // sequential policy) short-circuits below. Two items with two workers
    // DO spawn: items may be arbitrarily expensive (e.g. whole anonymization
    // shards), and thread spin-up is negligible against anything that
    // benefits from this function at all.
    let workers = par.effective(n, 1);
    if workers <= 1 {
        return inputs.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(&inputs[i]);
                *slots[i].lock().expect("no poisoned slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no poisoned slot")
                .expect("every slot filled")
        })
        .collect()
}

/// Applies `f` to each fixed-size block of `0..n` (every block spans exactly
/// [`BLOCK`] items except the last) and returns the per-block results **in
/// block order**, computing blocks on up to `workers` scoped threads.
///
/// This is the substrate of every deterministic parallel kernel: because
/// block boundaries depend only on `n`, reducing the returned partials
/// sequentially yields the same floating-point result for any `workers`.
/// With `workers <= 1` (or a single block) no thread is spawned.
pub fn map_blocks<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let n_blocks = n.div_ceil(BLOCK);
    let block_range = |b: usize| b * BLOCK..((b + 1) * BLOCK).min(n);
    if workers <= 1 || n_blocks <= 1 {
        return (0..n_blocks).map(|b| f(block_range(b))).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_blocks).map(|_| Mutex::new(None)).collect();
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n_blocks) {
            scope.spawn(|| loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                if b >= n_blocks {
                    break;
                }
                let out = f(block_range(b));
                *slots[b].lock().expect("no poisoned block slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no poisoned block slot")
                .expect("every block computed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_reads_one_core_count_per_process() {
        let first = Parallelism::auto();
        assert!(first.worker_count() >= 1);
        assert_eq!(Parallelism::auto(), first);
        assert_eq!(Parallelism::default(), first);
    }

    #[test]
    fn chunk_ranges_are_balanced_within_one() {
        for n in [0usize, 1, 2, 3, 7, 10, 16, 101, 4096] {
            for parts in [1usize, 2, 3, 4, 7, 8, 33] {
                let ranges = chunk_ranges(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} parts={parts}: items lost");
                if n == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.len(), parts.min(n));
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                assert!(max - min <= 1, "n={n} parts={parts}: {min}..{max}");
                // contiguous cover of 0..n
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // no empty chunk
                assert!(ranges.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "0 chunks")]
    fn zero_parts_with_items_panics() {
        chunk_ranges(5, 0);
    }

    #[test]
    fn parallelism_effective_clamps() {
        let p = Parallelism::workers(8);
        assert_eq!(p.worker_count(), 8);
        assert_eq!(p.effective(100, 1), 8);
        assert_eq!(p.effective(3, 1), 3);
        assert_eq!(p.effective(0, 1), 1);
        assert_eq!(p.effective(10_000, 4096), 2);
        assert_eq!(p.effective(100, 4096), 1);
        assert_eq!(Parallelism::workers(0).worker_count(), 1);
        assert_eq!(Parallelism::sequential().worker_count(), 1);
        assert!(Parallelism::auto().worker_count() >= 1);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<usize> = (0..1000).collect();
        let out = parallel_map(inputs, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_with_is_worker_count_invariant() {
        let inputs: Vec<usize> = (0..257).collect();
        let seq = parallel_map_with(inputs.clone(), Parallelism::sequential(), |&x| x * 3 + 1);
        for w in [2usize, 4, 16] {
            let par = parallel_map_with(inputs.clone(), Parallelism::workers(w), |&x| x * 3 + 1);
            assert_eq!(seq, par, "workers={w}");
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let out: Vec<usize> = parallel_map(Vec::<usize>::new(), |&x| x);
        assert!(out.is_empty());
        assert_eq!(parallel_map(vec![7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn map_blocks_covers_all_items_in_order() {
        for n in [0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17] {
            for workers in [1usize, 2, 4, 8] {
                let parts = map_blocks(n, workers, |r| r.clone());
                let total: usize = parts.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                for (b, r) in parts.iter().enumerate() {
                    assert_eq!(r.start, b * BLOCK, "n={n} workers={workers}");
                    assert!(r.len() <= BLOCK);
                }
            }
        }
    }

    #[test]
    fn map_blocks_reduction_is_worker_count_independent() {
        // Summing in block order must give bit-identical totals for any
        // worker count — the determinism contract of the parallel kernels.
        let xs: Vec<f64> = (0..3 * BLOCK + 123)
            .map(|i| ((i * 2654435761_usize) % 1_000_003) as f64 * 1e-3)
            .collect();
        let sum_with = |workers: usize| -> f64 {
            map_blocks(xs.len(), workers, |r| xs[r].iter().sum::<f64>())
                .iter()
                .sum()
        };
        let seq = sum_with(1);
        for w in [2usize, 3, 4, 8] {
            assert_eq!(seq.to_bits(), sum_with(w).to_bits(), "workers={w}");
        }
    }
}
