//! # tclose-parallel
//!
//! Scoped-thread parallelism for the microaggregation hot path.
//!
//! The workspace builds fully offline, so rayon cannot be vendored; this
//! crate provides the three primitives the rest of the system needs on top
//! of plain [`std::thread::scope`]:
//!
//! * [`parallel_map`] — order-preserving map over a `Vec` with dynamic
//!   one-item-at-a-time dispatch, so load balances by cost (the experiment
//!   runner's workhorse, generalised here from `tclose-eval`);
//! * [`map_blocks`] — the kernel substrate: apply a function to **fixed
//!   size** blocks of `0..n` and return the per-block results in block
//!   order;
//! * [`ordered_pipeline`] — a bounded source → work → sink pipeline whose
//!   workers live for the whole call, with outputs sunk in input order
//!   (the streaming engine's pass 2).
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

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};

/// Fixed block granularity (in items) of [`map_blocks`].
///
/// Small enough to give every core work on ≥ 100k-record scans, large
/// enough that the per-block bookkeeping is negligible next to the
/// arithmetic inside a block. Part of the determinism contract: results
/// of blocked reductions depend on this constant, never on thread count.
pub const BLOCK: usize = 4096;

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
/// behind a static chunk assignment. Falls back to sequential execution
/// for tiny inputs where thread spin-up would dominate.
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
/// block order**, computing blocks on up to `workers` scoped threads that
/// take them one at a time ([`parallel_map_with`] over the block indices).
///
/// This is the substrate of every deterministic parallel kernel: because
/// block boundaries depend only on `n`, reducing the returned partials
/// sequentially yields the same floating-point result for any `workers`.
/// With `workers <= 1` (or a single block) no thread is spawned and
/// nothing is allocated besides the result.
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
    parallel_map_with(
        (0..n_blocks).collect(),
        Parallelism::workers(workers),
        |&b| f(block_range(b)),
    )
}

/// The work on one [`ordered_pipeline`] item panicked; the pipeline hands
/// this to `E::from` to make the item's error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// The item's 0-based position in the source.
    pub index: usize,
    /// The panic message, or `"non-string panic payload"`.
    pub message: String,
}

/// Runs `work` on every item of `source` and hands the outputs to `sink`
/// **in input order**, on `par.worker_count()` threads that live for the
/// whole call.
///
/// The calling thread pulls items from `source` and runs `sink`; the
/// workers only run `work`. Pulling and sinking therefore overlap the
/// work, a worker that finishes an item takes the next one at once, and
/// the same threads serve every item. At most `workers + 1` items are in
/// flight (pulled but not yet sunk), so the caller's memory holds at most
/// that many items or outputs at a time. No more threads start than there
/// are items, and with one worker none does: each item is pulled, worked
/// and sunk on the calling thread in turn.
///
/// The first failure in input order is returned, after every earlier
/// item has been sunk and before any later one is:
///
/// * `work` returning an error or panicking on an item (the panic becomes
///   `E::from(ItemPanic)`; the panic hook still reports it);
/// * `source` yielding an error where item `i` was due: items before `i`
///   are still worked and sunk, so their failures win;
/// * `sink` returning an error.
///
/// After a failure no item is pulled and no queued item is started.
/// Every worker is joined before the call returns, on every path.
pub fn ordered_pipeline<I, O, E, S, W, K>(
    par: Parallelism,
    source: S,
    work: W,
    mut sink: K,
) -> Result<(), E>
where
    I: Send,
    O: Send,
    E: Send + From<ItemPanic>,
    S: IntoIterator<Item = Result<I, E>>,
    W: Fn(I) -> Result<O, E> + Sync,
    K: FnMut(O) -> Result<(), E>,
{
    let run = |index: usize, item: I| -> Result<O, E> {
        catch_unwind(AssertUnwindSafe(|| work(item))).unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(ItemPanic { index, message }.into())
        })
    };
    let source = source.into_iter();
    let workers = par.worker_count();
    if workers <= 1 {
        for (index, item) in source.enumerate() {
            sink(run(index, item?)?)?;
        }
        return Ok(());
    }

    let (jobs, queue) = mpsc::channel::<(usize, I)>();
    let queue = Mutex::new(queue);
    let (done_tx, done) = mpsc::channel();
    // Set once the caller has stopped: queued items are then dropped
    // unstarted. A hint that guards no other data, so `Relaxed`.
    let stopped = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let spawn_worker = || {
            let done_tx = done_tx.clone();
            let (queue, stopped, run) = (&queue, &stopped, &run);
            scope.spawn(move || loop {
                // The lock is held only while waiting for one job.
                let job = queue
                    .lock()
                    .expect("no worker panics holding the queue")
                    .recv();
                let Ok((index, item)) = job else { break };
                if !stopped.load(Ordering::Relaxed) {
                    done_tx
                        .send((index, run(index, item)))
                        .expect("the caller holds `done` until every worker is joined");
                }
            });
        };
        let result = feed(source, &mut sink, &jobs, &done, workers, spawn_worker);
        stopped.store(true, Ordering::Relaxed);
        // Closing the queue ends every worker's loop; the scope joins them.
        drop(jobs);
        result
    })
}

/// The calling thread's side of [`ordered_pipeline`]: pulls items into
/// `jobs` while fewer than `workers + 1` are in flight, starting one
/// worker per item pulled until there are `workers`, and sinks the
/// outputs that come back on `done` in input order.
fn feed<I, O, E>(
    mut source: impl Iterator<Item = Result<I, E>>,
    sink: &mut impl FnMut(O) -> Result<(), E>,
    jobs: &mpsc::Sender<(usize, I)>,
    done: &mpsc::Receiver<(usize, Result<O, E>)>,
    workers: usize,
    spawn_worker: impl Fn(),
) -> Result<(), E> {
    // `pending[j]` is the output of item `sunk + j` once it is back.
    let mut pending: VecDeque<Option<Result<O, E>>> = VecDeque::new();
    let mut sunk = 0;
    let mut spawned = 0;
    let mut read_error = None;
    let mut pulling = true;
    loop {
        while pulling && pending.len() <= workers {
            match source.next() {
                Some(Ok(item)) => {
                    if spawned < workers {
                        spawn_worker();
                        spawned += 1;
                    }
                    let index = sunk + pending.len();
                    jobs.send((index, item))
                        .expect("the queue lives until the feed returns");
                    pending.push_back(None);
                }
                Some(Err(e)) => {
                    read_error = Some(e);
                    pulling = false;
                }
                None => pulling = false,
            }
        }
        if pending.is_empty() {
            return read_error.map_or(Ok(()), Err);
        }
        let (index, out) = done
            .recv()
            .expect("workers answer every job while the feed runs");
        pulling &= out.is_ok();
        pending[index - sunk] = Some(out);
        while pending.front().is_some_and(Option::is_some) {
            let out = pending
                .pop_front()
                .flatten()
                .expect("the front output is back");
            sunk += 1;
            sink(out?)?;
        }
    }
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

    /// Why an [`ordered_pipeline`] test call failed.
    #[derive(Debug, PartialEq)]
    enum Failure {
        Panicked(ItemPanic),
        Source(usize),
        Work(usize),
        Sink(usize),
    }

    impl From<ItemPanic> for Failure {
        fn from(p: ItemPanic) -> Self {
            Failure::Panicked(p)
        }
    }

    /// Seeded uneven per-item cost, 0–400 µs (SplitMix64 of the item).
    fn uneven_cost(seed: u64, item: usize) -> std::time::Duration {
        let mut z = seed.wrapping_add((item as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        std::time::Duration::from_micros((z ^ (z >> 31)) % 400)
    }

    #[test]
    fn pipeline_sinks_in_input_order_with_bounded_flight() {
        for workers in [1usize, 2, 3, 8] {
            for n in [0, 1, workers, 5 * workers + 1] {
                let in_flight = AtomicUsize::new(0);
                let mut most = 0;
                let mut sunk = Vec::new();
                let source = (0..n).map(|i| {
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, Failure>(i)
                });
                ordered_pipeline(
                    Parallelism::workers(workers),
                    source,
                    |i| {
                        std::thread::sleep(uneven_cost(workers as u64, i));
                        Ok(i * 10)
                    },
                    |out| {
                        most = most.max(in_flight.fetch_sub(1, Ordering::SeqCst));
                        sunk.push(out);
                        Ok(())
                    },
                )
                .unwrap();
                let case = format!("workers {workers}, {n} items");
                assert_eq!(sunk, (0..n).map(|i| i * 10).collect::<Vec<_>>(), "{case}");
                assert!(most <= workers + 1, "{case}: {most} items in flight");
                if workers > 1 {
                    // The caller fills the pipeline before it waits.
                    assert_eq!(most, n.min(workers + 1), "{case}");
                }
            }
        }
    }

    #[test]
    fn pipeline_workers_live_for_the_whole_call() {
        let caller = std::thread::current().id();
        for (workers, n) in [(1usize, 40), (2, 40), (3, 40), (8, 3)] {
            let ran_on = Mutex::new(std::collections::HashSet::new());
            ordered_pipeline(
                Parallelism::workers(workers),
                (0..n).map(Ok::<_, Failure>),
                |i| {
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(uneven_cost(5, i));
                    Ok(i)
                },
                |_| {
                    assert_eq!(std::thread::current().id(), caller, "sink off the caller");
                    Ok(())
                },
            )
            .unwrap();
            let ran_on = ran_on.into_inner().unwrap();
            if workers == 1 {
                assert_eq!(ran_on, [caller].into(), "one worker runs inline");
            } else {
                assert!(!ran_on.contains(&caller), "work ran on the caller");
                let most = workers.min(n);
                assert!(ran_on.len() <= most, "{} threads", ran_on.len());
            }
        }
    }

    #[test]
    fn pipeline_returns_a_panic_as_its_item_error_in_order() {
        for workers in [1usize, 2, 3, 8] {
            let mut sunk = Vec::new();
            let err = ordered_pipeline(
                Parallelism::workers(workers),
                (0..30).map(Ok::<_, Failure>),
                |i| {
                    // Uneven costs bring some later items back before 11.
                    std::thread::sleep(uneven_cost(9, i));
                    if i == 11 {
                        panic!("item eleven is bad");
                    }
                    Ok(i)
                },
                |i| {
                    sunk.push(i);
                    Ok(())
                },
            )
            .unwrap_err();
            assert_eq!(
                err,
                Failure::Panicked(ItemPanic {
                    index: 11,
                    message: "item eleven is bad".into()
                }),
                "workers {workers}"
            );
            assert_eq!(sunk, (0..11).collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn pipeline_returns_the_first_failure_in_input_order() {
        for workers in [1usize, 2, 3, 4, 8] {
            // A source error waits for the items before it…
            let mut sunk = Vec::new();
            let source = (0..20).map(|i| {
                if i == 7 {
                    Err(Failure::Source(i))
                } else {
                    Ok(i)
                }
            });
            let err = ordered_pipeline(Parallelism::workers(workers), source, Ok, |i| {
                sunk.push(i);
                Ok(())
            });
            assert_eq!(err, Err(Failure::Source(7)), "workers {workers}");
            assert_eq!(sunk, (0..7).collect::<Vec<_>>(), "workers {workers}");

            // …so an earlier item's failure wins over it, however early
            // the source fails.
            let source = (0..20).map(|i| {
                if i == 4 {
                    Err(Failure::Source(i))
                } else {
                    Ok(i)
                }
            });
            let err = ordered_pipeline(
                Parallelism::workers(workers),
                source,
                |i| {
                    std::thread::sleep(uneven_cost(3, i));
                    if i == 2 {
                        return Err(Failure::Work(i));
                    }
                    Ok(i)
                },
                |_| Ok(()),
            );
            assert_eq!(err, Err(Failure::Work(2)), "workers {workers}");

            // A sink error ends the call at its item.
            let mut pulled = 0;
            let source = (0..1000).map(|i| {
                pulled += 1;
                Ok(i)
            });
            let err = ordered_pipeline(Parallelism::workers(workers), source, Ok, |i| {
                if i == 5 {
                    return Err(Failure::Sink(i));
                }
                Ok(())
            });
            assert_eq!(err, Err(Failure::Sink(5)), "workers {workers}");
            assert!(pulled <= 6 + workers, "workers {workers}: pulled {pulled}");
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
