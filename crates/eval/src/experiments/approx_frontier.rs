//! Extension — the approximate-backend speed/utility frontier.
//!
//! The exact MDAV family costs `O(n²/k)` distance evaluations; the
//! `hybrid` opt-in (`NeighborBackend::Hybrid`) buys million-row
//! wall-clock at the price of a *different* (still valid, still t-close)
//! MDAV clustering. This experiment measures both sides of that bargain:
//!
//! * **Utility** — on the pipeline data sets, the approximate backend's
//!   release vs the exact one: SSE ratio and achieved-t ratio
//!   (approximate / exact; 1.0 means no loss). Every cell also re-checks
//!   that the approximate release satisfies the request.
//! * **Speed** — partition-only wall-clock of exact kd-tree vs hybrid on
//!   the seeded [`frontier_rows`] blobs at the small-`k` regime
//!   (`k = n/10_000`) where the quadratic exact cost actually binds;
//!   reported as a speedup over the kd-tree.
//!
//! The frontier is **not** part of `repro --exp all`: the full-size speed
//! sweep partitions a million rows per backend and is invoked
//! explicitly (`repro --exp frontier`, with `--quick` shrinking n).

use std::time::Instant;

use crate::render::{fmt_f, Grid};
use crate::{Context, Dataset};
use tclose_core::{Algorithm, Anonymizer};
use tclose_datasets::synthetic::frontier_rows;
use tclose_metrics::matrix::Matrix;
use tclose_microagg::{mdav_partition_with, NeighborBackend};
use tclose_parallel::Parallelism;

/// The backends the frontier compares: the exact reference first, then
/// the approximate opt-in.
pub fn frontier_backends() -> [(&'static str, NeighborBackend); 2] {
    [
        ("kdtree", NeighborBackend::KdTree),
        ("hybrid", NeighborBackend::Hybrid),
    ]
}

/// One utility measurement: an approximate backend's release vs the
/// exact release on the same data set and parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityCell {
    /// Data set measured.
    pub dataset: &'static str,
    /// Backend measured (`hybrid`).
    pub backend: &'static str,
    /// Approximate SSE / exact SSE (≥ 1.0 is a utility loss).
    pub sse_ratio: f64,
    /// Approximate achieved t / exact achieved t.
    pub achieved_t_ratio: f64,
    /// Whether the approximate release satisfies the requested (k, t).
    pub valid: bool,
}

/// One speed measurement: a single partition run at frontier scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedCell {
    /// Backend measured.
    pub backend: &'static str,
    /// Record count.
    pub n: usize,
    /// Dimensions.
    pub dims: usize,
    /// Cluster size `k`.
    pub k: usize,
    /// Partition wall time in seconds.
    pub seconds: f64,
    /// kd-tree seconds / this backend's seconds (1.0 for the kd-tree
    /// row itself).
    pub speedup: f64,
}

/// Utility sweep on one data set: anonymize with the exact kd-tree and
/// with each approximate backend under identical parameters; report the
/// approximate-vs-exact SSE and achieved-t ratios.
pub fn utility_cells(
    dataset: &'static str,
    table: &tclose_microdata::Table,
    k: usize,
    t: f64,
) -> Vec<UtilityCell> {
    let run = |backend: NeighborBackend| {
        Anonymizer::new(k, t)
            .algorithm(Algorithm::TClosenessFirst)
            .with_backend(backend)
            .anonymize(table)
            .unwrap_or_else(|e| panic!("frontier cell failed on {dataset}: {e}"))
            .report
    };
    let exact = run(NeighborBackend::KdTree);
    frontier_backends()
        .into_iter()
        .skip(1)
        .map(|(name, backend)| {
            let approx = run(backend);
            UtilityCell {
                dataset,
                backend: name,
                // A zero-SSE exact release (perfectly tied data) makes the
                // ratio meaningless; report 1.0 — no loss is possible.
                sse_ratio: if exact.sse > 0.0 {
                    approx.sse / exact.sse
                } else {
                    1.0
                },
                achieved_t_ratio: if exact.max_emd > 0.0 {
                    approx.max_emd / exact.max_emd
                } else {
                    1.0
                },
                valid: approx.satisfies_request(),
            }
        })
        .collect()
}

/// Speed sweep at one `(n, dims)` point: every frontier backend
/// partitions the same seeded blob matrix once, `k = n/10_000` (the
/// regime where the exact `O(n²/k)` cost binds — at the suite's usual
/// `k = n/200` the exact loop is already cheap).
pub fn speed_cells(seed: u64, n: usize, dims: usize) -> Vec<SpeedCell> {
    let m = Matrix::new(frontier_rows(seed, n, dims), n, dims);
    let k = (n / 10_000).max(10);
    let mut cells: Vec<SpeedCell> = frontier_backends()
        .into_iter()
        .map(|(name, backend)| {
            let start = Instant::now();
            let c = mdav_partition_with(&m, k, Parallelism::auto(), backend);
            let seconds = start.elapsed().as_secs_f64();
            c.check_min_size(k)
                .unwrap_or_else(|e| panic!("{name} produced an invalid partition: {e}"));
            SpeedCell {
                backend: name,
                n,
                dims,
                k,
                seconds,
                speedup: 1.0,
            }
        })
        .collect();
    let exact_s = cells[0].seconds;
    for c in &mut cells {
        c.speedup = exact_s / c.seconds;
    }
    cells
}

/// Renders the utility side of the frontier: rows = data set × backend,
/// columns = SSE ratio, achieved-t ratio, validity.
pub fn frontier_utility_grid(ctx: &Context) -> Grid {
    let mut grid = Grid {
        title: "Frontier (utility) — approximate vs exact release, alg3, k=5".into(),
        headers: vec![
            "dataset".into(),
            "backend".into(),
            "sse_ratio".into(),
            "achieved_t_ratio".into(),
            "valid".into(),
        ],
        rows: Vec::new(),
    };
    for (name, ds, t) in [
        ("census-mcd", Dataset::Mcd, 0.25),
        ("patient", Dataset::Patient, 0.3),
    ] {
        let table = ds.table(ctx);
        for c in utility_cells(name, &table, 5, t) {
            grid.push_row(vec![
                c.dataset.to_owned(),
                c.backend.to_owned(),
                fmt_f(c.sse_ratio, 4),
                fmt_f(c.achieved_t_ratio, 4),
                c.valid.to_string(),
            ]);
        }
    }
    grid
}

/// Renders the speed side of the frontier: rows = backend, columns =
/// seconds and speedup, at `n` = 1M (`--quick`: 100k) in 2 and 4 dims.
pub fn frontier_speed_grid(ctx: &Context) -> Grid {
    let n = if ctx.quick { 100_000 } else { 1_000_000 };
    let mut grid = Grid {
        title: format!("Frontier (speed) — MDAV partition, n={n}, k=n/10k"),
        headers: vec![
            "backend".into(),
            "dims".into(),
            "seconds".into(),
            "speedup_vs_kdtree".into(),
        ],
        rows: Vec::new(),
    };
    for dims in [2usize, 4] {
        for c in speed_cells(ctx.seed, n, dims) {
            grid.push_row(vec![
                c.backend.to_owned(),
                c.dims.to_string(),
                fmt_f(c.seconds, 3),
                fmt_f(c.speedup, 2),
            ]);
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::small_mcd;

    #[test]
    fn utility_cells_compare_the_approximate_backend() {
        let t = small_mcd(120);
        let cells = utility_cells("small-mcd", &t, 3, 0.3);
        assert_eq!(cells.len(), 1);
        for c in &cells {
            assert!(
                c.valid,
                "{}: approximate release must stay valid",
                c.backend
            );
            assert!(c.sse_ratio.is_finite() && c.sse_ratio >= 0.0);
            assert!(c.achieved_t_ratio.is_finite());
        }
    }

    #[test]
    fn speed_cells_cover_every_backend_and_normalize_speedup() {
        // Tiny n: the hybrid falls back to exact work, but the harness
        // mechanics (timing, validity check, speedup normalization) are
        // fully exercised.
        let cells = speed_cells(7, 2_000, 2);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].backend, "kdtree");
        assert!((cells[0].speedup - 1.0).abs() < 1e-12);
        assert!(cells.iter().all(|c| c.seconds >= 0.0 && c.k == 10));
    }
}
