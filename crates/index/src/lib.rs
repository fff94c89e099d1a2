//! # tclose-index
//!
//! Exact nearest-neighbor indexing for the microaggregation hot path.
//!
//! MDAV-style clustering (Soria-Comas et al., ICDE 2016, Algorithms 1–3;
//! Domingo-Ferrer & Torra 2005) answers the same three queries over a
//! shrinking set of unassigned records, thousands of times per run:
//! *which record is farthest from this point*, *which `k` records are
//! nearest to this seed*, *which record is nearest to this point*. The
//! flat kernels of `tclose-metrics` answer each with a full `O(n)` scan,
//! which makes a partition cost `O(n²/k)` distance evaluations — the known
//! bottleneck that pre-partitioning approaches (e.g. Abidi et al.,
//! "Hybrid Microaggregation for Privacy-Preserving Data Mining") attack.
//!
//! This crate provides the structural alternative: a bulk-built
//! [`KdTree`] over the flat row-major [`Matrix`](tclose_metrics::Matrix)
//! (median split, typed [`RowId`](tclose_metrics::RowId) leaves) with
//! **tombstone deletion**, so the working set can shrink record by record
//! without a rebuild, and exact branch-and-bound pruned queries.
//!
//! ## The exactness contract
//!
//! The tree is an *index*, not an approximation: every query returns
//! **byte-identical** results to the corresponding flat scan over the same
//! live set —
//!
//! * candidate distances are evaluated with the very same floating-point
//!   operation sequence ([`sq_dist_dim`](tclose_metrics::distance::sq_dist_dim));
//! * ties resolve by the same total order (distance, then lowest row id);
//! * subtree pruning uses bounding-box distance bounds that are
//!   floating-point-monotone against the point distances, and prunes only
//!   on *strict* inequality, so a tied candidate behind a bound is never
//!   lost.
//!
//! Swapping backends can therefore never change a partition, a released
//! table, or an audit — only wall-clock time. `tests/` in this crate
//! property-check the contract against the naive scans on seeded random
//! data (including duplicate-point ties); the umbrella
//! `tests/backend_equivalence.rs` pins it end-to-end through the pipeline.
//!
//! ## Choosing a backend
//!
//! [`NeighborBackend`] is the user-facing switch (CLI `--backend`,
//! `Anonymizer::with_backend`): `FlatScan`, `KdTree`, or `Auto`, which
//! picks the tree when the matrix is large enough to amortize the build
//! and low-dimensional enough for pruning to bite (see
//! [`NeighborBackend::resolve`]). [`NeighborSet`] is the working-set type
//! the clustering loops drive; it dispatches every query to the resolved
//! backend and keeps the tree's tombstones in lockstep with the caller's
//! live-id list.
//!
//! ## The approximate `Hybrid` backend (opt-in)
//!
//! The exactness contract above covers `FlatScan`, `KdTree`, and `Auto`.
//! [`NeighborBackend::Hybrid`] deliberately steps outside it for
//! million-row scale, and only at the partition level: the MDAV-family
//! partitioners intercept it and run sample-MDAV + blocked centroid
//! assignment + exact within-group refinement (`tclose-microagg`'s
//! `hybrid` module). Any *query-level* use (Algorithms 2 and 3's direct
//! working-set scans, SABRE) resolves exactly as `Auto` does, so those
//! queries stay exact. `Hybrid` is opt-in only — `Auto` never picks it.
//!
//! Approximation here only ever moves the *partition search*; the
//! t-closeness refinement and verification layers above remain exact, so
//! every released table still passes `verify_t_closeness` — see
//! `docs/ALGORITHMS.md`.
//!
//! ## Parallel build
//!
//! Tree construction parallelizes ([`KdTree::build_with`]) without
//! leaving the exactness contract: the parallel build produces a tree
//! equal in every field to the sequential one. Queries stay one
//! traversal each; [`NeighborSet::nearest_batch`] batches only on the
//! flat backend, where one blocked pass serves every query point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod set;
mod tree;

pub use set::NeighborSet;
pub use tree::KdTree;

use std::fmt;
use std::str::FromStr;

/// Which neighbor-search backend the clustering loops should use.
///
/// `Auto`, `FlatScan`, and `KdTree` are exact and share one tie-breaking
/// order — switching among them never affects results, only wall-clock
/// time, so `Auto` (the default) is safe everywhere. `Hybrid` is the
/// **opt-in approximate** partitioning mode for million-row scale: it can
/// change an MDAV or V-MDAV partition (never its validity — clusters stay
/// k-anonymous and releases stay t-close through the exact refinement
/// layers), and is therefore never chosen by `Auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborBackend {
    /// Decide per matrix: kd-tree for large, low-dimensional working sets
    /// (`n ≥ `[`AUTO_MIN_ROWS`] and `1 ≤ dims ≤ `[`AUTO_MAX_DIMS`]), flat
    /// scans otherwise.
    #[default]
    Auto,
    /// Always the blocked linear-scan kernels of `tclose-metrics` —
    /// `O(n)` per query, trivially parallel, no build cost.
    FlatScan,
    /// Always the pruned [`KdTree`] — `O(n log n)` build once, then far
    /// sublinear queries on clustered low-dimensional data.
    KdTree,
    /// Approximate: coreset partitioning — sample-MDAV centroids, blocked
    /// nearest-centroid assignment, exact within-group refinement.
    /// Intercepted at the partitioner level by `tclose-microagg`;
    /// query-level uses resolve exactly as [`NeighborBackend::Auto`].
    Hybrid,
}

/// Minimum row count at which `Auto` switches to the kd-tree (below this
/// the `O(n log n)` build costs more than the scans it saves). The
/// recorded crossover table in `docs/PERFORMANCE.md` ("Backend
/// crossover", d = 4) has the tree ≥ 3× ahead from ~512 rows on; 1024
/// keeps a safety margin for degenerate shapes while catching every
/// working set where the win is more than microseconds.
pub const AUTO_MIN_ROWS: usize = 1024;

/// Maximum dimensionality at which `Auto` uses the kd-tree. Bounding-box
/// pruning loses its bite as dimensions grow (every box looks equidistant);
/// QI embeddings in practice have ≤ 8 dimensions, which is also as far as
/// the specialised distance kernels unroll.
pub const AUTO_MAX_DIMS: usize = 8;

/// A [`NeighborBackend`] with `Auto` (and the partition-level `Hybrid`
/// mode) resolved away to a concrete, exact query engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Blocked linear scans.
    FlatScan,
    /// Pruned kd-tree queries.
    KdTree,
}

impl NeighborBackend {
    /// Resolves the backend for a matrix of `n_rows` × `n_cols`: explicit
    /// exact choices pass through, and `Auto` picks
    /// [`ResolvedBackend::KdTree`] iff `n_rows ≥ `[`AUTO_MIN_ROWS`] and
    /// `1 ≤ n_cols ≤ `[`AUTO_MAX_DIMS`]. `Hybrid` resolves as `Auto` does:
    /// its coreset partitioning is intercepted earlier, in
    /// `tclose-microagg`, and every query-level use stays exact.
    pub fn resolve(self, n_rows: usize, n_cols: usize) -> ResolvedBackend {
        match self {
            NeighborBackend::FlatScan => ResolvedBackend::FlatScan,
            NeighborBackend::KdTree => ResolvedBackend::KdTree,
            NeighborBackend::Auto | NeighborBackend::Hybrid => {
                if n_rows >= AUTO_MIN_ROWS && (1..=AUTO_MAX_DIMS).contains(&n_cols) {
                    ResolvedBackend::KdTree
                } else {
                    ResolvedBackend::FlatScan
                }
            }
        }
    }
}

impl fmt::Display for NeighborBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NeighborBackend::Auto => "auto",
            NeighborBackend::FlatScan => "flat",
            NeighborBackend::KdTree => "kdtree",
            NeighborBackend::Hybrid => "hybrid",
        })
    }
}

impl FromStr for NeighborBackend {
    type Err = String;

    /// Parses the CLI spelling: `auto`, `flat`/`flatscan`/`flat-scan`,
    /// `kd`/`kdtree`/`kd-tree`, `hybrid`/`coreset` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(NeighborBackend::Auto),
            "flat" | "flatscan" | "flat-scan" => Ok(NeighborBackend::FlatScan),
            "kd" | "kdtree" | "kd-tree" => Ok(NeighborBackend::KdTree),
            "hybrid" | "coreset" => Ok(NeighborBackend::Hybrid),
            other => Err(format!(
                "unknown backend {other:?} (expected auto|flat|kdtree|hybrid)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolution_rules() {
        use ResolvedBackend::*;
        assert_eq!(NeighborBackend::Auto.resolve(AUTO_MIN_ROWS, 4), KdTree);
        assert_eq!(
            NeighborBackend::Auto.resolve(AUTO_MIN_ROWS - 1, 4),
            FlatScan
        );
        assert_eq!(
            NeighborBackend::Auto.resolve(100_000, AUTO_MAX_DIMS),
            KdTree
        );
        assert_eq!(
            NeighborBackend::Auto.resolve(100_000, AUTO_MAX_DIMS + 1),
            FlatScan
        );
        assert_eq!(NeighborBackend::Auto.resolve(100_000, 0), FlatScan);
        // explicit choices ignore the shape
        assert_eq!(NeighborBackend::KdTree.resolve(2, 100), KdTree);
        assert_eq!(NeighborBackend::FlatScan.resolve(1_000_000, 2), FlatScan);
        // Hybrid's query-level uses resolve exactly as Auto does, on both
        // sides of the row threshold and of the dimension cap
        for (n, d) in [
            (AUTO_MIN_ROWS - 1, 4),
            (AUTO_MIN_ROWS, 4),
            (10_000_000, 2),
            (100_000, AUTO_MAX_DIMS + 1),
        ] {
            assert_eq!(
                NeighborBackend::Hybrid.resolve(n, d),
                NeighborBackend::Auto.resolve(n, d),
                "n={n} d={d}"
            );
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for (s, want) in [
            ("auto", NeighborBackend::Auto),
            ("flat", NeighborBackend::FlatScan),
            ("FlatScan", NeighborBackend::FlatScan),
            ("flat-scan", NeighborBackend::FlatScan),
            ("kd", NeighborBackend::KdTree),
            ("KdTree", NeighborBackend::KdTree),
            ("kd-tree", NeighborBackend::KdTree),
            ("hybrid", NeighborBackend::Hybrid),
            ("coreset", NeighborBackend::Hybrid),
        ] {
            assert_eq!(s.parse::<NeighborBackend>().unwrap(), want, "{s}");
        }
        assert!("ball-tree".parse::<NeighborBackend>().is_err());
        let err = "grid".parse::<NeighborBackend>().unwrap_err();
        assert!(err.contains("auto|flat|kdtree|hybrid"), "{err}");
        for b in [
            NeighborBackend::Auto,
            NeighborBackend::FlatScan,
            NeighborBackend::KdTree,
            NeighborBackend::Hybrid,
        ] {
            assert_eq!(b.to_string().parse::<NeighborBackend>().unwrap(), b);
        }
    }
}
