//! # tclose-microagg
//!
//! Microaggregation substrate for statistical disclosure control.
//!
//! *Microaggregation* (Defays & Nanopoulos 1992; Domingo-Ferrer & Mateo-Sanz
//! 2002) masks microdata in two steps:
//!
//! 1. **Partition** the records into clusters of at least `k` similar
//!    records (similarity over the quasi-identifier space);
//! 2. **Aggregate** each cluster: replace every member's quasi-identifiers
//!    with a cluster representative (mean / median / mode).
//!
//! Applied to the quasi-identifier projection this yields a k-anonymous data
//! set (Domingo-Ferrer & Torra 2005). Optimal multivariate partitioning is
//! NP-hard (Oganian & Domingo-Ferrer 2001), so practical systems use
//! heuristics:
//!
//! * [`Mdav`] — the fixed-size MDAV-generic heuristic, `O(n²/k)`;
//! * [`VMdav`] — variable-size V-MDAV with extension gain factor γ;
//! * [`univariate::optimal_univariate`] — the exact `O(nk)` dynamic program
//!   for a single attribute (Hansen–Mukherjee), used as a test oracle and
//!   for one-dimensional workloads.
//!
//! The [`Clustering`] type is the common currency between partitioning,
//! aggregation ([`aggregate`]) and the t-closeness algorithms built on top
//! (crate `tclose-core`, Algorithms 1–3 of Soria-Comas et al., ICDE 2016 —
//! all three run MDAV-style scans as their inner loop, so this crate is
//! where the paper's Fig. 5 runtime is won or lost).
//!
//! ## Record representation and parallelism
//!
//! Records live in a flat row-major [`Matrix`] (contiguous `f64` buffer,
//! typed [`RowId`] indices — re-exported from `tclose-metrics`). The hot
//! kernels — farthest-record scan, k-nearest gathering, centroid update —
//! are chunked loops over that buffer, optionally spread over scoped
//! threads ([`tclose_parallel::Parallelism`]). Reductions always follow the
//! fixed block structure of `tclose_parallel::map_blocks`, so a partition
//! computed with 8 workers is **byte-identical** to the sequential one
//! (ties break toward the lowest `RowId`); `tests/determinism.rs` pins
//! this. The boxed-rows entry point [`Microaggregator::partition`] remains
//! as a convenience that copies into a matrix first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cluster;
pub mod hybrid;
pub mod mdav;
pub mod univariate;
pub mod vmdav;

pub use aggregate::{aggregate_columns, cluster_centroid_value};
pub use cluster::{Clustering, ClusteringError};
pub use hybrid::{hybrid_partition_with, COARSE_GROUP_TARGET, HYBRID_MIN_ROWS};
pub use mdav::{mdav_partition, mdav_partition_with, Mdav};
pub use vmdav::{vmdav_partition, vmdav_partition_with, VMdav};

pub use tclose_index::{NeighborBackend, NeighborSet};
pub use tclose_metrics::matrix::{Matrix, RowId, RowIndex};
pub use tclose_parallel::Parallelism;

/// A microaggregation partitioning strategy over normalized record vectors.
///
/// Implementations receive the records as a flat row-major [`Matrix`]
/// (typically the normalized quasi-identifier projection) and must return a
/// partition in which **every cluster has at least `k` records** (for
/// `n ≥ k`).
pub trait Microaggregator {
    /// Partitions the rows of `m` into clusters of ≥ `k` records.
    ///
    /// # Panics
    /// Implementations may panic if `k == 0`. If `n < k` the whole data set
    /// becomes a single cluster.
    fn partition_matrix(&self, m: &Matrix, k: usize) -> Clustering;

    /// [`Microaggregator::partition_matrix`] with an explicit
    /// neighbor-search backend. Backends never change the partition (they
    /// are exact and share one tie-breaking order), so the default
    /// implementation ignores the hint; scan-based algorithms (MDAV,
    /// V-MDAV) override it to route their hot queries through the choice.
    fn partition_matrix_with(&self, m: &Matrix, k: usize, backend: NeighborBackend) -> Clustering {
        let _ = backend;
        self.partition_matrix(m, k)
    }

    /// Boxed-rows convenience: copies `rows` into a [`Matrix`] and calls
    /// [`Microaggregator::partition_matrix`].
    fn partition(&self, rows: &[Vec<f64>], k: usize) -> Clustering {
        self.partition_matrix(&Matrix::from_rows(rows), k)
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}
