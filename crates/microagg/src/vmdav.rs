//! V-MDAV: variable-size MDAV microaggregation.
//!
//! Solanas & Martínez-Ballesté (COMPSTAT 2006) extend MDAV with a cluster
//! *extension* phase: after forming a cluster of the `k` records nearest to
//! the current extreme record, nearby unassigned records may be absorbed
//! (up to size `2k − 1`) when they are closer to the cluster than to the
//! rest of the unassigned records by a gain factor γ:
//!
//! ```text
//! add v  ⇔  d_in(v) < γ · d_out(v)
//! ```
//!
//! where `d_in(v)` is the distance from `v` to the nearest cluster member
//! and `d_out(v)` the distance from `v` to the nearest other unassigned
//! record. γ = 0 degenerates to fixed-size clusters; larger γ yields more
//! size adaptivity (the authors recommend γ ≈ 0.2 for scattered data,
//! γ ≈ 1.1 for clustered data).
//!
//! Every query — seed selection, k-nearest gathering, *and* the candidate
//! search of the extension phase — goes through a [`NeighborSet`] (flat
//! scans or pruned kd-tree, [`NeighborBackend::Auto`] by default). The
//! extension phase issues one [`NeighborSet::nearest_batch`] request per
//! round (each cluster member asks for its nearest unassigned record; the
//! flat backend answers the whole batch in one blocked pass) and combines
//! the answers under the canonical total order (distance, row id), so the
//! candidate choice no longer depends on the scrambled order of the
//! `remaining` vector. [`vmdav_partition_with`] exposes both the worker
//! count and the backend; the clustering is byte-identical for any choice
//! of either.

use crate::cluster::Clustering;
use crate::Microaggregator;
use tclose_index::{NeighborBackend, NeighborSet};
use tclose_metrics::distance::{centroid_ids, sq_dist, sq_dist_dim};
use tclose_metrics::matrix::{Matrix, RowId};
use tclose_parallel::Parallelism;

/// The V-MDAV variable-size microaggregation heuristic.
///
/// Partitions with [`Parallelism::auto`]; call [`vmdav_partition`] to pin
/// the worker count explicitly.
#[derive(Debug, Clone, Copy)]
pub struct VMdav {
    /// Extension gain factor γ ≥ 0.
    pub gamma: f64,
}

impl VMdav {
    /// V-MDAV with the given gain factor γ.
    ///
    /// # Panics
    /// Panics if γ is negative or non-finite.
    pub fn new(gamma: f64) -> Self {
        assert!(
            gamma.is_finite() && gamma >= 0.0,
            "gamma must be finite and non-negative"
        );
        VMdav { gamma }
    }
}

impl Default for VMdav {
    /// γ = 0.2, the authors' recommendation for scattered data.
    fn default() -> Self {
        VMdav { gamma: 0.2 }
    }
}

impl Microaggregator for VMdav {
    fn partition_matrix(&self, m: &Matrix, k: usize) -> Clustering {
        vmdav_partition(m, k, self.gamma, Parallelism::auto())
    }

    fn partition_matrix_with(&self, m: &Matrix, k: usize, backend: NeighborBackend) -> Clustering {
        vmdav_partition_with(m, k, self.gamma, Parallelism::auto(), backend)
    }

    fn name(&self) -> &'static str {
        "V-MDAV"
    }
}

/// V-MDAV partition of the rows of `m` with minimum cluster size `k` and
/// gain factor `gamma`, using up to `par` worker threads for the flat
/// scans and the automatic neighbor-search backend. The clustering
/// depends on neither `par` nor the backend.
///
/// # Panics
/// Panics if `k == 0` or `gamma` is negative or non-finite.
pub fn vmdav_partition(m: &Matrix, k: usize, gamma: f64, par: Parallelism) -> Clustering {
    vmdav_partition_with(m, k, gamma, par, NeighborBackend::Auto)
}

/// [`vmdav_partition`] with an explicit neighbor-search backend (the
/// result never depends on it — only wall-clock time does).
///
/// # Panics
/// Panics if `k == 0` or `gamma` is negative or non-finite.
pub fn vmdav_partition_with(
    m: &Matrix,
    k: usize,
    gamma: f64,
    par: Parallelism,
    backend: NeighborBackend,
) -> Clustering {
    assert!(k >= 1, "k must be at least 1");
    assert!(
        gamma.is_finite() && gamma >= 0.0,
        "gamma must be finite and non-negative"
    );
    if backend == NeighborBackend::Hybrid {
        return crate::hybrid::hybrid_partition_with(m, k, par, &move |sub, kk, pp| {
            vmdav_partition_with(sub, kk, gamma, pp, NeighborBackend::Auto)
        });
    }
    let n = m.n_rows();
    if n == 0 {
        return Clustering::new(vec![], 0).expect("empty partition is valid");
    }
    if n < 2 * k {
        return Clustering::new(vec![(0..n).collect()], n).expect("single cluster");
    }

    let mut search = NeighborSet::new(m, backend, par);
    let all: Vec<RowId> = m.row_ids().collect();
    let global_centroid = centroid_ids(m, &all, par);
    let mut remaining = all;
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    // Assignment mask shared across iterations (records never return).
    let mut taken = vec![false; n];

    while remaining.len() >= k {
        let seed = search
            .farthest_from(&remaining, &global_centroid)
            .expect("non-empty remaining");
        let mut members = search.k_nearest(&remaining, m.row(seed), k);
        search.remove_all(&members);
        for &id in &members {
            taken[id.index()] = true;
        }
        remaining.retain(|r| !taken[r.index()]);

        // Extension phase: absorb near records while the gain criterion
        // holds and the cluster stays below 2k − 1 records. Keep at
        // least k unassigned so the leftover handling stays simple and
        // no final under-sized cluster can appear.
        while members.len() < 2 * k - 1 && remaining.len() > k {
            let (d_in, cand) = match nearest_to_cluster(m, &search, &remaining, &members) {
                Some(x) => x,
                None => break,
            };
            let d_out = search.min_sq_dist_to_other(&remaining, m.row(cand), cand.index());
            // Compare true distances; sq_dist is monotone so compare
            // square roots to honour the published criterion d_in < γ·d_out.
            if d_in.sqrt() < gamma * d_out.sqrt() {
                let cand_pos = remaining
                    .iter()
                    .position(|&r| r == cand)
                    .expect("candidate is unassigned");
                members.push(cand);
                remaining.swap_remove(cand_pos);
                search.remove(cand);
            } else {
                break;
            }
        }
        clusters.push(members.into_iter().map(RowId::index).collect());
    }

    // Fewer than k unassigned records: each joins the cluster whose
    // centroid is nearest.
    if !remaining.is_empty() {
        let centroids: Vec<Vec<f64>> = clusters.iter().map(|c| centroid_ids(m, c, par)).collect();
        for r in remaining {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (ci, c) in centroids.iter().enumerate() {
                let d = sq_dist(m.row(r), c);
                if d < best_d {
                    best_d = d;
                    best = ci;
                }
            }
            clusters[best].push(r.index());
        }
    }

    Clustering::new(clusters, n).expect("V-MDAV produces a valid partition")
}

/// The unassigned record with the smallest squared distance to any member
/// of `members`, together with that squared distance.
///
/// One batched nearest-neighbor request: each member queries for its
/// nearest unassigned record (one blocked pass on the flat backend, one
/// traversal per member on the kd-tree), and the per-member winners
/// reduce under the total order (distance, row id). The winner of that
/// reduction is exactly the global (distance, row id) minimum over all
/// (candidate, member) pairs: any strictly smaller pair at some member
/// would have been that member's answer. Distances are recomputed with
/// [`sq_dist_dim`] so the value fed to the γ criterion is bit-identical
/// on every backend.
fn nearest_to_cluster(
    m: &Matrix,
    search: &NeighborSet<'_>,
    remaining: &[RowId],
    members: &[RowId],
) -> Option<(f64, RowId)> {
    let member_rows: Vec<&[f64]> = members.iter().map(|&mb| m.row(mb)).collect();
    let nearest = search.nearest_batch(remaining, &member_rows);
    let mut best: Option<(f64, RowId)> = None;
    for (mb_row, cand) in member_rows.iter().zip(nearest) {
        let c = match cand {
            Some(c) => c,
            None => continue,
        };
        let d = sq_dist_dim(m.row(c), mb_row);
        match best {
            Some((bd, bid)) if d > bd || (d == bd && c >= bid) => {}
            _ => best = Some((d, c)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn min_size_respected_for_various_gamma() {
        for gamma in [0.0, 0.2, 0.5, 1.1, 2.0] {
            for n in [7, 20, 53] {
                for k in [2, 3, 5] {
                    let c = VMdav::new(gamma).partition(&line(n), k);
                    assert_eq!(c.n_records(), n);
                    c.check_min_size(k.min(n)).unwrap_or_else(|e| {
                        panic!("gamma={gamma} n={n} k={k}: {e}");
                    });
                }
            }
        }
    }

    #[test]
    fn gamma_zero_behaves_like_fixed_size() {
        let rows = line(20);
        let c = VMdav::new(0.0).partition(&rows, 4);
        // No extension can happen with γ = 0 (d_in < 0 is impossible).
        assert_eq!(c.max_size(), 4);
    }

    #[test]
    fn clustered_data_with_large_gamma_gets_variable_sizes() {
        // Blob of 5 near 0, blob of 3 near 100: with γ high enough the first
        // cluster absorbs all 5 points instead of splitting 4/1.
        let mut rows = vec![];
        for i in 0..5 {
            rows.push(vec![i as f64 * 0.1]);
        }
        for i in 0..3 {
            rows.push(vec![100.0 + i as f64 * 0.1]);
        }
        let c = VMdav::new(1.1).partition(&rows, 3);
        c.check_min_size(3).unwrap();
        let mut sizes: Vec<usize> = c.clusters().iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 5]);
    }

    #[test]
    fn small_inputs() {
        let c = VMdav::default().partition(&line(3), 5);
        assert_eq!(c.n_clusters(), 1);
        let c = VMdav::default().partition(&[], 2);
        assert_eq!(c.n_clusters(), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_gamma_panics() {
        VMdav::new(-0.5);
    }

    #[test]
    fn deterministic() {
        let rows = line(31);
        assert_eq!(
            VMdav::default().partition(&rows, 3),
            VMdav::default().partition(&rows, 3)
        );
    }

    #[test]
    fn matrix_and_boxed_entry_points_agree() {
        let rows = line(29);
        let m = Matrix::from_rows(&rows);
        assert_eq!(
            VMdav::new(0.4).partition(&rows, 3),
            vmdav_partition(&m, 3, 0.4, Parallelism::sequential())
        );
    }

    #[test]
    fn backends_produce_identical_partitions() {
        // Duplicate-heavy line (i % 9): kd-tree tie-breaking must match the
        // flat scans through both the seed and the extension phases.
        let rows: Vec<Vec<f64>> = (0..140).map(|i| vec![(i % 9) as f64]).collect();
        let m = Matrix::from_rows(&rows);
        for gamma in [0.0, 0.4, 1.1] {
            let flat = vmdav_partition_with(
                &m,
                3,
                gamma,
                Parallelism::sequential(),
                NeighborBackend::FlatScan,
            );
            let kd = vmdav_partition_with(
                &m,
                3,
                gamma,
                Parallelism::workers(4),
                NeighborBackend::KdTree,
            );
            assert_eq!(flat, kd, "gamma={gamma}");
        }
    }
}
