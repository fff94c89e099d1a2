//! MDAV-generic: Maximum Distance to Average Vector microaggregation.
//!
//! The fixed-size heuristic of Domingo-Ferrer & Torra (2005). Repeatedly:
//! take the record `x_r` farthest from the centroid of the unassigned
//! records, cluster it with its `k−1` nearest unassigned neighbours; then
//! take the record `x_s` farthest from `x_r` and do the same. The tail is
//! handled so that every cluster ends up with between `k` and `2k−1`
//! records. Cost `O(n²/k)` distance evaluations.
//!
//! The bulk centroid pass is a flat kernel over the contiguous [`Matrix`]
//! buffer and can run on scoped threads; the farthest-record and k-nearest
//! queries go through a [`NeighborSet`], which answers them either with
//! the same flat kernels or with pruned kd-tree queries
//! ([`NeighborBackend`], default [`NeighborBackend::Auto`]). On the flat
//! backend each main round instead calls the *fused* near+far kernel
//! [`k_nearest_with_far_candidates_ids`] itself: the `k`
//! cluster members around `x_r` and the `k+1` farthest-from-`x_r`
//! candidates come back from a single distance pass, and the next seed
//! `x_s` is the first candidate surviving the cluster removal. On the
//! kd-tree backend the round instead asks for the single farthest record
//! *after* the removal — provably the same `x_s`, but answered by a
//! 1-candidate traversal whose pruning threshold is as tight as it gets.
//! The two backends are exact and share one tie-breaking order, so the
//! partition is byte-identical for any backend *and* worker count; see
//! [`mdav_partition_with`] for the fully explicit entry point.

use crate::cluster::Clustering;
use crate::hybrid::hybrid_partition_with;
use crate::Microaggregator;
use tclose_index::{IndexPool, NeighborBackend, NeighborSet, ResolvedBackend};
use tclose_metrics::distance::{centroid_ids, k_nearest_with_far_candidates_ids};
use tclose_metrics::matrix::{Matrix, RowId};
use tclose_parallel::Parallelism;

/// The MDAV-generic fixed-size microaggregation heuristic.
///
/// The unit struct partitions with [`Parallelism::auto`]; call
/// [`mdav_partition`] directly to pin the worker count (the clustering is
/// identical either way — only wall-clock time changes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Mdav;

impl Mdav {
    /// Convenience constructor.
    pub fn new() -> Self {
        Mdav
    }
}

impl Microaggregator for Mdav {
    fn partition_matrix(&self, m: &Matrix, k: usize) -> Clustering {
        mdav_partition(m, k, Parallelism::auto())
    }

    fn partition_matrix_with(&self, m: &Matrix, k: usize, backend: NeighborBackend) -> Clustering {
        mdav_partition_with(m, k, Parallelism::auto(), backend)
    }

    fn name(&self) -> &'static str {
        "MDAV"
    }
}

/// MDAV partition of the rows of `m` with minimum cluster size `k`, using
/// up to `par` worker threads for the flat scans and the automatic
/// neighbor-search backend.
///
/// The clustering depends on neither `par` nor the backend: all flat
/// kernels reduce over a fixed block structure, the kd-tree queries are
/// exact, and every query breaks ties toward the lowest [`RowId`].
///
/// # Panics
/// Panics if `k == 0`.
pub fn mdav_partition(m: &Matrix, k: usize, par: Parallelism) -> Clustering {
    mdav_partition_with(m, k, par, NeighborBackend::Auto)
}

/// [`mdav_partition`] with an explicit neighbor-search backend. Exact
/// backends (`Auto` / `FlatScan` / `KdTree`) never change the result —
/// only wall-clock time. The approximate opt-in `Hybrid` does: it
/// reroutes to [`hybrid_partition_with`] (coreset + exact within-group
/// MDAV), which stays deterministic, worker-count independent, and
/// produces valid `k..2k−1` clusterings.
///
/// # Panics
/// Panics if `k == 0`.
pub fn mdav_partition_with(
    m: &Matrix,
    k: usize,
    par: Parallelism,
    backend: NeighborBackend,
) -> Clustering {
    assert!(k >= 1, "k must be at least 1");
    if backend == NeighborBackend::Hybrid {
        return hybrid_partition_with(m, k, par, &|sub, kk, pp| {
            mdav_partition_with(sub, kk, pp, NeighborBackend::Auto)
        });
    }
    let n = m.n_rows();
    let mut search = NeighborSet::new(m, backend, par);
    // Position-tracked pool: removing a freshly gathered cluster is O(k)
    // swap-removes instead of an O(n) retain pass, which would otherwise
    // rival the scans themselves once the queries run on the kd-tree.
    let mut remaining = IndexPool::full(n);
    let mut clusters: Vec<Vec<usize>> = Vec::with_capacity(n / k.max(1) + 1);

    while remaining.len() >= 3 * k {
        let c = centroid_ids(m, remaining.items(), par);
        let xr = search
            .farthest_from(remaining.items(), &c)
            .expect("non-empty");
        // Both exact branches compute the same seed `x_s`: removing the k
        // cluster members can knock out at most k of the k+1
        // farthest-from-`x_r` records, so the first pre-removal candidate
        // still in the pool is exactly what `farthest_from` returns after
        // the removal. Which route is *cheaper* differs per backend: the
        // flat pass hands back the far candidates for free from the single
        // distance scan it already makes, while on the kd-tree a
        // (k+1)-farthest list prunes far more weakly than the single
        // post-removal farthest-point query, so the tree asks afterwards.
        let xs = match search.resolved() {
            ResolvedBackend::FlatScan => {
                let (members, far) = k_nearest_with_far_candidates_ids(
                    m,
                    remaining.items(),
                    m.row(xr),
                    k,
                    k + 1,
                    par,
                );
                commit_cluster(&mut search, &mut remaining, members, &mut clusters);
                far.into_iter()
                    .find(|&id| remaining.contains(id))
                    .expect("k+1 far candidates cannot all sit in a k-cluster")
            }
            ResolvedBackend::KdTree => {
                let members = search.k_nearest(remaining.items(), m.row(xr), k);
                commit_cluster(&mut search, &mut remaining, members, &mut clusters);
                search
                    .farthest_from(remaining.items(), m.row(xr))
                    .expect("pool keeps at least 2k records here")
            }
        };
        take_cluster(m, &mut search, &mut remaining, xs, k, &mut clusters);
    }

    if remaining.len() >= 2 * k {
        // Between 2k and 3k−1 left: one cluster around the extreme
        // record, the rest (≥ k) forms the final cluster.
        let c = centroid_ids(m, remaining.items(), par);
        let xr = search
            .farthest_from(remaining.items(), &c)
            .expect("non-empty");
        take_cluster(m, &mut search, &mut remaining, xr, k, &mut clusters);
        clusters.push(remaining.drain().map(RowId::index).collect());
    } else if !remaining.is_empty() {
        // Fewer than 2k left (including the n < k corner): one cluster.
        clusters.push(remaining.drain().map(RowId::index).collect());
    }

    Clustering::new(clusters, n).expect("MDAV produces a valid partition")
}

/// Removes the `k` records nearest to `seed` (including `seed` itself) from
/// `remaining` (and the search set) and pushes them as a new cluster.
fn take_cluster(
    m: &Matrix,
    search: &mut NeighborSet<'_>,
    remaining: &mut IndexPool<RowId>,
    seed: RowId,
    k: usize,
    clusters: &mut Vec<Vec<usize>>,
) {
    let members = search.k_nearest(remaining.items(), m.row(seed), k);
    debug_assert!(members.contains(&seed));
    commit_cluster(search, remaining, members, clusters);
}

/// Removes `members` from the pool (and the search set) and pushes them
/// as a new cluster.
fn commit_cluster(
    search: &mut NeighborSet<'_>,
    remaining: &mut IndexPool<RowId>,
    members: Vec<RowId>,
    clusters: &mut Vec<Vec<usize>>,
) {
    search.remove_all(&members);
    for &id in &members {
        remaining.remove(id);
    }
    clusters.push(members.into_iter().map(RowId::index).collect());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![i as f64, (i * i % 17) as f64])
            .collect()
    }

    #[test]
    fn all_cluster_sizes_in_k_to_2k_minus_1() {
        for n in [6, 7, 10, 23, 50, 101] {
            for k in [2, 3, 5] {
                if n < k {
                    continue;
                }
                let c = Mdav.partition(&grid(n), k);
                assert_eq!(c.n_records(), n);
                c.check_min_size(k).unwrap();
                assert!(
                    c.max_size() < 2 * k || c.n_clusters() == 1,
                    "n={n} k={k}: max size {} exceeds 2k-1",
                    c.max_size()
                );
            }
        }
    }

    #[test]
    fn n_smaller_than_k_yields_single_cluster() {
        let c = Mdav.partition(&grid(3), 5);
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.min_size(), 3);
    }

    #[test]
    fn n_equal_k_yields_single_cluster() {
        let c = Mdav.partition(&grid(4), 4);
        assert_eq!(c.n_clusters(), 1);
    }

    #[test]
    fn k_divides_n_gives_perfectly_balanced_clusters() {
        let c = Mdav.partition(&grid(12), 3);
        assert_eq!(c.n_clusters(), 4);
        assert_eq!(c.min_size(), 3);
        assert_eq!(c.max_size(), 3);
    }

    #[test]
    fn clusters_group_spatially_close_records() {
        // Two well-separated blobs of 3: MDAV must not mix them.
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![100.0, 100.0],
            vec![100.1, 100.0],
            vec![100.0, 100.1],
        ];
        let c = Mdav.partition(&rows, 3);
        assert_eq!(c.n_clusters(), 2);
        for cluster in c.clusters() {
            let lows = cluster.iter().filter(|&&r| r < 3).count();
            assert!(lows == 0 || lows == 3, "blobs were mixed: {cluster:?}");
        }
    }

    #[test]
    fn deterministic() {
        let rows = grid(40);
        let a = Mdav.partition(&rows, 4);
        let b = Mdav.partition(&rows, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_and_boxed_entry_points_agree() {
        let rows = grid(37);
        let m = Matrix::from_rows(&rows);
        assert_eq!(Mdav.partition(&rows, 4), Mdav.partition_matrix(&m, 4));
        assert_eq!(
            Mdav.partition_matrix(&m, 4),
            mdav_partition(&m, 4, Parallelism::sequential())
        );
    }

    #[test]
    fn backends_produce_identical_partitions() {
        // `grid` has tied coordinates (i*i % 17 collides), so this also
        // exercises tie-breaking through the kd-tree path.
        let m = Matrix::from_rows(&grid(157));
        for k in [2usize, 5, 10] {
            let flat =
                mdav_partition_with(&m, k, Parallelism::sequential(), NeighborBackend::FlatScan);
            let kd = mdav_partition_with(&m, k, Parallelism::workers(4), NeighborBackend::KdTree);
            assert_eq!(flat, kd, "k={k}");
            assert_eq!(
                flat,
                Mdav.partition_matrix_with(&m, k, NeighborBackend::KdTree)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn k_zero_panics() {
        Mdav.partition(&grid(5), 0);
    }

    #[test]
    fn empty_input_yields_empty_clustering() {
        let c = Mdav.partition(&[], 2);
        assert_eq!(c.n_clusters(), 0);
        assert_eq!(c.n_records(), 0);
    }
}
