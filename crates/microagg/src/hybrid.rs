//! Hybrid coreset partitioning: sample-MDAV centroids, blocked
//! nearest-centroid assignment, exact within-group refinement.
//!
//! Exact MDAV costs `O(n²/k)` distance evaluations; at a million rows
//! that is the wall the kd-tree's constant-factor win cannot move. The
//! hybrid mode (after Abidi et al., "Hybrid Microaggregation for
//! Privacy-Preserving Data Mining": cheap coarse partitioning first,
//! exact work only inside small groups) restructures the cost:
//!
//! 1. **Sample.** Take a deterministic systematic sample (every
//!    `n/s`-th row) of `s ≈ n/128` rows.
//! 2. **Coreset.** Run exact MDAV on the sample with a small cluster
//!    size; the sample-cluster centroids become `c` coarse centers
//!    (`c ≈ n/`[`COARSE_GROUP_TARGET`], capped at [`MAX_CENTROIDS`]).
//! 3. **Assign.** Every row joins its nearest center via the blocked
//!    batch scan ([`nearest_to_many_ids`]) — `O(n·c)` SIMD evaluations,
//!    the only pass that touches all rows, embarrassingly parallel.
//! 4. **Repair.** Coarse groups smaller than `2k` merge into their
//!    nearest surviving group (centroid distance, ties toward the lowest
//!    group id), so every group can be partitioned into clusters of ≥ k.
//! 5. **Refine.** The *exact* inner partitioner (MDAV or V-MDAV) runs
//!    within each coarse group — `O(Σ g²/k) ≈ O(n·G/k)` for group size
//!    `G ≪ n` — and local ids map back to global rows.
//!
//! The result is a valid microaggregation partition (every cluster ≥ k
//! for `n ≥ k`) that differs from exact MDAV only through the coarse
//! grouping; the t-closeness refinement layers above
//! (`merge_until_t_close_with` and friends) operate on the partition
//! exactly as they do for exact backends, so released tables keep the
//! paper's t-guarantee. The whole
//! pipeline is deterministic and worker-count independent: the sample is
//! systematic, the assignment reduces under the total order (distance,
//! row id), and the inner partitioners are the proven exact ones.

use crate::cluster::Clustering;
use tclose_metrics::distance::{centroid_ids, nearest_to_many_ids, sq_dist};
use tclose_metrics::matrix::{Matrix, RowId};
use tclose_parallel::{parallel_map_with, Parallelism};

/// Below this row count the hybrid mode falls back to the exact inner
/// partitioner on the whole matrix — the coarse machinery only pays for
/// itself once the `O(n²/k)` exact cost hurts.
pub const HYBRID_MIN_ROWS: usize = 4096;

/// Mean coarse-group size the centroid count aims at. The `O(n·c)`
/// assignment pass is the hybrid's dominant cost at millions of rows,
/// so the target leans large: fewer centers make assignment cheap while
/// the within-group exact refinement stays `O(Σ g²/k) ≪ n²/k` — at
/// `g ≈ 4096`, refining a group costs about as much as assigning it.
pub const COARSE_GROUP_TARGET: usize = 4096;

/// Cap on coarse centers: bounds the assignment pass at `O(n ·
/// MAX_CENTROIDS)` evaluations however large `n` grows.
pub const MAX_CENTROIDS: usize = 2048;

/// Sample-MDAV cluster size; the systematic sample holds
/// `SAMPLE_PER_CENTROID` rows per requested center.
const SAMPLE_PER_CENTROID: usize = 8;

/// Assignment queries are issued in chunks of this many rows: each
/// chunk is an independent unit for the parallel map (the blocked batch
/// scan itself splits over *matrix* blocks, and the centroid matrix is
/// a single block — the parallelism has to come from the query side),
/// and it bounds the borrowed query-point vector.
const ASSIGN_CHUNK: usize = 1 << 16;

/// Hybrid coreset partition of the rows of `m` with minimum cluster size
/// `k`. `inner` is the exact partitioner run on the sample and within
/// every coarse group (MDAV for [`crate::Mdav`], V-MDAV for
/// [`crate::VMdav`] — it receives a local sub-matrix, the cluster size,
/// and the worker budget).
///
/// # Panics
/// Panics if `k == 0`.
pub fn hybrid_partition_with(
    m: &Matrix,
    k: usize,
    par: Parallelism,
    inner: &(dyn Fn(&Matrix, usize, Parallelism) -> Clustering + Sync),
) -> Clustering {
    assert!(k >= 1, "k must be at least 1");
    let n = m.n_rows();
    // The coarse machinery needs room for several ≥ 2k groups; below the
    // threshold the exact partitioner is fast anyway.
    if n < HYBRID_MIN_ROWS.max(6 * k) {
        return inner(m, k, par);
    }

    let centroids = coreset_centroids(m, par, inner);
    let mut groups = assign_to_centroids(m, &centroids, par);
    merge_small_groups(&mut groups, &centroids, 2 * k);

    // Exact refinement within each coarse group, local ids mapped back.
    // Groups are independent, so the map parallelizes across them (each
    // inner run sequential — with hundreds of similar-sized groups,
    // across-group balance beats within-group kernels); output order is
    // the group order, so the worker count stays invisible.
    groups.retain(|g| !g.is_empty());
    let refined: Vec<Clustering> = parallel_map_with(groups.clone(), par, |group| {
        inner(&submatrix(m, group), k, Parallelism::sequential())
    });
    let mut clusters: Vec<Vec<usize>> = Vec::with_capacity(n / k + 1);
    for (group, local) in groups.iter().zip(&refined) {
        for cluster in local.clusters() {
            clusters.push(cluster.iter().map(|&i| group[i].index()).collect());
        }
    }
    debug_assert!(clusters.iter().map(Vec::len).sum::<usize>() == n);
    Clustering::new(clusters, n).expect("hybrid refinement produces a valid partition")
}

/// Coarse centers: exact MDAV-family partition of a deterministic
/// systematic sample, one center per sample cluster.
fn coreset_centroids(
    m: &Matrix,
    par: Parallelism,
    inner: &(dyn Fn(&Matrix, usize, Parallelism) -> Clustering + Sync),
) -> Matrix {
    let n = m.n_rows();
    let c_target = (n / COARSE_GROUP_TARGET).clamp(2, MAX_CENTROIDS);
    let s = (c_target * SAMPLE_PER_CENTROID).min(n);
    // Systematic sample: row ⌊j·n/s⌋ for j = 0..s — distinct (s ≤ n),
    // seeded by nothing, reproducible everywhere.
    let sample_ids: Vec<RowId> = (0..s).map(|j| RowId::new(j * n / s)).collect();
    let sample = submatrix(m, &sample_ids);
    let coarse = inner(&sample, SAMPLE_PER_CENTROID, par);
    let mut data = Vec::with_capacity(coarse.n_clusters() * m.n_cols());
    for cluster in coarse.clusters() {
        data.extend_from_slice(&centroid_ids(&sample, cluster, par));
    }
    Matrix::new(data, coarse.n_clusters(), m.n_cols())
}

/// Nearest-center assignment for every row via the blocked batch scan,
/// in bounded chunks; returns the member list of each center (ascending
/// row order within each group).
fn assign_to_centroids(m: &Matrix, centroids: &Matrix, par: Parallelism) -> Vec<Vec<RowId>> {
    let c = centroids.n_rows();
    let center_ids: Vec<RowId> = centroids.row_ids().collect();
    let n = m.n_rows();
    let starts: Vec<usize> = (0..n).step_by(ASSIGN_CHUNK).collect();
    // Chunk results come back in chunk order and each chunk's scan is the
    // bit-identical sequential fold, so the worker count stays invisible.
    let assigned: Vec<Vec<Option<RowId>>> = parallel_map_with(starts.clone(), par, |&start| {
        let end = (start + ASSIGN_CHUNK).min(n);
        let points: Vec<&[f64]> = (start..end).map(|i| m.row(i)).collect();
        nearest_to_many_ids(centroids, &center_ids, &points, Parallelism::sequential())
    });
    let mut groups: Vec<Vec<RowId>> = vec![Vec::new(); c];
    for (chunk, start) in assigned.into_iter().zip(starts) {
        for (offset, center) in chunk.into_iter().enumerate() {
            let center = center.expect("at least one centroid exists");
            groups[center.index()].push(RowId::new(start + offset));
        }
    }
    groups
}

/// Merges every group smaller than `min_size` into its nearest surviving
/// group (squared centroid distance, ties toward the lowest group id).
/// Deterministic: always merges the smallest offending group first
/// (ties toward the lowest id). Terminates because every merge reduces
/// the non-empty group count; stops early when one group holds all rows.
fn merge_small_groups(groups: &mut [Vec<RowId>], centroids: &Matrix, min_size: usize) {
    loop {
        let non_empty = groups.iter().filter(|g| !g.is_empty()).count();
        if non_empty <= 1 {
            return;
        }
        let victim = match groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty() && g.len() < min_size)
            .min_by_key(|(gi, g)| (g.len(), *gi))
        {
            Some((gi, _)) => gi,
            None => return,
        };
        let mut best: Option<(f64, usize)> = None;
        for (gi, g) in groups.iter().enumerate() {
            if gi == victim || g.is_empty() {
                continue;
            }
            let d = sq_dist(centroids.row(victim), centroids.row(gi));
            match best {
                Some((bd, bi)) if d > bd || (d == bd && gi >= bi) => {}
                _ => best = Some((d, gi)),
            }
        }
        let target = best.expect("a second non-empty group exists").1;
        let moved = std::mem::take(&mut groups[victim]);
        let tg = &mut groups[target];
        tg.extend(moved);
        tg.sort_unstable();
    }
}

/// Copies the rows `ids` of `m` into a dense local matrix (local row `i`
/// = global row `ids[i]`).
fn submatrix(m: &Matrix, ids: &[RowId]) -> Matrix {
    let d = m.n_cols();
    let mut data = Vec::with_capacity(ids.len() * d);
    for &id in ids {
        data.extend_from_slice(m.row(id));
    }
    Matrix::new(data, ids.len(), d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdav::mdav_partition_with;
    use tclose_index::NeighborBackend;

    fn inner(m: &Matrix, k: usize, par: Parallelism) -> Clustering {
        mdav_partition_with(m, k, par, NeighborBackend::Auto)
    }

    fn blobs(n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let blob = (i % 7) as f64;
                vec![
                    blob * 50.0 + ((i * 37) % 11) as f64 * 0.3,
                    blob * -20.0 + ((i * 53) % 13) as f64 * 0.2,
                ]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn small_inputs_fall_back_to_the_exact_inner() {
        let m = blobs(200);
        let hybrid = hybrid_partition_with(&m, 5, Parallelism::sequential(), &inner);
        let exact = inner(&m, 5, Parallelism::sequential());
        assert_eq!(hybrid, exact, "below HYBRID_MIN_ROWS the paths coincide");
    }

    #[test]
    fn large_inputs_produce_a_valid_k_partition() {
        let m = blobs(HYBRID_MIN_ROWS + 500);
        for k in [3usize, 10] {
            let c = hybrid_partition_with(&m, k, Parallelism::sequential(), &inner);
            assert_eq!(c.n_records(), m.n_rows());
            c.check_min_size(k).unwrap();
            assert!(
                c.clusters().iter().all(|cl| cl.len() < 3 * k),
                "refined clusters stay MDAV-sized"
            );
        }
    }

    #[test]
    fn deterministic_and_worker_count_independent() {
        let m = blobs(HYBRID_MIN_ROWS + 123);
        let seq = hybrid_partition_with(&m, 4, Parallelism::sequential(), &inner);
        let par4 = hybrid_partition_with(&m, 4, Parallelism::workers(4), &inner);
        assert_eq!(seq, par4);
    }

    #[test]
    fn merge_small_groups_absorbs_undersized_groups() {
        let centroids = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![100.0]]);
        let mut groups = vec![
            (0..10).map(RowId::new).collect::<Vec<_>>(),
            vec![RowId::new(10)],
            (11..25).map(RowId::new).collect::<Vec<_>>(),
        ];
        merge_small_groups(&mut groups, &centroids, 6);
        assert_eq!(groups[0].len(), 11, "the lone row joins the nearest group");
        assert!(groups[1].is_empty());
        assert_eq!(groups[2].len(), 14);
    }
}
