//! Record-space distances and geometric helpers.
//!
//! All microaggregation algorithms operate on records embedded as
//! normalized quasi-identifier vectors (see `tclose_core::QiEmbedding`).
//! The kernels here (`*_ids`) run over a contiguous [`Matrix`] — the hot
//! path of MDAV / V-MDAV and Algorithms 1–3. Each scan walks fixed-size
//! blocks of the index list ([`tclose_parallel::map_blocks`]) and can
//! distribute whole blocks over scoped threads; because the block
//! structure never depends on the worker count, every kernel returns
//! bit-identical results for 1 or N workers. Ties in the extreme-point
//! and k-nearest queries break toward the **lowest row index**, which
//! makes the parallel reduction order-free. Inside each block the work
//! runs on a multi-lane kernel path (see [`crate::simd`]); both paths
//! are bit-identical, so neither the lane width nor the worker count can
//! ever change a result. Every kernel has a `*_path` variant taking an
//! explicit [`KernelPath`] for differential tests and benches; the plain
//! form runs [`KernelPath::Lanes8`].

use crate::matrix::{Matrix, RowIndex};
use crate::simd::{self, KernelPath};
use tclose_parallel::{map_blocks, Parallelism};

/// Squared Euclidean distance between two equally long vectors.
///
/// Squared distance preserves the `argmin`/`argmax` of the true distance and
/// avoids the square root on the hot path.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Fully unrolled squared distance for a compile-time dimension; the
/// `try_into` conversions are length checks that vanish after inlining.
#[inline(always)]
fn sq_dist_fixed<const D: usize>(a: &[f64], b: &[f64]) -> f64 {
    let a: &[f64; D] = a.try_into().expect("dimension mismatch");
    let b: &[f64; D] = b.try_into().expect("dimension mismatch");
    let mut acc = 0.0;
    let mut j = 0;
    while j < D {
        let d = a[j] - b[j];
        acc += d * d;
        j += 1;
    }
    acc
}

/// Squared distance with the inner loop specialised (unrolled, no bounds
/// checks) for the low dimensions every QI embedding in practice has.
/// The flat kernels call this; its dispatch branch is perfectly predicted
/// since a scan never changes dimension.
///
/// Public because the kd-tree backend (`tclose-index`) must evaluate
/// candidate distances with **exactly** this operation sequence — the
/// backends promise bit-identical results, and that promise extends to
/// the floating-point rounding of every distance.
#[inline(always)]
pub fn sq_dist_dim(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match a.len() {
        1 => sq_dist_fixed::<1>(a, b),
        2 => sq_dist_fixed::<2>(a, b),
        3 => sq_dist_fixed::<3>(a, b),
        4 => sq_dist_fixed::<4>(a, b),
        5 => sq_dist_fixed::<5>(a, b),
        6 => sq_dist_fixed::<6>(a, b),
        7 => sq_dist_fixed::<7>(a, b),
        8 => sq_dist_fixed::<8>(a, b),
        _ => sq_dist(a, b),
    }
}

/// Component-wise mean of the matrix rows at `ids`, reduced over fixed
/// blocks (bit-identical for any worker count).
///
/// Returns the zero vector of the matrix's width for an empty selection so
/// callers do not need a special case.
pub fn centroid_ids<I: RowIndex>(m: &Matrix, ids: &[I], par: Parallelism) -> Vec<f64> {
    centroid_ids_path(m, ids, par, KernelPath::Lanes8)
}

/// [`centroid_ids`] on an explicit kernel path. Every path implements the
/// same canonical 8-lane reduction DAG per block (see [`crate::simd`]),
/// so the result is bit-identical whatever `path` (and worker count).
pub fn centroid_ids_path<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    par: Parallelism,
    path: KernelPath,
) -> Vec<f64> {
    let dim = m.n_cols();
    let mut c = vec![0.0; dim];
    if ids.is_empty() {
        return c;
    }
    let workers = par.effective(ids.len(), tclose_parallel::BLOCK);
    let partials = map_blocks(ids.len(), workers, |r| simd::centroid_sum(m, &ids[r], path));
    for p in &partials {
        for (a, x) in c.iter_mut().zip(p) {
            *a += x;
        }
    }
    let n = ids.len() as f64;
    for a in &mut c {
        *a /= n;
    }
    c
}

/// The id among `ids` whose row is farthest from `point` (ties toward the
/// lowest row index). `None` when `ids` is empty.
pub fn farthest_from_ids<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    par: Parallelism,
) -> Option<I> {
    extreme_ids(m, ids, point, par, true, KernelPath::Lanes8)
}

/// [`farthest_from_ids`] on an explicit kernel path (bit-identical on
/// every path; for differential tests and benches).
pub fn farthest_from_ids_path<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    par: Parallelism,
    path: KernelPath,
) -> Option<I> {
    extreme_ids(m, ids, point, par, true, path)
}

/// The id among `ids` whose row is nearest to `point` (ties toward the
/// lowest row index). `None` when `ids` is empty.
pub fn nearest_to_ids<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    par: Parallelism,
) -> Option<I> {
    extreme_ids(m, ids, point, par, false, KernelPath::Lanes8)
}

/// [`nearest_to_ids`] on an explicit kernel path (bit-identical on every
/// path; for differential tests and benches).
pub fn nearest_to_ids_path<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    par: Parallelism,
    path: KernelPath,
) -> Option<I> {
    extreme_ids(m, ids, point, par, false, path)
}

/// [`nearest_to_ids`] for a batch of query points in one blocked pass:
/// each fixed block of ids is scanned for every query while its rows are
/// cache-hot, so the matrix streams from memory once per *block* instead
/// of once per *query* — this is where batching genuinely pays on the
/// flat backend (the per-query arithmetic is unchanged; only the memory
/// traffic amortizes). Per query, block winners reduce in block order
/// through the same associative (distance, row-index) comparison, so the
/// result vector is bit-identical to calling [`nearest_to_ids`] once per
/// point.
pub fn nearest_to_many_ids<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    points: &[&[f64]],
    par: Parallelism,
) -> Vec<Option<I>> {
    nearest_to_many_ids_path(m, ids, points, par, KernelPath::Lanes8)
}

/// [`nearest_to_many_ids`] on an explicit kernel path (bit-identical on
/// every path; for differential tests and benches).
pub fn nearest_to_many_ids_path<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    points: &[&[f64]],
    par: Parallelism,
    path: KernelPath,
) -> Vec<Option<I>> {
    let workers = par.effective(ids.len(), tclose_parallel::BLOCK);
    let partials = map_blocks(ids.len(), workers, |r| {
        points
            .iter()
            .map(|p| simd::extreme_scan(m, &ids[r.clone()], p, false, path))
            .collect::<Vec<_>>()
    });
    let mut best: Vec<Option<(I, f64)>> = vec![None; points.len()];
    for block in partials {
        for (b, cand) in best.iter_mut().zip(block) {
            if let Some((id, d)) = cand {
                match *b {
                    Some((bid, bd))
                        if !simd::beats(false, d, id.row_index(), bd, bid.row_index()) => {}
                    _ => *b = Some((id, d)),
                }
            }
        }
    }
    best.into_iter().map(|b| b.map(|(id, _)| id)).collect()
}

/// Shared argmax/argmin scan. Per-block winners are reduced in block
/// order; the (distance, row-index) comparison is associative, so the
/// result is independent of blocking, worker count, and lane width.
fn extreme_ids<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    par: Parallelism,
    farthest: bool,
    path: KernelPath,
) -> Option<I> {
    let workers = par.effective(ids.len(), tclose_parallel::BLOCK);
    let partials = map_blocks(ids.len(), workers, |r| {
        simd::extreme_scan(m, &ids[r], point, farthest, path)
    });
    let mut best: Option<(I, f64)> = None;
    for cand in partials.into_iter().flatten() {
        match best {
            Some((bid, bd))
                if !simd::beats(farthest, cand.1, cand.0.row_index(), bd, bid.row_index()) => {}
            _ => best = Some(cand),
        }
    }
    best.map(|(id, _)| id)
}

/// The `count` ids among `ids` nearest to `point`, ascending by distance
/// (ties toward the lowest row index). Distances are computed in parallel
/// over fixed blocks; the final selection sort is sequential. `count` may
/// exceed `ids.len()`, in which case all ids are returned sorted.
pub fn k_nearest_ids<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    count: usize,
    par: Parallelism,
) -> Vec<I> {
    k_nearest_ids_path(m, ids, point, count, par, KernelPath::Lanes8)
}

/// [`k_nearest_ids`] on an explicit kernel path (bit-identical on every
/// path; for differential tests and benches).
pub fn k_nearest_ids_path<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    count: usize,
    par: Parallelism,
    path: KernelPath,
) -> Vec<I> {
    let mut with_d = collect_distances(m, ids, point, par, path);
    // O(n) selection of the `count` smallest under the total order
    // (distance, row index), then an O(k log k) sort of just that prefix —
    // same result as a full sort + truncate, without the n log n cost that
    // dominated the seed implementation.
    let cut = count.min(with_d.len());
    if cut == 0 {
        return Vec::new();
    }
    if cut < with_d.len() {
        with_d.select_nth_unstable_by(cut - 1, near_cmp);
        with_d.truncate(cut);
    }
    with_d.sort_unstable_by(near_cmp);
    with_d.into_iter().map(|(_, id)| id).collect()
}

/// `(squared distance to point, id)` for every id, in id-list order — the
/// distance pass of [`k_nearest_ids`], for callers that rank the ids
/// themselves. Each distance has the exact [`sq_dist`] bit pattern.
pub fn distances_to_ids<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    par: Parallelism,
) -> Vec<(f64, I)> {
    collect_distances(m, ids, point, par, KernelPath::Lanes8)
}

/// One blocked (and laned) distance pass: `(squared distance, id)` per id,
/// in id-list order.
fn collect_distances<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    par: Parallelism,
    path: KernelPath,
) -> Vec<(f64, I)> {
    let workers = par.effective(ids.len(), tclose_parallel::BLOCK);
    map_blocks(ids.len(), workers, |r| {
        let mut out = Vec::new();
        simd::distances_into(m, &ids[r], point, path, &mut out);
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Ascending (distance, row index) — the k-nearest total order.
fn near_cmp<I: RowIndex>(a: &(f64, I), b: &(f64, I)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0)
        .expect("finite")
        .then(a.1.row_index().cmp(&b.1.row_index()))
}

/// Descending distance, then ascending row index — the order in which
/// repeated farthest-point extraction would visit the ids.
fn far_cmp<I: RowIndex>(a: &(f64, I), b: &(f64, I)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .expect("finite")
        .then(a.1.row_index().cmp(&b.1.row_index()))
}

/// One fused scan answering both halves of an MDAV round: the `near_count`
/// ids nearest to `point` (ascending by (distance, row index)) **and** the
/// `far_count` ids farthest from it (descending by distance, ties toward
/// the lowest row index — exactly the order repeated
/// [`farthest_from_ids`] + removal would produce).
///
/// MDAV consumes this as "take the k nearest as a cluster, then seed the
/// next cluster from the first far candidate that survived the removal":
/// since at most `near_count` ids are removed, passing
/// `far_count = near_count + 1` guarantees a survivor, and the survivor
/// equals the farthest point of the post-removal set because removal never
/// promotes anything in the (distance, row index) order. One distance pass
/// replaces the two scans of the naive formulation.
pub fn k_nearest_with_far_candidates_ids<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    near_count: usize,
    far_count: usize,
    par: Parallelism,
) -> (Vec<I>, Vec<I>) {
    k_nearest_with_far_candidates_ids_path(
        m,
        ids,
        point,
        near_count,
        far_count,
        par,
        KernelPath::Lanes8,
    )
}

/// [`k_nearest_with_far_candidates_ids`] on an explicit kernel path
/// (bit-identical on every path; for differential tests and benches).
pub fn k_nearest_with_far_candidates_ids_path<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    near_count: usize,
    far_count: usize,
    par: Parallelism,
    path: KernelPath,
) -> (Vec<I>, Vec<I>) {
    let mut with_d = collect_distances(m, ids, point, par, path);
    // Both selections run over the same distance buffer; each works on an
    // arbitrary permutation of it, and (distance, row index) is a total
    // order, so the far selection permuting the buffer cannot change what
    // the near selection returns.
    let fcut = far_count.min(with_d.len());
    let far: Vec<I> = if fcut == 0 {
        Vec::new()
    } else {
        if fcut < with_d.len() {
            with_d.select_nth_unstable_by(fcut - 1, far_cmp);
        }
        let mut head = with_d[..fcut].to_vec();
        head.sort_unstable_by(far_cmp);
        head.into_iter().map(|(_, id)| id).collect()
    };
    let ncut = near_count.min(with_d.len());
    let near: Vec<I> = if ncut == 0 {
        Vec::new()
    } else {
        if ncut < with_d.len() {
            with_d.select_nth_unstable_by(ncut - 1, near_cmp);
            with_d.truncate(ncut);
        }
        with_d.sort_unstable_by(near_cmp);
        with_d.into_iter().map(|(_, id)| id).collect()
    };
    (near, far)
}

/// The smallest squared distance from `point` to any row at `ids`, skipping
/// the row `exclude`. `f64::INFINITY` when nothing qualifies. Exact-min
/// reduction is associative, so blocking never changes the result.
pub fn min_sq_dist_excluding<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    exclude: usize,
    par: Parallelism,
) -> f64 {
    min_sq_dist_excluding_path(m, ids, point, exclude, par, KernelPath::Lanes8)
}

/// [`min_sq_dist_excluding`] on an explicit kernel path (bit-identical on
/// every path; for differential tests and benches).
pub fn min_sq_dist_excluding_path<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    exclude: usize,
    par: Parallelism,
    path: KernelPath,
) -> f64 {
    let workers = par.effective(ids.len(), tclose_parallel::BLOCK);
    map_blocks(ids.len(), workers, |r| {
        simd::min_sq_dist_scan(m, &ids[r], point, exclude, path)
    })
    .into_iter()
    .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The boxed-rows helpers of the seed representation, kept as the
    // reference the flat kernels are checked against.

    /// Component-wise mean of the rows at `indices`.
    ///
    /// Returns the zero vector of the right dimension for an empty selection so
    /// callers do not need a special case (the paper's algorithms never query
    /// the centroid of an empty set on a live path).
    fn centroid(rows: &[Vec<f64>], indices: &[usize]) -> Vec<f64> {
        let dim = rows.first().map(Vec::len).unwrap_or(0);
        let mut c = vec![0.0; dim];
        if indices.is_empty() {
            return c;
        }
        for &i in indices {
            for (acc, x) in c.iter_mut().zip(&rows[i]) {
                *acc += x;
            }
        }
        let n = indices.len() as f64;
        for acc in &mut c {
            *acc /= n;
        }
        c
    }

    /// Index (into `indices`' *values*) of the record farthest from `point`.
    ///
    /// Ties break toward the earliest index for determinism. `None` when
    /// `indices` is empty.
    fn farthest_from(rows: &[Vec<f64>], indices: &[usize], point: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for &i in indices {
            let d = sq_dist(&rows[i], point);
            match best {
                Some((_, bd)) if d <= bd => {}
                _ => best = Some((i, d)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Index of the record nearest to `point` among `indices`.
    fn nearest_to(rows: &[Vec<f64>], indices: &[usize], point: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for &i in indices {
            let d = sq_dist(&rows[i], point);
            match best {
                Some((_, bd)) if d >= bd => {}
                _ => best = Some((i, d)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// The `count` indices among `indices` nearest to `point`, ascending by
    /// distance (ties by index). `count` may exceed `indices.len()`, in which
    /// case all indices are returned sorted by distance.
    fn k_nearest(rows: &[Vec<f64>], indices: &[usize], point: &[f64], count: usize) -> Vec<usize> {
        let mut with_d: Vec<(usize, f64)> = indices
            .iter()
            .map(|&i| (i, sq_dist(&rows[i], point)))
            .collect();
        // Partial selection would do, but a full sort keeps ties deterministic
        // and the selection is not the bottleneck of any algorithm here.
        with_d.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
        with_d.truncate(count);
        with_d.into_iter().map(|(i, _)| i).collect()
    }

    fn rows() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![5.0, 5.0],
        ]
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn centroid_of_subset() {
        let r = rows();
        assert_eq!(centroid(&r, &[0, 1]), vec![0.5, 0.0]);
        assert_eq!(centroid(&r, &[3]), vec![5.0, 5.0]);
        assert_eq!(centroid(&r, &[]), vec![0.0, 0.0]);
    }

    #[test]
    fn farthest_and_nearest() {
        let r = rows();
        let all = [0, 1, 2, 3];
        assert_eq!(farthest_from(&r, &all, &[0.0, 0.0]), Some(3));
        assert_eq!(nearest_to(&r, &all, &[4.9, 5.2]), Some(3));
        assert_eq!(nearest_to(&r, &[1, 2], &[0.0, 0.0]), Some(1));
        assert_eq!(farthest_from(&r, &[], &[0.0, 0.0]), None);
        assert_eq!(nearest_to(&r, &[], &[0.0, 0.0]), None);
    }

    #[test]
    fn ties_break_to_earliest_index() {
        let r = vec![vec![1.0], vec![-1.0], vec![1.0]];
        // records 0 and 1 are equidistant from origin; 0 wins
        assert_eq!(nearest_to(&r, &[0, 1, 2], &[0.0]), Some(0));
        assert_eq!(farthest_from(&r, &[0, 1, 2], &[0.0]), Some(0));
    }

    #[test]
    fn k_nearest_orders_and_truncates() {
        let r = rows();
        let all = [0, 1, 2, 3];
        assert_eq!(k_nearest(&r, &all, &[0.0, 0.0], 2), vec![0, 1]);
        assert_eq!(k_nearest(&r, &all, &[0.0, 0.0], 10), vec![0, 1, 2, 3]);
        assert_eq!(k_nearest(&r, &all, &[0.0, 0.0], 0), Vec::<usize>::new());
    }

    #[test]
    fn flat_kernels_match_boxed_helpers() {
        let r = rows();
        let m = Matrix::from_rows(&r);
        let all: Vec<usize> = (0..4).collect();
        let par = Parallelism::sequential();
        assert_eq!(centroid_ids(&m, &all, par), centroid(&r, &all));
        assert_eq!(
            farthest_from_ids(&m, &all, &[0.0, 0.0], par),
            farthest_from(&r, &all, &[0.0, 0.0])
        );
        assert_eq!(
            nearest_to_ids(&m, &all, &[4.9, 5.2], par),
            nearest_to(&r, &all, &[4.9, 5.2])
        );
        assert_eq!(
            k_nearest_ids(&m, &all, &[0.0, 0.0], 3, par),
            k_nearest(&r, &all, &[0.0, 0.0], 3)
        );
        assert_eq!(centroid_ids(&m, &[] as &[usize], par), vec![0.0, 0.0]);
        assert_eq!(
            farthest_from_ids(&m, &[] as &[usize], &[0.0, 0.0], par),
            None
        );
    }

    #[test]
    fn flat_kernels_are_worker_count_invariant() {
        // Large enough for several blocks; all reductions must be
        // bit-identical across worker counts.
        let n = 3 * tclose_parallel::BLOCK + 211;
        let data: Vec<f64> = (0..2 * n)
            .map(|i| ((i * 2654435761_usize) % 100_003) as f64 * 1e-2)
            .collect();
        let m = Matrix::from_flat(data, 2);
        let ids: Vec<crate::matrix::RowId> = m.row_ids().collect();
        let point = [17.0, 202.5];
        let seq = Parallelism::sequential();
        let c0 = centroid_ids(&m, &ids, seq);
        let f0 = farthest_from_ids(&m, &ids, &point, seq);
        let k0 = k_nearest_ids(&m, &ids, &point, 100, seq);
        let d0 = min_sq_dist_excluding(&m, &ids, &point, 5, seq);
        for w in [2usize, 4, 8] {
            let par = Parallelism::workers(w);
            let c = centroid_ids(&m, &ids, par);
            assert!(
                c.iter().zip(&c0).all(|(a, b)| a.to_bits() == b.to_bits()),
                "centroid differs at {w} workers"
            );
            assert_eq!(farthest_from_ids(&m, &ids, &point, par), f0);
            assert_eq!(k_nearest_ids(&m, &ids, &point, 100, par), k0);
            assert_eq!(
                min_sq_dist_excluding(&m, &ids, &point, 5, par).to_bits(),
                d0.to_bits()
            );
        }
    }

    #[test]
    fn flat_extreme_ties_break_to_lowest_row_index() {
        let m = Matrix::from_rows(&[vec![1.0], vec![-1.0], vec![1.0]]);
        let ids = [2usize, 0, 1]; // scrambled: tie-break is by row index, not position
        let par = Parallelism::sequential();
        assert_eq!(nearest_to_ids(&m, &ids, &[0.0], par), Some(0));
        assert_eq!(farthest_from_ids(&m, &ids, &[0.0], par), Some(0));
    }

    #[test]
    fn min_sq_dist_excluding_skips_the_excluded_row() {
        let m = Matrix::from_rows(&[vec![0.0], vec![3.0], vec![10.0]]);
        let ids = [0usize, 1, 2];
        let par = Parallelism::sequential();
        // excluding row 0 the nearest is row 1 at distance 2.9² = 8.41
        assert!((min_sq_dist_excluding(&m, &ids, &[0.1], 0, par) - 8.41).abs() < 1e-12);
        // excluding an absent row changes nothing: nearest is row 0 at 0.01
        assert!((min_sq_dist_excluding(&m, &ids, &[0.1], 9, par) - 0.01).abs() < 1e-12);
        assert_eq!(
            min_sq_dist_excluding(&m, &[0usize], &[0.1], 0, par),
            f64::INFINITY
        );
    }
}
