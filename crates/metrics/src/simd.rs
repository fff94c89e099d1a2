//! Multi-lane (SIMD-style) implementations of the hot flat kernels.
//!
//! The toolchain is pinned to stable (no `std::simd`), so the lanes are
//! hand-unrolled: fixed-size `[f64; N]` accumulator arrays over the
//! contiguous [`Matrix`] buffer that LLVM turns into packed vector code.
//! Two code paths exist, selected by [`KernelPath`]:
//!
//! * [`KernelPath::Scalar`] — the reference: one lane at a time, simple
//!   loops. Kept permanently for differential testing, never deleted.
//! * [`KernelPath::Lanes8`] — one 8-wide accumulator array (AVX-shaped).
//!   The only path that ships: the plain kernels of
//!   [`crate::distance`] and [`crate::sse`] always call it.
//!
//! ## Byte-identity across paths
//!
//! Every kernel here produces **bit-identical** results on both paths.
//! For the comparison kernels (extreme-point, k-nearest distance
//! pass, min-distance) this is automatic: each row keeps its own
//! accumulator, so per-row distances use exactly the
//! [`sq_dist_dim`](crate::distance::sq_dist_dim) operation sequence and
//! only independent comparisons are reordered — and those are filtered
//! through the associative total order (distance, row id).
//!
//! For the *sum* kernels (centroid, SSE) floating-point addition does not
//! commute, so all paths implement one **canonical reduction DAG** with
//! [`VIRTUAL_LANES`] = 8 virtual lanes: element `i` of a block is added
//! to lane `i mod 8` (in ascending `i` per lane), and the eight lane
//! totals collapse pairwise as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
//! The scalar path walks one element at a time with a rotating lane
//! index; the laned path walks 8 elements per step — different code,
//! identical arithmetic tree. Because the DAG depends only on the block
//! length, and blocks are fixed at [`tclose_parallel::BLOCK`] items
//! (which 8 divides), results also stay byte-identical across worker
//! counts, exactly as before.
//!
//! ## Selecting a path
//!
//! There is no runtime switch: since both paths are byte-identical, the
//! choice could never change a partition or a release. Tests and benches
//! pass an explicit path to the `*_path` kernel variants to compare the
//! two.

use crate::matrix::{Matrix, RowIndex};

/// Number of virtual lanes of the canonical sum-reduction DAG. Every
/// [`KernelPath`] implements this same 8-lane tree, whatever its physical
/// unroll width, so sums are bit-identical across paths.
pub const VIRTUAL_LANES: usize = 8;

/// Which kernel implementation the hot scans run on.
///
/// Both paths are byte-identical (see the module docs); the choice only
/// affects wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// One-lane reference implementation (differential-testing anchor).
    Scalar,
    /// One 8-wide accumulator array per step (AVX-shaped, the path the
    /// plain kernels use).
    Lanes8,
}

impl KernelPath {
    /// Both paths, for equivalence sweeps in tests and benches.
    pub fn all() -> [KernelPath; 2] {
        [KernelPath::Scalar, KernelPath::Lanes8]
    }

    /// Stable lowercase name (`scalar` / `lanes8`).
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Lanes8 => "lanes8",
        }
    }
}

/// Shared comparison of the extreme-point scans: does `(d, i)` beat the
/// current best `(bd, bi)` under the total order (distance, lowest row
/// index)? Associative, so block/lane reduction order never matters.
#[inline]
pub(crate) fn beats(farthest: bool, d: f64, i: usize, bd: f64, bi: usize) -> bool {
    if d != bd {
        if farthest {
            d > bd
        } else {
            d < bd
        }
    } else {
        i < bi
    }
}

/// The canonical pairwise collapse of the eight virtual lane totals.
#[inline]
fn combine(l: [f64; 8]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Canonical 8-lane sum of a slice (bit-identical on every path). The
/// laned paths walk `chunks_exact(8)` so every load is provably in
/// bounds — no per-element bounds checks blocking vectorization.
pub fn lane_sum(xs: &[f64], path: KernelPath) -> f64 {
    match path {
        KernelPath::Scalar => {
            let mut l = [0.0f64; 8];
            for (i, &x) in xs.iter().enumerate() {
                l[i & 7] += x;
            }
            combine(l)
        }
        KernelPath::Lanes8 => {
            let mut l = [0.0f64; 8];
            let mut it = xs.chunks_exact(8);
            for c in it.by_ref() {
                for s in 0..8 {
                    l[s] += c[s];
                }
            }
            for (s, &x) in it.remainder().iter().enumerate() {
                l[s] += x;
            }
            combine(l)
        }
    }
}

/// Canonical 8-lane sum of squared scaled errors `((orig−anon)/scale)²`
/// over one contiguous column block — the SSE inner kernel. Same DAG and
/// chunking discipline as [`lane_sum`].
pub fn sq_err_sum(orig: &[f64], anon: &[f64], scale: f64, path: KernelPath) -> f64 {
    debug_assert_eq!(orig.len(), anon.len());
    let err = |o: f64, a: f64| {
        let ned = (o - a) / scale;
        ned * ned
    };
    match path {
        KernelPath::Scalar => {
            let mut l = [0.0f64; 8];
            for (i, (&o, &a)) in orig.iter().zip(anon).enumerate() {
                l[i & 7] += err(o, a);
            }
            combine(l)
        }
        KernelPath::Lanes8 => {
            let mut l = [0.0f64; 8];
            let mut it_o = orig.chunks_exact(8);
            let mut it_a = anon.chunks_exact(8);
            for (co, ca) in it_o.by_ref().zip(it_a.by_ref()) {
                for s in 0..8 {
                    l[s] += err(co[s], ca[s]);
                }
            }
            for (s, (&o, &a)) in it_o.remainder().iter().zip(it_a.remainder()).enumerate() {
                l[s] += err(o, a);
            }
            combine(l)
        }
    }
}

/// Collapses the dim-major lane accumulator (`lanes[j*8 + s]`) to per-dim
/// totals.
fn collapse(lanes: &[f64], dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|j| {
            let l: [f64; 8] = lanes[j * 8..j * 8 + 8].try_into().expect("eight lanes");
            combine(l)
        })
        .collect()
}

/// Unnormalized per-dimension sum of the rows at `ids` under the
/// canonical 8-lane DAG (row `i` of the block feeds lane `i mod 8`).
/// The centroid kernel divides the result by the id count.
pub fn centroid_sum<I: RowIndex>(m: &Matrix, ids: &[I], path: KernelPath) -> Vec<f64> {
    let dim = m.n_cols();
    let mut lanes = vec![0.0f64; dim * 8];
    match path {
        KernelPath::Scalar => {
            for (i, &id) in ids.iter().enumerate() {
                let s = i & 7;
                for (j, &x) in m.row(id).iter().enumerate() {
                    lanes[j * 8 + s] += x;
                }
            }
        }
        KernelPath::Lanes8 => {
            let mut it = ids.chunks_exact(8);
            for c in it.by_ref() {
                let rows: [&[f64]; 8] = std::array::from_fn(|l| m.row(c[l]));
                for j in 0..dim {
                    for s in 0..8 {
                        lanes[j * 8 + s] += rows[s][j];
                    }
                }
            }
            for (s, &id) in it.remainder().iter().enumerate() {
                for (j, &x) in m.row(id).iter().enumerate() {
                    lanes[j * 8 + s] += x;
                }
            }
        }
    }
    collapse(&lanes, dim)
}

/// Squared distances from `point` to `count` gathered rows, one
/// independent accumulator per row — each row's result is the exact
/// [`sq_dist_dim`](crate::distance::sq_dist_dim) operation sequence.
#[inline]
fn dist_lanes<const L: usize, I: RowIndex>(m: &Matrix, ids: &[I], point: &[f64]) -> [f64; L] {
    // Dispatch the common low dimensionalities to a const-length inner
    // loop: the trip count becomes a compile-time constant, so the whole
    // gather-subtract-square block unrolls into straight-line vector code
    // (and loop unswitching hoists this match out of the chunk loop).
    match point.len() {
        1 => dist_lanes_d::<L, 1, I>(m, ids, point),
        2 => dist_lanes_d::<L, 2, I>(m, ids, point),
        3 => dist_lanes_d::<L, 3, I>(m, ids, point),
        4 => dist_lanes_d::<L, 4, I>(m, ids, point),
        _ => {
            // Dimension-outer, lane-inner: the compiler packs the L
            // per-row accumulators into vector registers (re-slicing each
            // row to the query length removes the bounds checks that
            // would otherwise block that). Each lane's arithmetic is the
            // j-ascending `sq_dist_dim` DAG.
            let rows: [&[f64]; L] = std::array::from_fn(|l| &m.row(ids[l])[..point.len()]);
            let mut acc = [0.0f64; L];
            for (j, &p) in point.iter().enumerate() {
                for l in 0..L {
                    let d = rows[l][j] - p;
                    acc[l] += d * d;
                }
            }
            acc
        }
    }
}

/// [`dist_lanes`] with the dimensionality lifted to a const generic —
/// identical arithmetic (same j-ascending per-lane DAG), fully unrolled.
#[inline]
fn dist_lanes_d<const L: usize, const D: usize, I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
) -> [f64; L] {
    let p: &[f64; D] = point[..D].try_into().expect("dispatched on point.len()");
    let rows: [&[f64; D]; L] =
        std::array::from_fn(|l| m.row(ids[l])[..D].try_into().expect("row length == D"));
    let mut acc = [0.0f64; L];
    for j in 0..D {
        for l in 0..L {
            let d = rows[l][j] - p[j];
            acc[l] += d * d;
        }
    }
    acc
}

/// Appends `(squared distance, id)` for every id, in id order — the
/// distance pass of the k-nearest kernel. Bit-identical on every path.
pub fn distances_into<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    path: KernelPath,
    out: &mut Vec<(f64, I)>,
) {
    out.reserve(ids.len());
    match path {
        KernelPath::Scalar => {
            for &id in ids {
                out.push((crate::distance::sq_dist_dim(m.row(id), point), id));
            }
        }
        KernelPath::Lanes8 => {
            let mut it = ids.chunks_exact(8);
            for c in it.by_ref() {
                let d = dist_lanes::<8, I>(m, c, point);
                for l in 0..8 {
                    out.push((d[l], c[l]));
                }
            }
            for &id in it.remainder() {
                out.push((crate::distance::sq_dist_dim(m.row(id), point), id));
            }
        }
    }
}

/// Argmax (`farthest`) / argmin scan over one block of ids under the
/// total order (distance, lowest row index). Bit-identical on every path:
/// candidates are folded in id order with per-row distances unchanged.
pub fn extreme_scan<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    farthest: bool,
    path: KernelPath,
) -> Option<(I, f64)> {
    let mut best: Option<(I, f64)> = None;
    let mut fold = |d: f64, id: I| match best {
        Some((bid, bd)) if !beats(farthest, d, id.row_index(), bd, bid.row_index()) => {}
        _ => best = Some((id, d)),
    };
    match path {
        KernelPath::Scalar => {
            for &id in ids {
                fold(crate::distance::sq_dist_dim(m.row(id), point), id);
            }
        }
        KernelPath::Lanes8 => {
            let mut it = ids.chunks_exact(8);
            for c in it.by_ref() {
                let d = dist_lanes::<8, I>(m, c, point);
                for l in 0..8 {
                    fold(d[l], c[l]);
                }
            }
            for &id in it.remainder() {
                fold(crate::distance::sq_dist_dim(m.row(id), point), id);
            }
        }
    }
    best
}

/// Exact two-way minimum written as a plain comparison so it lowers to a
/// single `minsd`/`minpd`. No NaN ever reaches it (finite inputs), and
/// squared distances are never `-0.0`, so it agrees bit-for-bit with
/// [`f64::min`] here.
#[inline]
fn min2(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Smallest squared distance from `point` to any row at `ids` other than
/// row `exclude`, over one block. Exact-min is associative and commutative
/// (the candidate set has no NaN and no `-0.0`), so the laned paths are
/// free to reduce each chunk through a pairwise min tree — and to replace
/// the excluded lane's distance with `+∞`, the identity of min, instead of
/// branching around it. Bit-identical to the scalar left fold on every
/// path.
pub fn min_sq_dist_scan<I: RowIndex>(
    m: &Matrix,
    ids: &[I],
    point: &[f64],
    exclude: usize,
    path: KernelPath,
) -> f64 {
    let mut best = f64::INFINITY;
    match path {
        KernelPath::Scalar => {
            for &id in ids {
                if id.row_index() != exclude {
                    best = best.min(crate::distance::sq_dist_dim(m.row(id), point));
                }
            }
        }
        KernelPath::Lanes8 => {
            let mut it = ids.chunks_exact(8);
            for c in it.by_ref() {
                let mut d = dist_lanes::<8, I>(m, c, point);
                for l in 0..8 {
                    if c[l].row_index() == exclude {
                        d[l] = f64::INFINITY;
                    }
                }
                let lo = min2(min2(d[0], d[1]), min2(d[2], d[3]));
                let hi = min2(min2(d[4], d[5]), min2(d[6], d[7]));
                best = min2(best, min2(lo, hi));
            }
            for &id in it.remainder() {
                if id.row_index() != exclude {
                    best = best.min(crate::distance::sq_dist_dim(m.row(id), point));
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_path_names() {
        let names: Vec<&str> = KernelPath::all().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["scalar", "lanes8"]);
    }

    #[test]
    fn lane_sum_is_bit_identical_across_paths() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 100, 4096, 4097] {
            let xs: Vec<f64> = (0..n)
                .map(|i| ((i * 2654435761) % 100_003) as f64 * 1e-3 - 40.0)
                .collect();
            let s = lane_sum(&xs, KernelPath::Scalar);
            let l = lane_sum(&xs, KernelPath::Lanes8);
            assert_eq!(s.to_bits(), l.to_bits(), "n={n}");
        }
    }

    #[test]
    fn empty_inputs() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]);
        for p in KernelPath::all() {
            assert_eq!(lane_sum(&[], p), 0.0);
            assert_eq!(centroid_sum(&m, &[] as &[usize], p), vec![0.0, 0.0]);
            assert_eq!(
                extreme_scan(&m, &[] as &[usize], &[0.0, 0.0], true, p),
                None
            );
            assert_eq!(
                min_sq_dist_scan(&m, &[] as &[usize], &[0.0, 0.0], 0, p),
                f64::INFINITY
            );
        }
    }
}
