//! Differential tests of the multi-lane kernel paths: every vectorized
//! kernel must be **byte-identical** to the scalar reference — across
//! lane widths, every tail remainder `n % 8 ∈ {0..7}`, dimensions
//! d ∈ {1,2,3,4,8,9} (covering the unrolled `sq_dist_fixed` dispatch and
//! the generic fallback), NaN-free extreme magnitudes, duplicate-distance
//! tie rows, and worker counts.

use rand::{Rng, SeedableRng};
use tclose_metrics::distance::{
    centroid_ids_path, farthest_from_ids_path, k_nearest_ids_path,
    k_nearest_with_far_candidates_ids_path, min_sq_dist_excluding_path, nearest_to_ids_path,
    nearest_to_many_ids_path,
};
use tclose_metrics::matrix::{Matrix, RowId};
use tclose_metrics::simd::{lane_sum, sq_err_sum, KernelPath};
use tclose_metrics::sse::column_sq_err_with;
use tclose_parallel::Parallelism;

const LANED: [KernelPath; 1] = [KernelPath::Lanes8];

/// A seeded random matrix. Coordinates snap to a coarse grid so exact
/// duplicate points (and therefore distance ties) are common.
fn random_matrix(rng: &mut rand::rngs::StdRng, n: usize, dims: usize, grid: u64) -> Matrix {
    let data: Vec<f64> = (0..n * dims)
        .map(|_| rng.gen_range(0..grid) as f64 * 0.25)
        .collect();
    Matrix::new(data, n, dims)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts every kernel agrees bit-for-bit with the scalar path on one
/// (matrix, query point, parallelism) configuration.
fn assert_all_kernels_identical(m: &Matrix, point: &[f64], par: Parallelism, label: &str) {
    let ids: Vec<RowId> = m.row_ids().collect();
    let k = (ids.len() / 3).max(1);
    let s = KernelPath::Scalar;
    let c0 = centroid_ids_path(m, &ids, par, s);
    let f0 = farthest_from_ids_path(m, &ids, point, par, s);
    let n0 = nearest_to_ids_path(m, &ids, point, par, s);
    let k0 = k_nearest_ids_path(m, &ids, point, k, par, s);
    let m0 = min_sq_dist_excluding_path(m, &ids, point, ids.len() / 2, par, s);
    let nf0 = k_nearest_with_far_candidates_ids_path(m, &ids, point, k, k + 1, par, s);
    // The batched flat scan must equal the per-point scans: same blocks,
    // same per-query fold order, only the memory walk is shared.
    let batch_points: Vec<&[f64]> = vec![point, m.row(0usize), m.row(ids.len() / 2)];
    let b0: Vec<Option<RowId>> = batch_points
        .iter()
        .map(|p| nearest_to_ids_path(m, &ids, p, par, s))
        .collect();
    for p in LANED {
        assert_eq!(
            bits(&centroid_ids_path(m, &ids, par, p)),
            bits(&c0),
            "centroid {label} {p:?}"
        );
        assert_eq!(
            farthest_from_ids_path(m, &ids, point, par, p),
            f0,
            "farthest {label} {p:?}"
        );
        assert_eq!(
            nearest_to_ids_path(m, &ids, point, par, p),
            n0,
            "nearest {label} {p:?}"
        );
        assert_eq!(
            k_nearest_ids_path(m, &ids, point, k, par, p),
            k0,
            "k_nearest {label} {p:?}"
        );
        assert_eq!(
            min_sq_dist_excluding_path(m, &ids, point, ids.len() / 2, par, p).to_bits(),
            m0.to_bits(),
            "min_excluding {label} {p:?}"
        );
        assert_eq!(
            k_nearest_with_far_candidates_ids_path(m, &ids, point, k, k + 1, par, p),
            nf0,
            "near+far {label} {p:?}"
        );
        assert_eq!(
            nearest_to_many_ids_path(m, &ids, &batch_points, par, p),
            b0,
            "nearest_batch {label} {p:?}"
        );
    }
}

#[test]
fn kernels_are_byte_identical_across_lane_widths_dims_and_tails() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51D0);
    for &dims in &[1usize, 2, 3, 4, 8, 9] {
        // Every tail remainder mod 8 (so also mod 4), plus block-crossing
        // sizes around the fixed 4096-item parallel block.
        for &n in &[
            1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 200, 4096, 4099,
        ] {
            let m = random_matrix(&mut rng, n, dims, 6);
            let point: Vec<f64> = (0..dims)
                .map(|_| rng.gen_range(0..6u64) as f64 * 0.25)
                .collect();
            assert_all_kernels_identical(&m, &point, Parallelism::sequential(), "seq");
        }
    }
}

#[test]
fn kernels_are_byte_identical_across_lane_widths_and_worker_counts() {
    // Lane width and worker count compose: the lane DAG lives inside the
    // fixed 4096-item blocks, so any (path, workers) pair must agree.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB10C);
    let n = 3 * 4096 + 211;
    let m = random_matrix(&mut rng, n, 3, 40);
    let point = [0.5, 1.25, 0.75];
    for workers in [1usize, 2, 4, 8] {
        assert_all_kernels_identical(&m, &point, Parallelism::workers(workers), "workers");
    }
}

#[test]
fn kernels_survive_extreme_magnitudes() {
    // Mixed huge/tiny magnitudes (still NaN-free, squares stay finite):
    // catastrophic-cancellation territory where any reduction-order drift
    // between the paths would show up immediately in the bits.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xEE7);
    for &n in &[37usize, 128, 1021] {
        let data: Vec<f64> = (0..n * 3)
            .map(|_| {
                let mag = match rng.gen_range(0..4u32) {
                    0 => 1e130,
                    1 => 1e-130,
                    2 => 1e8,
                    _ => 1.0,
                };
                let sign = if rng.gen_range(0..2u32) == 0 {
                    1.0
                } else {
                    -1.0
                };
                sign * mag * (1.0 + rng.gen_range(0..1000u64) as f64 * 1e-3)
            })
            .collect();
        let m = Matrix::new(data, n, 3);
        let point = [1e130, -3.0, 1e-130];
        assert_all_kernels_identical(&m, &point, Parallelism::sequential(), "extreme");
    }
}

#[test]
fn duplicate_distance_ties_resolve_identically_on_every_path() {
    // grid=2 in 1-D: almost everything is tied. The comparison kernels
    // must pick the same (lowest row index) winner on every path.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x71E5);
    for &n in &[9usize, 64, 300, 1000] {
        let m = random_matrix(&mut rng, n, 1, 2);
        assert_all_kernels_identical(&m, &[0.125], Parallelism::sequential(), "ties");
    }
}

#[test]
fn lane_sums_are_byte_identical_on_raw_slices() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    for n in 0..40usize {
        let xs: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0..1_000_000u64) as f64 * 1e-4 - 50.0)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.75 + 1.0).collect();
        let s = lane_sum(&xs, KernelPath::Scalar);
        let e = sq_err_sum(&xs, &ys, 3.0, KernelPath::Scalar);
        for p in LANED {
            assert_eq!(lane_sum(&xs, p).to_bits(), s.to_bits(), "sum n={n} {p:?}");
            assert_eq!(
                sq_err_sum(&xs, &ys, 3.0, p).to_bits(),
                e.to_bits(),
                "sq_err n={n} {p:?}"
            );
        }
    }
}

#[test]
fn sse_column_kernel_is_byte_identical_across_paths_and_workers() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC01);
    let n = 2 * 4096 + 77;
    let orig: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(0..100_000u64) as f64 * 1e-2)
        .collect();
    let anon: Vec<f64> = orig
        .iter()
        .map(|x| x + rng.gen_range(0..100u64) as f64 * 1e-2)
        .collect();
    let base = column_sq_err_with(
        &orig,
        &anon,
        7.5,
        Parallelism::sequential(),
        KernelPath::Scalar,
    );
    for workers in [1usize, 2, 4] {
        for p in KernelPath::all() {
            assert_eq!(
                column_sq_err_with(&orig, &anon, 7.5, Parallelism::workers(workers), p).to_bits(),
                base.to_bits(),
                "sse workers={workers} {p:?}"
            );
        }
    }
}

#[test]
fn near_far_fusion_matches_the_two_separate_scans() {
    // The fused kernel must agree with k_nearest + repeated
    // farthest-extraction semantics on every path, including tie-heavy
    // working sets.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA12);
    let par = Parallelism::sequential();
    for &(n, dims, grid) in &[(40usize, 2usize, 3u64), (200, 3, 5), (111, 1, 2)] {
        let m = random_matrix(&mut rng, n, dims, grid);
        let ids: Vec<RowId> = m.row_ids().collect();
        let point: Vec<f64> = (0..dims)
            .map(|_| rng.gen_range(0..grid) as f64 * 0.25)
            .collect();
        let k = (n / 4).max(1);
        for p in KernelPath::all() {
            let (near, far) =
                k_nearest_with_far_candidates_ids_path(&m, &ids, &point, k, k + 1, par, p);
            assert_eq!(near, k_nearest_ids_path(&m, &ids, &point, k, par, p));
            // Naive far list: extract the farthest, remove it, repeat.
            let mut pool = ids.clone();
            let mut naive_far = Vec::new();
            for _ in 0..(k + 1).min(n) {
                let fid = farthest_from_ids_path(&m, &pool, &point, par, p).unwrap();
                naive_far.push(fid);
                pool.retain(|&r| r != fid);
            }
            assert_eq!(far, naive_far, "n={n} dims={dims} grid={grid} {p:?}");
        }
    }
}
