//! Property tests of the multi-query contracts: the fused near+far flat
//! kernel and the batched nearest request must be exactly equivalent to
//! their one-query-at-a-time formulations — same ids, same order, same
//! tie-breaking — on seeded random matrices, including heavy
//! duplicate-point ties.

use rand::{Rng, SeedableRng};
use tclose_index::{KdTree, NeighborBackend, NeighborSet};
use tclose_metrics::distance::k_nearest_with_far_candidates_ids;
use tclose_metrics::matrix::{Matrix, RowId};
use tclose_parallel::Parallelism;

/// A seeded random matrix. Coordinates snap to a coarse grid so exact
/// duplicate points (and therefore distance ties) are common.
fn random_matrix(rng: &mut rand::rngs::StdRng, n: usize, dims: usize, grid: u64) -> Matrix {
    let data: Vec<f64> = (0..n * dims)
        .map(|_| rng.gen_range(0..grid) as f64 * 0.25)
        .collect();
    Matrix::new(data, n, dims)
}

fn random_points(
    rng: &mut rand::rngs::StdRng,
    count: usize,
    dims: usize,
    grid: u64,
) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| {
            (0..dims)
                .map(|_| rng.gen_range(0..grid) as f64 * 0.25)
                .collect()
        })
        .collect()
}

#[test]
fn fused_near_far_matches_separate_queries_and_repeated_extraction() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA2);
    let par = Parallelism::sequential();
    for &(n, dims, grid) in &[(64usize, 1usize, 3u64), (200, 2, 6), (300, 4, 2)] {
        let m = random_matrix(&mut rng, n, dims, grid);
        let live: Vec<RowId> = m.row_ids().collect();
        let tree = KdTree::build(&m);
        for _ in 0..12 {
            let point: Vec<f64> = (0..dims)
                .map(|_| rng.gen_range(0..grid) as f64 * 0.25)
                .collect();
            let nc = rng.gen_range(0..=n / 2);
            let fc = rng.gen_range(0..=n / 2);
            let (near, far) = k_nearest_with_far_candidates_ids(&m, &live, &point, nc, fc, par);
            assert_eq!(near, tree.k_nearest(&point, nc), "near n={n} dims={dims}");
            // The far list == repeated farthest extraction with removal,
            // the property MDAV's first-survivor seed rests on.
            let mut scratch = tree.clone();
            let mut naive = Vec::new();
            for _ in 0..fc.min(n) {
                let id = scratch.farthest_from(&point).expect("rows remain");
                naive.push(id);
                scratch.remove(id);
            }
            assert_eq!(far, naive, "extraction n={n} dims={dims} fc={fc}");
        }
    }
}

#[test]
fn neighbor_set_agrees_across_backends() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E7);
    let (n, dims, grid) = (240usize, 3usize, 5u64);
    let m = random_matrix(&mut rng, n, dims, grid);
    let par = Parallelism::sequential();
    let live: Vec<RowId> = m.row_ids().collect();
    let flat = NeighborSet::new(&m, NeighborBackend::FlatScan, par);
    let tree = NeighborSet::new(&m, NeighborBackend::KdTree, par);
    for _ in 0..15 {
        let n_points = rng.gen_range(1..5);
        let points = random_points(&mut rng, n_points, dims, grid);
        let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        let exclude = rng.gen_range(0..n);
        assert_eq!(
            tree.nearest_batch(&live, &refs),
            flat.nearest_batch(&live, &refs)
        );
        assert_eq!(
            tree.min_sq_dist_to_other(&live, refs[0], exclude).to_bits(),
            flat.min_sq_dist_to_other(&live, refs[0], exclude).to_bits()
        );
    }
}
