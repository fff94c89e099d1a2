//! Approximate-backend frontier benchmark: exact kd-tree MDAV versus
//! the `hybrid` opt-in on the seeded blob workload
//! (`tclose_datasets::synthetic::frontier_rows` — the same data the
//! `tclose-perf` `approx/*` cases and the `repro --exp frontier`
//! experiment time, so all three measurement paths agree).
//!
//! `k` scales as `n / 10_000` (min 10): the small-`k` regime where the
//! exact `O(n²/k)` loop runs thousands of rounds and approximation has
//! something to win. Headline million-row numbers are recorded in
//! `docs/PERFORMANCE.md` ("PR 8 — approximate backends"); criterion at
//! n = 1M takes minutes per backend, so this bench sweeps up to 200k
//! and the 1M point is measured once via `repro --exp frontier`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tclose_datasets::synthetic::frontier_rows;
use tclose_microagg::{mdav_partition_with, Matrix, NeighborBackend, Parallelism};

fn frontier_matrix(n: usize, dims: usize) -> Matrix {
    Matrix::new(frontier_rows(42, n, dims), n, dims)
}

fn frontier_k(n: usize) -> usize {
    (n / 10_000).max(10)
}

/// Exact vs approximate at n ∈ {20k, 50k, 200k} × dims ∈ {2, 4}.
fn bench_approx_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_frontier");
    group.sample_size(10);
    for n in [20_000usize, 50_000, 200_000] {
        for dims in [2usize, 4] {
            let m = frontier_matrix(n, dims);
            let k = frontier_k(n);
            for (name, backend) in [
                ("kdtree", NeighborBackend::KdTree),
                ("hybrid", NeighborBackend::Hybrid),
            ] {
                let id = format!("mdav_{name}/n{n}_d{dims}");
                group.bench_with_input(BenchmarkId::from_parameter(id), &backend, |b, &be| {
                    b.iter(|| {
                        black_box(mdav_partition_with(
                            black_box(&m),
                            k,
                            Parallelism::sequential(),
                            be,
                        ))
                    });
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_approx_frontier);
criterion_main!(benches);
