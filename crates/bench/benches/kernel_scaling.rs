//! Lane-width scaling of the multi-lane distance kernels.
//!
//! Four kernel groups sweep both [`KernelPath`]s over a 100k-row matrix
//! so the scalar→lanes8 speedup is directly readable (the lane-width
//! table in `docs/PERFORMANCE.md` comes from this target).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tclose_metrics::distance::{
    centroid_ids_path, farthest_from_ids_path, min_sq_dist_excluding_path,
};
use tclose_metrics::matrix::{Matrix, RowId};
use tclose_metrics::sse::column_sq_err_with;
use tclose_metrics::KernelPath;
use tclose_microagg::Parallelism;

/// Deterministic synthetic rows (the `index_scaling` / perf-suite
/// integer-hash construction, so the workloads line up across harnesses).
fn synthetic_matrix(n: usize, dims: usize) -> Matrix {
    let data: Vec<f64> = (0..n * dims)
        .map(|i| ((i * 2654435761 + (i % dims) * 40503) % 100_003) as f64 * 1e-3)
        .collect();
    Matrix::new(data, n, dims)
}

const N: usize = 100_000;
const DIMS: usize = 3;

fn bench_sq_dist_scan(c: &mut Criterion) {
    let m = synthetic_matrix(N, DIMS);
    let ids: Vec<RowId> = m.row_ids().collect();
    let point = m.row(N / 2).to_vec();
    let mut group = c.benchmark_group("kernel_scaling/sq_dist");
    for path in KernelPath::all() {
        group.bench_with_input(BenchmarkId::from_parameter(path.name()), &path, |b, &p| {
            b.iter(|| {
                black_box(min_sq_dist_excluding_path(
                    black_box(&m),
                    &ids,
                    &point,
                    0,
                    Parallelism::sequential(),
                    p,
                ))
            });
        });
    }
    group.finish();
}

fn bench_farthest_scan(c: &mut Criterion) {
    let m = synthetic_matrix(N, DIMS);
    let ids: Vec<RowId> = m.row_ids().collect();
    let point = m.row(0).to_vec();
    let mut group = c.benchmark_group("kernel_scaling/farthest");
    for path in KernelPath::all() {
        group.bench_with_input(BenchmarkId::from_parameter(path.name()), &path, |b, &p| {
            b.iter(|| {
                black_box(farthest_from_ids_path(
                    black_box(&m),
                    &ids,
                    &point,
                    Parallelism::sequential(),
                    p,
                ))
            });
        });
    }
    group.finish();
}

fn bench_sse_column(c: &mut Criterion) {
    let orig: Vec<f64> = (0..N)
        .map(|i| ((i * 2654435761) % 100_003) as f64 * 1e-3)
        .collect();
    let anon: Vec<f64> = orig.iter().map(|x| x * 0.75 + 3.0).collect();
    let mut group = c.benchmark_group("kernel_scaling/sse");
    for path in KernelPath::all() {
        group.bench_with_input(BenchmarkId::from_parameter(path.name()), &path, |b, &p| {
            b.iter(|| {
                black_box(column_sq_err_with(
                    black_box(&orig),
                    &anon,
                    7.5,
                    Parallelism::sequential(),
                    p,
                ))
            });
        });
    }
    group.finish();
}

fn bench_centroid_sum(c: &mut Criterion) {
    let m = synthetic_matrix(N, DIMS);
    let ids: Vec<RowId> = m.row_ids().collect();
    let mut group = c.benchmark_group("kernel_scaling/centroid");
    for path in KernelPath::all() {
        group.bench_with_input(BenchmarkId::from_parameter(path.name()), &path, |b, &p| {
            b.iter(|| {
                black_box(centroid_ids_path(
                    black_box(&m),
                    &ids,
                    Parallelism::sequential(),
                    p,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sq_dist_scan,
    bench_farthest_scan,
    bench_sse_column,
    bench_centroid_sum,
);
criterion_main!(benches);
