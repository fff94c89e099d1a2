//! Cross-crate guarantees of the *approximate* neighbor backend
//! (`NeighborBackend::Hybrid`).
//!
//! Unlike the exact backends, the approximate opt-in is allowed to
//! produce a *different* MDAV-family clustering than the flat scan —
//! that is the whole speed bargain. What it must never give up:
//!
//! * **Validity.** Every release is k-anonymous and t-close: the
//!   partition respects `k ≤ |class| < 3k`, and the released table
//!   passes the independent `verify_k_anonymity` / `verify_t_closeness`
//!   audits under all three algorithms.
//! * **Determinism.** The clustering depends on neither the worker
//!   count nor repetition — approximate, but reproducible.

use tclose::core::{verify_k_anonymity, verify_t_closeness, Confidential};
use tclose::microdata::csv::to_csv_string;
use tclose::prelude::*;

const APPROX: [NeighborBackend; 1] = [NeighborBackend::Hybrid];

#[test]
fn approximate_releases_are_valid_for_every_algorithm_and_worker_count() {
    let table = tclose::datasets::census_mcd(42);
    let (k, t) = (5usize, 0.25f64);
    for alg in [
        Algorithm::Merge,
        Algorithm::KAnonymityFirst,
        Algorithm::TClosenessFirst,
    ] {
        for backend in APPROX {
            let mut releases: Vec<String> = Vec::new();
            for workers in [1usize, 4] {
                let out = Anonymizer::new(k, t)
                    .algorithm(alg)
                    .with_parallelism(Parallelism::workers(workers))
                    .with_backend(backend)
                    .anonymize(&table)
                    .unwrap();
                let label = format!("{} / {backend} / workers={workers}", alg.name());

                // The report's own audit numbers must honor the request…
                assert!(
                    out.report.satisfies_request(),
                    "{label}: k={} emd={}",
                    out.report.min_cluster_size,
                    out.report.max_emd
                );
                // …and so must the independent verifiers on the table.
                assert!(verify_k_anonymity(&out.table).unwrap() >= k, "{label}");
                let conf = Confidential::from_table(&out.table).unwrap();
                let emd = verify_t_closeness(&out.table, &conf).unwrap();
                assert!(emd <= t + 1e-12, "{label}: audited EMD {emd} > t {t}");

                releases.push(to_csv_string(&out.table).unwrap());
            }
            assert_eq!(
                releases[0],
                releases[1],
                "{} / {backend}: release depends on the worker count",
                alg.name()
            );
        }
    }
}

#[test]
fn approximate_partitions_respect_mdav_size_bounds() {
    // Partition-level invariant on data large enough that Hybrid engages
    // its coarse path (n ≥ HYBRID_MIN_ROWS).
    let rows: Vec<Vec<f64>> = (0..6000)
        .map(|i| {
            vec![
                ((i * 2654435761_usize) % 1009) as f64 * 0.1,
                ((i * 40503) % 499) as f64 * 0.2,
            ]
        })
        .collect();
    let m = Matrix::from_rows(&rows);
    for k in [10usize, 50] {
        for backend in APPROX {
            let c = Mdav.partition_matrix_with(&m, k, backend);
            assert_eq!(c.n_records(), m.n_rows(), "{backend} k={k}");
            c.check_min_size(k).unwrap();
            assert!(
                c.clusters().iter().all(|cl| cl.len() < 3 * k),
                "{backend} k={k}: some cluster reached 3k"
            );

            let v = VMdav::new(0.3).partition_matrix_with(&m, k, backend);
            assert_eq!(v.n_records(), m.n_rows());
            v.check_min_size(k).unwrap();
        }
    }
}

#[test]
fn approximate_partitions_are_reproducible() {
    let rows: Vec<Vec<f64>> = (0..5000)
        .map(|i| vec![((i * 37) % 211) as f64, ((i * 53) % 173) as f64 * 0.5])
        .collect();
    let m = Matrix::from_rows(&rows);
    for backend in APPROX {
        let a = Mdav.partition_matrix_with(&m, 12, backend);
        let b = Mdav.partition_matrix_with(&m, 12, backend);
        assert_eq!(a, b, "{backend}: repeated runs diverged");
    }
}

#[test]
fn streaming_releases_stay_valid_on_approximate_backends() {
    // The sharded engine audits every shard against the global
    // distribution; an approximate per-shard clustering must still come
    // out k-anonymous and t-close in the merged report.
    let table = tclose::datasets::census_mcd(23);
    let dir = std::env::temp_dir().join("tclose_approx_backend_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("census_in.csv");
    tclose::microdata::csv::write_csv(&table, std::fs::File::create(&input).unwrap()).unwrap();

    let qi: Vec<String> = vec!["TAXINC".into(), "POTHVAL".into()];
    let conf: Vec<String> = vec!["FEDTAX".into()];
    for backend in APPROX {
        let output = dir.join(format!("census_out_{backend}.csv"));
        let report = ShardedAnonymizer::new(5, 0.25)
            .shard_rows(250)
            .with_backend(backend)
            .with_parallelism(Parallelism::workers(2))
            .anonymize_file(&input, &output, &qi, &conf)
            .unwrap();
        assert!(report.n_shards > 1);
        assert!(report.satisfies_request(), "{backend}");
        assert!(
            report.achieved_t_deviation <= 1.0,
            "{backend}: t budget exceeded ({})",
            report.achieved_t_deviation
        );
    }
}
