//! Cross-crate guarantee of the neighbor-search backends: swapping
//! `FlatScan` for `KdTree` (at any worker count) never changes a
//! partition, a released table, or an audit — only wall-clock time.
//!
//! Extends the `tests/streaming_engine.rs` pattern: the synthetic census
//! data goes through the full pipeline under every combination of
//! 3 algorithms × 2 normalizations × workers {1, 4} × both explicit
//! backends, and the serialized CSV releases must be byte-identical.
//! The approximate `Hybrid` backend only changes MDAV-family partitions;
//! Algorithms 2 and 3 query the working set directly, so under `Hybrid`
//! they must release exactly what `Auto` releases.

use std::path::PathBuf;

use tclose::microdata::csv::to_csv_string;
use tclose::microdata::NormalizeMethod;
use tclose::prelude::*;
use tclose::stream::ShardedAnonymizer;

#[test]
fn releases_are_byte_identical_across_backends_and_worker_counts() {
    let table = tclose::datasets::census_mcd(42);
    for alg in [
        Algorithm::Merge,
        Algorithm::KAnonymityFirst,
        Algorithm::TClosenessFirst,
    ] {
        for method in [NormalizeMethod::ZScore, NormalizeMethod::MinMax] {
            let mut releases: Vec<(String, String, f64)> = Vec::new();
            for workers in [1usize, 4] {
                for backend in [NeighborBackend::FlatScan, NeighborBackend::KdTree] {
                    let out = Anonymizer::new(5, 0.25)
                        .algorithm(alg)
                        .normalization(method)
                        .with_parallelism(Parallelism::workers(workers))
                        .with_backend(backend)
                        .anonymize(&table)
                        .unwrap();
                    releases.push((
                        format!("workers={workers} backend={backend:?}"),
                        to_csv_string(&out.table).unwrap(),
                        out.report.max_emd,
                    ));
                }
            }
            let (base_label, base_csv, base_emd) = &releases[0];
            for (label, csv, emd) in &releases[1..] {
                assert_eq!(
                    csv,
                    base_csv,
                    "{} / {:?}: release differs between {base_label} and {label}",
                    alg.name(),
                    method
                );
                assert_eq!(emd.to_bits(), base_emd.to_bits());
            }
        }
    }
}

#[test]
fn partitions_are_identical_across_backends_on_duplicate_heavy_data() {
    // Clustering-level check on data with massive QI ties (every value in
    // a small grid): the kd-tree path must reproduce the flat tie-breaking
    // record for record, not just produce an equally good partition.
    let rows: Vec<Vec<f64>> = (0..600)
        .map(|i| vec![(i % 7) as f64, ((i / 7) % 5) as f64])
        .collect();
    let m = Matrix::from_rows(&rows);
    for k in [3usize, 10] {
        let flat = Mdav.partition_matrix_with(&m, k, NeighborBackend::FlatScan);
        let kd = Mdav.partition_matrix_with(&m, k, NeighborBackend::KdTree);
        assert_eq!(flat, kd, "MDAV k={k}");

        let flat = VMdav::new(0.4).partition_matrix_with(&m, k, NeighborBackend::FlatScan);
        let kd = VMdav::new(0.4).partition_matrix_with(&m, k, NeighborBackend::KdTree);
        assert_eq!(flat, kd, "V-MDAV k={k}");
    }
}

#[test]
fn auto_backend_matches_both_explicit_backends_above_the_threshold() {
    // 6000 rows × 3 dims: Auto resolves to the kd-tree (n ≥ AUTO_MIN_ROWS,
    // dims ≤ 8), and all three spellings must agree bit for bit.
    let rows: Vec<Vec<f64>> = (0..6000)
        .map(|i| {
            vec![
                ((i * 2654435761_usize) % 1009) as f64 * 0.1,
                ((i * 40503) % 499) as f64 * 0.2,
                (i % 23) as f64,
            ]
        })
        .collect();
    let m = Matrix::from_rows(&rows);
    let auto = Mdav.partition_matrix_with(&m, 25, NeighborBackend::Auto);
    let flat = Mdav.partition_matrix_with(&m, 25, NeighborBackend::FlatScan);
    let kd = Mdav.partition_matrix_with(&m, 25, NeighborBackend::KdTree);
    assert_eq!(auto, kd);
    assert_eq!(auto, flat);
}

#[test]
fn streaming_release_is_backend_invariant_end_to_end() {
    // The sharded engine resolves `Auto` per shard; explicit backends must
    // still produce the identical merged release file.
    let table = tclose::datasets::census_mcd(23);
    let dir = std::env::temp_dir().join("tclose_backend_equivalence_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let input: PathBuf = dir.join("census_in.csv");
    tclose::microdata::csv::write_csv(&table, std::fs::File::create(&input).unwrap()).unwrap();

    let qi: Vec<String> = vec!["TAXINC".into(), "POTHVAL".into()];
    let conf: Vec<String> = vec!["FEDTAX".into()];
    let mut outputs = Vec::new();
    for (name, backend) in [
        ("flat", NeighborBackend::FlatScan),
        ("kd", NeighborBackend::KdTree),
        ("auto", NeighborBackend::Auto),
    ] {
        let output = dir.join(format!("census_out_{name}.csv"));
        let report = ShardedAnonymizer::new(5, 0.25)
            .shard_rows(250)
            .with_backend(backend)
            .with_parallelism(Parallelism::workers(2))
            .anonymize_file(&input, &output, &qi, &conf)
            .unwrap();
        assert!(report.n_shards > 1);
        assert!(report.satisfies_request());
        outputs.push(std::fs::read(&output).unwrap());
    }
    assert_eq!(outputs[0], outputs[1], "flat vs kd-tree");
    assert_eq!(outputs[0], outputs[2], "flat vs auto");
}

#[test]
fn hybrid_query_level_releases_match_auto() {
    // Hybrid's coreset mode lives in the MDAV-family partitioners; the
    // working-set queries of Algorithms 2 and 3 resolve it as `Auto`.
    let table = tclose::datasets::census_mcd(42);
    for alg in [Algorithm::KAnonymityFirst, Algorithm::TClosenessFirst] {
        let release = |backend| {
            let out = Anonymizer::new(5, 0.25)
                .algorithm(alg)
                .with_backend(backend)
                .anonymize(&table)
                .unwrap();
            (
                to_csv_string(&out.table).unwrap(),
                out.report.max_emd.to_bits(),
            )
        };
        assert_eq!(
            release(NeighborBackend::Hybrid),
            release(NeighborBackend::Auto),
            "{}: Hybrid release differs from Auto",
            alg.name()
        );
    }
}
