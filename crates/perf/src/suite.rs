//! The pinned macro-benchmark suite: which cases run, at which sizes,
//! and how each case is measured (warmup + repeated timed iterations).
//!
//! Case names are stable identifiers (`area/variant/workload`) — the
//! gate matches baseline to current by name, so renaming a case is a
//! baseline-breaking change and should come with a `bless`.
//!
//! Every workload is driven by the seeded generators in
//! `tclose-datasets` (through the `tclose-bench` [`Problem`] type and
//! the `tclose-eval` dataset catalog), so the measured work is
//! identical from run to run and machine to machine; only the clock
//! varies. All cases pin a single worker thread: the suite tracks
//! single-thread algorithmic cost, the quantity the paper's complexity
//! analysis speaks about, while thread-scaling stays with the criterion
//! benches (`docs/PERFORMANCE.md`).

use std::hint::black_box;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

use tclose_bench::{data, Problem};
use tclose_core::{
    verify_t_closeness_with, Algorithm, Anonymizer, Confidential, FittedAnonymizer, ModelArtifact,
};
use tclose_datasets::patient_discharge;
use tclose_eval::{Context, Dataset};
use tclose_metrics::distance::min_sq_dist_excluding_path;
use tclose_metrics::sse::column_sq_err_with;
use tclose_metrics::KernelPath;
use tclose_microagg::{
    mdav_partition_with, vmdav_partition_with, Matrix, NeighborBackend, Parallelism,
};
use tclose_microdata::csv::{to_csv_string, write_csv};
use tclose_microdata::Table;
use tclose_serve::TestServer;
use tclose_stream::{read_with_roles, Roles, ShardedAnonymizer};

use crate::fingerprint;
use crate::report::{CaseResult, Report, SCHEMA_VERSION};
use crate::stats::summarize;

/// The two measurement tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Small sizes, runs on every push as the CI gate (< 2 minutes).
    Smoke,
    /// Paper-scale sizes for trajectory analysis (workflow-dispatch CI
    /// tier; minutes).
    Full,
}

impl Suite {
    /// Stable lowercase name (`smoke` / `full`), used in file names.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Smoke => "smoke",
            Suite::Full => "full",
        }
    }
}

impl FromStr for Suite {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Ok(Suite::Smoke),
            "full" => Ok(Suite::Full),
            other => Err(format!("unknown suite {other:?} (expected smoke|full)")),
        }
    }
}

/// Iteration policy for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Discarded warmup iterations per case (cache/branch warm-in).
    pub warmup: usize,
    /// Timed iterations per case.
    pub iters: usize,
}

impl RunConfig {
    /// Default policy per suite: enough samples for a median and a
    /// trustworthy min without blowing the smoke-tier time budget.
    pub fn for_suite(suite: Suite) -> Self {
        match suite {
            Suite::Smoke => RunConfig {
                warmup: 1,
                iters: 5,
            },
            Suite::Full => RunConfig {
                warmup: 2,
                iters: 7,
            },
        }
    }
}

/// Runs `f` `warmup` times untimed, then `iters` times timed; returns
/// the timed samples in nanoseconds.
pub fn measure<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect()
}

/// The fixed calibration workload: a pure-ALU xorshift spin whose work
/// is identical everywhere. Its measured time is the machine-speed
/// yardstick that lets the gate compare a report against a baseline
/// blessed on different hardware (see `gate`).
pub fn calibration_spin() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..(1u64 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    acc
}

/// One benchmark case: a stable name plus the prepared closure to time.
pub struct Case {
    /// Stable identifier (`area/variant/workload`).
    pub name: String,
    run: Box<dyn FnMut()>,
}

impl Case {
    fn new(name: impl Into<String>, run: impl FnMut() + 'static) -> Self {
        Case {
            name: name.into(),
            run: Box::new(run),
        }
    }
}

/// Deterministic synthetic rows for the large partition cases (same
/// integer-hash construction as the `index_scaling` criterion bench, so
/// the two measurement paths agree on the workload).
fn synthetic_matrix(n: usize, dims: usize) -> Matrix {
    let data: Vec<f64> = (0..n * dims)
        .map(|i| ((i * 2654435761 + (i % dims) * 40503) % 100_003) as f64 * 1e-3)
        .collect();
    Matrix::new(data, n, dims)
}

/// The seeded blob workload of the approximate-backend frontier (shared
/// with `tclose-eval`'s `frontier` experiment and the `approx_frontier`
/// criterion bench, so all three measurement paths time the same data).
fn frontier_matrix(n: usize, dims: usize) -> Matrix {
    Matrix::new(
        tclose_datasets::synthetic::frontier_rows(42, n, dims),
        n,
        dims,
    )
}

/// Kernel-scaling cases: the two hottest flat scans (the MDAV-family
/// min-distance scan and the SSE column pass) at n = 100k, pinned on the
/// scalar reference path and on the default 8-lane path. The pair of
/// numbers per kernel is the committed lane-width speedup — the gate
/// catches both an absolute regression and a silent loss of
/// vectorization (lanes8 drifting back toward scalar). Each timed
/// iteration loops the kernel 10× so a sample is milliseconds, not
/// microseconds.
fn kernel_cases(cases: &mut Vec<Case>) {
    let m = synthetic_matrix(100_000, 3);
    let ids: Vec<tclose_microagg::RowId> = m.row_ids().collect();
    let point = m.row(50_000).to_vec();
    let orig: Vec<f64> = (0..100_000)
        .map(|i| ((i * 2654435761u64 as usize) % 100_003) as f64 * 1e-3)
        .collect();
    let anon: Vec<f64> = orig.iter().map(|x| x * 0.75 + 3.0).collect();
    for path in [KernelPath::Scalar, KernelPath::Lanes8] {
        let (m, ids, point) = (m.clone(), ids.clone(), point.clone());
        cases.push(Case::new(
            format!("kernel/sq_dist/{}/synth100k_d3", path.name()),
            move || {
                for _ in 0..10 {
                    black_box(min_sq_dist_excluding_path(
                        black_box(&m),
                        &ids,
                        &point,
                        0,
                        Parallelism::sequential(),
                        path,
                    ));
                }
            },
        ));
        let (orig, anon) = (orig.clone(), anon.clone());
        cases.push(Case::new(
            format!("kernel/sse/{}/synth100k", path.name()),
            move || {
                for _ in 0..10 {
                    black_box(column_sq_err_with(
                        black_box(&orig),
                        &anon,
                        7.5,
                        Parallelism::sequential(),
                        path,
                    ));
                }
            },
        ));
    }
}

/// Partition cases: MDAV (and optionally V-MDAV) over `rows`, flat
/// scan vs kd-tree, single-threaded, `k = n/200` (the `index_scaling`
/// convention: the outer loop does ~200 clusters at every size, so
/// sizes differ only in per-query cost). V-MDAV's extension search is
/// an order of magnitude costlier than MDAV at the same size, so the
/// largest workloads track MDAV only — V-MDAV stays covered at the
/// mid-size tiers, which is where a regression in its gain-factor loop
/// would show anyway.
fn partition_cases(cases: &mut Vec<Case>, workload: &str, rows: &Matrix, include_vmdav: bool) {
    let k = (rows.n_rows() / 200).max(5);
    for (variant, backend) in [
        ("flat", NeighborBackend::FlatScan),
        ("kdtree", NeighborBackend::KdTree),
    ] {
        let m = rows.clone();
        cases.push(Case::new(
            format!("partition/mdav/{variant}/{workload}"),
            move || {
                black_box(mdav_partition_with(
                    black_box(&m),
                    k,
                    Parallelism::sequential(),
                    backend,
                ));
            },
        ));
        if include_vmdav {
            let m = rows.clone();
            cases.push(Case::new(
                format!("partition/vmdav/{variant}/{workload}"),
                move || {
                    black_box(vmdav_partition_with(
                        black_box(&m),
                        k,
                        0.2,
                        Parallelism::sequential(),
                        backend,
                    ));
                },
            ));
        }
    }
}

/// Approximate-backend frontier cases: the exact kd-tree vs the `hybrid`
/// opt-in on the same seeded blob workload, at the
/// small-`k` regime (`k = n/10_000`, min 10) where the exact `O(n²/k)`
/// cost binds — at the suite's usual `k = n/200` the exact loop runs so
/// few rounds that approximation has nothing to win. The exact row is
/// part of the case set on purpose: the gate then tracks the committed
/// speed *gap*, not just each backend in isolation.
fn approx_partition_cases(cases: &mut Vec<Case>, workload: &str, rows: &Matrix) {
    let k = (rows.n_rows() / 10_000).max(10);
    for (variant, backend) in [
        ("kdtree", NeighborBackend::KdTree),
        ("hybrid", NeighborBackend::Hybrid),
    ] {
        let m = rows.clone();
        cases.push(Case::new(
            format!("approx/mdav/{variant}/{workload}"),
            move || {
                black_box(mdav_partition_with(
                    black_box(&m),
                    k,
                    Parallelism::sequential(),
                    backend,
                ));
            },
        ));
    }
}

/// End-to-end case: the full anonymization pipeline (normalize, fit,
/// cluster, aggregate, audit) under one algorithm.
fn e2e_case(cases: &mut Vec<Case>, algorithm: Algorithm, label: &str, table: Table, t: f64) {
    let anonymizer = Anonymizer::new(5, t)
        .algorithm(algorithm)
        .with_parallelism(Parallelism::sequential());
    cases.push(Case::new(format!("e2e/{label}"), move || {
        black_box(
            anonymizer
                .anonymize(black_box(&table))
                .expect("benchmark table anonymizes"),
        );
    }));
}

/// The patient-discharge CSV roles used by every file-based case.
const PATIENT_QI: [&str; 3] = ["AGE", "ZIP", "STAY_DAYS"];
const PATIENT_CONF: &str = "CHARGE";

/// Streaming cases: the monolithic in-memory pipeline vs the two-pass
/// sharded engine, both end-to-end from CSV to CSV through real files
/// (a scratch directory under the system temp dir).
fn stream_cases(
    cases: &mut Vec<Case>,
    workload: &str,
    n: usize,
    shard_rows: usize,
) -> Result<(), String> {
    let dir = scratch_dir()?;
    let input = dir.join(format!("stream_{workload}_in.csv"));
    let table = patient_discharge(42, n);
    let file = std::fs::File::create(&input)
        .map_err(|e| format!("cannot create {}: {e}", input.display()))?;
    write_csv(&table, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;

    let qi: Vec<String> = PATIENT_QI.iter().map(|s| s.to_string()).collect();
    let conf = vec![PATIENT_CONF.to_string()];

    let (input_mono, output_mono) = (
        input.clone(),
        dir.join(format!("stream_{workload}_mono.csv")),
    );
    let (qi_mono, conf_mono) = (qi.clone(), conf.clone());
    cases.push(Case::new(
        format!("stream/monolithic/{workload}"),
        move || {
            let file = std::fs::File::open(&input_mono).expect("benchmark input exists");
            let roles = Roles::Named {
                qi: &qi_mono,
                confidential: &conf_mono,
            };
            let table = read_with_roles(std::io::BufReader::new(file), roles).expect("valid CSV");
            let out = Anonymizer::new(5, 0.3)
                .algorithm(Algorithm::TClosenessFirst)
                .with_parallelism(Parallelism::sequential())
                .anonymize(&table)
                .expect("benchmark table anonymizes");
            let file = std::fs::File::create(&output_mono).expect("scratch dir writable");
            write_csv(&out.table, std::io::BufWriter::new(file)).expect("write release");
            black_box(out.report.sse);
        },
    ));

    let output_shard = dir.join(format!("stream_{workload}_shard.csv"));
    cases.push(Case::new(
        format!("stream/sharded/{workload}_s{shard_rows}"),
        move || {
            let report = ShardedAnonymizer::new(5, 0.3)
                .algorithm(Algorithm::TClosenessFirst)
                .shard_rows(shard_rows)
                .with_parallelism(Parallelism::sequential())
                .anonymize_file(&input, &output_shard, &qi, &conf)
                .expect("benchmark file anonymizes");
            black_box(report.sse);
        },
    ));
    Ok(())
}

/// Model-artifact case: the pre-fitted apply path. The global fit is
/// frozen to a real artifact file during setup; the timed region loads
/// it back and anonymizes through `FittedAnonymizer::from_artifact` —
/// the `tclose apply` hot path, with the fit pass skipped. Parameters
/// match the `e2e/alg3/*` case on the same workload, so the pair of
/// numbers is the committed fused-vs-amortized comparison; tracked as
/// its own case so a regression in artifact parsing or the
/// rebind-on-apply path can't hide inside fit-time noise.
fn fit_apply_case(cases: &mut Vec<Case>, workload: &str, table: Table) -> Result<(), String> {
    let dir = scratch_dir()?;
    let path = dir.join(format!("fit_apply_{workload}.json"));
    let fitted = Anonymizer::new(5, 0.2)
        .algorithm(Algorithm::TClosenessFirst)
        .with_parallelism(Parallelism::sequential())
        .fit(&table)
        .map_err(|e| e.to_string())?;
    ModelArtifact::from_fitted(&fitted)
        .save(&path)
        .map_err(|e| e.to_string())?;
    cases.push(Case::new(
        format!("artifact/fit_apply/{workload}"),
        move || {
            let artifact = ModelArtifact::load(&path).expect("artifact readable");
            let out = FittedAnonymizer::from_artifact(&artifact)
                .with_parallelism(Parallelism::sequential())
                .apply_shard(black_box(&table))
                .expect("benchmark table anonymizes");
            black_box(out.report.sse);
        },
    ));
    Ok(())
}

/// Serving-path case: one anonymize request round-trip against a
/// **resident** model in a live `tclose-serve` daemon (loopback socket,
/// single batch worker, sequential kernels). The comparison partner is
/// `artifact/fit_apply` (cold artifact load + in-process apply, no
/// process startup): the difference between the two is the full
/// serving overhead — CSV over the wire, JSON envelope, queueing —
/// on top of the same apply, and the gate keeps that overhead from
/// regressing unnoticed.
fn serve_request_case(cases: &mut Vec<Case>, workload: &str, table: Table) -> Result<(), String> {
    let fitted = Anonymizer::new(5, 0.2)
        .algorithm(Algorithm::TClosenessFirst)
        .with_parallelism(Parallelism::sequential())
        .fit(&table)
        .map_err(|e| e.to_string())?;
    let artifact = ModelArtifact::from_fitted(&fitted);
    let csv = to_csv_string(&table).map_err(|e| e.to_string())?;
    let server = TestServer::with_config(|cfg| cfg.batch_workers = 1);
    server.install_model("bench", &artifact);
    let mut client = server.client();
    cases.push(Case::new(format!("serve/request/{workload}"), move || {
        // Keep the daemon alive for the case's lifetime.
        let _keepalive = &server;
        let (out, _report) = client
            .anonymize("bench", black_box(&csv))
            .expect("serve request succeeds");
        black_box(out.len());
    }));
    Ok(())
}

/// Ordered-EMD verification case: audits a released table (anonymized
/// once during setup) against its global confidential distribution.
fn verify_case(cases: &mut Vec<Case>, workload: &str, table: Table) {
    let released = Anonymizer::new(5, 0.3)
        .algorithm(Algorithm::TClosenessFirst)
        .with_parallelism(Parallelism::sequential())
        .anonymize(&table)
        .expect("benchmark table anonymizes")
        .table;
    let conf = Confidential::from_table(&released).expect("confidential column present");
    cases.push(Case::new(
        format!("verify/ordered-emd/{workload}"),
        move || {
            black_box(
                verify_t_closeness_with(black_box(&released), &conf, Parallelism::sequential())
                    .expect("released table verifies"),
            );
        },
    ));
}

/// Per-process scratch directory for the file-based cases.
fn scratch_dir() -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("tclose_perf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Builds the case catalog for a suite. Setup work (data generation,
/// scratch files, the one-off anonymization the verify case audits)
/// happens here, outside the timed region.
pub fn catalog(suite: Suite) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    let ctx = Context::default();
    match suite {
        Suite::Smoke => {
            kernel_cases(&mut cases);
            partition_cases(
                &mut cases,
                "patient4k_d7",
                &Problem::from_table(&data::patient(4_000)).rows,
                true,
            );
            e2e_case(
                &mut cases,
                Algorithm::Merge,
                "alg1/census-mcd",
                Dataset::Mcd.table(&ctx),
                0.2,
            );
            e2e_case(
                &mut cases,
                Algorithm::KAnonymityFirst,
                "alg2/census-mcd",
                Dataset::Mcd.table(&ctx),
                0.2,
            );
            e2e_case(
                &mut cases,
                Algorithm::TClosenessFirst,
                "alg3/census-mcd",
                Dataset::Mcd.table(&ctx),
                0.2,
            );
            approx_partition_cases(&mut cases, "blobs30k_d2", &frontier_matrix(30_000, 2));
            stream_cases(&mut cases, "patient6k", 6_000, 2_000)?;
            fit_apply_case(&mut cases, "census-mcd", Dataset::Mcd.table(&ctx))?;
            serve_request_case(&mut cases, "census-mcd", Dataset::Mcd.table(&ctx))?;
            verify_case(&mut cases, "patient6k", patient_discharge(42, 6_000));
        }
        Suite::Full => {
            partition_cases(
                &mut cases,
                "patient20k_d7",
                &Problem::from_table(&data::patient(20_000)).rows,
                true,
            );
            partition_cases(
                &mut cases,
                "synth100k_d4",
                &synthetic_matrix(100_000, 4),
                false,
            );
            approx_partition_cases(&mut cases, "blobs200k_d2", &frontier_matrix(200_000, 2));
            approx_partition_cases(&mut cases, "blobs200k_d4", &frontier_matrix(200_000, 4));
            e2e_case(
                &mut cases,
                Algorithm::Merge,
                "alg1/census-mcd",
                Dataset::Mcd.table(&ctx),
                0.2,
            );
            e2e_case(
                &mut cases,
                Algorithm::KAnonymityFirst,
                "alg2/census-mcd",
                Dataset::Mcd.table(&ctx),
                0.2,
            );
            e2e_case(
                &mut cases,
                Algorithm::TClosenessFirst,
                "alg3/census-mcd",
                Dataset::Mcd.table(&ctx),
                0.2,
            );
            e2e_case(
                &mut cases,
                Algorithm::TClosenessFirst,
                "alg3/patient23k",
                patient_discharge(42, tclose_datasets::PATIENT_N),
                0.2,
            );
            stream_cases(&mut cases, "patient50k", 50_000, 10_000)?;
            fit_apply_case(
                &mut cases,
                "patient23k",
                patient_discharge(42, tclose_datasets::PATIENT_N),
            )?;
            verify_case(
                &mut cases,
                "patient23k",
                patient_discharge(42, tclose_datasets::PATIENT_N),
            );
        }
    }
    Ok(cases)
}

/// Runs a whole suite: calibration first, then every catalog case under
/// `cfg`, reporting progress case by case through `progress`.
pub fn run_suite(
    suite: Suite,
    cfg: RunConfig,
    progress: &mut dyn FnMut(&str),
) -> Result<Report, String> {
    progress("calibration/spin");
    let calibration = summarize(&measure(1, 5, || {
        black_box(calibration_spin());
    }));

    let mut results = Vec::new();
    for mut case in catalog(suite)? {
        progress(&case.name);
        let samples = measure(cfg.warmup, cfg.iters, &mut case.run);
        results.push(CaseResult {
            name: case.name,
            warmup: cfg.warmup,
            iters: cfg.iters,
            summary: summarize(&samples),
            samples_ns: samples,
        });
    }

    Ok(Report {
        schema_version: SCHEMA_VERSION,
        suite: suite.name().to_owned(),
        fingerprint: fingerprint::capture(),
        calibration_ns: calibration.median_ns,
        cases: results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_parse_both_ways() {
        assert_eq!("smoke".parse::<Suite>().unwrap(), Suite::Smoke);
        assert_eq!("FULL".parse::<Suite>().unwrap(), Suite::Full);
        assert!("nightly".parse::<Suite>().is_err());
        assert_eq!(Suite::Smoke.name(), "smoke");
    }

    #[test]
    fn measure_returns_the_requested_sample_count() {
        let mut calls = 0usize;
        let samples = measure(2, 3, || calls += 1);
        assert_eq!(samples.len(), 3);
        assert_eq!(calls, 5, "warmup iterations run but are not recorded");
        assert!(samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn calibration_spin_is_deterministic() {
        assert_eq!(calibration_spin(), calibration_spin());
    }
}
