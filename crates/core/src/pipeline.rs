//! The end-to-end anonymization pipeline.
//!
//! [`Anonymizer`] wires everything together: it validates parameters,
//! embeds the quasi-identifiers as normalized vectors, fits the
//! confidential model, runs the selected clustering algorithm, applies the
//! aggregation step, and audits the released table — returning the masked
//! table together with an [`AnonymizationReport`].

use std::time::Duration;

use crate::alg1_merge::MergeAlgorithm;
use crate::alg2_kfirst::KAnonymityFirst;
use crate::alg3_tfirst::TClosenessFirst;
use crate::confidential::Confidential;
use crate::error::Result;
use crate::fit::{FittedAnonymizer, GlobalFit, QiEmbedding};
use crate::params::TClosenessParams;
use crate::TCloseClusterer;
use tclose_metrics::emd::Ratio;
use tclose_microagg::{Clustering, Matrix, NeighborBackend, Parallelism};
use tclose_microdata::{NormalizeMethod, Table};

/// Which of the paper's three algorithms to run. Each ends in a merging
/// pass that makes every cluster t-close.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Algorithm 1: MDAV microaggregation + cluster merging.
    Merge,
    /// Algorithm 2: k-anonymity-first with swap refinement + merge fallback.
    KAnonymityFirst,
    /// Algorithm 3: t-closeness-first stratified microaggregation.
    TClosenessFirst,
}

impl Algorithm {
    /// Short name used in reports, experiment output and model files.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Merge => "Alg1-merge",
            Algorithm::KAnonymityFirst => "Alg2-kfirst",
            Algorithm::TClosenessFirst => "Alg3-tfirst",
        }
    }
}

/// Outcome summary of one anonymization run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnonymizationReport {
    /// Algorithm that produced the release.
    pub algorithm: &'static str,
    /// Requested k-anonymity level.
    pub k_requested: usize,
    /// Requested t-closeness level.
    pub t_requested: f64,
    /// Number of records.
    pub n_records: usize,
    /// Number of equivalence classes produced.
    pub n_clusters: usize,
    /// Smallest class size — the *achieved* k (audited on the release).
    pub min_cluster_size: usize,
    /// Mean class size.
    pub mean_cluster_size: f64,
    /// Largest class size.
    pub max_cluster_size: usize,
    /// Largest class-to-table EMD — the *achieved* t (audited), rounded.
    pub max_emd: f64,
    /// The same EMD exactly, which [`Self::satisfies_request`] grades.
    pub max_emd_exact: Ratio,
    /// Normalized SSE over the quasi-identifiers (Eq. 5).
    pub sse: f64,
    /// Wall-clock time of the clustering step.
    pub clustering_time: Duration,
}

impl AnonymizationReport {
    /// True when the audited release satisfies both requested levels: t
    /// is graded on the exact EMD, so a class whose EMD equals `t` passes
    /// and one a hair above it fails.
    pub fn satisfies_request(&self) -> bool {
        self.min_cluster_size >= self.k_requested.min(self.n_records)
            && !self.max_emd_exact.exceeds(self.t_requested)
    }
}

/// A released table plus the clustering and audit report behind it.
#[derive(Debug, Clone)]
pub struct Anonymized {
    /// The masked (released) table: quasi-identifiers aggregated, all other
    /// attributes untouched.
    pub table: Table,
    /// The clustering the algorithm produced.
    pub clustering: Clustering,
    /// The audit report.
    pub report: AnonymizationReport,
}

/// Builder-style front door to the library.
///
/// ```
/// use tclose_core::{Anonymizer, Algorithm};
/// # use tclose_microdata::{AttributeDef, AttributeRole, Schema, Table, Value};
/// # let schema = Schema::new(vec![
/// #     AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
/// #     AttributeDef::numeric("wage", AttributeRole::Confidential),
/// # ]).unwrap();
/// # let mut table = Table::new(schema);
/// # for i in 0..20 {
/// #     table.push_row(&[Value::Number(i as f64), Value::Number((i % 5) as f64)]).unwrap();
/// # }
/// let out = Anonymizer::new(2, 0.2)
///     .algorithm(Algorithm::Merge)
///     .anonymize(&table)
///     .unwrap();
/// assert!(out.report.min_cluster_size >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct Anonymizer {
    k: usize,
    t: f64,
    algorithm: Algorithm,
    normalize: NormalizeMethod,
    par: Parallelism,
    backend: NeighborBackend,
}

impl Anonymizer {
    /// An anonymizer for the given `(k, t)` pair, defaulting to the paper's
    /// best algorithm (t-closeness-first), z-score QI normalization, and
    /// the automatic neighbor-search backend.
    pub fn new(k: usize, t: f64) -> Self {
        Anonymizer {
            k,
            t,
            algorithm: Algorithm::TClosenessFirst,
            normalize: NormalizeMethod::ZScore,
            par: Parallelism::auto(),
            backend: NeighborBackend::Auto,
        }
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the quasi-identifier normalization for distance computation.
    pub fn normalization(mut self, method: NormalizeMethod) -> Self {
        self.normalize = method;
        self
    }

    /// Pins the thread-count policy of the clustering kernels and audits
    /// (default: one worker per core). Results are identical for any
    /// worker count — every parallel reduction follows the fixed block
    /// structure of `tclose-parallel`.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Selects the neighbor-search backend of the clustering hot path
    /// (default [`NeighborBackend::Auto`]: kd-tree for large,
    /// low-dimensional inputs, flat scans otherwise — resolved per record
    /// set, so each streamed shard picks for its own size). The exact
    /// backends (`Auto`/`FlatScan`/`KdTree`) share one tie-breaking order
    /// and the release is byte-identical across them — only wall-clock
    /// time changes. `Hybrid` is the approximate opt-in: still
    /// deterministic and still k-anonymous/t-close (every release is
    /// audited), but it trades a different MDAV-family clustering for
    /// million-row speed. Algorithms 2 and 3 query the working set
    /// directly, and there `Hybrid` resolves exactly as `Auto` does.
    pub fn with_backend(mut self, backend: NeighborBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Runs the fit pass only: computes the frozen global state (QI
    /// normalization statistics, ordered-EMD domains and global
    /// confidential distributions) and returns an anonymizer bound to it,
    /// ready to [`apply_shard`](FittedAnonymizer::apply_shard) to any
    /// record subset.
    pub fn fit(&self, table: &Table) -> Result<FittedAnonymizer> {
        let params = TClosenessParams::new(self.k, self.t)?;
        let fit = GlobalFit::fit(table, self.normalize)?;
        Ok(FittedAnonymizer::new(
            fit,
            params,
            self.algorithm,
            self.par,
            self.backend,
        ))
    }

    /// Wraps an already computed [`GlobalFit`] (e.g. assembled from
    /// streaming accumulators via [`GlobalFit::from_parts`]) with this
    /// anonymizer's parameters.
    pub fn with_fit(&self, fit: GlobalFit) -> Result<FittedAnonymizer> {
        let params = TClosenessParams::new(self.k, self.t)?;
        Ok(FittedAnonymizer::new(
            fit,
            params,
            self.algorithm,
            self.par,
            self.backend,
        ))
    }

    /// Runs the full pipeline on `table`: fit, then apply to the whole
    /// table as a single shard.
    pub fn anonymize(&self, table: &Table) -> Result<Anonymized> {
        self.fit(table)?.apply_shard(table)
    }

    pub(crate) fn run_clusterer(
        algorithm: Algorithm,
        par: Parallelism,
        backend: NeighborBackend,
        m: &Matrix,
        conf: &Confidential,
        params: TClosenessParams,
    ) -> Clustering {
        // The backend is resolved against `m` inside each algorithm, so
        // every shard of a sharded run picks for its own size.
        macro_rules! run {
            ($builder:expr) => {
                $builder
                    .with_backend(backend)
                    .with_parallelism(par)
                    .cluster(m, conf, params)
            };
        }
        match algorithm {
            Algorithm::Merge => run!(MergeAlgorithm::new()),
            Algorithm::KAnonymityFirst => run!(KAnonymityFirst::new()),
            Algorithm::TClosenessFirst => run!(TClosenessFirst::new()),
        }
    }
}

/// Embeds the quasi-identifiers as a flat row-major [`Matrix`] of
/// normalized `f64` vectors. Numeric attributes use their values; ordinal
/// categorical attributes use their code (code order is semantic order);
/// nominal QIs are rejected — they have no meaningful embedding, and the
/// paper's algorithms assume a metric QI space.
///
/// Exposed so external harnesses (the experiment runner, baselines) can
/// feed custom [`TCloseClusterer`] implementations
/// with exactly the same record embedding the pipeline uses.
pub fn qi_matrix(table: &Table, qi: &[usize], method: NormalizeMethod) -> Result<Matrix> {
    QiEmbedding::fit(table, qi, method)?.embed(table, qi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::verify::{verify_k_anonymity, verify_t_closeness};
    use tclose_microdata::{AttributeDef, AttributeRole, Schema, Value};

    fn demo_table(n: usize) -> Table {
        let schema = Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("zip", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(&[
                Value::Number(20.0 + (i % 40) as f64),
                Value::Number(1000.0 + (i * 37 % 100) as f64),
                Value::Number(((i * 13) % 17) as f64 * 100.0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn every_algorithm_produces_a_valid_release() {
        let table = demo_table(60);
        for alg in [
            Algorithm::Merge,
            Algorithm::KAnonymityFirst,
            Algorithm::TClosenessFirst,
        ] {
            let out = Anonymizer::new(3, 0.2)
                .algorithm(alg)
                .anonymize(&table)
                .unwrap();
            assert_eq!(out.table.n_rows(), 60);
            assert!(
                out.report.min_cluster_size >= 3,
                "{}: min size {}",
                alg.name(),
                out.report.min_cluster_size
            );
            // confidential column untouched
            assert_eq!(
                out.table.numeric_column(2).unwrap(),
                table.numeric_column(2).unwrap()
            );
            assert!(out.report.sse >= 0.0);
        }
    }

    #[test]
    fn guaranteeing_algorithms_achieve_t() {
        let table = demo_table(60);
        for alg in [
            Algorithm::Merge,
            Algorithm::KAnonymityFirst,
            Algorithm::TClosenessFirst,
        ] {
            let out = Anonymizer::new(2, 0.15)
                .algorithm(alg)
                .anonymize(&table)
                .unwrap();
            assert!(
                out.report.max_emd <= 0.15 + 1e-9,
                "{}: achieved t {}",
                alg.name(),
                out.report.max_emd
            );
            assert!(out.report.satisfies_request());
        }
    }

    #[test]
    fn report_reflects_audited_release() {
        let table = demo_table(40);
        let out = Anonymizer::new(4, 0.25).anonymize(&table).unwrap();
        // re-audit independently
        let conf = Confidential::from_table(&table).unwrap();
        assert_eq!(
            verify_k_anonymity(&out.table).unwrap(),
            out.report.min_cluster_size
        );
        let t = verify_t_closeness(&out.table, &conf).unwrap();
        assert!((t - out.report.max_emd).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let table = demo_table(10);
        assert!(matches!(
            Anonymizer::new(0, 0.1).anonymize(&table),
            Err(Error::InvalidParams(_))
        ));
        assert!(matches!(
            Anonymizer::new(2, 0.0).anonymize(&table),
            Err(Error::InvalidParams(_))
        ));

        let empty = Table::new(table.schema().clone());
        assert!(Anonymizer::new(2, 0.1).anonymize(&empty).is_err());

        // no QI
        let schema = Schema::new(vec![AttributeDef::numeric(
            "wage",
            AttributeRole::Confidential,
        )])
        .unwrap();
        let mut no_qi = Table::new(schema);
        no_qi.push_row(&[Value::Number(1.0)]).unwrap();
        assert!(matches!(
            Anonymizer::new(2, 0.1).anonymize(&no_qi),
            Err(Error::UnsupportedData(_))
        ));

        // nominal QI
        let schema = Schema::new(vec![
            AttributeDef::nominal("city", AttributeRole::QuasiIdentifier, ["x", "y"]),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut nominal_qi = Table::new(schema);
        nominal_qi
            .push_row(&[Value::Category(0), Value::Number(1.0)])
            .unwrap();
        nominal_qi
            .push_row(&[Value::Category(1), Value::Number(2.0)])
            .unwrap();
        assert!(matches!(
            Anonymizer::new(2, 0.5).anonymize(&nominal_qi),
            Err(Error::UnsupportedData(_))
        ));
    }

    #[test]
    fn ordinal_qi_is_supported() {
        let schema = Schema::new(vec![
            AttributeDef::ordinal(
                "edu",
                AttributeRole::QuasiIdentifier,
                ["primary", "secondary", "bachelor", "master"],
            ),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..16u32 {
            t.push_row(&[Value::Category(i % 4), Value::Number((i % 8) as f64)])
                .unwrap();
        }
        let out = Anonymizer::new(2, 0.3).anonymize(&t).unwrap();
        assert!(out.report.min_cluster_size >= 2);
    }

    #[test]
    fn k_larger_than_n_yields_single_class() {
        let table = demo_table(5);
        let out = Anonymizer::new(10, 0.5).anonymize(&table).unwrap();
        assert_eq!(out.report.n_clusters, 1);
        assert_eq!(out.report.min_cluster_size, 5);
    }

    #[test]
    fn normalization_options_run() {
        let table = demo_table(30);
        for m in [
            NormalizeMethod::ZScore,
            NormalizeMethod::MinMax,
            NormalizeMethod::None,
        ] {
            let out = Anonymizer::new(3, 0.3)
                .normalization(m)
                .anonymize(&table)
                .unwrap();
            assert!(out.report.min_cluster_size >= 3);
        }
    }

    #[test]
    fn a_worst_class_at_exactly_t_satisfies_it_and_one_above_does_not() {
        // Class q = 1 holds one record of a three-value column: its EMD is
        // 1/2 exactly, which rounds to 0.5, so only the exact grade tells
        // t = 0.5 from the double below it.
        let schema = Schema::new(vec![
            AttributeDef::numeric("q", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("c", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut table = Table::new(schema);
        for (q, c) in [(1.0, 0.0), (2.0, 1.0), (2.0, 2.0)] {
            table
                .push_row(&[Value::Number(q), Value::Number(c)])
                .unwrap();
        }
        let conf = Confidential::from_table(&table).unwrap();
        let audit = crate::verify::audit_release(&table, &conf, Parallelism::sequential()).unwrap();
        assert_eq!((audit.achieved_k, audit.max_emd), (1, Ratio::new(1, 2)));
        let report = |t_requested: f64| AnonymizationReport {
            algorithm: Algorithm::Merge.name(),
            k_requested: 1,
            t_requested,
            n_records: 3,
            n_clusters: 2,
            min_cluster_size: audit.achieved_k,
            mean_cluster_size: 1.5,
            max_cluster_size: 2,
            max_emd: audit.max_emd.to_f64(),
            max_emd_exact: audit.max_emd,
            sse: 0.0,
            clustering_time: Duration::ZERO,
        };
        assert_eq!(report(0.5).max_emd, 0.5);
        assert!(report(0.5).satisfies_request());
        assert!(!report(0.5f64.next_down()).satisfies_request());
    }
}
