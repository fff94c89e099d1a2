//! The fit/apply split of the anonymization pipeline.
//!
//! The paper's algorithms only need *global* state once: the per-QI
//! normalization statistics and the ordered-EMD domain plus global
//! confidential distribution (Li et al., ICDE 2007). Everything after that
//! — clustering, aggregation, verification — is local to whatever record
//! set is being worked on. This module makes the boundary explicit:
//!
//! * [`GlobalFit`] — the frozen global state, produced by one pass over the
//!   fitting data (either a whole in-memory [`Table`] via
//!   [`GlobalFit::fit`], or merged streaming accumulators via
//!   [`GlobalFit::from_parts`]);
//! * [`FittedAnonymizer`] — an [`Anonymizer`] bound to a
//!   `GlobalFit`, whose [`FittedAnonymizer::apply_shard`] runs
//!   cluster → aggregate → verify on *any* record subset using that frozen
//!   state.
//!
//! `Anonymizer::anonymize` is exactly fit-then-apply over one shard (the
//! whole table), byte-identical to the fused implementation it replaces —
//! pinned by `tests/streaming_engine.rs`. The streaming engine
//! (`tclose-stream`) builds on the same two pieces to anonymize files that
//! never fit in memory.

use std::time::Instant;

use crate::confidential::Confidential;
use crate::error::{Error, Result};
use crate::params::TClosenessParams;
use crate::pipeline::{Algorithm, AnonymizationReport, Anonymized, Anonymizer};
use crate::verify::audit_release;
use tclose_metrics::sse::normalized_sse;
use tclose_microagg::{aggregate_columns, Matrix, NeighborBackend, Parallelism};
use tclose_microdata::{stats, AttributeKind, AttributeRole, NormalizeMethod, Schema, Table};

/// Frozen per-attribute affine transform `x ↦ (x − shift) / scale` over the
/// quasi-identifier columns, fitted once on the global data.
///
/// This is the embedding every shard is projected through: identical
/// statistics on every shard, so records cluster in one shared metric
/// space regardless of which shard they arrived in.
#[derive(Debug, Clone, PartialEq)]
pub struct QiEmbedding {
    method: NormalizeMethod,
    /// One `(shift, scale)` pair per quasi-identifier, in QI order.
    params: Vec<(f64, f64)>,
}

impl QiEmbedding {
    /// Fits the embedding on the QI columns of `table` (QI indices in
    /// `qi`). Numeric attributes use their values, ordinal categorical
    /// attributes their codes; nominal QIs are rejected — they have no
    /// meaningful embedding, and the paper's algorithms assume a metric QI
    /// space.
    pub fn fit(table: &Table, qi: &[usize], method: NormalizeMethod) -> Result<Self> {
        let mut params = Vec::with_capacity(qi.len());
        for &a in qi {
            let raw = qi_column(table, a)?;
            params.push(affine_params(
                method,
                || stats::mean(&raw),
                || stats::std_dev(&raw),
                || stats::min(&raw).unwrap_or(0.0),
                || stats::range(&raw),
            ));
        }
        Ok(QiEmbedding { method, params })
    }

    /// Builds the embedding from externally accumulated statistics, one
    /// `(shift, scale)` pair per QI — the streaming fit path, where the
    /// pairs come from merged
    /// [`RunningStats`](tclose_microdata::RunningStats).
    pub fn from_params(method: NormalizeMethod, params: Vec<(f64, f64)>) -> Self {
        QiEmbedding { method, params }
    }

    /// Builds the embedding straight from streaming moments, one
    /// [`RunningStats`](tclose_microdata::RunningStats) per QI, applying
    /// the same degenerate-column rules as [`QiEmbedding::fit`] (zero
    /// variance / zero range → scale 1).
    pub fn from_stats(method: NormalizeMethod, stats: &[tclose_microdata::RunningStats]) -> Self {
        let params = stats
            .iter()
            .map(|rs| {
                affine_params(
                    method,
                    || rs.mean(),
                    || rs.std_dev(),
                    || rs.min().unwrap_or(0.0),
                    || rs.range(),
                )
            })
            .collect();
        QiEmbedding { method, params }
    }

    /// The normalization method the embedding applies.
    pub fn method(&self) -> NormalizeMethod {
        self.method
    }

    /// The frozen `(shift, scale)` pairs, in QI order.
    pub fn params(&self) -> &[(f64, f64)] {
        &self.params
    }

    /// Embeds the QI columns of `table` (a shard or the fitting table) as
    /// a flat row-major [`Matrix`] of normalized vectors.
    ///
    /// Errors with [`Error::NonFiniteEmbedding`] when a value normalizes to
    /// NaN or ±∞ (finite values can overflow: a mean, range or difference
    /// of values near `f64::MAX`), so the clustering kernels only ever see
    /// finite distances.
    pub fn embed(&self, table: &Table, qi: &[usize]) -> Result<Matrix> {
        if qi.len() != self.params.len() {
            return Err(Error::UnsupportedData(format!(
                "embedding was fitted on {} quasi-identifiers, table declares {}",
                self.params.len(),
                qi.len()
            )));
        }
        let n = table.n_rows();
        let width = qi.len();
        let mut data = vec![0.0; n * width];
        for (j, &a) in qi.iter().enumerate() {
            let raw = qi_column(table, a)?;
            let (shift, scale) = self.params[j];
            for (r, &x) in raw.iter().enumerate() {
                let v = (x - shift) / scale;
                if !v.is_finite() {
                    return Err(Error::NonFiniteEmbedding {
                        attribute: table.schema().attribute(a)?.name.clone(),
                        row: r,
                    });
                }
                data[r * width + j] = v;
            }
        }
        Ok(Matrix::new(data, n, width))
    }
}

/// `(shift, scale)` for one attribute, with constant columns degrading to
/// scale 1 exactly as the fused pipeline always did.
fn affine_params(
    method: NormalizeMethod,
    mean: impl FnOnce() -> f64,
    std_dev: impl FnOnce() -> f64,
    min: impl FnOnce() -> f64,
    range: impl FnOnce() -> f64,
) -> (f64, f64) {
    match method {
        NormalizeMethod::ZScore => {
            let s = std_dev();
            (mean(), if s > 0.0 { s } else { 1.0 })
        }
        NormalizeMethod::MinMax => {
            let r = range();
            (min(), if r > 0.0 { r } else { 1.0 })
        }
        NormalizeMethod::None => (0.0, 1.0),
    }
}

/// One QI column as raw `f64`s (numeric values or ordinal codes).
fn qi_column(table: &Table, a: usize) -> Result<Vec<f64>> {
    let attr = table.schema().attribute(a)?;
    match attr.kind {
        AttributeKind::Numeric => Ok(table.numeric_column(a)?.to_vec()),
        AttributeKind::OrdinalCategorical => Ok(table
            .categorical_column(a)?
            .iter()
            .map(|&c| c as f64)
            .collect()),
        AttributeKind::NominalCategorical => Err(Error::UnsupportedData(format!(
            "quasi-identifier {:?} is nominal; microaggregation needs a metric \
             QI space (numeric or ordinal attributes)",
            attr.name
        ))),
    }
}

/// The frozen global state of one anonymization problem: schema and column
/// roles, the per-QI normalization statistics, and the fitted confidential
/// model (ordered-EMD domains + global distributions).
///
/// A `GlobalFit` is all the cross-record knowledge the paper's algorithms
/// ever use. Once it exists, anonymization is embarrassingly parallel over
/// record subsets — see [`FittedAnonymizer::apply_shard`].
#[derive(Debug, Clone)]
pub struct GlobalFit {
    schema: Schema,
    qi: Vec<usize>,
    embedding: QiEmbedding,
    conf: Confidential,
    n_records: usize,
}

impl GlobalFit {
    /// Fits the global state on a whole in-memory table (one pass).
    pub fn fit(table: &Table, normalize: NormalizeMethod) -> Result<Self> {
        if table.is_empty() {
            return Err(Error::Microdata(tclose_microdata::Error::EmptyTable));
        }
        let qi = table.schema().quasi_identifiers();
        if qi.is_empty() {
            return Err(Error::UnsupportedData(
                "the schema declares no quasi-identifier attribute".into(),
            ));
        }
        let embedding = QiEmbedding::fit(table, &qi, normalize)?;
        let conf = Confidential::from_table(table)?;
        Ok(GlobalFit {
            schema: table.schema().clone(),
            qi,
            embedding,
            conf,
            n_records: table.n_rows(),
        })
    }

    /// Assembles the global state from streaming-accumulated parts: the
    /// final `schema` (roles assigned, dictionaries complete), the frozen
    /// QI `embedding`, the confidential model `conf` (from merged domain
    /// accumulators) and the total record count.
    ///
    /// The schema must declare at least one quasi-identifier and its
    /// confidential attribute count must match the model's.
    pub fn from_parts(
        schema: Schema,
        embedding: QiEmbedding,
        conf: Confidential,
        n_records: usize,
    ) -> Result<Self> {
        if n_records == 0 {
            return Err(Error::Microdata(tclose_microdata::Error::EmptyTable));
        }
        let qi = schema.quasi_identifiers();
        if qi.is_empty() {
            return Err(Error::UnsupportedData(
                "the schema declares no quasi-identifier attribute".into(),
            ));
        }
        if qi.len() != embedding.params().len() {
            return Err(Error::UnsupportedData(format!(
                "embedding covers {} quasi-identifiers but the schema declares {}",
                embedding.params().len(),
                qi.len()
            )));
        }
        if schema.confidential().len() != conf.n_attributes() {
            return Err(Error::UnsupportedData(format!(
                "confidential model covers {} attributes but the schema declares {}",
                conf.n_attributes(),
                schema.confidential().len()
            )));
        }
        Ok(GlobalFit {
            schema,
            qi,
            embedding,
            conf,
            n_records,
        })
    }

    /// The schema the fit was produced on.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Quasi-identifier column indices, in schema order.
    pub fn qi(&self) -> &[usize] {
        &self.qi
    }

    /// The frozen QI embedding.
    pub fn embedding(&self) -> &QiEmbedding {
        &self.embedding
    }

    /// The fitted global confidential model.
    pub fn confidential(&self) -> &Confidential {
        &self.conf
    }

    /// Total number of records of the fitting data.
    pub fn n_records(&self) -> usize {
        self.n_records
    }

    /// Checks that a shard's schema is structurally compatible with the
    /// fitting schema: same attribute names, kinds and roles, in order.
    ///
    /// For categorical quasi-identifier and confidential attributes the
    /// shard's dictionary must be a prefix of (or equal to) the fitted
    /// one — those codes are positional, so a shard whose labels were
    /// interned in a different order would silently map code `c` to the
    /// wrong category in the embedding and the EMD rebinding. Shards
    /// produced from the fitting data (via `Table::take_rows` or the
    /// chunked reader seeded with the fitted schema) satisfy this by
    /// construction. Pass-through categorical columns (identifier /
    /// non-confidential) are exempt: the fit never interprets their
    /// codes, each shard's own dictionary travels with it end to end,
    /// and a compliance scrub legitimately re-interns them.
    fn check_shard_schema(&self, shard: &Table) -> Result<()> {
        let a = self.schema.attributes();
        let b = shard.schema().attributes();
        if a.len() != b.len() {
            return Err(Error::UnsupportedData(format!(
                "shard has {} attributes but the fit has {}",
                b.len(),
                a.len()
            )));
        }
        for (x, y) in a.iter().zip(b) {
            if x.name != y.name || x.kind != y.kind || x.role != y.role {
                return Err(Error::UnsupportedData(format!(
                    "shard attribute {:?} ({:?}, {:?}) does not match the fitted \
                     attribute {:?} ({:?}, {:?})",
                    y.name, y.kind, y.role, x.name, x.kind, x.role
                )));
            }
            let interpreted = matches!(
                x.role,
                AttributeRole::QuasiIdentifier | AttributeRole::Confidential
            );
            if x.kind.is_categorical() && interpreted {
                let (fit, shard) = (&x.dictionary, &y.dictionary);
                let prefix_ok = shard.len() <= fit.len()
                    && shard.labels().zip(fit.labels()).all(|(s, f)| s == f);
                if !prefix_ok {
                    return Err(Error::UnsupportedData(format!(
                        "shard attribute {:?} interned labels in a different order \
                         than the fit (shard {:?} vs fitted {:?}); shard codes would \
                         be misinterpreted — build shards from the fitted schema",
                        y.name, shard, fit
                    )));
                }
            }
        }
        Ok(())
    }
}

/// An [`Anonymizer`] bound to a [`GlobalFit`]: applies
/// cluster → aggregate → verify to arbitrary record subsets under the
/// frozen global state.
///
/// Produced by [`Anonymizer::fit`]. Shards are independent — applying to
/// disjoint shards from multiple threads is safe and deterministic, which
/// is exactly how the streaming engine parallelizes pass 2.
#[derive(Debug, Clone)]
pub struct FittedAnonymizer {
    fit: GlobalFit,
    params: TClosenessParams,
    algorithm: Algorithm,
    par: Parallelism,
    backend: NeighborBackend,
}

impl FittedAnonymizer {
    pub(crate) fn new(
        fit: GlobalFit,
        params: TClosenessParams,
        algorithm: Algorithm,
        par: Parallelism,
        backend: NeighborBackend,
    ) -> Self {
        FittedAnonymizer {
            fit,
            params,
            algorithm,
            par,
            backend,
        }
    }

    /// Reconstructs a fitted anonymizer from a loaded (or freshly
    /// snapshotted) [`ModelArtifact`](crate::ModelArtifact), with the
    /// default execution configuration (automatic parallelism and
    /// neighbor backend — both output-invariant; override with
    /// [`FittedAnonymizer::with_parallelism`] /
    /// [`FittedAnonymizer::with_backend`]).
    ///
    /// Releases produced through a saved-and-loaded artifact are
    /// byte-identical to fitting in memory — the artifact serializer
    /// preserves every `f64` exactly and per-record state is recomputed
    /// deterministically by [`FittedAnonymizer::apply_shard`]'s rebind.
    pub fn from_artifact(artifact: &crate::ModelArtifact) -> Self {
        let p = artifact.params();
        FittedAnonymizer {
            fit: artifact.global_fit().clone(),
            params: TClosenessParams { k: p.k, t: p.t },
            algorithm: p.algorithm,
            par: Parallelism::auto(),
            backend: NeighborBackend::Auto,
        }
    }

    /// Pins the parallelism of [`FittedAnonymizer::apply_shard`]'s
    /// kernels. Output is identical for any value.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Selects the neighbor-search backend. The exact backends
    /// (`Auto`/`FlatScan`/`KdTree`) produce identical output; `Hybrid`
    /// opts into an approximate (deterministic, audited) MDAV-family
    /// clustering for speed.
    pub fn with_backend(mut self, backend: NeighborBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The frozen global state this anonymizer applies.
    pub fn global_fit(&self) -> &GlobalFit {
        &self.fit
    }

    /// The `(k, t)` pair this anonymizer enforces.
    pub fn params(&self) -> TClosenessParams {
        self.params
    }

    /// The clustering algorithm this anonymizer runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Runs cluster → aggregate → verify on one shard (any record subset
    /// of the fitting data, including the whole table) under the frozen
    /// global state, returning the masked shard plus its audit report.
    ///
    /// The report's `max_emd` audits every released equivalence class
    /// against the *global* confidential distribution — the shard is
    /// t-close in the sense that matters even though it never sees the
    /// other shards. Cluster sizes are clamped to the shard
    /// (`k.min(shard rows)`), mirroring the whole-table behavior for small
    /// inputs.
    pub fn apply_shard(&self, shard: &Table) -> Result<Anonymized> {
        if shard.is_empty() {
            return Err(Error::Microdata(tclose_microdata::Error::EmptyTable));
        }
        self.fit.check_shard_schema(shard)?;

        let m = self.fit.embedding.embed(shard, &self.fit.qi)?;
        let conf = if shard.n_rows() == self.fit.n_records
            && self.fit.conf.n_bound() == self.fit.n_records
        {
            // Applying to the fitting table itself: the fitted model is
            // already bound to exactly these rows.
            self.fit.conf.clone()
        } else {
            self.fit.conf.rebind(shard)?
        };

        let started = Instant::now();
        let clustering = Anonymizer::run_clusterer(
            self.algorithm,
            self.par,
            self.backend,
            &m,
            &conf,
            self.params,
        );
        let clustering_time = started.elapsed();

        clustering
            .check_min_size(self.params.k.min(shard.n_rows()))
            .map_err(Error::Clustering)?;

        let released = aggregate_columns(shard, &self.fit.qi, &clustering)?;

        // Audit the *release*, not the clustering: the report's achieved
        // levels are what an external auditor would measure.
        let audit = audit_release(&released, &conf, self.par)?;
        let sse = normalized_sse(shard, &released, &self.fit.qi)?;

        let report = AnonymizationReport {
            algorithm: self.algorithm.name(),
            k_requested: self.params.k,
            t_requested: self.params.t,
            n_records: shard.n_rows(),
            n_clusters: clustering.n_clusters(),
            min_cluster_size: audit.achieved_k,
            mean_cluster_size: clustering.mean_size(),
            max_cluster_size: clustering.max_size(),
            max_emd: audit.max_emd.to_f64(),
            max_emd_exact: audit.max_emd,
            sse,
            clustering_time,
        };
        Ok(Anonymized {
            table: released,
            clustering,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_microdata::{AttributeDef, AttributeRole, RunningStats, Schema, Value};

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
    fn fit_then_apply_whole_table_equals_anonymize() {
        let table = demo_table(60);
        for alg in [
            Algorithm::Merge,
            Algorithm::KAnonymityFirst,
            Algorithm::TClosenessFirst,
        ] {
            let anon = Anonymizer::new(3, 0.2).algorithm(alg);
            let fused = anon.anonymize(&table).unwrap();
            let fitted = anon.fit(&table).unwrap();
            let split = fitted.apply_shard(&table).unwrap();
            assert_eq!(split.table, fused.table, "{}", alg.name());
            assert_eq!(split.clustering, fused.clustering);
            assert_eq!(
                split.report.max_emd.to_bits(),
                fused.report.max_emd.to_bits()
            );
            assert_eq!(split.report.sse.to_bits(), fused.report.sse.to_bits());
        }
    }

    #[test]
    fn apply_shard_freezes_global_state() {
        let table = demo_table(80);
        let fitted = Anonymizer::new(3, 0.3).fit(&table).unwrap();
        // two disjoint shards
        let first: Vec<usize> = (0..40).collect();
        let second: Vec<usize> = (40..80).collect();
        let a = fitted
            .apply_shard(&table.take_rows(&first).unwrap())
            .unwrap();
        let b = fitted
            .apply_shard(&table.take_rows(&second).unwrap())
            .unwrap();
        assert_eq!(a.table.n_rows(), 40);
        assert_eq!(b.table.n_rows(), 40);
        // every shard satisfies the *global* t bound
        assert!(a.report.max_emd <= 0.3 + 1e-9);
        assert!(b.report.max_emd <= 0.3 + 1e-9);
        assert!(a.report.min_cluster_size >= 3);
        assert!(b.report.min_cluster_size >= 3);
    }

    #[test]
    fn apply_shard_rejects_incompatible_schemas() {
        let table = demo_table(20);
        let fitted = Anonymizer::new(2, 0.5).fit(&table).unwrap();

        // different attribute set
        let other_schema = Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut other = Table::new(other_schema);
        other
            .push_row(&[Value::Number(1.0), Value::Number(2.0)])
            .unwrap();
        assert!(matches!(
            fitted.apply_shard(&other),
            Err(Error::UnsupportedData(_))
        ));

        // same shape, different roles
        let mut renamed = demo_table(5);
        renamed
            .schema_mut()
            .set_roles(&[("zip", AttributeRole::NonConfidential)])
            .unwrap();
        assert!(matches!(
            fitted.apply_shard(&renamed),
            Err(Error::UnsupportedData(_))
        ));

        // empty shard
        let empty = Table::new(table.schema().clone());
        assert!(fitted.apply_shard(&empty).is_err());
    }

    #[test]
    fn apply_shard_rejects_reordered_dictionaries() {
        // Ordinal codes are positional: a shard whose dictionary interned
        // the labels in a different order must be rejected, not silently
        // mis-mapped.
        let schema = |labels: [&str; 3]| {
            Schema::new(vec![
                AttributeDef::ordinal("edu", AttributeRole::QuasiIdentifier, labels),
                AttributeDef::numeric("wage", AttributeRole::Confidential),
            ])
            .unwrap()
        };
        let mut fit_table = Table::new(schema(["lo", "mid", "hi"]));
        for i in 0..12u32 {
            fit_table
                .push_row(&[Value::Category(i % 3), Value::Number((i % 4) as f64)])
                .unwrap();
        }
        let fitted = Anonymizer::new(2, 0.5).fit(&fit_table).unwrap();

        // same labels, different interning order → reject
        let mut reordered = Table::new(schema(["hi", "mid", "lo"]));
        reordered
            .push_row(&[Value::Category(0), Value::Number(1.0)])
            .unwrap();
        assert!(matches!(
            fitted.apply_shard(&reordered),
            Err(Error::UnsupportedData(_))
        ));

        // a prefix dictionary (shard saw fewer labels) is fine
        let prefix_schema = Schema::new(vec![
            AttributeDef::ordinal("edu", AttributeRole::QuasiIdentifier, ["lo", "mid"]),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut prefix = Table::new(prefix_schema);
        for i in 0..4u32 {
            prefix
                .push_row(&[Value::Category(i % 2), Value::Number((i % 4) as f64)])
                .unwrap();
        }
        assert!(fitted.apply_shard(&prefix).is_ok());
    }

    #[test]
    fn apply_shard_rejects_unseen_confidential_values() {
        let table = demo_table(20);
        let fitted = Anonymizer::new(2, 0.5).fit(&table).unwrap();
        let mut alien = Table::new(table.schema().clone());
        for i in 0..4 {
            alien
                .push_row(&[
                    Value::Number(30.0),
                    Value::Number(1000.0 + i as f64),
                    Value::Number(1e6), // never seen by the fit
                ])
                .unwrap();
        }
        let err = fitted.apply_shard(&alien).unwrap_err();
        assert_eq!(
            err,
            Error::ConfidentialDomain {
                attribute: "wage".into(),
                error: tclose_metrics::emd::EmdError::ValueNotInDomain {
                    index: 0,
                    value: 1e6
                },
            }
        );
        assert_eq!(
            err.to_string(),
            "unsupported data: confidential attribute \"wage\": record 0 has value 1000000 \
             which the fitted domain never saw"
        );
    }

    #[test]
    fn from_parts_matches_direct_fit() {
        // Assemble a GlobalFit the way the streaming engine does and check
        // it behaves like the monolithic one.
        let table = demo_table(50);
        let qi = table.schema().quasi_identifiers();
        let mut params = Vec::new();
        for &a in &qi {
            let mut rs = RunningStats::new();
            for &x in table.numeric_column(a).unwrap() {
                rs.push(x);
            }
            let s = rs.std_dev();
            params.push((rs.mean(), if s > 0.0 { s } else { 1.0 }));
        }
        let embedding = QiEmbedding::from_params(NormalizeMethod::ZScore, params);

        let mut acc = tclose_metrics::emd::DomainAccumulator::new();
        for (i, &x) in table.numeric_column(2).unwrap().iter().enumerate() {
            acc.add(x, i).unwrap();
        }
        let conf = Confidential::from_emds(vec![acc.finalize().unwrap()]).unwrap();

        let fit =
            GlobalFit::from_parts(table.schema().clone(), embedding, conf, table.n_rows()).unwrap();
        let fitted = FittedAnonymizer::new(
            fit,
            TClosenessParams::new(3, 0.25).unwrap(),
            Algorithm::TClosenessFirst,
            Parallelism::auto(),
            NeighborBackend::Auto,
        );
        let out = fitted.apply_shard(&table).unwrap();
        // RunningStats moments differ from the batch ones only in FP noise,
        // so the release must satisfy the same guarantees...
        assert!(out.report.min_cluster_size >= 3);
        assert!(out.report.max_emd <= 0.25 + 1e-9);
        // ...and the EMD audit (independent of QI normalization) matches
        // the monolithic pipeline's exactly.
        let direct = Anonymizer::new(3, 0.25).anonymize(&table).unwrap();
        assert_eq!(
            out.report.max_emd.to_bits(),
            direct.report.max_emd.to_bits()
        );
    }

    #[test]
    fn embed_rejects_values_that_normalize_to_non_finite() {
        let schema = Schema::new(vec![
            AttributeDef::numeric("a", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("b", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("c", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..6 {
            let big = if i % 2 == 0 { 1.7e308 } else { 1.0e308 };
            t.push_row(&[
                Value::Number(i as f64),
                Value::Number(big),
                Value::Number(i as f64),
            ])
            .unwrap();
        }
        let qi = t.schema().quasi_identifiers();
        // The z-score mean of column b overflows: every b value is NaN.
        let fitted = QiEmbedding::fit(&t, &qi, NormalizeMethod::ZScore).unwrap();
        assert_eq!(
            fitted.embed(&t, &qi).unwrap_err(),
            Error::NonFiniteEmbedding {
                attribute: "b".into(),
                row: 0
            }
        );
        // A finite fit whose shift overflows one row only names that row.
        let shifted =
            QiEmbedding::from_params(NormalizeMethod::ZScore, vec![(0.0, 1.0), (-1e308, 1.0)]);
        let err = shifted.embed(&t, &qi).unwrap_err();
        assert_eq!(
            err,
            Error::NonFiniteEmbedding {
                attribute: "b".into(),
                row: 0
            }
        );
        assert!(err.to_string().contains("\"b\" at row 0"), "{err}");
        let mut fixed_first = t.clone();
        fixed_first.set_numeric(1, 0, 1.0).unwrap();
        assert!(matches!(
            shifted.embed(&fixed_first, &qi).unwrap_err(),
            Error::NonFiniteEmbedding { row: 1, .. }
        ));
        // Unaffected inputs still embed.
        assert!(
            QiEmbedding::from_params(NormalizeMethod::None, vec![(0.0, 1.0); 2])
                .embed(&t, &qi)
                .is_ok()
        );
    }

    #[test]
    fn from_parts_validates() {
        let table = demo_table(10);
        let emb = QiEmbedding::from_params(NormalizeMethod::None, vec![(0.0, 1.0); 2]);
        let conf = Confidential::from_table(&table).unwrap();
        assert!(
            GlobalFit::from_parts(table.schema().clone(), emb.clone(), conf.clone(), 0).is_err()
        );
        // wrong QI arity
        let short = QiEmbedding::from_params(NormalizeMethod::None, vec![(0.0, 1.0)]);
        assert!(GlobalFit::from_parts(table.schema().clone(), short, conf.clone(), 10).is_err());
        // no QI in schema
        let schema = Schema::new(vec![AttributeDef::numeric(
            "wage",
            AttributeRole::Confidential,
        )])
        .unwrap();
        assert!(GlobalFit::from_parts(schema, emb, conf, 10).is_err());
    }
}
