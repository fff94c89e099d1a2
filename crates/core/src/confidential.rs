//! The confidential-attribute model shared by all algorithms.
//!
//! A [`Confidential`] bundles one fitted [`OrderedEmd`] evaluator per
//! confidential attribute. A cluster satisfies t-closeness when its EMD to
//! the global distribution is ≤ t **for every confidential attribute**, so
//! the cluster-level quantity the algorithms track is the *maximum* EMD
//! across attributes.
//!
//! Numeric and ordinal-categorical attributes are supported (both admit the
//! ranking the ordered EMD requires — see Section 7 of the paper). Nominal
//! attributes would need a semantic distance (the paper's future work) and
//! are rejected with a clear error.

use crate::error::{Error, Result};
use tclose_metrics::emd::{ClusterHistogram, OrderedEmd, SwapScorer, SWAP_LANES};
use tclose_microdata::{AttributeKind, Table};

/// Fitted evaluators for all confidential attributes of a table.
#[derive(Debug, Clone)]
pub struct Confidential {
    emds: Vec<OrderedEmd>,
    n: usize,
}

impl Confidential {
    /// Fits evaluators on every attribute of `table` whose role is
    /// [`Confidential`](tclose_microdata::AttributeRole::Confidential).
    ///
    /// Errors when the table is empty, has no confidential attribute, or a
    /// confidential attribute is nominal.
    pub fn from_table(table: &Table) -> Result<Self> {
        if table.is_empty() {
            return Err(Error::Microdata(tclose_microdata::Error::EmptyTable));
        }
        let conf_attrs = table.schema().confidential();
        if conf_attrs.is_empty() {
            return Err(Error::UnsupportedData(
                "the schema declares no confidential attribute".into(),
            ));
        }
        let mut emds = Vec::with_capacity(conf_attrs.len());
        for a in conf_attrs {
            let attr = table.schema().attribute(a)?;
            match attr.kind {
                AttributeKind::Numeric => {
                    emds.push(OrderedEmd::try_new(table.numeric_column(a)?).map_err(|e| {
                        Error::UnsupportedData(format!(
                            "confidential attribute {:?}: {e}",
                            attr.name
                        ))
                    })?);
                }
                AttributeKind::OrdinalCategorical => {
                    emds.push(
                        OrderedEmd::try_from_codes(table.categorical_column(a)?).map_err(|e| {
                            Error::UnsupportedData(format!(
                                "confidential attribute {:?}: {e}",
                                attr.name
                            ))
                        })?,
                    );
                }
                AttributeKind::NominalCategorical => {
                    return Err(Error::UnsupportedData(format!(
                        "confidential attribute {:?} is nominal; the ordered EMD needs a \
                         rankable attribute (numeric or ordinal)",
                        attr.name
                    )));
                }
            }
        }
        Ok(Confidential {
            n: table.n_rows(),
            emds,
        })
    }

    /// Model over a single pre-fitted evaluator (handy in tests and when the
    /// caller works with raw columns).
    pub fn single(emd: OrderedEmd) -> Self {
        Confidential {
            n: emd.n(),
            emds: vec![emd],
        }
    }

    /// Model over pre-fitted evaluators, one per confidential attribute in
    /// schema order — the entry point of the streaming fit, whose
    /// evaluators come from merged
    /// [`DomainAccumulator`](tclose_metrics::emd::DomainAccumulator)s
    /// rather than a whole in-memory table.
    ///
    /// All evaluators must agree on the global record count.
    pub fn from_emds(emds: Vec<OrderedEmd>) -> Result<Self> {
        let n = match emds.first() {
            None => {
                return Err(Error::UnsupportedData(
                    "the confidential model needs at least one attribute".into(),
                ))
            }
            Some(e) => e.n(),
        };
        if let Some(bad) = emds.iter().find(|e| e.n() != n) {
            return Err(Error::UnsupportedData(format!(
                "confidential evaluators disagree on the global record count \
                 ({n} vs {})",
                bad.n()
            )));
        }
        Ok(Confidential { n, emds })
    }

    /// A copy of this model whose per-record bins cover the confidential
    /// columns of `table` — typically one shard of the fitting data —
    /// keeping the global domains and distributions frozen.
    ///
    /// `table`'s schema must declare the same number of confidential
    /// attributes, in the same order and of the same kinds, as the model
    /// was fitted on. Errors when a shard value was never seen by the
    /// global fit.
    pub fn rebind(&self, table: &Table) -> Result<Self> {
        let conf_attrs = table.schema().confidential();
        if conf_attrs.len() != self.emds.len() {
            return Err(Error::UnsupportedData(format!(
                "table declares {} confidential attributes but the model was \
                 fitted on {}",
                conf_attrs.len(),
                self.emds.len()
            )));
        }
        let mut emds = Vec::with_capacity(self.emds.len());
        for (emd, &a) in self.emds.iter().zip(&conf_attrs) {
            let attr = table.schema().attribute(a)?;
            let bound = match attr.kind {
                AttributeKind::Numeric => emd.rebind(table.numeric_column(a)?),
                AttributeKind::OrdinalCategorical => emd.rebind_codes(table.categorical_column(a)?),
                AttributeKind::NominalCategorical => {
                    return Err(Error::UnsupportedData(format!(
                        "confidential attribute {:?} is nominal; the ordered EMD \
                         needs a rankable attribute (numeric or ordinal)",
                        attr.name
                    )));
                }
            };
            emds.push(bound.map_err(|e| {
                Error::UnsupportedData(format!("confidential attribute {:?}: {e}", attr.name))
            })?);
        }
        Ok(Confidential { n: self.n, emds })
    }

    /// Number of records of the *global* fitting data — the denominator of
    /// every global distribution, not the currently bound working set (see
    /// [`Confidential::n_bound`]).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of records currently bound for per-record evaluation: the
    /// fitting table's size for a model from
    /// [`Confidential::from_table`], the shard size after
    /// [`Confidential::rebind`].
    pub fn n_bound(&self) -> usize {
        self.emds.first().map(OrderedEmd::n_bound).unwrap_or(0)
    }

    /// Number of confidential attributes.
    pub fn n_attributes(&self) -> usize {
        self.emds.len()
    }

    /// The fitted per-attribute evaluators.
    pub fn emds(&self) -> &[OrderedEmd] {
        &self.emds
    }

    /// The first (primary) evaluator — the one the t-closeness-first
    /// algorithm stratifies on.
    pub fn primary(&self) -> &OrderedEmd {
        &self.emds[0]
    }

    /// Maximum EMD across confidential attributes for a cluster of records.
    pub fn emd_of_records(&self, records: &[usize]) -> f64 {
        self.emds
            .iter()
            .map(|e| e.emd_of_records(records))
            .fold(0.0, f64::max)
    }

    /// Builds one histogram per attribute for the given records.
    pub fn histograms(&self, records: &[usize]) -> ClusterHists {
        ClusterHists {
            hists: self
                .emds
                .iter()
                .map(|e| ClusterHistogram::of_records(e, records))
                .collect(),
        }
    }

    /// Maximum EMD across attributes for incrementally maintained
    /// histograms.
    pub fn emd_of_hists(&self, hists: &ClusterHists) -> f64 {
        self.emds
            .iter()
            .zip(&hists.hists)
            .map(|(e, h)| e.emd(h))
            .fold(0.0, f64::max)
    }

    /// Maximum EMD across attributes after hypothetically swapping record
    /// `out` for record `inn` (pure — does not mutate `hists`).
    pub fn emd_after_swap(&self, hists: &ClusterHists, out: usize, inn: usize) -> f64 {
        self.emds
            .iter()
            .zip(&hists.hists)
            .map(|(e, h)| e.emd_after_swap(h, out, inn))
            .fold(0.0, f64::max)
    }

    /// A [`ClusterScorer`] over the cluster of the given records.
    pub(crate) fn scorer(&self, records: &[usize]) -> ClusterScorer<'_> {
        ClusterScorer {
            emds: &self.emds,
            scorers: self
                .emds
                .iter()
                .map(|e| SwapScorer::new(e, ClusterHistogram::of_records(e, records)))
                .collect(),
        }
    }
}

/// One [`SwapScorer`] per confidential attribute over one cluster, for
/// Algorithm 2's refinement. Each cluster-level value is the maximum across
/// attributes folded in attribute order, exactly as
/// [`Confidential::emd_of_hists`] and [`Confidential::emd_after_swap`]
/// fold, so every value is bit-identical to theirs.
#[derive(Debug, Clone)]
pub(crate) struct ClusterScorer<'a> {
    emds: &'a [OrderedEmd],
    scorers: Vec<SwapScorer<'a>>,
}

impl ClusterScorer<'_> {
    /// Maximum EMD across attributes of the current cluster.
    pub fn emd(&self) -> f64 {
        self.scorers.iter().map(SwapScorer::emd).fold(0.0, f64::max)
    }

    /// Sets `scores[i]` to the maximum EMD across attributes after swapping
    /// `members[i]` out for record `inn`, scoring [`SWAP_LANES`] members
    /// per walk of each attribute's domain.
    pub fn score_swaps(&self, members: &[usize], inn: usize, scores: &mut [f64]) {
        assert_eq!(members.len(), scores.len(), "one score per member");
        for (chunk, out) in members
            .chunks(SWAP_LANES)
            .zip(scores.chunks_mut(SWAP_LANES))
        {
            let mut worst = [0.0f64; SWAP_LANES];
            for (e, s) in self.emds.iter().zip(&self.scorers) {
                let mut bins = [0usize; SWAP_LANES];
                for (b, &r) in bins.iter_mut().zip(chunk) {
                    *b = e.bin_of(r);
                }
                let lanes = s.score_lanes(&bins[..chunk.len()], e.bin_of(inn));
                for (w, x) in worst.iter_mut().zip(lanes) {
                    *w = w.max(x);
                }
            }
            out.copy_from_slice(&worst[..chunk.len()]);
        }
    }

    /// Swaps member `out` for record `inn`.
    pub fn swap(&mut self, out: usize, inn: usize) {
        for (e, s) in self.emds.iter().zip(&mut self.scorers) {
            s.swap(e.bin_of(out), e.bin_of(inn));
        }
    }

    /// Maximum EMD across attributes after adding record `inn`.
    pub fn emd_after_add(&self, inn: usize) -> f64 {
        self.emds
            .iter()
            .zip(&self.scorers)
            .map(|(e, s)| s.emd_after_add(e.bin_of(inn)))
            .fold(0.0, f64::max)
    }

    /// Adds record `inn` to the cluster.
    pub fn add(&mut self, inn: usize) {
        for (e, s) in self.emds.iter().zip(&mut self.scorers) {
            s.add(e.bin_of(inn));
        }
    }
}

/// One [`ClusterHistogram`] per confidential attribute, kept in sync by the
/// incremental algorithms.
#[derive(Debug, Clone)]
pub struct ClusterHists {
    hists: Vec<ClusterHistogram>,
}

impl ClusterHists {
    /// Records one addition to the cluster.
    pub fn add(&mut self, conf: &Confidential, record: usize) {
        for (h, e) in self.hists.iter_mut().zip(&conf.emds) {
            h.add(e.bin_of(record));
        }
    }

    /// Records one removal from the cluster.
    pub fn remove(&mut self, conf: &Confidential, record: usize) {
        for (h, e) in self.hists.iter_mut().zip(&conf.emds) {
            h.remove(e.bin_of(record));
        }
    }

    /// Merges another cluster's histograms into this one.
    pub fn merge(&mut self, other: &ClusterHists) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Current cluster size (identical across attributes by construction).
    pub fn size(&self) -> usize {
        self.hists.first().map(ClusterHistogram::size).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_microdata::{AttributeDef, AttributeRole, Schema, Value};

    fn two_conf_table() -> Table {
        let schema = Schema::new(vec![
            AttributeDef::numeric("qi", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("c1", AttributeRole::Confidential),
            AttributeDef::ordinal("c2", AttributeRole::Confidential, ["a", "b", "c", "d"]),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..8u32 {
            t.push_row(&[
                Value::Number(i as f64),
                Value::Number((i % 4) as f64 * 10.0),
                Value::Category(i % 4),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn fits_numeric_and_ordinal_confidential_attributes() {
        let t = two_conf_table();
        let conf = Confidential::from_table(&t).unwrap();
        assert_eq!(conf.n_attributes(), 2);
        assert_eq!(conf.n(), 8);
        assert_eq!(conf.primary().m(), 4);
    }

    #[test]
    fn rebind_to_a_shard_keeps_the_global_distribution() {
        let t = two_conf_table();
        let conf = Confidential::from_table(&t).unwrap();
        assert_eq!(conf.n_bound(), 8);

        // shard = rows {0, 4, 5}: same global denominators, local bins
        let shard = t.take_rows(&[0, 4, 5]).unwrap();
        let bound = conf.rebind(&shard).unwrap();
        assert_eq!(bound.n(), 8, "global n frozen");
        assert_eq!(bound.n_bound(), 3);
        // shard-local records {0,1} are fit records {0,4}
        let d = bound.emd_of_records(&[0, 1]);
        assert!((d - conf.emd_of_records(&[0, 4])).abs() < 1e-12);
        // histograms work in shard space too
        let h = bound.histograms(&[0, 1]);
        assert!((bound.emd_of_hists(&h) - d).abs() < 1e-12);

        // rebinding the whole table reproduces the model
        let same = conf.rebind(&t).unwrap();
        assert_eq!(same.n_bound(), 8);
        for records in [vec![0usize, 4], vec![1, 2, 3]] {
            assert!((same.emd_of_records(&records) - conf.emd_of_records(&records)).abs() < 1e-12);
        }
    }

    #[test]
    fn from_emds_validates_agreement() {
        let a = OrderedEmd::new(&[1.0, 2.0, 3.0]);
        let b = OrderedEmd::new(&[1.0, 2.0]);
        assert!(Confidential::from_emds(vec![]).is_err());
        assert!(matches!(
            Confidential::from_emds(vec![a.clone(), b]),
            Err(Error::UnsupportedData(_))
        ));
        let ok = Confidential::from_emds(vec![a.clone(), a]).unwrap();
        assert_eq!(ok.n(), 3);
        assert_eq!(ok.n_attributes(), 2);
    }

    #[test]
    fn rejects_empty_no_confidential_and_nominal() {
        let schema = Schema::new(vec![AttributeDef::numeric(
            "qi",
            AttributeRole::QuasiIdentifier,
        )])
        .unwrap();
        let empty = Table::new(schema.clone());
        assert!(Confidential::from_table(&empty).is_err());

        let mut no_conf = Table::new(schema);
        no_conf.push_row(&[Value::Number(1.0)]).unwrap();
        assert!(matches!(
            Confidential::from_table(&no_conf),
            Err(Error::UnsupportedData(_))
        ));

        let schema = Schema::new(vec![AttributeDef::nominal(
            "diag",
            AttributeRole::Confidential,
            ["flu", "cold"],
        )])
        .unwrap();
        let mut nominal = Table::new(schema);
        nominal.push_row(&[Value::Category(0)]).unwrap();
        assert!(matches!(
            Confidential::from_table(&nominal),
            Err(Error::UnsupportedData(_))
        ));
    }

    #[test]
    fn max_emd_across_attributes() {
        let t = two_conf_table();
        let conf = Confidential::from_table(&t).unwrap();
        // records {0,4} share c1 = 0 and c2 = 'a' → both attributes deviate
        let max_emd = conf.emd_of_records(&[0, 4]);
        let e1 = conf.emds()[0].emd_of_records(&[0, 4]);
        let e2 = conf.emds()[1].emd_of_records(&[0, 4]);
        assert!((max_emd - e1.max(e2)).abs() < 1e-12);
        assert!(max_emd > 0.0);
        // a perfectly representative cluster has EMD 0 on both
        assert!(conf.emd_of_records(&[0, 1, 2, 3]) < 1e-12);
    }

    #[test]
    fn incremental_hists_match_batch() {
        let t = two_conf_table();
        let conf = Confidential::from_table(&t).unwrap();
        let mut h = conf.histograms(&[0, 1]);
        assert_eq!(h.size(), 2);
        let batch = conf.emd_of_records(&[0, 1]);
        assert!((conf.emd_of_hists(&h) - batch).abs() < 1e-12);

        // swap preview is pure, applying add/remove matches it
        let preview = conf.emd_after_swap(&h, 0, 5);
        h.remove(&conf, 0);
        h.add(&conf, 5);
        assert!((conf.emd_of_hists(&h) - preview).abs() < 1e-12);
        assert!((conf.emd_of_hists(&h) - conf.emd_of_records(&[1, 5])).abs() < 1e-12);
    }

    #[test]
    fn cluster_scorer_matches_the_histogram_evaluators_bit_for_bit() {
        let schema = Schema::new(vec![
            AttributeDef::numeric("qi", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("c1", AttributeRole::Confidential),
            AttributeDef::ordinal("c2", AttributeRole::Confidential, ["a", "b", "c", "d", "e"]),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..40u32 {
            t.push_row(&[
                Value::Number(i as f64),
                Value::Number(((i * 7) % 13) as f64),
                Value::Category((i * 3) % 5),
            ])
            .unwrap();
        }
        let conf = Confidential::from_table(&t).unwrap();
        // 14 members: two walks of up to 8 lanes per attribute
        let mut members: Vec<usize> = (0..40).step_by(3).collect();
        let mut scorer = conf.scorer(&members);
        let mut hists = conf.histograms(&members);
        let mut scores = vec![0.0; members.len()];
        for inn in (1..40).step_by(3) {
            assert_eq!(scorer.emd().to_bits(), conf.emd_of_hists(&hists).to_bits());
            scorer.score_swaps(&members, inn, &mut scores);
            for (&score, &out) in scores.iter().zip(&members) {
                let expected = conf.emd_after_swap(&hists, out, inn);
                assert_eq!(score.to_bits(), expected.to_bits(), "out {out} in {inn}");
            }
            let mut grown = hists.clone();
            grown.add(&conf, inn);
            assert_eq!(
                scorer.emd_after_add(inn).to_bits(),
                conf.emd_of_hists(&grown).to_bits()
            );
            let i = inn % members.len();
            scorer.swap(members[i], inn);
            hists.remove(&conf, members[i]);
            hists.add(&conf, inn);
            members[i] = inn;
        }
    }

    #[test]
    fn merge_hists() {
        let t = two_conf_table();
        let conf = Confidential::from_table(&t).unwrap();
        let mut a = conf.histograms(&[0, 1, 2, 3]);
        let b = conf.histograms(&[4, 5, 6, 7]);
        a.merge(&b);
        assert_eq!(a.size(), 8);
        assert!(conf.emd_of_hists(&a) < 1e-12);
    }
}
