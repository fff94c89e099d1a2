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
use tclose_metrics::emd::{ExactEmd, OrderedEmd, Ratio, SparseHistogram};
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
    /// was fitted on. Errors with [`Error::ConfidentialDomain`] when a
    /// shard value was never seen by the global fit.
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
            emds.push(bound.map_err(|error| Error::ConfidentialDomain {
                attribute: attr.name.clone(),
                error,
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

    /// Maximum EMD across confidential attributes for a cluster of records,
    /// the exact value rounded once to the nearest `f64`: a value to report.
    pub fn emd_of_records(&self, records: &[usize]) -> f64 {
        self.exact_emd_of_records(records).to_f64()
    }

    /// Builds one sparse histogram per attribute for the given records.
    pub fn histograms(&self, records: &[usize]) -> ClusterHists {
        ClusterHists {
            hists: self
                .emds
                .iter()
                .map(|e| SparseHistogram::of_records(e, records))
                .collect(),
        }
    }

    /// Maximum EMD across attributes after hypothetically swapping record
    /// `out` for record `inn` (pure — does not mutate `hists`), the exact
    /// value rounded once to the nearest `f64`: a value to report.
    pub fn emd_after_swap(&self, hists: &ClusterHists, out: usize, inn: usize) -> f64 {
        self.emds
            .iter()
            .zip(&hists.hists)
            .map(|(e, h)| e.emd_after_swap(h, out, inn))
            .fold(0.0, f64::max)
    }

    /// Maximum EMD across attributes of a cluster's histograms, exactly:
    /// the value the merge pass ranks clusters by and tests against t.
    pub fn exact_emd_of_hists(&self, hists: &ClusterHists) -> Ratio {
        let pairs = self.emds.iter().zip(&hists.hists);
        max_of(pairs.map(|(e, h)| e.exact_emd(h)))
    }

    /// [`Confidential::exact_emd_of_hists`] of the cluster of the given
    /// records.
    pub fn exact_emd_of_records(&self, records: &[usize]) -> Ratio {
        self.exact_emd_of_hists(&self.histograms(records))
    }

    /// A [`ClusterScorer`] over the cluster of the given records.
    pub(crate) fn scorer(&self, records: &[usize]) -> ClusterScorer<'_> {
        let states = self
            .emds
            .iter()
            .map(|e| ExactEmd::new(e, SparseHistogram::of_records(e, records)))
            .collect();
        ClusterScorer {
            conf: self,
            states,
            maxima: Vec::new(),
            deltas: Vec::new(),
        }
    }
}

/// The largest of `emds`, or 0 for none.
fn max_of(emds: impl Iterator<Item = Ratio>) -> Ratio {
    emds.max().unwrap_or(Ratio::ZERO)
}

/// The exact state of one cluster for Algorithm 2's refinement: one
/// [`ExactEmd`] per confidential attribute, the cluster's EMD being their
/// maximum.
///
/// It makes the refinement's three decisions on exact integers: which
/// member, if any, to swap for a candidate (comparing [`Ratio`]s); whether
/// the cluster is still above `t`; and, for the `Add` ablation, whether
/// adding a candidate lowers the cluster's EMD.
#[derive(Debug, Clone)]
pub(crate) struct ClusterScorer<'a> {
    conf: &'a Confidential,
    states: Vec<ExactEmd>,
    /// Scratch: every member's swap EMD for one candidate.
    maxima: Vec<Ratio>,
    /// Scratch: one attribute's [`ExactEmd::swap_deltas`].
    deltas: Vec<i128>,
}

impl ClusterScorer<'_> {
    /// Maximum EMD across attributes of the current cluster.
    pub fn emd(&self) -> Ratio {
        max_of(self.states.iter().map(ExactEmd::emd))
    }

    /// Whether the cluster's EMD exceeds `t`.
    pub fn exceeds(&self, t: f64) -> bool {
        self.states.iter().any(|state| state.emd().exceeds(t))
    }

    /// The index of the member whose swap for record `inn` gives the
    /// smallest maximum EMD below the current one, the first such member
    /// on ties; `None` when no swap lowers it. Per attribute, one
    /// [`ExactEmd::swap_deltas`] pass scores every pair, and each member
    /// reads its pair's delta.
    pub fn best_swap(&mut self, members: &[usize], inn: usize) -> Option<usize> {
        let (mut maxima, mut deltas) = (
            std::mem::take(&mut self.maxima),
            std::mem::take(&mut self.deltas),
        );
        maxima.clear();
        maxima.resize(members.len(), Ratio::ZERO);
        for (state, e) in self.states.iter().zip(&self.conf.emds) {
            state.swap_deltas(e, e.bin_of(inn), &mut deltas);
            for (max, &r) in maxima.iter_mut().zip(members) {
                *max = (*max).max(state.emd_after(deltas[state.pair_of(e.bin_of(r))]));
            }
        }
        let mut best = (None, self.emd());
        for (i, &emd) in maxima.iter().enumerate() {
            if emd < best.1 {
                best = (Some(i), emd);
            }
        }
        (self.maxima, self.deltas) = (maxima, deltas);
        best.0
    }

    /// Swaps member `out` for record `inn`.
    pub fn swap(&mut self, out: usize, inn: usize) {
        for (state, e) in self.states.iter_mut().zip(&self.conf.emds) {
            state.swap(e, e.bin_of(out), e.bin_of(inn));
        }
    }

    /// Adds record `inn` to the cluster if that lowers its EMD, and says
    /// whether it did.
    pub fn add_if_lower(&mut self, inn: usize) -> bool {
        let grown: Vec<ExactEmd> = self
            .states
            .iter()
            .zip(&self.conf.emds)
            .map(|(state, e)| state.grown(e, e.bin_of(inn)))
            .collect();
        let lower = max_of(grown.iter().map(ExactEmd::emd)) < self.emd();
        if lower {
            self.states = grown;
        }
        lower
    }
}

/// One [`SparseHistogram`] per confidential attribute, a cluster's state in
/// the merge pass: `O(|C|)` whatever the size of the domains, and its exact
/// EMD ([`Confidential::exact_emd_of_hists`]) costs `O(|C| log m)`.
#[derive(Debug, Clone, Default)]
pub struct ClusterHists {
    hists: Vec<SparseHistogram>,
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
        self.hists.first().map(SparseHistogram::size).unwrap_or(0)
    }

    /// The fewest distinct values of the cluster on any attribute.
    pub(crate) fn distinct_bins(&self) -> usize {
        let distinct = self.hists.iter().map(SparseHistogram::distinct_bins);
        distinct.min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, Draws};
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
        assert_eq!(
            bound.exact_emd_of_hists(&h),
            conf.exact_emd_of_records(&[0, 4])
        );

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
        assert_eq!(
            conf.exact_emd_of_hists(&h),
            conf.exact_emd_of_records(&[0, 1])
        );
        assert!((conf.emd_of_records(&[0, 1]) - batch).abs() < 1e-12);

        // swap preview is pure, applying add/remove matches it
        let preview = conf.emd_after_swap(&h, 0, 5);
        h.remove(&conf, 0);
        h.add(&conf, 5);
        assert!((conf.emd_of_records(&[1, 5]) - preview).abs() < 1e-12);
        assert_eq!(
            conf.exact_emd_of_hists(&h),
            conf.exact_emd_of_records(&[1, 5])
        );
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
        // The scorer's states equal fresh ones built from the histograms of
        // its members, after every swap and every addition.
        let fresh = |scorer: &ClusterScorer, members: &[usize]| {
            assert_eq!(scorer.emd(), conf.exact_emd_of_records(members));
            for (state, e) in scorer.states.iter().zip(conf.emds()) {
                let hist = SparseHistogram::of_records(e, members);
                assert_eq!(state, &ExactEmd::new(e, hist));
            }
        };
        let mut members: Vec<usize> = (0..40).step_by(3).collect();
        let mut scorer = conf.scorer(&members);
        for inn in (1..40).step_by(3) {
            fresh(&scorer, &members);
            let mut grown = members.clone();
            grown.push(inn);
            let lower = conf.exact_emd_of_records(&grown) < scorer.emd();
            let mut adding = scorer.clone();
            assert_eq!(adding.add_if_lower(inn), lower);
            fresh(&adding, if lower { &grown } else { &members });
            let i = inn % members.len();
            scorer.swap(members[i], inn);
            members[i] = inn;
        }
    }

    /// Every decision of a [`ClusterScorer`] checked against
    /// [`reference`]: the swap choice, the above-t verdict at several `t`
    /// and whether adding the candidate lowers the EMD, as the cluster
    /// follows the chosen swap (any swap when none helps) and, every fifth
    /// candidate, an addition that lowers its EMD. Returns how many `t`
    /// equalled the cluster's exact EMD.
    fn check_decisions(rng: &mut Draws, conf: &Confidential, size: usize, steps: usize) -> usize {
        let n = conf.n_bound();
        let outside = |rng: &mut Draws, members: &[usize]| loop {
            let r = rng.below(n);
            if !members.contains(&r) {
                break r;
            }
        };
        let mut members: Vec<usize> = Vec::new();
        while members.len() < size {
            let r = outside(rng, &members);
            members.push(r);
        }
        let mut scorer = conf.scorer(&members);
        let mut ties = 0;
        for step in 0..steps {
            let inn = outside(rng, &members);
            let current = reference::emd(conf, &members);
            let want = reference::best_swap(conf, &members, inn);
            let case = format!("m={:?} |C|={} in {inn}", conf.emds()[0].m(), members.len());
            assert_eq!(scorer.best_swap(&members, inn), want, "{case}");
            let rounded = conf.emd_of_records(&members);
            let mut ts = vec![rng.unit(), rounded];
            for _ in 0..2 {
                ts.push(ts[ts.len() - 1].next_up());
            }
            ts.extend([rounded.next_down(), rounded.next_down().next_down()]);
            for t in ts.into_iter().filter(|&t| t > 1e-30) {
                let order = reference::cmp_t(current, t);
                ties += usize::from(order.is_eq());
                assert_eq!(scorer.exceeds(t), order.is_gt(), "{case} t={t}");
            }
            let grown = [&members[..], &[inn]].concat();
            let lower = reference::cmp(reference::emd(conf, &grown), current).is_lt();
            let mut adding = scorer.clone();
            assert_eq!(adding.add_if_lower(inn), lower, "{case}");
            if lower && step % 5 == 4 {
                (scorer, members) = (adding, grown);
                continue;
            }
            let i = want.unwrap_or_else(|| rng.below(members.len()));
            scorer.swap(members[i], inn);
            members[i] = inn;
        }
        ties
    }

    #[test]
    fn exact_decisions_match_a_rational_reference() {
        let mut ties = 0;
        for (case, m) in [1usize, 2, 3, 5, 9, 17, 300, 2000].into_iter().enumerate() {
            for attrs in 1..=3 {
                let mut rng = Draws(1_000 * case as u64 + attrs as u64);
                // A third attribute has one bin: its EMD is always 0.
                let domains = [m, (m / 7).max(2), 1];
                let conf = reference::tied_model(&mut rng, &domains[..attrs], 2 * m + 60);
                for size in [1, 2, 5, 13, 50] {
                    ties += check_decisions(&mut rng, &conf, size, 20);
                }
            }
        }
        // N = 8·10¹²: 2,000 bins of 4·10⁹ records each, bound to 400
        // records, with one and two attributes. A cluster of 300 puts
        // (m − 1)·|C|·N past 2⁶².
        let m = 2000;
        let values: Vec<f64> = (0..m).map(|v| v as f64).collect();
        let global = OrderedEmd::try_from_global(values, vec![4_000_000_000; m]).unwrap();
        let mut rng = Draws(5);
        let column: Vec<f64> = (0..400).map(|_| rng.below(m) as f64).collect();
        let bound = global.rebind(&column).unwrap();
        for attrs in 1..=2 {
            let conf = Confidential::from_emds(vec![bound.clone(); attrs]).unwrap();
            for size in [30, 300] {
                ties += check_decisions(&mut rng, &conf, size, 20);
            }
        }
        assert!(ties > 0, "no t equalled an exact EMD");
    }

    #[test]
    fn equal_emds_on_two_outgoing_bins_pick_the_first_member() {
        // Five values twice each; the cluster holds both records of the end
        // values 0 and 4. Swapping either end out for a 2 moves the same
        // mass by the same distance, so both swaps give exactly the same
        // EMD, lower than the cluster's: the first member is chosen.
        let col = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        let conf = Confidential::single(OrderedEmd::new(&col));
        let members = [0, 1, 8, 9];
        let swapped = |i: usize| {
            let mut c = members;
            c[i] = 4;
            conf.exact_emd_of_records(&c)
        };
        assert_eq!(swapped(0), swapped(3));
        assert!(swapped(0) < conf.exact_emd_of_records(&members));
        assert_eq!(conf.scorer(&members).best_swap(&members, 4), Some(0));
        assert_eq!(
            conf.scorer(&members[2..]).best_swap(&members[2..], 4),
            Some(0)
        );
    }

    #[test]
    fn an_exact_emd_equal_to_t_does_not_exceed_it() {
        // One record of three values: the EMD is 1/2 exactly, and so is
        // the f64 it is reported as.
        let conf = Confidential::single(OrderedEmd::new(&[0.0, 1.0, 2.0]));
        assert_eq!(conf.emd_of_records(&[0]), 0.5);
        let exceeds = |t: f64| conf.scorer(&[0]).exceeds(t);
        assert!(!exceeds(0.5));
        assert!(exceeds(0.5f64.next_down()));
        assert!(exceeds(0.25) && !exceeds(0.75));
    }

    #[test]
    fn counts_too_large_for_i64_are_decided_in_i128() {
        // 40,000 bins of u32::MAX records each: (m − 1)·|C|·N passes 2⁶⁴,
        // and so do the run terms the swap deltas are summed from.
        let m = 40_000;
        let values: Vec<f64> = (0..m).map(|v| v as f64).collect();
        let global = OrderedEmd::try_from_global(values, vec![u32::MAX; m]).unwrap();
        let mut rng = Draws(11);
        let column: Vec<f64> = (0..200).map(|_| rng.below(m) as f64).collect();
        let bound = global.rebind(&column).unwrap();
        for attrs in 1..=2 {
            let conf = Confidential::from_emds(vec![bound.clone(); attrs]).unwrap();
            check_decisions(&mut rng, &conf, 20, 6);
        }
    }

    #[test]
    fn emd_after_swap_is_the_swapped_clusters_exact_emd_rounded() {
        let mut rng = Draws(7);
        for m in [1usize, 3, 40, 2000] {
            let conf = reference::tied_model(&mut rng, &[m, (m / 7).max(2)], 2 * m + 60);
            let n = conf.n_bound();
            for size in [1, 5, 30] {
                let members: Vec<usize> = (0..size).map(|_| rng.below(n)).collect();
                let hists = conf.histograms(&members);
                for _ in 0..10 {
                    let (i, inn) = (rng.below(size), rng.below(n));
                    let mut swapped = members.clone();
                    swapped[i] = inn;
                    let want = conf.exact_emd_of_records(&swapped).to_f64();
                    let got = conf.emd_after_swap(&hists, members[i], inn);
                    assert_eq!(got.to_bits(), want.to_bits(), "m={m} |C|={size}");
                }
            }
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
        assert_eq!(conf.exact_emd_of_hists(&a), Ratio::ZERO);
    }
}
