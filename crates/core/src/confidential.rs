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
use tclose_metrics::emd::{ClusterHistogram, ExactEmd, OrderedEmd, EXACT_LIMIT, SWAP_LANES};
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
    /// `out` for record `inn` (pure — does not mutate `hists`). Algorithm
    /// 2's refinement takes this maximum, attribute by attribute, where
    /// the exact integers cannot decide.
    pub fn emd_after_swap(&self, hists: &ClusterHists, out: usize, inn: usize) -> f64 {
        self.emds
            .iter()
            .zip(&hists.hists)
            .map(|(e, h)| e.emd_after_swap(h, out, inn))
            .fold(0.0, f64::max)
    }

    /// A [`ClusterScorer`] over the cluster of the given records.
    pub(crate) fn scorer(&self, records: &[usize]) -> ClusterScorer<'_> {
        let hists = self.histograms(records);
        ClusterScorer {
            conf: self,
            exact: ExactMax::new(&self.emds, &hists.hists),
            hists,
            emd: None,
            chosen: None,
            lead: 0,
        }
    }
}

/// The state of one cluster for Algorithm 2's refinement: per confidential
/// attribute its histogram and, while its counts fit, an exact
/// [`ExactEmd`].
///
/// It answers the refinement's two questions — which member, if any, to
/// swap for a candidate, and whether the cluster is still above `t` —
/// exactly as the f64 walk answers them: from the integers when every gap
/// they compare is wider than the walk's proven rounding error, and from
/// the walk on the histograms otherwise (ties, a cluster with no exact
/// state, the `Add` ablation). The walks are [`OrderedEmd`]'s, maximised
/// over the attributes as [`Confidential::emd_of_hists`] and
/// [`Confidential::emd_after_swap`] maximise them, so every f64 value is
/// theirs.
#[derive(Debug, Clone)]
pub(crate) struct ClusterScorer<'a> {
    conf: &'a Confidential,
    hists: ClusterHists,
    /// `None` once the cluster has grown ([`ClusterScorer::add_if_lower`])
    /// or when its counts are too large to hold exactly.
    exact: Option<ExactMax>,
    /// The cluster's f64 EMD once walked, or the value the walk chose for
    /// the swap or addition that made the cluster (the same bits).
    emd: Option<f64>,
    /// `(out, inn, emd)` of the walk's swap choice since the last change.
    chosen: Option<(usize, usize, f64)>,
    /// The attribute [`ClusterScorer::max_below`] walks first.
    lead: usize,
}

/// The maximum EMD across confidential attributes on one exact integer
/// scale. With `P = Π (m_a − 1)` over the attributes of two or more bins
/// (the others have EMD 0), attribute `a`'s EMD `S_a / (|C|·N·(m_a − 1))`
/// equals `S_a·W_a / (|C|·N·P)` with `W_a = P / (m_a − 1)`, so the
/// cluster's maximum EMD is `key / (|C|·N·P)` with `key = max_a S_a·W_a`.
#[derive(Debug, Clone)]
struct ExactMax {
    /// `(state, W_a)` per attribute, in attribute order; `W_a = 0` for an
    /// attribute of one bin.
    attrs: Vec<(ExactEmd, i64)>,
    /// `|C|·N·P`.
    denom: i64,
    /// How far the f64 maximum may lie from the exact one, in key units
    /// times 2⁵³: `max_a ε_a·W_a`, with `ε_a` each attribute's
    /// [`ExactEmd::rounding_bound`].
    bound: u128,
    /// `⌊2·bound / 2⁵³⌋`: two keys further apart than this are further
    /// apart than twice the bound, so their f64 values order as they do.
    gap: i64,
    /// Scratch for one candidate: the key of every member's swap, and
    /// attribute `a`'s key of member `i`'s swap at `a·|C| + i`.
    keys: Vec<i64>,
    rows: Vec<i64>,
}

impl ExactMax {
    /// `None` when an attribute's state or `|C|·N·P` is too large to hold
    /// exactly (see [`EXACT_LIMIT`]).
    fn new(emds: &[OrderedEmd], hists: &[ClusterHistogram]) -> Option<Self> {
        let mut attrs = Vec::with_capacity(emds.len());
        let mut p = 1i64;
        for (e, h) in emds.iter().zip(hists) {
            attrs.push((ExactEmd::new(e, h)?, 0));
            p = p.checked_mul((e.m() as i64 - 1).max(1))?;
        }
        let denom = attrs.first()?.0.scale().checked_mul(p)?;
        if denom > EXACT_LIMIT {
            return None;
        }
        let mut bound = 0;
        for ((state, w), e) in attrs.iter_mut().zip(emds) {
            if e.m() > 1 {
                *w = p / (e.m() as i64 - 1);
                bound = (state.rounding_bound() * *w as u128).max(bound);
            }
        }
        Some(ExactMax {
            attrs,
            denom,
            bound,
            gap: i64::try_from((2 * bound) >> 53).ok()?,
            keys: Vec::new(),
            rows: Vec::new(),
        })
    }

    /// The current cluster's key.
    fn key(&self) -> i64 {
        self.attrs
            .iter()
            .map(|(state, w)| state.sum() * w)
            .fold(0, i64::max)
    }

    /// The f64 walk's choice among `members`' swaps for `inn`, from the
    /// keys [`ClusterScorer::exact_best_swap`] filled in, or `None` when
    /// two values it compares lie within the gap and may be different
    /// doubles.
    fn certify(&self, emds: &[OrderedEmd], members: &[usize], inn: usize) -> Option<Option<usize>> {
        let (n, current, gap) = (members.len(), self.key(), self.gap);
        let decisive = || (0..self.attrs.len()).filter(|&a| self.attrs[a].1 > 0);
        // Lane `Some(i)` is member i's swap, `None` the current cluster.
        let key_of = |a: usize, lane: Option<usize>| match lane {
            Some(i) => self.rows[a * n + i],
            None => self.attrs[a].0.sum() * self.attrs[a].1,
        };
        // The bin a lane moves out of attribute a (None: it moves none).
        let moved = |a: usize, lane: Option<usize>| {
            lane.map(|i| emds[a].bin_of(members[i]))
                .filter(|&b| b != emds[a].bin_of(inn))
        };
        // The attribute whose key exceeds every other's by more than the
        // gap: the f64 maximum is then that attribute's f64 EMD.
        let decider = |lane: Option<usize>| {
            let (mut top, mut second) = (None, i64::MIN);
            for a in decisive() {
                let key = key_of(a, lane);
                match top {
                    Some((t, _)) if key <= t => second = second.max(key),
                    _ => {
                        second = top.map_or(second, |(t, _)| second.max(t));
                        top = Some((key, a));
                    }
                }
            }
            top.filter(|&(t, _)| t.saturating_sub(second) > gap)
                .map(|(_, a)| a)
        };
        // Two lanes are the same double when they move the same bins, or
        // when one attribute decides both and they move the same bin of it.
        let same = |p: Option<usize>, q: Option<usize>| {
            decisive().all(|a| moved(a, p) == moved(a, q))
                || matches!((decider(p), decider(q)), (Some(a), Some(b)) if a == b && moved(a, p) == moved(a, q))
        };
        let keys = &self.keys;
        match keys.iter().copied().enumerate().min_by_key(|&(_, key)| key) {
            Some((best, low)) if low < current => {
                let certified = current - low > gap
                    && (0..n)
                        .all(|i| i == best || keys[i] - low > gap || same(Some(i), Some(best)));
                certified.then_some(Some(best))
            }
            _ => {
                let certified = (0..n).all(|i| keys[i] - current > gap || same(Some(i), None));
                certified.then_some(None)
            }
        }
    }
}

/// `(⌊t·k·2⁵³⌋, ⌈t·k·2⁵³⌉)` exactly, for `t` in `[0, 1]` and `k` in
/// `0..=2⁶²`; `None` for any other `t`.
fn scaled_floor_ceil(t: f64, k: i64) -> Option<(i128, i128)> {
    if !(0.0..=1.0).contains(&t) {
        return None;
    }
    // t·2⁵³ = mant · 2^exp exactly, with exp ≤ 1 because t ≤ 1.
    let bits = t.to_bits();
    let (frac, biased) = (bits & ((1 << 52) - 1), (bits >> 52) as i32);
    let (mant, exp) = if biased == 0 {
        (frac, -1021)
    } else {
        (frac | 1 << 52, biased - 1022)
    };
    let product = u128::from(mant) * k as u128;
    let (floor, inexact) = match exp {
        1 => (product << 1, false),
        _ if exp <= -128 => (0, product != 0),
        _ => {
            let shift = exp.unsigned_abs();
            (product >> shift, product & ((1 << shift) - 1) != 0)
        }
    };
    let floor = floor as i128;
    Some((floor, floor + i128::from(inexact)))
}

impl ClusterScorer<'_> {
    /// Maximum EMD across attributes of the current cluster.
    pub fn emd(&mut self) -> f64 {
        let (conf, hists) = (self.conf, &self.hists);
        *self.emd.get_or_insert_with(|| conf.emd_of_hists(hists))
    }

    /// Whether [`ClusterScorer::emd`] exceeds `t`.
    pub fn exceeds(&mut self, t: f64) -> bool {
        match self.exact_exceeds(t) {
            Some(verdict) => verdict,
            None => self.emd() > t,
        }
    }

    /// [`ClusterScorer::exceeds`] from the integers, or `None` when the
    /// exact EMD lies within the rounding bound of `t`.
    fn exact_exceeds(&self, t: f64) -> Option<bool> {
        let x = self.exact.as_ref()?;
        let (floor, ceil) = scaled_floor_ceil(t, x.denom)?;
        let (key, bound) = (i128::from(x.key()) << 53, x.bound as i128);
        if key - bound > floor {
            Some(true)
        } else if key + bound < ceil {
            Some(false)
        } else {
            None
        }
    }

    /// The index of the member whose swap for record `inn` gives the
    /// smallest maximum EMD below the current one, the first such member
    /// on ties; `None` when no swap lowers it. This is the f64 walk's
    /// choice, taken from the integers when they certify it.
    pub fn best_swap(&mut self, members: &[usize], inn: usize) -> Option<usize> {
        self.chosen = None;
        if let Some(choice) = self.exact_best_swap(members, inn) {
            return choice;
        }
        let mut best = None;
        let mut best_emd = self.emd();
        for (i, &out) in members.iter().enumerate() {
            if let Some(e) = self.max_below(best_emd, |e, h| e.emd_after_swap(h, out, inn)) {
                (best, best_emd) = (Some(i), e);
            }
        }
        self.chosen = best.map(|i| (members[i], inn, best_emd));
        best
    }

    /// [`ClusterScorer::best_swap`] from the integers, or `None` when two
    /// of the values it compares lie within twice the rounding bound of
    /// each other and their f64 values may order either way. Lanes that
    /// change the same bins as another are the same f64 value, so they
    /// never need the walk.
    fn exact_best_swap(&mut self, members: &[usize], inn: usize) -> Option<Option<usize>> {
        let conf = self.conf;
        let emds = &conf.emds;
        let x = self.exact.as_mut()?;
        let n = members.len();
        let (mut keys, mut rows) = (std::mem::take(&mut x.keys), std::mem::take(&mut x.rows));
        keys.clear();
        keys.resize(n, 0);
        rows.clear();
        rows.resize(n * x.attrs.len(), 0);
        for (((state, w), e), row) in x.attrs.iter().zip(emds).zip(rows.chunks_mut(n.max(1))) {
            if *w == 0 {
                continue;
            }
            let (sum, in_bin) = (state.sum(), e.bin_of(inn));
            for (chunk, lanes) in members.chunks(SWAP_LANES).zip(row.chunks_mut(SWAP_LANES)) {
                let mut bins = [0usize; SWAP_LANES];
                for (b, &r) in bins.iter_mut().zip(chunk) {
                    *b = e.bin_of(r);
                }
                let deltas = state.swap_deltas(&bins[..chunk.len()], in_bin);
                for (key, d) in lanes.iter_mut().zip(deltas) {
                    *key = (sum + d) * w;
                }
            }
            for (key, &k) in keys.iter_mut().zip(row.iter()) {
                *key = (*key).max(k);
            }
        }
        (x.keys, x.rows) = (keys, rows);
        x.certify(emds, members, inn)
    }

    /// Swaps member `out` for record `inn`.
    pub fn swap(&mut self, out: usize, inn: usize) {
        self.hists.remove(self.conf, out);
        self.hists.add(self.conf, inn);
        if let Some(x) = &mut self.exact {
            for ((state, _), e) in x.attrs.iter_mut().zip(&self.conf.emds) {
                state.swap(e.bin_of(out), e.bin_of(inn));
            }
        }
        self.emd = match self.chosen.take() {
            Some((o, i, emd)) if (o, i) == (out, inn) => Some(emd),
            _ => None,
        };
    }

    /// Adds record `inn` to the cluster if that lowers its EMD, and says
    /// whether it did. The cluster's size changes, so from here on only
    /// the f64 walk scores it.
    pub fn add_if_lower(&mut self, inn: usize) -> bool {
        let current = self.emd();
        match self.max_below(current, |e, h| e.emd_after_add(h, inn)) {
            Some(after) => {
                self.hists.add(self.conf, inn);
                (self.exact, self.emd, self.chosen) = (None, Some(after), None);
                true
            }
            None => false,
        }
    }

    /// The maximum over attributes of `walk` on each histogram, if below
    /// `cap`: the walks stop at the first attribute that reaches `cap`,
    /// which goes first next time. They return no NaN and no −0.0, so
    /// the maximum has the bits of the fold in attribute order.
    fn max_below(
        &mut self,
        cap: f64,
        walk: impl Fn(&OrderedEmd, &ClusterHistogram) -> f64,
    ) -> Option<f64> {
        let (emds, hists) = (&self.conf.emds, &self.hists.hists);
        let mut max = 0.0f64;
        for a in (self.lead..emds.len()).chain(0..self.lead) {
            max = max.max(walk(&emds[a], &hists[a]));
            if max >= cap {
                self.lead = a;
                return None;
            }
        }
        Some(max)
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

    /// SplitMix64: seeded draws for the differential tests.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (up to a bias far below what the tests see).
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

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
        let mut members: Vec<usize> = (0..40).step_by(3).collect();
        let mut scorer = conf.scorer(&members);
        let mut hists = conf.histograms(&members);
        for inn in (1..40).step_by(3) {
            assert_eq!(scorer.emd().to_bits(), conf.emd_of_hists(&hists).to_bits());
            let mut grown = hists.clone();
            grown.add(&conf, inn);
            let after = conf.emd_of_hists(&grown);
            assert_eq!(
                scorer
                    .max_below(f64::INFINITY, |e, h| e.emd_after_add(h, inn))
                    .map(f64::to_bits),
                Some(after.to_bits())
            );
            // Growth keeps the grown cluster's walk as the current EMD.
            let mut adding = scorer.clone();
            assert_eq!(adding.add_if_lower(inn), after < scorer.emd());
            if after < scorer.emd() {
                assert_eq!(adding.emd().to_bits(), after.to_bits());
            }
            let i = inn % members.len();
            scorer.swap(members[i], inn);
            hists.remove(&conf, members[i]);
            hists.add(&conf, inn);
            members[i] = inn;
        }
    }

    /// Algorithm 2's swap choice in f64, as the refinement loop made it
    /// before the exact scorer: the first member of the strictly smallest
    /// `emd_after_swap` below the cluster's EMD.
    fn reference_best_swap(
        conf: &Confidential,
        hists: &ClusterHists,
        members: &[usize],
        inn: usize,
    ) -> Option<usize> {
        let mut best = None;
        let mut best_emd = conf.emd_of_hists(hists);
        for (i, &out) in members.iter().enumerate() {
            let e = conf.emd_after_swap(hists, out, inn);
            if e < best_emd {
                (best, best_emd) = (Some(i), e);
            }
        }
        best
    }

    /// `n` records over one domain of `m` bins per entry of `domains`.
    /// Domains under six bins are uniform, which makes exact ties between
    /// different swaps common. In larger ones every bin is used and the
    /// other records fall on five atom bins half of the time, so the
    /// global counts carry heavy ties.
    fn tied_model(rng: &mut Draws, domains: &[usize], n: usize) -> Confidential {
        let emds = domains
            .iter()
            .map(|&m| {
                let atoms: Vec<usize> = (0..5).map(|_| rng.below(m)).collect();
                let column: Vec<f64> = (0..n)
                    .map(|r| {
                        let bin = match r {
                            r if r < m || m < 6 => r % m,
                            _ if rng.unit() < 0.5 => atoms[rng.below(atoms.len())],
                            _ => rng.below(m),
                        };
                        bin as f64 * 3.0
                    })
                    .collect();
                OrderedEmd::new(&column)
            })
            .collect();
        Confidential::from_emds(emds).unwrap()
    }

    #[test]
    fn exact_decisions_match_the_f64_walk() {
        let (mut certified, mut walked) = (0, 0);
        for (case, m) in [2usize, 3, 5, 9, 17, 300, 2000].into_iter().enumerate() {
            for attrs in 1..=3 {
                let mut rng = Draws(1_000 * case as u64 + attrs as u64);
                // A third attribute has one bin: its EMD is always 0.
                let domains = [m, (m / 7).max(2), 1];
                let conf = tied_model(&mut rng, &domains[..attrs], 2 * m + 60);
                let n = conf.n_bound();
                for size in [2, 5, 13, 50] {
                    let mut members: Vec<usize> = Vec::new();
                    while members.len() < size {
                        let r = rng.below(n);
                        if !members.contains(&r) {
                            members.push(r);
                        }
                    }
                    let mut scorer = conf.scorer(&members);
                    let mut hists = conf.histograms(&members);
                    for _ in 0..20 {
                        let inn = loop {
                            let r = rng.below(n);
                            if !members.contains(&r) {
                                break r;
                            }
                        };
                        let want = reference_best_swap(&conf, &hists, &members, inn);
                        match scorer.exact_best_swap(&members, inn) {
                            Some(_) => certified += 1,
                            None => walked += 1,
                        }
                        assert_eq!(
                            scorer.best_swap(&members, inn),
                            want,
                            "m={m} attributes={attrs} |C|={size} in {inn}"
                        );
                        let emd = conf.emd_of_hists(&hists);
                        for t in [emd, emd.next_up(), emd.next_down(), rng.unit()] {
                            assert_eq!(scorer.exceeds(t), emd > t, "m={m} t={t} emd={emd}");
                        }
                        // Follow the chosen swap, or any swap when none helps.
                        let i = want.unwrap_or_else(|| rng.below(members.len()));
                        scorer.swap(members[i], inn);
                        hists.remove(&conf, members[i]);
                        hists.add(&conf, inn);
                        members[i] = inn;
                    }
                }
            }
        }
        // Both paths ran. Uniform counts over two to five bins tie often,
        // yet the integers still decide most choices.
        assert!(
            walked > 0 && certified > 4 * walked,
            "{certified} certified, {walked} walked"
        );
    }

    #[test]
    fn equal_emds_on_two_outgoing_bins_take_the_walk() {
        // Five values twice each; the cluster holds both records of the end
        // values 0 and 4. Swapping either end out for a 2 moves the same
        // mass by the same distance, so both swaps give exactly the same
        // EMD, lower than the cluster's, and only the f64 walk can tell
        // which member it picks first.
        let col = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        let conf = Confidential::single(OrderedEmd::new(&col));
        let members = [0, 1, 8, 9];
        let hists = conf.histograms(&members);
        let mut scorer = conf.scorer(&members);
        assert_eq!(scorer.exact_best_swap(&members, 4), None);
        let want = reference_best_swap(&conf, &hists, &members, 4);
        assert!(want.is_some());
        assert_eq!(scorer.best_swap(&members, 4), want);
        // Swaps within one bin are the same f64 value and need no walk.
        let pair = [0, 1];
        let mut scorer = conf.scorer(&pair);
        assert_eq!(scorer.exact_best_swap(&pair, 4), Some(Some(0)));
    }

    #[test]
    fn exact_emd_equal_to_t_takes_the_walk() {
        // One record of two values: EMD = 1/2 exactly.
        let conf = Confidential::single(OrderedEmd::new(&[0.0, 1.0]));
        let mut scorer = conf.scorer(&[0]);
        let emd = conf.emd_of_records(&[0]);
        assert_eq!(scorer.exact_exceeds(0.5), None);
        assert_eq!(scorer.exceeds(0.5), emd > 0.5);
        assert_eq!(scorer.exact_exceeds(0.25), Some(true));
        assert_eq!(scorer.exact_exceeds(0.75), Some(false));
        // EMD = 1/5 exactly, next to the double nearest 0.2.
        let col = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        let conf = Confidential::single(OrderedEmd::new(&col));
        let members = [0, 1, 8, 9];
        let mut scorer = conf.scorer(&members);
        assert_eq!(scorer.exact_exceeds(0.2), None);
        assert_eq!(scorer.exceeds(0.2), conf.emd_of_records(&members) > 0.2);
    }

    #[test]
    fn counts_too_large_to_hold_exactly_take_the_walk() {
        // 2,000 bins of 4·10⁹ records each (N = 8·10¹²), bound to 400
        // records. A cluster of 300 puts (m − 1)·|C|·N past 2⁶²; a cluster
        // of 30 fits one attribute but not the product over two.
        let m = 2000;
        let values: Vec<f64> = (0..m).map(|v| v as f64).collect();
        let global = OrderedEmd::try_from_global(values, vec![4_000_000_000; m]).unwrap();
        let mut rng = Draws(5);
        let column: Vec<f64> = (0..400).map(|_| rng.below(m) as f64).collect();
        let bound = global.rebind(&column).unwrap();
        let one = Confidential::from_emds(vec![bound.clone()]).unwrap();
        let two = Confidential::from_emds(vec![bound.clone(), bound]).unwrap();
        assert!(one.scorer(&(0..30).collect::<Vec<_>>()).exact.is_some());
        for (conf, size) in [(&one, 300), (&two, 30)] {
            let mut members: Vec<usize> = (0..size).collect();
            let mut scorer = conf.scorer(&members);
            assert!(
                scorer.exact.is_none(),
                "{} attribute(s)",
                conf.n_attributes()
            );
            let mut hists = conf.histograms(&members);
            for inn in size..size + 40 {
                assert_eq!(scorer.exact_best_swap(&members, inn), None);
                let want = reference_best_swap(conf, &hists, &members, inn);
                assert_eq!(scorer.best_swap(&members, inn), want);
                let emd = conf.emd_of_hists(&hists);
                assert_eq!(scorer.exact_exceeds(emd), None);
                assert_eq!(scorer.exceeds(emd.next_down()), emd > emd.next_down());
                if let Some(i) = want {
                    scorer.swap(members[i], inn);
                    hists.remove(conf, members[i]);
                    hists.add(conf, inn);
                    members[i] = inn;
                }
            }
        }
    }

    #[test]
    fn a_swap_the_walk_did_not_choose_is_walked_afresh() {
        // Two attributes of 2,000 bins with N = 8·10¹²: no exact state, so
        // the walk makes every choice and keeps its EMD for that swap only.
        let m = 2000;
        let values: Vec<f64> = (0..m).map(|v| v as f64).collect();
        let global = OrderedEmd::try_from_global(values, vec![4_000_000_000; m]).unwrap();
        let mut rng = Draws(7);
        let column: Vec<f64> = (0..400).map(|_| rng.below(m) as f64).collect();
        let bound = global.rebind(&column).unwrap();
        let conf = Confidential::from_emds(vec![bound.clone(), bound]).unwrap();
        let mut members: Vec<usize> = (0..30).collect();
        let mut scorer = conf.scorer(&members);
        assert!(scorer.exact.is_none());
        let mut hists = conf.histograms(&members);
        let mut unchosen = 0;
        for inn in 30..90 {
            // Every third candidate swaps out a member the walk did not choose.
            let i = match scorer.best_swap(&members, inn) {
                Some(i) if inn % 3 > 0 => i,
                Some(i) => {
                    unchosen += 1;
                    (i + 1) % members.len()
                }
                None => continue,
            };
            scorer.swap(members[i], inn);
            hists.remove(&conf, members[i]);
            hists.add(&conf, inn);
            members[i] = inn;
            let emd = conf.emd_of_hists(&hists);
            assert_eq!(scorer.emd().to_bits(), emd.to_bits(), "in {inn}");
        }
        assert!(unchosen > 0);
    }

    #[test]
    fn scaled_floor_ceil_is_exact() {
        let unit = 1i128 << 53;
        assert_eq!(
            scaled_floor_ceil(0.5, 7),
            Some((7 * unit / 2, 7 * unit / 2))
        );
        assert_eq!(scaled_floor_ceil(1.0, 9), Some((9 * unit, 9 * unit)));
        let limit = i128::from(EXACT_LIMIT) * unit;
        assert_eq!(scaled_floor_ceil(1.0, EXACT_LIMIT), Some((limit, limit)));
        assert_eq!(scaled_floor_ceil(0.0, 9), Some((0, 0)));
        // 0.2 is 3602879701896397 / 2⁵⁴: times 3 · 2⁵³ that is 10808639105689191 / 2.
        assert_eq!(
            scaled_floor_ceil(0.2, 3),
            Some((5_404_319_552_844_595, 5_404_319_552_844_596))
        );
        // the smallest subnormal, 2⁻¹⁰⁷⁴, times 2⁶² · 2⁵³ is below one
        assert_eq!(scaled_floor_ceil(f64::from_bits(1), 1 << 62), Some((0, 1)));
        for t in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(scaled_floor_ceil(t, 10), None);
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
