//! Earth Mover's Distance (EMD) for t-closeness.
//!
//! For a numerical (or ordinal) confidential attribute taking the distinct
//! sorted values `v₁ < v₂ < … < v_m` in the data set, the ground distance
//! between values is the *ordered distance* `|i − j| / (m − 1)` and the EMD
//! between two distributions `P`, `Q` over those values reduces to the
//! closed form (Li et al., ICDE 2007):
//!
//! ```text
//! EMD(P, Q) = (1 / (m−1)) · Σᵢ | Σ_{j ≤ i} (p_j − q_j) |
//! ```
//!
//! t-Closeness compares, for every equivalence class `C` of the anonymized
//! table, the distribution of the confidential attribute within `C` against
//! its distribution over the whole table `T`. [`OrderedEmd`] is fitted once
//! on the whole attribute column (fixing the value domain and the global
//! distribution `Q`) and then evaluates `EMD(C, T)` for arbitrary clusters,
//! either from a set of record indices or incrementally through a
//! [`ClusterHistogram`] — the work-horse of the k-anonymity-first algorithm,
//! which repeatedly tries single-record swaps.

use std::collections::HashMap;
use std::fmt;

/// Errors from fitting or evaluating an EMD over a confidential attribute.
///
/// The panicking entry points ([`OrderedEmd::new`], [`ClusterHistogram::remove`])
/// are kept for callers holding data already validated upstream; the `try_*`
/// variants surface the same conditions as values for callers handling
/// untrusted input (CSV files, CLI arguments).
#[derive(Debug, Clone, PartialEq)]
pub enum EmdError {
    /// The confidential attribute column has no records, so no distribution
    /// can be fitted.
    EmptyColumn,
    /// The column contains a NaN or infinite value at the given index.
    NonFinite {
        /// Record index of the offending value.
        index: usize,
        /// The offending value itself.
        value: f64,
    },
    /// Two distributions compared under one domain have different lengths.
    DomainMismatch {
        /// Domain size `m` the evaluator was fitted on.
        expected: usize,
        /// Length of the distribution actually supplied.
        got: usize,
    },
    /// A record was removed from a histogram bin that is already empty.
    Underflow {
        /// The bin that would have gone negative.
        bin: usize,
    },
    /// A domain supplied to [`OrderedEmd::try_from_global`] is not strictly
    /// ascending at the given position.
    UnsortedDomain {
        /// Index of the first out-of-order value.
        index: usize,
    },
    /// A value being bound to a fitted domain is not one of its distinct
    /// values (the global fit never saw it).
    ValueNotInDomain {
        /// Record index of the offending value.
        index: usize,
        /// The offending value itself.
        value: f64,
    },
}

impl fmt::Display for EmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmdError::EmptyColumn => {
                write!(f, "EMD requires a non-empty attribute column")
            }
            EmdError::NonFinite { index, value } => {
                write!(
                    f,
                    "EMD requires finite attribute values; record {index} is {value}"
                )
            }
            EmdError::DomainMismatch { expected, got } => {
                write!(
                    f,
                    "distribution has {got} bins but the domain has {expected}"
                )
            }
            EmdError::Underflow { bin } => {
                write!(f, "histogram underflow in bin {bin}")
            }
            EmdError::UnsortedDomain { index } => {
                write!(
                    f,
                    "domain values must be strictly ascending (index {index})"
                )
            }
            EmdError::ValueNotInDomain { index, value } => {
                write!(
                    f,
                    "record {index} has value {value} which the fitted domain never saw"
                )
            }
        }
    }
}

impl std::error::Error for EmdError {}

/// Fitted ordered-EMD evaluator for one confidential attribute.
#[derive(Debug, Clone)]
pub struct OrderedEmd {
    /// Distinct attribute values, ascending. `values.len() == m`.
    values: Vec<f64>,
    /// Bin (index into `values`) of every record of the fitting column.
    record_bins: Vec<u32>,
    /// Number of records per bin over the whole data set.
    global_counts: Vec<u32>,
    /// Total number of records.
    n: usize,
}

impl OrderedEmd {
    /// Fits the evaluator on the confidential attribute column of the whole
    /// data set (one entry per record).
    ///
    /// # Panics
    /// Panics if `column` is empty or contains non-finite values. Use
    /// [`OrderedEmd::try_new`] to handle those cases as errors instead.
    pub fn new(column: &[f64]) -> Self {
        match Self::try_new(column) {
            Ok(emd) => emd,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`OrderedEmd::new`] for untrusted input.
    ///
    /// Returns [`EmdError::EmptyColumn`] for an empty column and
    /// [`EmdError::NonFinite`] when any value is NaN or infinite. A
    /// single-category column (all records share one value) is *valid*:
    /// the fitted domain has `m == 1` and every cluster's EMD is 0, i.e.
    /// t-closeness holds trivially — the attribute reveals nothing.
    pub fn try_new(column: &[f64]) -> Result<Self, EmdError> {
        if column.is_empty() {
            return Err(EmdError::EmptyColumn);
        }
        if let Some((index, &value)) = column.iter().enumerate().find(|(_, x)| !x.is_finite()) {
            return Err(EmdError::NonFinite { index, value });
        }
        let mut values: Vec<f64> = column.to_vec();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        values.dedup();

        // Map each record to its bin via binary search on the dense domain.
        let record_bins: Vec<u32> = column
            .iter()
            .map(|x| {
                values
                    .binary_search_by(|v| v.partial_cmp(x).expect("finite"))
                    .expect("every record value is in the domain") as u32
            })
            .collect();

        let mut global_counts = vec![0u32; values.len()];
        for &b in &record_bins {
            global_counts[b as usize] += 1;
        }
        Ok(OrderedEmd {
            values,
            record_bins,
            global_counts,
            n: column.len(),
        })
    }

    /// Fits the evaluator from pre-computed ranks (used for ordinal
    /// categorical attributes where `column[r]` is the category code and
    /// code order is the semantic order).
    ///
    /// # Panics
    /// Panics if `codes` is empty; use [`OrderedEmd::try_from_codes`] to
    /// handle that case as an error instead.
    pub fn from_codes(codes: &[u32]) -> Self {
        let as_f64: Vec<f64> = codes.iter().map(|&c| c as f64).collect();
        Self::new(&as_f64)
    }

    /// Fallible variant of [`OrderedEmd::from_codes`] for untrusted input.
    pub fn try_from_codes(codes: &[u32]) -> Result<Self, EmdError> {
        let as_f64: Vec<f64> = codes.iter().map(|&c| c as f64).collect();
        Self::try_new(&as_f64)
    }

    /// Rebuilds a fitted evaluator from a frozen global state: the sorted
    /// distinct `values` and the per-bin `global_counts` of the *whole*
    /// data set (as accumulated by a [`DomainAccumulator`] or taken from
    /// another evaluator). The result has no bound records — call
    /// [`OrderedEmd::rebind`] to attach a working set.
    ///
    /// Errors on an empty or unsorted/duplicated domain, non-finite values,
    /// a length mismatch between `values` and `global_counts`, or an empty
    /// bin (a domain value the global distribution never saw).
    pub fn try_from_global(values: Vec<f64>, global_counts: Vec<u32>) -> Result<Self, EmdError> {
        if values.is_empty() {
            return Err(EmdError::EmptyColumn);
        }
        if let Some((index, &value)) = values.iter().enumerate().find(|(_, x)| !x.is_finite()) {
            return Err(EmdError::NonFinite { index, value });
        }
        if let Some(index) = values.windows(2).position(|w| w[0] >= w[1]) {
            return Err(EmdError::UnsortedDomain { index: index + 1 });
        }
        if global_counts.len() != values.len() {
            return Err(EmdError::DomainMismatch {
                expected: values.len(),
                got: global_counts.len(),
            });
        }
        if let Some(bin) = global_counts.iter().position(|&c| c == 0) {
            return Err(EmdError::Underflow { bin });
        }
        let n = global_counts.iter().map(|&c| c as usize).sum();
        Ok(OrderedEmd {
            values,
            record_bins: Vec::new(),
            global_counts,
            n,
        })
    }

    /// A copy of this evaluator whose per-record bins cover `column`
    /// instead of the fitting column, keeping the global domain and
    /// distribution frozen.
    ///
    /// This is the fit/apply split: fit once on the whole data set, rebind
    /// to any record subset (a shard) and evaluate cluster-to-*table* EMDs
    /// there. Errors when a value is non-finite or was never seen by the
    /// global fit ([`EmdError::ValueNotInDomain`]).
    pub fn rebind(&self, column: &[f64]) -> Result<OrderedEmd, EmdError> {
        let mut record_bins = Vec::with_capacity(column.len());
        for (index, &value) in column.iter().enumerate() {
            if !value.is_finite() {
                return Err(EmdError::NonFinite { index, value });
            }
            let bin = self
                .values
                .binary_search_by(|v| v.partial_cmp(&value).expect("finite"))
                .map_err(|_| EmdError::ValueNotInDomain { index, value })?;
            record_bins.push(bin as u32);
        }
        Ok(OrderedEmd {
            values: self.values.clone(),
            record_bins,
            global_counts: self.global_counts.clone(),
            n: self.n,
        })
    }

    /// [`OrderedEmd::rebind`] for ordinal category codes.
    pub fn rebind_codes(&self, codes: &[u32]) -> Result<OrderedEmd, EmdError> {
        let as_f64: Vec<f64> = codes.iter().map(|&c| c as f64).collect();
        self.rebind(&as_f64)
    }

    /// Number of distinct values `m` in the domain.
    pub fn m(&self) -> usize {
        self.values.len()
    }

    /// Number of records the evaluator was fitted on — the denominator of
    /// the global distribution, *not* the bound working set (see
    /// [`OrderedEmd::n_bound`]).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of records currently bound for per-record evaluation
    /// ([`OrderedEmd::bin_of`]). Equal to [`OrderedEmd::n`] for an
    /// evaluator fitted directly on a column; the shard size after
    /// [`OrderedEmd::rebind`]; 0 after [`OrderedEmd::try_from_global`].
    pub fn n_bound(&self) -> usize {
        self.record_bins.len()
    }

    /// Per-bin record counts of the whole data set (the frozen global
    /// state next to [`OrderedEmd::values`]).
    pub fn global_counts(&self) -> &[u32] {
        &self.global_counts
    }

    /// The sorted distinct values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The frozen global state as plain data: `(values, global_counts)` —
    /// exactly the pair [`OrderedEmd::try_from_global`] reconstructs an
    /// evaluator from. Per-record bins are *not* part of the view; they
    /// are a binding to one working set and are recomputed by
    /// [`OrderedEmd::rebind`].
    pub fn to_global_parts(&self) -> (&[f64], &[u32]) {
        (&self.values, &self.global_counts)
    }

    /// Bin index of record `r` of the fitting column.
    pub fn bin_of(&self, r: usize) -> usize {
        self.record_bins[r] as usize
    }

    /// `EMD(C, T)` for the cluster given by record indices (duplicates
    /// would bias the distribution and are the caller's responsibility).
    pub fn emd_of_records(&self, records: &[usize]) -> f64 {
        let mut hist = ClusterHistogram::empty(self.m());
        for &r in records {
            hist.add(self.bin_of(r));
        }
        self.emd(&hist)
    }

    /// `EMD(C, T)` for a cluster histogram maintained incrementally.
    ///
    /// Cost `O(m)`. Empty clusters have EMD 0 by convention.
    pub fn emd(&self, cluster: &ClusterHistogram) -> f64 {
        debug_assert_eq!(
            cluster.counts.len(),
            self.m(),
            "histogram fitted on another domain"
        );
        self.cumulative_emd(cluster, cluster.size, &[])
    }

    /// A bin's term `c/|C| − g/N` of the cumulative sum: the bin holds
    /// `count` of the cluster's `cn` records and `global` of the data set's.
    /// Every evaluator here forms its terms through this one expression, so
    /// they round alike.
    #[inline]
    fn term(&self, count: u32, global: u32, cn: f64) -> f64 {
        count as f64 / cn - global as f64 / self.n as f64
    }

    /// The ordered EMD of a cluster of `size` records with `cluster`'s
    /// counts, except at the bins of `changed` (ascending), which hold the
    /// paired counts instead: one cumulative pass over the bins.
    fn cumulative_emd(
        &self,
        cluster: &ClusterHistogram,
        size: usize,
        changed: &[(usize, u32)],
    ) -> f64 {
        let m = self.m();
        if m <= 1 || size == 0 {
            return 0.0;
        }
        let cn = size as f64;
        let (counts, global) = (&cluster.counts[..m], &self.global_counts[..m]);
        let mut cum = 0.0f64;
        let mut total = 0.0f64;
        let mut add = |count: u32, g: u32| {
            cum += self.term(count, g, cn);
            total += cum.abs();
        };
        // The i = m term contributes |cum_m| = 0 for true distributions; we
        // include all m terms to match the formula literally. Plain runs
        // between the changed bins keep the loop free of per-bin tests.
        let mut next = 0;
        for &(bin, count) in changed {
            for (&c, &g) in counts[next..bin].iter().zip(&global[next..bin]) {
                add(c, g);
            }
            add(count, global[bin]);
            next = bin + 1;
        }
        for (&c, &g) in counts[next..].iter().zip(&global[next..]) {
            add(c, g);
        }
        total / (m as f64 - 1.0)
    }

    /// EMD between two explicit distributions over this domain, by the same
    /// ordered ground distance. Both slices must have length `m` and sum to
    /// 1 (up to rounding).
    ///
    /// # Panics
    /// Panics on a length mismatch; use [`OrderedEmd::try_emd_between`] to
    /// handle it as an error instead.
    pub fn emd_between(&self, p: &[f64], q: &[f64]) -> f64 {
        match self.try_emd_between(p, q) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`OrderedEmd::emd_between`]: returns
    /// [`EmdError::DomainMismatch`] instead of panicking when either
    /// distribution's length differs from the fitted domain size `m`.
    pub fn try_emd_between(&self, p: &[f64], q: &[f64]) -> Result<f64, EmdError> {
        for dist in [p, q] {
            if dist.len() != self.m() {
                return Err(EmdError::DomainMismatch {
                    expected: self.m(),
                    got: dist.len(),
                });
            }
        }
        Ok(self.emd_between_unchecked(p, q))
    }

    fn emd_between_unchecked(&self, p: &[f64], q: &[f64]) -> f64 {
        let m = self.m();
        if m <= 1 {
            return 0.0;
        }
        let mut cum = 0.0;
        let mut total = 0.0;
        for i in 0..m {
            cum += p[i] - q[i];
            total += cum.abs();
        }
        total / (m as f64 - 1.0)
    }

    /// The EMD obtained after hypothetically swapping record `out` for
    /// record `inn` in `cluster`, without mutating or copying it: one
    /// `O(m)` pass with the two adjusted counts read inline.
    ///
    /// # Panics
    /// Panics if `out`'s bin is empty in `cluster` (histogram underflow).
    pub fn emd_after_swap(&self, cluster: &ClusterHistogram, out: usize, inn: usize) -> f64 {
        let bin_out = self.bin_of(out);
        let bin_in = self.bin_of(inn);
        if bin_out == bin_in {
            return self.emd(cluster);
        }
        let out = (bin_out, cluster.count_after_removal(bin_out));
        let inn = (bin_in, cluster.counts[bin_in] + 1);
        let changed = if bin_out < bin_in {
            [out, inn]
        } else {
            [inn, out]
        };
        self.cumulative_emd(cluster, cluster.size, &changed)
    }
}

/// Number of outgoing bins one [`SwapScorer::score_lanes`] walk scores.
pub const SWAP_LANES: usize = 8;

/// A cluster's ordered-EMD state kept ready for scoring single-record
/// changes — the inner loop of Algorithm 2's refinement.
///
/// Besides the histogram it caches every bin's term `c_i/|C| − g_i/N` and
/// the running `(cum, total)` prefix of [`OrderedEmd::emd`]'s summation.
/// Swapping a record out of bin `a` for one in bin `b` keeps `|C|`, so it
/// changes only terms `a` and `b`: the swapped cluster's summation equals
/// the cached prefix up to bin `min(a, b) − 1` and from there adds the
/// cached term at every other bin. [`SwapScorer::score_lanes`] runs that
/// continuation for up to [`SWAP_LANES`] outgoing bins in one walk, each
/// lane with its own `(cum, total)`. Every lane therefore performs exactly
/// the f64 operations, in the same order, that
/// [`OrderedEmd::emd_after_swap`] performs on the swapped histogram, and
/// returns the same bits.
#[derive(Debug, Clone)]
pub struct SwapScorer<'a> {
    emd: &'a OrderedEmd,
    hist: ClusterHistogram,
    /// `terms[i]` = bin `i`'s term `c_i/|C| − g_i/N` at the current counts.
    terms: Vec<f64>,
    /// `(cum, total)` of the summation after bin `i`.
    prefix: Vec<(f64, f64)>,
}

impl<'a> SwapScorer<'a> {
    /// Scorer for the cluster with histogram `hist` under `emd`'s domain.
    pub fn new(emd: &'a OrderedEmd, hist: ClusterHistogram) -> Self {
        debug_assert_eq!(
            hist.counts.len(),
            emd.m(),
            "histogram fitted on another domain"
        );
        let m = emd.m();
        let mut scorer = SwapScorer {
            emd,
            hist,
            terms: vec![0.0; m],
            prefix: vec![(0.0, 0.0); m],
        };
        scorer.refresh_all();
        scorer
    }

    /// The cluster's histogram.
    pub fn histogram(&self) -> &ClusterHistogram {
        &self.hist
    }

    /// `EMD(C, T)` of the current cluster; bit-identical to
    /// [`OrderedEmd::emd`] on [`SwapScorer::histogram`].
    pub fn emd(&self) -> f64 {
        let m = self.terms.len();
        if m <= 1 || self.hist.size == 0 {
            return 0.0;
        }
        self.prefix[m - 1].1 / (m as f64 - 1.0)
    }

    /// Lane `l` of the result is the EMD after swapping one record of bin
    /// `out_bins[l]` for one record of bin `in_bin` — bit-identical to
    /// [`OrderedEmd::emd_after_swap`] for such a pair. Lanes past
    /// `out_bins.len()` hold the unswapped [`SwapScorer::emd`].
    ///
    /// One walk, allocation-free, from the lowest bin any lane changes.
    ///
    /// # Panics
    /// Panics if `out_bins` has more than [`SWAP_LANES`] entries, or if an
    /// outgoing bin other than `in_bin` is empty (histogram underflow).
    pub fn score_lanes(&self, out_bins: &[usize], in_bin: usize) -> [f64; SWAP_LANES] {
        assert!(
            out_bins.len() <= SWAP_LANES,
            "at most {SWAP_LANES} outgoing bins per walk"
        );
        // Lane l rewrites bin outs[l] to out_terms[l] and bin in_bin to
        // in_term; a lane whose member already sits in in_bin (or that is
        // unused) keeps every cached term, exactly as emd_after_swap
        // returns the unswapped EMD for a same-bin pair.
        const KEEP: usize = usize::MAX;
        let cn = self.hist.size as f64;
        let mut outs = [KEEP; SWAP_LANES];
        let mut out_terms = [0.0f64; SWAP_LANES];
        for (l, &b) in out_bins.iter().enumerate() {
            if b != in_bin {
                outs[l] = b;
                out_terms[l] = self.term(b, self.hist.count_after_removal(b), cn);
            }
        }
        let Some(lo) = outs
            .iter()
            .filter(|&&b| b != KEEP)
            .min()
            .map(|&b| b.min(in_bin))
        else {
            return [self.emd(); SWAP_LANES];
        };
        let in_term = self.term(in_bin, self.hist.counts[in_bin] + 1, cn);

        let (cum0, total0) = if lo == 0 {
            (0.0, 0.0)
        } else {
            self.prefix[lo - 1]
        };
        let mut cum = [cum0; SWAP_LANES];
        let mut total = [total0; SWAP_LANES];
        // The changed bins ascending (duplicates are skipped below); between
        // them every lane adds the same cached term.
        let mut marks = [in_bin; SWAP_LANES + 1];
        for (mark, &b) in marks.iter_mut().zip(&outs) {
            if b != KEEP {
                *mark = b;
            }
        }
        marks.sort_unstable();
        let mut next = lo;
        for &s in &marks {
            if s < next {
                continue;
            }
            add_terms(&mut cum, &mut total, &self.terms[next..s]);
            for l in 0..SWAP_LANES {
                let t = if s == outs[l] {
                    out_terms[l]
                } else if s == in_bin && outs[l] != KEEP {
                    in_term
                } else {
                    self.terms[s]
                };
                cum[l] += t;
                total[l] += cum[l].abs();
            }
            next = s + 1;
        }
        add_terms(&mut cum, &mut total, &self.terms[next..]);
        let denom = self.terms.len() as f64 - 1.0;
        total.map(|t| t / denom)
    }

    /// Applies the swap of one record of bin `out_bin` for one of bin
    /// `in_bin`: two terms change and the prefix is re-summed from
    /// `min(out_bin, in_bin)`.
    ///
    /// # Panics
    /// Panics if `out_bin` is empty (histogram underflow).
    pub fn swap(&mut self, out_bin: usize, in_bin: usize) {
        if out_bin == in_bin {
            return;
        }
        self.hist.remove(out_bin);
        self.hist.add(in_bin);
        let cn = self.hist.size as f64;
        for b in [out_bin, in_bin] {
            self.terms[b] = self.term(b, self.hist.counts[b], cn);
        }
        self.sum_from(out_bin.min(in_bin));
    }

    /// The EMD after adding one record of bin `in_bin` (the cluster grows,
    /// so every term changes: one full pass). Bit-identical to
    /// [`OrderedEmd::emd`] on the grown histogram.
    pub fn emd_after_add(&self, in_bin: usize) -> f64 {
        let grown = (in_bin, self.hist.counts[in_bin] + 1);
        self.emd
            .cumulative_emd(&self.hist, self.hist.size + 1, &[grown])
    }

    /// Adds one record of bin `in_bin` and recomputes every term.
    pub fn add(&mut self, in_bin: usize) {
        self.hist.add(in_bin);
        self.refresh_all();
    }

    /// Bin `b`'s term when it holds `count` of the cluster's `cn` records.
    fn term(&self, b: usize, count: u32, cn: f64) -> f64 {
        self.emd.term(count, self.emd.global_counts[b], cn)
    }

    fn refresh_all(&mut self) {
        let cn = self.hist.size as f64;
        for (b, &count) in self.hist.counts.iter().enumerate() {
            self.terms[b] = self.term(b, count, cn);
        }
        self.sum_from(0);
    }

    /// Re-runs [`OrderedEmd::emd`]'s summation from bin `lo` on.
    fn sum_from(&mut self, lo: usize) {
        let (mut cum, mut total) = if lo == 0 {
            (0.0, 0.0)
        } else {
            self.prefix[lo - 1]
        };
        for (&t, p) in self.terms[lo..].iter().zip(&mut self.prefix[lo..]) {
            cum += t;
            total += cum.abs();
            *p = (cum, total);
        }
    }
}

/// Continues every lane's summation over `terms`, which no lane changes.
/// Kept out of line: compiled on its own, the lane loop becomes packed
/// vector code, which it does not when inlined into the walk.
#[inline(never)]
fn add_terms(cum: &mut [f64; SWAP_LANES], total: &mut [f64; SWAP_LANES], terms: &[f64]) {
    for &t in terms {
        for l in 0..SWAP_LANES {
            cum[l] += t;
            total[l] += cum[l].abs();
        }
    }
}

/// Mergeable accumulator of a confidential attribute's *global* value
/// distribution, for fitting an [`OrderedEmd`] without ever holding the
/// whole column in memory.
///
/// Feed it one shard at a time (or accumulate shards independently and
/// [`DomainAccumulator::merge`] them — the result is order-independent),
/// then [`DomainAccumulator::finalize`] into an evaluator carrying the
/// frozen domain and global distribution. The finalized evaluator has no
/// bound records; [`OrderedEmd::rebind`] attaches each working set.
///
/// Values are keyed by their exact bit pattern while accumulating; equal
/// values that compare `==` under distinct bit patterns (`-0.0` vs `0.0`)
/// are collapsed into one bin at finalization, matching
/// [`OrderedEmd::try_new`]'s `sort + dedup` semantics.
#[derive(Debug, Clone, Default)]
pub struct DomainAccumulator {
    counts: HashMap<u64, u32>,
    n: usize,
}

impl DomainAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records accumulated so far.
    pub fn n(&self) -> usize {
        self.n
    }

    /// True when no record has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Accumulates a single value. `index` is the record's absolute index,
    /// used only to report the position of a non-finite value.
    pub fn add(&mut self, value: f64, index: usize) -> Result<(), EmdError> {
        if !value.is_finite() {
            return Err(EmdError::NonFinite { index, value });
        }
        *self.counts.entry(value.to_bits()).or_insert(0) += 1;
        self.n += 1;
        Ok(())
    }

    /// Accumulates one shard of the column. `index_offset` is the absolute
    /// index of the shard's first record, used only to report the true
    /// position of a non-finite value.
    pub fn add_column(&mut self, column: &[f64], index_offset: usize) -> Result<(), EmdError> {
        if let Some((i, &value)) = column.iter().enumerate().find(|(_, x)| !x.is_finite()) {
            return Err(EmdError::NonFinite {
                index: index_offset + i,
                value,
            });
        }
        for &x in column {
            *self.counts.entry(x.to_bits()).or_insert(0) += 1;
        }
        self.n += column.len();
        Ok(())
    }

    /// Accumulates one shard of ordinal category codes.
    pub fn add_codes(&mut self, codes: &[u32]) {
        for &c in codes {
            *self.counts.entry((c as f64).to_bits()).or_insert(0) += 1;
        }
        self.n += codes.len();
    }

    /// Merges another accumulator into this one (disjoint shard union).
    pub fn merge(&mut self, other: &DomainAccumulator) {
        for (&bits, &c) in &other.counts {
            *self.counts.entry(bits).or_insert(0) += c;
        }
        self.n += other.n;
    }

    /// Freezes the accumulated distribution into an [`OrderedEmd`] with no
    /// bound records. Errors with [`EmdError::EmptyColumn`] when nothing
    /// was accumulated.
    pub fn finalize(&self) -> Result<OrderedEmd, EmdError> {
        if self.n == 0 {
            return Err(EmdError::EmptyColumn);
        }
        let mut pairs: Vec<(f64, u32)> = self
            .counts
            .iter()
            .map(|(&bits, &c)| (f64::from_bits(bits), c))
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        // Collapse ==-equal values with distinct bit patterns (-0.0 / 0.0).
        let mut values: Vec<f64> = Vec::with_capacity(pairs.len());
        let mut global_counts: Vec<u32> = Vec::with_capacity(pairs.len());
        for (v, c) in pairs {
            match values.last() {
                Some(&last) if last == v => *global_counts.last_mut().expect("non-empty") += c,
                _ => {
                    values.push(v);
                    global_counts.push(c);
                }
            }
        }
        OrderedEmd::try_from_global(values, global_counts)
    }
}

/// Incrementally maintained histogram of a cluster over an [`OrderedEmd`]
/// domain. Cheap to clone (one `Vec<u32>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterHistogram {
    counts: Vec<u32>,
    size: usize,
}

impl ClusterHistogram {
    /// Empty histogram over a domain with `m` bins.
    pub fn empty(m: usize) -> Self {
        ClusterHistogram {
            counts: vec![0; m],
            size: 0,
        }
    }

    /// Histogram of the given records under `emd`'s domain.
    pub fn of_records(emd: &OrderedEmd, records: &[usize]) -> Self {
        let mut h = Self::empty(emd.m());
        for &r in records {
            h.add(emd.bin_of(r));
        }
        h
    }

    /// Number of records currently in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Per-bin record counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Adds one record falling in `bin`.
    pub fn add(&mut self, bin: usize) {
        self.counts[bin] += 1;
        self.size += 1;
    }

    /// Removes one record falling in `bin`.
    ///
    /// # Panics
    /// Panics if the bin is already empty (histogram underflow indicates a
    /// caller bookkeeping bug). Use [`ClusterHistogram::try_remove`] when
    /// the bookkeeping is driven by untrusted input.
    pub fn remove(&mut self, bin: usize) {
        if let Err(e) = self.try_remove(bin) {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`ClusterHistogram::remove`]: returns
    /// [`EmdError::Underflow`] instead of panicking when `bin` is empty.
    /// A bin outside the domain holds no records, so it too is an underflow.
    pub fn try_remove(&mut self, bin: usize) -> Result<(), EmdError> {
        if self.counts.get(bin).is_none_or(|&c| c == 0) {
            return Err(EmdError::Underflow { bin });
        }
        self.counts[bin] -= 1;
        self.size -= 1;
        Ok(())
    }

    /// `bin`'s count after removing one record from it, without mutating
    /// the histogram. Panics like [`ClusterHistogram::remove`] when `bin`
    /// is empty.
    fn count_after_removal(&self, bin: usize) -> u32 {
        match self.counts.get(bin) {
            Some(&c) if c > 0 => c - 1,
            _ => panic!("{}", EmdError::Underflow { bin }),
        }
    }

    /// Merges another histogram into this one (cluster union).
    pub fn merge(&mut self, other: &ClusterHistogram) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "merging incompatible histograms"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.size += other.size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn whole_dataset_has_zero_emd() {
        let col = vec![3.0, 1.0, 2.0, 2.0, 5.0];
        let emd = OrderedEmd::new(&col);
        let all: Vec<usize> = (0..col.len()).collect();
        assert!(emd.emd_of_records(&all) < EPS);
    }

    #[test]
    fn singleton_cluster_emd_matches_hand_computation() {
        // T = {1,2,3,4}; C = {1}. p = (1,0,0,0), q = (¼,¼,¼,¼).
        // cum = (¾, ½, ¼, 0) → Σ|cum| = 1.5 → EMD = 1.5/3 = 0.5
        let emd = OrderedEmd::new(&[1.0, 2.0, 3.0, 4.0]);
        assert!((emd.emd_of_records(&[0]) - 0.5).abs() < EPS);
        // symmetric extreme record gives the same distance
        assert!((emd.emd_of_records(&[3]) - 0.5).abs() < EPS);
        // middle records are closer to the global distribution
        assert!(emd.emd_of_records(&[1]) < 0.5);
    }

    #[test]
    fn spread_cluster_beats_contiguous_cluster() {
        let col: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let emd = OrderedEmd::new(&col);
        // spread: one record from each third vs contiguous block
        let spread = emd.emd_of_records(&[1, 5, 9]);
        let block = emd.emd_of_records(&[0, 1, 2]);
        assert!(spread < block, "spread {spread} should be < block {block}");
    }

    #[test]
    fn duplicated_values_collapse_bins() {
        let emd = OrderedEmd::new(&[7.0, 7.0, 7.0]);
        assert_eq!(emd.m(), 1);
        assert_eq!(emd.emd_of_records(&[0]), 0.0);
    }

    #[test]
    fn incremental_histogram_matches_batch() {
        let col = vec![0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 5.0];
        let emd = OrderedEmd::new(&col);
        let records = [0, 3, 5, 7];
        let batch = emd.emd_of_records(&records);

        let mut h = ClusterHistogram::empty(emd.m());
        for &r in &records {
            h.add(emd.bin_of(r));
        }
        assert!((emd.emd(&h) - batch).abs() < EPS);

        // remove + add keeps it consistent with a fresh histogram
        h.remove(emd.bin_of(0));
        h.add(emd.bin_of(1));
        let expect = emd.emd_of_records(&[1, 3, 5, 7]);
        assert!((emd.emd(&h) - expect).abs() < EPS);
    }

    #[test]
    fn emd_after_swap_is_pure() {
        let col = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let emd = OrderedEmd::new(&col);
        let h = ClusterHistogram::of_records(&emd, &[0, 1]);
        let before = emd.emd(&h);
        let hypothetical = emd.emd_after_swap(&h, 0, 5);
        // cluster {1,5} is more spread than {0,1}
        assert!(hypothetical < before);
        // h itself unchanged
        assert!((emd.emd(&h) - before).abs() < EPS);
        // same-bin swap is a no-op
        assert!((emd.emd_after_swap(&h, 0, 0) - before).abs() < EPS);
    }

    #[test]
    fn merge_adds_counts() {
        let col = vec![0.0, 1.0, 2.0, 3.0];
        let emd = OrderedEmd::new(&col);
        let mut a = ClusterHistogram::of_records(&emd, &[0, 1]);
        let b = ClusterHistogram::of_records(&emd, &[2, 3]);
        a.merge(&b);
        assert_eq!(a.size(), 4);
        assert!(emd.emd(&a) < EPS); // union == whole data set
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn histogram_underflow_panics() {
        let mut h = ClusterHistogram::empty(3);
        h.remove(0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_column_panics() {
        OrderedEmd::new(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_column_panics() {
        OrderedEmd::new(&[1.0, f64::NAN]);
    }

    #[test]
    fn try_new_reports_edge_cases_as_errors() {
        assert_eq!(OrderedEmd::try_new(&[]).unwrap_err(), EmdError::EmptyColumn);
        match OrderedEmd::try_new(&[1.0, f64::NAN, 3.0]).unwrap_err() {
            EmdError::NonFinite { index, value } => {
                assert_eq!(index, 1);
                assert!(value.is_nan());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(matches!(
            OrderedEmd::try_new(&[0.0, f64::INFINITY]).unwrap_err(),
            EmdError::NonFinite { index: 1, .. }
        ));
        assert_eq!(
            OrderedEmd::try_from_codes(&[]).unwrap_err(),
            EmdError::EmptyColumn
        );
    }

    #[test]
    fn try_new_accepts_single_category_as_trivially_close() {
        // One distinct sensitive value: every cluster matches the global
        // distribution exactly, so t-closeness holds for free.
        let emd = OrderedEmd::try_new(&[5.0; 7]).unwrap();
        assert_eq!(emd.m(), 1);
        assert_eq!(emd.emd_of_records(&[0, 3]), 0.0);
        assert_eq!(emd.try_emd_between(&[1.0], &[1.0]).unwrap(), 0.0);
    }

    #[test]
    fn try_emd_between_rejects_domain_mismatch() {
        let emd = OrderedEmd::new(&[1.0, 2.0, 3.0]);
        assert_eq!(
            emd.try_emd_between(&[0.5, 0.5], &[0.3, 0.3, 0.4])
                .unwrap_err(),
            EmdError::DomainMismatch {
                expected: 3,
                got: 2
            }
        );
        assert_eq!(
            emd.try_emd_between(&[0.5, 0.2, 0.3], &[1.0]).unwrap_err(),
            EmdError::DomainMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn try_remove_reports_underflow() {
        let mut h = ClusterHistogram::empty(3);
        h.add(1);
        assert_eq!(h.try_remove(0).unwrap_err(), EmdError::Underflow { bin: 0 });
        // out-of-domain bins hold no records: underflow, not a panic
        assert_eq!(h.try_remove(9).unwrap_err(), EmdError::Underflow { bin: 9 });
        assert!(h.try_remove(1).is_ok());
        assert_eq!(h.size(), 0);
    }

    #[test]
    fn emd_errors_display_readably() {
        let msgs = [
            EmdError::EmptyColumn.to_string(),
            EmdError::NonFinite {
                index: 4,
                value: f64::NAN,
            }
            .to_string(),
            EmdError::DomainMismatch {
                expected: 3,
                got: 2,
            }
            .to_string(),
            EmdError::Underflow { bin: 9 }.to_string(),
        ];
        assert!(msgs[0].contains("non-empty"));
        assert!(msgs[1].contains("record 4"));
        assert!(msgs[2].contains("2 bins"));
        assert!(msgs[3].contains("bin 9"));
    }

    #[test]
    fn emd_between_explicit_distributions() {
        let emd = OrderedEmd::new(&[1.0, 2.0, 3.0]);
        let p = [1.0, 0.0, 0.0];
        let q = [0.0, 0.0, 1.0];
        // all mass moves distance (2/2)=1 → EMD = 1
        assert!((emd.emd_between(&p, &q) - 1.0).abs() < EPS);
        assert!(emd.emd_between(&p, &p) < EPS);
    }

    #[test]
    fn emd_is_bounded_by_one() {
        let col: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let emd = OrderedEmd::new(&col);
        for cluster in [vec![0], vec![99], vec![0, 99], (0..50).collect::<Vec<_>>()] {
            let d = emd.emd_of_records(&cluster);
            assert!((0.0..=1.0).contains(&d), "EMD {d} out of [0,1]");
        }
    }

    #[test]
    fn from_codes_matches_numeric_domain() {
        let codes = [0u32, 2, 1, 2, 0];
        let emd = OrderedEmd::from_codes(&codes);
        assert_eq!(emd.m(), 3);
        let d = emd.emd_of_records(&[0, 4]); // two records with code 0
        assert!(d > 0.0);
    }

    #[test]
    fn rebind_freezes_global_state_and_rebins_locally() {
        let col = vec![0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 5.0];
        let emd = OrderedEmd::new(&col);
        // Rebinding to the fitting column reproduces the evaluator exactly.
        let same = emd.rebind(&col).unwrap();
        assert_eq!(same.n(), emd.n());
        assert_eq!(same.n_bound(), emd.n_bound());
        for r in 0..col.len() {
            assert_eq!(same.bin_of(r), emd.bin_of(r));
        }
        assert_eq!(same.emd_of_records(&[0, 3]), emd.emd_of_records(&[0, 3]));

        // Rebinding to a shard: local indices, global denominator.
        let shard = [1.0, 4.0, 5.0];
        let bound = emd.rebind(&shard).unwrap();
        assert_eq!(bound.n(), 8, "global n frozen");
        assert_eq!(bound.n_bound(), 3);
        // shard record 2 (value 5.0) sits in the same bin as fit record 7
        assert_eq!(bound.bin_of(2), emd.bin_of(7));
        let d_shard = bound.emd_of_records(&[0, 1, 2]);
        let d_fit = emd.emd_of_records(&[1, 5, 7]);
        assert!((d_shard - d_fit).abs() < EPS);

        // Unknown and non-finite values are rejected with their index.
        assert_eq!(
            emd.rebind(&[1.0, 9.0]).unwrap_err(),
            EmdError::ValueNotInDomain {
                index: 1,
                value: 9.0
            }
        );
        assert!(matches!(
            emd.rebind(&[f64::NAN]).unwrap_err(),
            EmdError::NonFinite { index: 0, .. }
        ));
    }

    #[test]
    fn try_from_global_validates() {
        let emd = OrderedEmd::try_from_global(vec![1.0, 2.0, 4.0], vec![2, 1, 1]).unwrap();
        assert_eq!(emd.n(), 4);
        assert_eq!(emd.n_bound(), 0);
        assert_eq!(emd.m(), 3);
        // matches a directly fitted evaluator on the same data
        let direct = OrderedEmd::new(&[1.0, 1.0, 2.0, 4.0]);
        assert_eq!(emd.values(), direct.values());
        assert_eq!(emd.global_counts(), direct.global_counts());

        assert_eq!(
            OrderedEmd::try_from_global(vec![], vec![]).unwrap_err(),
            EmdError::EmptyColumn
        );
        assert_eq!(
            OrderedEmd::try_from_global(vec![2.0, 1.0], vec![1, 1]).unwrap_err(),
            EmdError::UnsortedDomain { index: 1 }
        );
        assert_eq!(
            OrderedEmd::try_from_global(vec![1.0, 2.0], vec![1]).unwrap_err(),
            EmdError::DomainMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            OrderedEmd::try_from_global(vec![1.0, 2.0], vec![1, 0]).unwrap_err(),
            EmdError::Underflow { bin: 1 }
        );
        assert!(matches!(
            OrderedEmd::try_from_global(vec![1.0, f64::NAN], vec![1, 1]).unwrap_err(),
            EmdError::NonFinite { index: 1, .. }
        ));
    }

    #[test]
    fn domain_accumulator_matches_monolithic_fit() {
        let col: Vec<f64> = (0..200).map(|i| ((i * 7) % 23) as f64).collect();
        let direct = OrderedEmd::new(&col);

        // Shard-by-shard accumulation...
        let mut acc = DomainAccumulator::new();
        for shard in col.chunks(17) {
            acc.add_column(shard, 0).unwrap();
        }
        // ...and independent accumulators merged out of order.
        let mut parts: Vec<DomainAccumulator> = col
            .chunks(31)
            .map(|shard| {
                let mut a = DomainAccumulator::new();
                a.add_column(shard, 0).unwrap();
                a
            })
            .collect();
        parts.reverse();
        let mut merged = DomainAccumulator::new();
        for p in &parts {
            merged.merge(p);
        }

        for fitted in [acc.finalize().unwrap(), merged.finalize().unwrap()] {
            assert_eq!(fitted.values(), direct.values());
            assert_eq!(fitted.global_counts(), direct.global_counts());
            assert_eq!(fitted.n(), direct.n());
            // rebind + evaluate agrees with the monolithic evaluator
            let bound = fitted.rebind(&col).unwrap();
            let records = [0usize, 5, 44, 199];
            assert!((bound.emd_of_records(&records) - direct.emd_of_records(&records)).abs() < EPS);
        }
    }

    #[test]
    fn domain_accumulator_edge_cases() {
        assert!(DomainAccumulator::new().is_empty());
        assert_eq!(
            DomainAccumulator::new().finalize().unwrap_err(),
            EmdError::EmptyColumn
        );
        // non-finite reported at its absolute index
        let mut acc = DomainAccumulator::new();
        assert!(matches!(
            acc.add_column(&[1.0, f64::INFINITY], 100).unwrap_err(),
            EmdError::NonFinite { index: 101, .. }
        ));
        // -0.0 and 0.0 collapse into one bin
        let mut acc = DomainAccumulator::new();
        acc.add_column(&[-0.0, 0.0, 1.0], 0).unwrap();
        let emd = acc.finalize().unwrap();
        assert_eq!(emd.m(), 2);
        assert_eq!(emd.global_counts(), &[2, 1]);
        // codes accumulate like their f64 casts
        let mut acc = DomainAccumulator::new();
        acc.add_codes(&[0, 2, 2]);
        assert_eq!(acc.n(), 3);
        let emd = acc.finalize().unwrap();
        assert_eq!(emd.values(), &[0.0, 2.0]);
    }
}
