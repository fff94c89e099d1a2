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
//! on the whole attribute column: its domain, the global distribution, the
//! cumulative counts `G_i` and their prefix sums. A cluster is a
//! [`SparseHistogram`] of its sorted `(bin, count)` pairs.
//!
//! Every EMD is exact: [`OrderedEmd::exact_emd`] sums it as a [`Ratio`] one
//! run of bins at a time, in `O(r log m)` for a cluster over `r` distinct
//! bins (docs/ALGORITHMS.md, "Exact EMD over runs"), and [`ExactEmd`] keeps
//! every bin's term of the one cluster Algorithm 2 refines. No f64 walk
//! decides or reports anything: an f64 EMD is the exact ratio rounded once
//! ([`Ratio::to_f64`]).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Neg, Sub};
use std::sync::Arc;

#[cfg(test)]
mod reference;

/// Errors from fitting or evaluating an EMD over a confidential attribute.
///
/// The panicking entry points ([`OrderedEmd::new`], [`SparseHistogram::remove`])
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
    /// A domain supplied to [`OrderedEmd::try_from_global`] has a different
    /// number of counts than values.
    DomainMismatch {
        /// Number of domain values `m`.
        expected: usize,
        /// Number of counts supplied.
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
///
/// Cloning and [`OrderedEmd::rebind`] share the global state; only the
/// per-record bins are copied.
#[derive(Debug, Clone)]
pub struct OrderedEmd {
    /// The frozen global state, built once per fit.
    global: Arc<Global>,
    /// Bin (index into the values) of every bound record.
    record_bins: Vec<u32>,
}

/// The global state of one attribute: its domain, the data set's counts
/// per bin, their cumulative counts and the prefix sums of those.
#[derive(Debug)]
struct Global {
    /// Distinct attribute values, ascending. `values.len() == m`.
    values: Vec<f64>,
    /// Number of records per bin over the whole data set.
    counts: Vec<u32>,
    /// `G_i`: the records in bins `0..=i`.
    cumulative: Vec<u64>,
    /// `P_j = Σ_{i<j} G_i` for `j` in `0..=m`.
    prefix: Vec<u128>,
    /// Total number of records, `N = G_{m−1}`.
    n: usize,
}

impl Global {
    fn new(values: Vec<f64>, counts: Vec<u32>) -> Self {
        let mut cumulative = Vec::with_capacity(counts.len());
        let mut prefix = Vec::with_capacity(counts.len() + 1);
        let (mut g, mut p) = (0u64, 0u128);
        prefix.push(p);
        for &c in &counts {
            g += u64::from(c);
            p += u128::from(g);
            cumulative.push(g);
            prefix.push(p);
        }
        Global {
            values,
            counts,
            cumulative,
            prefix,
            n: g as usize,
        }
    }
}

/// `x` with `-0.0` folded into `+0.0`, which [`f64::total_cmp`], the
/// domain's order, would otherwise put in a bin of its own.
fn canonical(x: f64) -> f64 {
    x + 0.0
}

/// The bin of `x` in the ascending, canonical `values`.
fn bin_in(values: &[f64], x: f64) -> Option<usize> {
    let x = canonical(x);
    values.binary_search_by(|v| v.total_cmp(&x)).ok()
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
    /// `-0.0` and `0.0` are one value.
    pub fn try_new(column: &[f64]) -> Result<Self, EmdError> {
        if column.is_empty() {
            return Err(EmdError::EmptyColumn);
        }
        if let Some((index, &value)) = column.iter().enumerate().find(|(_, x)| !x.is_finite()) {
            return Err(EmdError::NonFinite { index, value });
        }
        let mut values: Vec<f64> = column.iter().map(|&x| canonical(x)).collect();
        values.sort_unstable_by(f64::total_cmp);
        values.dedup();

        let record_bins: Vec<u32> = column
            .iter()
            .map(|&x| bin_in(&values, x).expect("every record value is in the domain") as u32)
            .collect();

        let mut counts = vec![0u32; values.len()];
        for &b in &record_bins {
            counts[b as usize] += 1;
        }
        Ok(OrderedEmd {
            global: Arc::new(Global::new(values, counts)),
            record_bins,
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
    /// Errors on an empty or unsorted/duplicated domain (`-0.0` and `0.0`
    /// are one value), non-finite values, a length mismatch between
    /// `values` and `global_counts`, or an empty bin (a domain value the
    /// global distribution never saw).
    pub fn try_from_global(values: Vec<f64>, global_counts: Vec<u32>) -> Result<Self, EmdError> {
        if values.is_empty() {
            return Err(EmdError::EmptyColumn);
        }
        if let Some((index, &value)) = values.iter().enumerate().find(|(_, x)| !x.is_finite()) {
            return Err(EmdError::NonFinite { index, value });
        }
        let values: Vec<f64> = values.into_iter().map(canonical).collect();
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
        Ok(OrderedEmd {
            global: Arc::new(Global::new(values, global_counts)),
            record_bins: Vec::new(),
        })
    }

    /// A copy of this evaluator whose per-record bins cover `column`
    /// instead of the fitting column, sharing the frozen global domain and
    /// distribution.
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
            let bin = bin_in(&self.global.values, value)
                .ok_or(EmdError::ValueNotInDomain { index, value })?;
            record_bins.push(bin as u32);
        }
        Ok(OrderedEmd {
            global: Arc::clone(&self.global),
            record_bins,
        })
    }

    /// [`OrderedEmd::rebind`] for ordinal category codes.
    pub fn rebind_codes(&self, codes: &[u32]) -> Result<OrderedEmd, EmdError> {
        let as_f64: Vec<f64> = codes.iter().map(|&c| c as f64).collect();
        self.rebind(&as_f64)
    }

    /// Number of distinct values `m` in the domain.
    pub fn m(&self) -> usize {
        self.global.values.len()
    }

    /// Number of records the evaluator was fitted on — the denominator of
    /// the global distribution, *not* the bound working set (see
    /// [`OrderedEmd::n_bound`]).
    pub fn n(&self) -> usize {
        self.global.n
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
        &self.global.counts
    }

    /// The sorted distinct values.
    pub fn values(&self) -> &[f64] {
        &self.global.values
    }

    /// The frozen global state as plain data: `(values, global_counts)` —
    /// exactly the pair [`OrderedEmd::try_from_global`] reconstructs an
    /// evaluator from. Per-record bins are *not* part of the view; they
    /// are a binding to one working set and are recomputed by
    /// [`OrderedEmd::rebind`].
    pub fn to_global_parts(&self) -> (&[f64], &[u32]) {
        (&self.global.values, &self.global.counts)
    }

    /// Bin index of record `r` of the fitting column.
    pub fn bin_of(&self, r: usize) -> usize {
        self.record_bins[r] as usize
    }

    /// `EMD(C, T)` for the cluster given by record indices (duplicates
    /// would bias the distribution and are the caller's responsibility),
    /// rounded like [`OrderedEmd::emd`].
    pub fn emd_of_records(&self, records: &[usize]) -> f64 {
        self.emd(&SparseHistogram::of_records(self, records))
    }

    /// `EMD(C, T)` for a cluster histogram: [`OrderedEmd::exact_emd`]
    /// rounded once to the nearest `f64`, a value to report. Empty
    /// clusters have EMD 0 by convention.
    pub fn emd(&self, cluster: &SparseHistogram) -> f64 {
        self.exact_emd(cluster).to_f64()
    }

    /// [`OrderedEmd::emd`] of `cluster` with record `out` swapped for
    /// record `inn`, without mutating `cluster`.
    ///
    /// # Panics
    /// Panics if `out`'s bin is empty in `cluster` (histogram underflow).
    pub fn emd_after_swap(&self, cluster: &SparseHistogram, out: usize, inn: usize) -> f64 {
        let mut swapped = cluster.clone();
        swapped.remove(self.bin_of(out));
        swapped.add(self.bin_of(inn));
        self.emd(&swapped)
    }

    /// `EMD(C, T)` for a cluster histogram as an exact [`Ratio`], the
    /// value every t verdict is decided on: `S / ((m − 1)·|C|·N)` with
    /// `S = Σ_i |D_i|` and `D_i = N·C_i − |C|·G_i`; 0 for an empty cluster
    /// or a one-bin domain. On a run `[lo, hi)` of bins where `C_i` is a
    /// constant `C`, `D_i` falls as `G_i` grows, so one binary search finds
    /// `split`, the first bin with `D_i < 0`, and the prefix sums `P_j`
    /// give the run's `N·C·(split − lo) − |C|·(P_split − P_lo)` and
    /// `|C|·(P_hi − P_split) − N·C·(hi − split)`, each at most
    /// `m·|C|·N ≤ 2¹²⁷`: `O(r log m)` for a cluster over `r` distinct bins.
    ///
    /// # Panics
    /// Panics past 2¹²⁶: a cluster of more than 2³⁰ records over 2³² bins
    /// that hold 2⁶⁴ records, far more than fits in memory.
    pub fn exact_emd(&self, cluster: &SparseHistogram) -> Ratio {
        let den = denominator(self.m(), cluster.size, self.n());
        let Global {
            cumulative: g,
            prefix: p,
            n,
            ..
        } = &*self.global;
        let wide = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let (n, size) = (*n as u64, cluster.size as u64);
        let ends = cluster
            .bins
            .iter()
            .map(|&(bin, count)| (bin as usize, count));
        let (mut sum, mut c, mut lo) = (0, 0, 0);
        for (hi, count) in ends.chain([(g.len(), 0)]) {
            let nc = wide(n, c);
            // Before the cluster's first bin every D_i < 0, after its last ≥ 0.
            let split = match c {
                0 => lo,
                _ if c == size => hi,
                _ => lo + g[lo..hi].partition_point(|&gi| wide(size, gi) <= nc),
            };
            sum += nc * (split - lo) as u128 - u128::from(size) * (p[split] - p[lo]);
            sum += u128::from(size) * (p[hi] - p[split]) - nc * (hi - split) as u128;
            (c, lo) = (c + u64::from(count), hi);
        }
        Ratio::new(sum, den)
    }
}

/// `(m − 1)·|C|·N`, the denominator of a cluster's exact EMD.
///
/// # Panics
/// Panics past 2¹²⁶, as [`OrderedEmd::exact_emd`] says.
fn denominator(m: usize, size: usize, n: usize) -> u128 {
    (m.saturating_sub(1) as u128)
        .checked_mul(size as u128)
        .and_then(|den| den.checked_mul(n as u128))
        .filter(|&den| den <= 1 << 126)
        .expect("(m − 1)·|C|·N exceeds 2¹²⁶")
}

/// An exact EMD: the rational `num / den`, with `num ≤ den`.
///
/// Two ratios order by value: equal denominators compare numerators, and
/// others cross-multiply in 256 bits, so no comparison rounds or
/// overflows.
#[derive(Debug, Clone, Copy)]
pub struct Ratio {
    num: u128,
    den: u128,
}

impl Ratio {
    /// The EMD 0.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };

    /// `num / den`; `0 / 0` stands for 0, the EMD of an empty cluster or
    /// a one-bin domain, and compares and tests as 0.
    ///
    /// # Panics
    /// Panics if `num > den`.
    pub fn new(num: u128, den: u128) -> Ratio {
        assert!(num <= den, "an EMD is at most 1");
        Ratio { num, den }
    }

    /// Whether this value exceeds `t`, decided exactly: `t` is taken from
    /// its bits as `mant / 2^e`, and the value exceeds it when
    /// `num > ⌊mant·den / 2^e⌋`. No value exceeds a NaN `t`.
    pub fn exceeds(self, t: f64) -> bool {
        self.num as i128 > max_within(t, self.den)
    }

    /// This value rounded once to the nearest `f64`, ties to even: how an
    /// exact EMD is reported. The rounding is monotone, so a value that
    /// does not exceed an `f64` `t` never rounds above it.
    pub fn to_f64(self) -> f64 {
        let Ratio { num, den } = self;
        if num == 0 || num >= den {
            return if num == 0 { 0.0 } else { 1.0 };
        }
        // The next binary digit of r / den < 1, by comparing 2r with den
        // without forming 2r.
        let digit = |r: &mut u128| {
            let one = *r >= den - *r;
            *r = if one { *r - (den - *r) } else { *r << 1 };
            u64::from(one)
        };
        // Shifting num to one bit short of den's length leaves at most one
        // zero digit before the first one, the digit of 2^−e.
        let skip = (num.leading_zeros() - den.leading_zeros()).saturating_sub(1);
        let (mut r, mut e) = (num << skip, u64::from(skip) + 1);
        while digit(&mut r) == 0 {
            e += 1;
        }
        // 53 significant bits and a rounding bit; a remainder means more.
        let mut mant: u64 = 1;
        for _ in 0..53 {
            mant = mant << 1 | digit(&mut r);
        }
        let up = mant & 1 == 1 && (r != 0 || mant & 2 != 0);
        let mant = (mant >> 1) + u64::from(up);
        // A mantissa rounded up to 2^53 carries into the exponent field.
        f64::from_bits(((1023 - e) << 52) + (mant - (1 << 52)))
    }
}

/// The largest numerator over `den` whose ratio does not exceed `t`:
/// `⌊t·den⌋` for `t` in `[0, 1)`, with `t` taken exactly from its bits as
/// `mant / 2^e`; `den` for `t ≥ 1` or NaN, and −1 for `t < 0`.
fn max_within(t: f64, den: u128) -> i128 {
    if t.is_nan() || t >= 1.0 {
        return den as i128;
    }
    if t < 0.0 {
        return -1;
    }
    let bits = t.abs().to_bits();
    let (frac, biased) = (bits & ((1 << 52) - 1), (bits >> 52) as u32);
    let (mant, e) = match biased {
        0 => (frac, 1074),
        _ => (frac | 1 << 52, 1075 - biased),
    };
    // t < 1, so e ≥ 53 and ⌊t·den⌋ < den fits 127 bits.
    let (high, low) = mul_wide(u128::from(mant), den);
    (match e {
        256.. => 0,
        128.. => high >> (e - 128),
        _ => high << (128 - e) | low >> e,
    }) as i128
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.den == other.den || self.num == 0 || other.num == 0 {
            return self.num.cmp(&other.num);
        }
        if (self.num | self.den | other.num | other.den) >> 64 == 0 {
            return (self.num * other.den).cmp(&(other.num * self.den));
        }
        mul_wide(self.num, other.den).cmp(&mul_wide(other.num, self.den))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ratio {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ratio {}

/// `a·b` as its high and low 128 bits.
fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    const LOW: u128 = u64::MAX as u128;
    let (a1, a0, b1, b0) = (a >> 64, a & LOW, b >> 64, b & LOW);
    let (mid, carry) = (a1 * b0).overflowing_add(a0 * b1);
    let (low, c) = (a0 * b0).overflowing_add(mid << 64);
    let high = a1 * b1 + (mid >> 64) + (u128::from(carry) << 64) + u128::from(c);
    (high, low)
}

/// Number of outgoing bins one [`ExactEmd::swap_deltas`] pass scores.
pub const SWAP_LANES: usize = 8;

/// A cluster's ordered EMD held exactly in integers, for scoring swaps on
/// only the bins they move.
///
/// With `C_i` and `G_i` the cluster's and the data set's cumulative
/// counts through bin `i`, it keeps `D_i = N·C_i − |C|·G_i` for every bin
/// and `S = Σ|D_i|`, so that `EMD(C, T) = S / ((m − 1)·|C|·N)` exactly
/// ([`ExactEmd::emd`]). Swapping a record of bin `a` out for one of bin
/// `b` keeps `|C|` and moves `C_i` by one between the two bins only:
/// `D_i` falls by `N` on `a ≤ i < b`, or rises by `N` on `b ≤ i < a`.
/// [`ExactEmd::swap_deltas`] therefore scores up to [`SWAP_LANES`]
/// outgoing bins in one pass per side of `b`, each as far as its farthest
/// lane, in `O(|a − b|)` rather than `O(m)`.
///
/// The `D_i` are `i64` where the input's sizes keep them below 2⁶², and
/// `i128` otherwise: every size up to [`OrderedEmd::exact_emd`]'s limit
/// has a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactEmd {
    diffs: Diffs,
    /// `S = Σ|D_i|`.
    sum: i128,
    /// `N`: the step by which one record moves each `D_i` of its range.
    n: i128,
    /// `|C|`.
    size: usize,
    /// `(m − 1)·|C|·N`.
    den: u128,
}

/// The `D_i` of an [`ExactEmd`], in the narrower type that holds them.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Diffs {
    Narrow(Vec<i64>),
    Wide(Vec<i128>),
}

impl ExactEmd {
    /// The exact state of the cluster with histogram `hist` under `emd`'s
    /// domain: every `D_i`, filled from `hist`'s pairs and the cumulative
    /// counts `G_i`. Cost `O(m)`.
    ///
    /// # Panics
    /// Panics where [`OrderedEmd::exact_emd`] does.
    pub fn new(emd: &OrderedEmd, hist: &SparseHistogram) -> Self {
        let (n, size) = (emd.n() as u64, hist.size as u64);
        let mut pairs = hist.bins.iter().peekable();
        let mut nc = 0;
        let diffs = emd.global.cumulative.iter().enumerate().map(|(i, &g)| {
            if let Some(&(_, count)) = pairs.next_if(|&&(bin, _)| bin as usize == i) {
                nc += i128::from(n) * i128::from(count);
            }
            nc - (u128::from(size) * u128::from(g)) as i128
        });
        Self::from_diffs(diffs, emd, hist.size)
    }

    /// The state of this cluster with one record of `bin` added. `|C|`
    /// grows, so every `D_i` changes: it gains `N` from `bin` on and loses
    /// `G_i`. Cost `O(m)`.
    pub fn grown(&self, emd: &OrderedEmd, bin: usize) -> Self {
        let grown = emd.global.cumulative.iter().enumerate().map(|(i, &g)| {
            let d = match &self.diffs {
                Diffs::Narrow(d) => i128::from(d[i]),
                Diffs::Wide(d) => d[i],
            };
            d + if i >= bin { self.n } else { 0 } - i128::from(g)
        });
        Self::from_diffs(grown, emd, self.size + 1)
    }

    /// The state whose `D_i` are `diffs`.
    fn from_diffs<T: Into<i128>>(
        diffs: impl Iterator<Item = T>,
        emd: &OrderedEmd,
        size: usize,
    ) -> Self {
        let den = denominator(emd.m(), size, emd.n());
        let mut sum = 0;
        let diffs = diffs.map(Into::into).inspect(|d: &i128| sum += d.abs());
        let diffs = match narrow(emd, size) {
            true => Diffs::Narrow(diffs.map(|d| d as i64).collect()),
            false => Diffs::Wide(diffs.collect()),
        };
        ExactEmd {
            diffs,
            sum,
            n: emd.n() as i128,
            size,
            den,
        }
    }

    /// `S = Σ|D_i|`.
    pub fn sum(&self) -> i128 {
        self.sum
    }

    /// The cluster's EMD, `S / ((m − 1)·|C|·N)`.
    pub fn emd(&self) -> Ratio {
        self.emd_after(0)
    }

    /// The EMD of this cluster after a swap that changes `S` by `delta`
    /// (a lane of [`ExactEmd::swap_deltas`]).
    pub fn emd_after(&self, delta: i128) -> Ratio {
        Ratio {
            num: (self.sum + delta) as u128,
            den: self.den,
        }
    }

    /// Lane `l` of the result is the change of [`ExactEmd::sum`] when one
    /// record of bin `out_bins[l]` is swapped for one of bin `in_bin`.
    /// Same-bin lanes and lanes past `out_bins.len()` hold 0.
    ///
    /// One pass down from `in_bin` serves the outgoing bins below it,
    /// nearest first, and one pass up those above it.
    ///
    /// # Panics
    /// Panics if `out_bins` has more than [`SWAP_LANES`] entries.
    pub fn swap_deltas(&self, out_bins: &[usize], in_bin: usize) -> [i128; SWAP_LANES] {
        assert!(
            out_bins.len() <= SWAP_LANES,
            "at most {SWAP_LANES} outgoing bins per pass"
        );
        match &self.diffs {
            Diffs::Narrow(d) => lane_deltas(d, self.n as i64, out_bins, in_bin).map(i128::from),
            Diffs::Wide(d) => lane_deltas(d, self.n, out_bins, in_bin),
        }
    }

    /// Applies the swap of one record of bin `out_bin` for one of bin
    /// `in_bin`, which the caller guarantees holds a record of the
    /// cluster: `D` and `S` change over the bins between the two only.
    pub fn swap(&mut self, out_bin: usize, in_bin: usize) {
        self.sum += match &mut self.diffs {
            Diffs::Narrow(d) => i128::from(apply_swap(d, self.n as i64, out_bin, in_bin)),
            Diffs::Wide(d) => apply_swap(d, self.n, out_bin, in_bin),
        };
    }
}

/// Whether a cluster of `size` records over `emd`'s domain holds its
/// `D_i` in `i64`: `(m + |C|)·N ≤ 2⁶²` keeps every `D_i`, moved `D_i` and
/// swap delta below 2⁶².
fn narrow(emd: &OrderedEmd, size: usize) -> bool {
    (emd.m() as u128 + size as u128).saturating_mul(emd.n() as u128) <= 1 << 62
}

/// An integer type the `D_i` are computed in.
trait Diff:
    Copy + Default + Ord + Sum + Add<Output = Self> + Sub<Output = Self> + Neg<Output = Self>
{
}

impl Diff for i64 {}
impl Diff for i128 {}

fn abs<T: Diff>(x: T) -> T {
    if x < T::default() {
        -x
    } else {
        x
    }
}

/// The change of `Σ|D_i|` over `diffs` when every `D_i` moves by `shift`.
fn shift_gain<T: Diff>(diffs: &[T], shift: T) -> T {
    diffs.iter().map(|&d| abs(d + shift) - abs(d)).sum()
}

/// [`ExactEmd::swap_deltas`] on `D_i` of type `T`, with `n` = `N`.
fn lane_deltas<T: Diff>(diffs: &[T], n: T, out_bins: &[usize], in_bin: usize) -> [T; SWAP_LANES] {
    let (mut below, mut above) = ([(0, 0); SWAP_LANES], [(0, 0); SWAP_LANES]);
    let (mut nb, mut na) = (0, 0);
    for (l, &a) in out_bins.iter().enumerate() {
        if a < in_bin {
            below[nb] = (a, l);
            nb += 1;
        } else if a > in_bin {
            above[na] = (a, l);
            na += 1;
        }
    }
    let below = &mut below[..nb];
    let above = &mut above[..na];
    below.sort_unstable_by(|x, y| y.cmp(x));
    above.sort_unstable();

    let mut deltas = [T::default(); SWAP_LANES];
    let (mut acc, mut hi) = (T::default(), in_bin);
    for &(a, l) in below.iter() {
        acc = acc + shift_gain(&diffs[a..hi], -n);
        hi = a;
        deltas[l] = acc;
    }
    let (mut acc, mut lo) = (T::default(), in_bin);
    for &(a, l) in above.iter() {
        acc = acc + shift_gain(&diffs[lo..a], n);
        lo = a;
        deltas[l] = acc;
    }
    deltas
}

/// [`ExactEmd::swap`] on `D_i` of type `T`: moves the `D_i` between the
/// two bins and returns the change of `S`.
fn apply_swap<T: Diff>(diffs: &mut [T], n: T, out_bin: usize, in_bin: usize) -> T {
    let (range, shift) = if out_bin < in_bin {
        (out_bin..in_bin, -n)
    } else {
        (in_bin..out_bin, n)
    };
    let diffs = &mut diffs[range];
    let gain = shift_gain(diffs, shift);
    for d in diffs {
        *d = *d + shift;
    }
    gain
}

/// Mergeable accumulator of a confidential attribute's *global* value
/// distribution, for fitting an [`OrderedEmd`] without ever holding the
/// whole column in memory.
///
/// Feed it one value at a time with [`DomainAccumulator::add`] (or
/// accumulate shards independently and [`DomainAccumulator::merge`] them —
/// the result is order-independent), then
/// [`DomainAccumulator::finalize`] into an evaluator carrying the frozen
/// domain and global distribution. The finalized evaluator has no
/// bound records; [`OrderedEmd::rebind`] attaches each working set.
///
/// Values are keyed by their exact bit pattern, with `-0.0` keyed as
/// `0.0`, so that the two zeros share one bin as in
/// [`OrderedEmd::try_new`].
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
        *self.counts.entry(canonical(value).to_bits()).or_insert(0) += 1;
        self.n += 1;
        Ok(())
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
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let (values, global_counts) = pairs.into_iter().unzip();
        OrderedEmd::try_from_global(values, global_counts)
    }
}

/// A cluster's histogram over an [`OrderedEmd`] domain: its `(bin, count)`
/// pairs, ascending by bin, every count positive. It holds `O(r)` for a
/// cluster over `r` distinct bins, whatever the size of the domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseHistogram {
    bins: Vec<(u32, u32)>,
    size: usize,
}

impl SparseHistogram {
    /// Histogram of the given records under `emd`'s domain, in
    /// `O(|C| log |C|)`.
    pub fn of_records(emd: &OrderedEmd, records: &[usize]) -> Self {
        let bins = records.iter().map(|&r| (emd.record_bins[r], 1)).collect();
        SparseHistogram {
            bins: coalesced(bins),
            size: records.len(),
        }
    }

    /// Number of records currently in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Where `bin` is, or would be inserted.
    fn find(&self, bin: usize) -> Result<usize, usize> {
        self.bins.binary_search_by(|&(b, _)| (b as usize).cmp(&bin))
    }

    /// Adds one record falling in `bin`.
    pub fn add(&mut self, bin: usize) {
        match self.find(bin) {
            Ok(i) => self.bins[i].1 += 1,
            Err(i) => self.bins.insert(i, (bin as u32, 1)),
        }
        self.size += 1;
    }

    /// Removes one record falling in `bin`.
    ///
    /// # Panics
    /// Panics if the bin is already empty (histogram underflow indicates a
    /// caller bookkeeping bug). Use [`SparseHistogram::try_remove`] when
    /// the bookkeeping is driven by untrusted input.
    pub fn remove(&mut self, bin: usize) {
        if let Err(e) = self.try_remove(bin) {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`SparseHistogram::remove`]: returns
    /// [`EmdError::Underflow`] instead of panicking when `bin` is empty.
    pub fn try_remove(&mut self, bin: usize) -> Result<(), EmdError> {
        let i = self.find(bin).map_err(|_| EmdError::Underflow { bin })?;
        match self.bins[i].1 {
            1 => {
                self.bins.remove(i);
            }
            _ => self.bins[i].1 -= 1,
        }
        self.size -= 1;
        Ok(())
    }

    /// Merges another histogram into this one (cluster union): one sorted
    /// merge of the two pair lists.
    pub fn merge(&mut self, other: &SparseHistogram) {
        let mut bins = std::mem::take(&mut self.bins);
        bins.extend_from_slice(&other.bins);
        self.bins = coalesced(bins);
        self.size += other.size;
    }
}

/// `bins` sorted by bin, with the counts of equal bins summed. The stable
/// sort merges already sorted runs in linear time, so the pairs of two
/// histograms, one after the other, are merged rather than sorted afresh.
fn coalesced(mut bins: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    bins.sort_by_key(|&(bin, _)| bin);
    bins.dedup_by(|next, run| {
        let same = next.0 == run.0;
        if same {
            run.1 += next.1;
        }
        same
    });
    bins
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

        let mut h = SparseHistogram::default();
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
        let h = SparseHistogram::of_records(&emd, &[0, 1]);
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
        let mut a = SparseHistogram::of_records(&emd, &[0, 1]);
        let b = SparseHistogram::of_records(&emd, &[2, 3]);
        a.merge(&b);
        assert_eq!(a.size(), 4);
        assert!(emd.emd(&a) < EPS); // union == whole data set
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn histogram_underflow_panics() {
        let mut h = SparseHistogram::default();
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
        let h = SparseHistogram::of_records(&emd, &[0]);
        assert_eq!(emd.emd_after_swap(&h, 0, 3), 0.0);
        assert_eq!(emd.exact_emd(&h), Ratio::ZERO);
    }

    #[test]
    fn try_remove_reports_underflow() {
        let mut h = SparseHistogram::default();
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

    /// `a / b` against `c / d` as continued fractions, forming no product.
    fn cmp_fractions(a: u128, b: u128, c: u128, d: u128) -> Ordering {
        match ((a / b).cmp(&(c / d)), a % b, c % d) {
            (Ordering::Equal, 0, 0) => Ordering::Equal,
            (Ordering::Equal, 0, _) => Ordering::Less,
            (Ordering::Equal, _, 0) => Ordering::Greater,
            (Ordering::Equal, ra, rc) => cmp_fractions(d, rc, b, ra),
            (order, _, _) => order,
        }
    }

    /// SplitMix64 draws of `bits`-bit values.
    fn draw(state: &mut u64, bits: u32) -> u128 {
        let mut next = || {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            u128::from(z ^ (z >> 31))
        };
        (next() << 64 | next()) >> (128 - bits)
    }

    #[test]
    fn ratios_order_by_value_in_256_bits() {
        let mut state = 1;
        for bits in [1, 7, 40, 63, 64, 65, 100, 126] {
            for _ in 0..500 {
                let den = draw(&mut state, bits).max(1);
                let num = draw(&mut state, bits) % (den + 1);
                let x = Ratio::new(num, den);
                // Another draw, and the same value over a multiple of den.
                let d2 = draw(&mut state, 126).max(1);
                let others = [Ratio::new(draw(&mut state, 126) % (d2 + 1), d2), {
                    let k = (1u128 << (126 - bits)).max(1);
                    Ratio::new(num * k, den * k)
                }];
                for y in others {
                    assert_eq!(x.cmp(&y), cmp_fractions(x.num, x.den, y.num, y.den));
                    assert_eq!(x == y, x.cmp(&y).is_eq());
                }
            }
        }
        assert_eq!(Ratio::new(0, 0), Ratio::ZERO);
        assert!(Ratio::ZERO < Ratio::new(1, 1 << 126));
    }

    #[test]
    fn exceeds_reads_t_exactly_from_its_bits() {
        let half = Ratio::new(1, 2);
        assert!(!half.exceeds(0.5) && half.exceeds(0.5f64.next_down()));
        // 0.2 is 3602879701896397 / 2⁵⁴, just above 1/5.
        let point_two = Ratio::new(3_602_879_701_896_397, 1 << 54);
        assert!(!point_two.exceeds(0.2) && point_two.exceeds(0.2f64.next_down()));
        assert!(!Ratio::new(1, 5).exceeds(0.2) && Ratio::new(1, 5).exceeds(0.2f64.next_down()));
        // 2⁻¹⁰⁰ of 2¹²⁶ is 2²⁶; the smallest subnormal of it is below one.
        let den = 1u128 << 126;
        assert!(!Ratio::new(1 << 26, den).exceeds(2f64.powi(-100)));
        assert!(Ratio::new((1 << 26) + 1, den).exceeds(2f64.powi(-100)));
        assert!(Ratio::new(1, den).exceeds(f64::from_bits(1)));
        assert!(!Ratio::ZERO.exceeds(f64::from_bits(1)));
        // t outside (0, 1).
        assert!(!Ratio::new(1, 1).exceeds(1.0) && !half.exceeds(f64::INFINITY));
        assert!(Ratio::ZERO.exceeds(-0.5) && !Ratio::ZERO.exceeds(f64::NAN));
        assert!(half.exceeds(0.0) && half.exceeds(-0.0) && !Ratio::ZERO.exceeds(0.0));
        // Random values against t = v / 2⁵³ compared as fractions.
        let mut state = 2;
        for bits in [3, 60, 90, 126] {
            for _ in 0..500 {
                let den = draw(&mut state, bits).max(1);
                let x = Ratio::new(draw(&mut state, bits) % (den + 1), den);
                let v = draw(&mut state, 53);
                let t = v as f64 / (1u64 << 53) as f64;
                assert_eq!(
                    x.exceeds(t),
                    cmp_fractions(x.num, x.den, v, 1 << 53).is_gt()
                );
            }
        }
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

        // Value-by-value accumulation...
        let mut acc = DomainAccumulator::new();
        for (i, &x) in col.iter().enumerate() {
            acc.add(x, i).unwrap();
        }
        // ...and independent per-shard accumulators merged out of order.
        let mut parts: Vec<DomainAccumulator> = col
            .chunks(31)
            .map(|shard| {
                let mut a = DomainAccumulator::new();
                for (i, &x) in shard.iter().enumerate() {
                    a.add(x, i).unwrap();
                }
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
        // non-finite reported at the index it was added with, and not counted
        let mut acc = DomainAccumulator::new();
        acc.add(1.0, 100).unwrap();
        assert!(matches!(
            acc.add(f64::INFINITY, 101).unwrap_err(),
            EmdError::NonFinite { index: 101, .. }
        ));
        assert_eq!(acc.n(), 1);
        // -0.0 and 0.0 collapse into one bin
        let mut acc = DomainAccumulator::new();
        for (i, x) in [-0.0, 0.0, 1.0].into_iter().enumerate() {
            acc.add(x, i).unwrap();
        }
        let emd = acc.finalize().unwrap();
        assert_eq!(emd.m(), 2);
        assert_eq!(emd.global_counts(), &[2, 1]);
        // codes accumulate like their f64 casts
        let mut acc = DomainAccumulator::new();
        for (i, c) in [0u32, 2, 2].into_iter().enumerate() {
            acc.add(c as f64, i).unwrap();
        }
        assert_eq!(acc.n(), 3);
        let emd = acc.finalize().unwrap();
        assert_eq!(emd.values(), &[0.0, 2.0]);
    }

    /// Whether `f` is the double nearest to `num / den`, ties to even: the
    /// value lies between the midpoints to `f`'s neighbours, compared as
    /// fractions. Below a power of two the lower neighbour is half as far.
    fn is_nearest(num: u128, den: u128, f: f64) -> bool {
        let bits = f.to_bits();
        let mant = u128::from(bits & ((1 << 52) - 1) | 1 << 52);
        let e = 1075 - (bits >> 52) as u32;
        let lower = match mant == 1 << 52 {
            true => (4 * mant - 1, e + 2),
            false => (2 * mant - 1, e + 1),
        };
        assert!(lower.1 < 128, "{f} is too small for the reference");
        let lo = cmp_fractions(num, den, lower.0, 1 << lower.1);
        let hi = cmp_fractions(num, den, 2 * mant + 1, 1 << (e + 1));
        let even = mant % 2 == 0;
        (lo.is_gt() || lo.is_eq() && even) && (hi.is_lt() || hi.is_eq() && even)
    }

    #[test]
    fn to_f64_rounds_to_the_nearest_double() {
        let mut state = 3;
        for bits in [1, 7, 40, 53, 63, 64, 65, 100, 126] {
            for _ in 0..2_000 {
                let den = draw(&mut state, bits).max(1);
                let num = draw(&mut state, bits) % (den + 1);
                let f = Ratio::new(num, den).to_f64();
                if num == 0 {
                    assert_eq!(f.to_bits(), 0);
                } else if f >= 2f64.powi(-73) {
                    assert!(is_nearest(num, den, f), "{num}/{den} gave {f}");
                }
                // Below 2⁵³ both convert exactly, and IEEE division rounds
                // the quotient correctly.
                if den < 1 << 53 {
                    assert_eq!(f.to_bits(), (num as f64 / den as f64).to_bits());
                }
            }
        }
        // Ties go to the even mantissa: 1/2 + 2⁻⁵⁴ down, 1/2 + 3·2⁻⁵⁴ up.
        let half = 1u128 << 53;
        assert_eq!(Ratio::new(half + 1, half << 1).to_f64(), 0.5);
        assert_eq!(
            Ratio::new(half + 3, half << 1).to_f64(),
            0.5 + 2f64.powi(-52)
        );
        // Rounding up to the next power of two, and the smallest values.
        assert_eq!(Ratio::new((1 << 54) - 1, 1 << 54).to_f64(), 1.0);
        assert_eq!(Ratio::new(1, 1 << 126).to_f64(), 2f64.powi(-126));
        assert_eq!(Ratio::new(3, 1 << 126).to_f64(), 3.0 * 2f64.powi(-126));
        assert_eq!(Ratio::new(1, u128::MAX).to_f64(), 2f64.powi(-128));
        assert_eq!(Ratio::new(0, 0).to_f64(), 0.0);
        assert_eq!(Ratio::new(7, 7).to_f64(), 1.0);
    }

    #[test]
    fn negative_zero_shares_the_bin_of_zero() {
        let column = [-0.0, 1.0, 0.0, -0.0];
        let shard = [0.0, -0.0, 1.0];
        let fitted = OrderedEmd::try_new(&column).unwrap();
        assert_eq!(fitted.m(), 2);
        assert_eq!(fitted.global_counts(), &[3, 1]);
        let mut acc = DomainAccumulator::new();
        for (i, &x) in column.iter().enumerate() {
            acc.add(x, i).unwrap();
        }
        let accumulated = acc.finalize().unwrap();
        let given = OrderedEmd::try_from_global(vec![-0.0, 1.0], vec![3, 1]).unwrap();
        for emd in [&fitted, &accumulated, &given] {
            assert_eq!(emd.values(), &[0.0, 1.0]);
            assert_eq!(emd.values()[0].to_bits(), 0);
            let bound = emd.rebind(&shard).unwrap();
            let bins: Vec<usize> = (0..shard.len()).map(|r| bound.bin_of(r)).collect();
            assert_eq!(bins, [0, 0, 1]);
        }
        for (r, &x) in column.iter().enumerate() {
            assert_eq!(fitted.bin_of(r), usize::from(x == 1.0));
        }
    }

    /// A column over exactly `m` distinct values. Every bin is used; a
    /// third of the bins share one large count and the rest are drawn, so
    /// many global cumulative counts tie.
    fn tied_column(state: &mut u64, m: usize) -> Vec<f64> {
        let mut col = Vec::new();
        for bin in 0..m {
            let count = if bin % 3 == 0 {
                6
            } else {
                1 + draw(state, 2) as usize
            };
            col.extend(std::iter::repeat_n(bin as f64 * 0.5 - 3.0, count));
        }
        col
    }

    /// `size` records of `emd`'s bound set, repeats allowed.
    fn records(state: &mut u64, emd: &OrderedEmd, size: usize) -> Vec<usize> {
        let n = emd.n_bound() as u128;
        (0..size).map(|_| (draw(state, 64) % n) as usize).collect()
    }

    /// The cluster of `members` checked against the dense reference: the
    /// sparse EMD, and [`ExactEmd::new`]'s terms, sum and EMD. `wide`
    /// notes which regimes were covered, each `[narrow, wide]`: `[0]`
    /// whether `m·|C|·N` passes 2⁶⁴, `[1]` whether the state's terms are
    /// `i128`.
    fn check_against_dense(
        emd: &OrderedEmd,
        hist: &SparseHistogram,
        members: &[usize],
        wide: &mut [[bool; 2]; 2],
    ) {
        let counts = reference::counts(emd, members);
        let want = reference::exact_emd(emd, &counts);
        let case = format!("m={} |C|={}", emd.m(), members.len());
        assert_eq!(hist.size(), members.len(), "{case}");
        assert_eq!(emd.exact_emd(hist), want, "{case}");
        assert_eq!(emd.emd(hist).to_bits(), want.to_f64().to_bits());
        let den = denominator(emd.m(), members.len(), emd.n());
        let bound = den + members.len() as u128 * emd.n() as u128;
        wide[0][usize::from(bound > u128::from(u64::MAX))] = true;

        let state = ExactEmd::new(emd, hist);
        let terms: Vec<i128> = match &state.diffs {
            Diffs::Narrow(d) => d.iter().map(|&x| i128::from(x)).collect(),
            Diffs::Wide(d) => d.clone(),
        };
        wide[1][usize::from(matches!(state.diffs, Diffs::Wide(_)))] = true;
        let diffs = reference::diffs(emd, &counts);
        assert_eq!(terms, diffs, "{case}");
        assert_eq!(state.sum(), diffs.iter().map(|d| d.abs()).sum(), "{case}");
        assert_eq!(state.emd(), want, "{case}");
    }

    /// A cluster and its union with another, checked against the dense
    /// reference.
    fn check_union(emd: &OrderedEmd, a: &[usize], b: &[usize], wide: &mut [[bool; 2]; 2]) {
        let mut hist = SparseHistogram::of_records(emd, a);
        check_against_dense(emd, &hist, a, wide);
        hist.merge(&SparseHistogram::of_records(emd, b));
        check_against_dense(emd, &hist, &[a, b].concat(), wide);
    }

    #[test]
    fn sparse_exact_emd_and_state_equal_the_dense_reference() {
        let (mut state, mut wide) = (4, [[false; 2]; 2]);
        // Domains of 1 to 100,000 bins with heavy ties, bound to their own
        // column, clusters of 1 to 300 records and their unions.
        for m in [1, 2, 3, 17, 400, 2_000, 100_000] {
            let emd = OrderedEmd::new(&tied_column(&mut state, m));
            assert_eq!(emd.m(), m);
            for size in [1, 2, 5, 13, 50, 300] {
                let cluster = records(&mut state, &emd, size);
                let other = records(&mut state, &emd, 1 + size / 2);
                check_union(&emd, &cluster, &other, &mut wide);
            }
            let all: Vec<usize> = (0..emd.n()).collect();
            assert_eq!(
                emd.exact_emd(&SparseHistogram::of_records(&emd, &all)),
                Ratio::ZERO
            );
        }
        // N = 8·10¹²: 2,000 bins of 4·10⁹ records. From about 1,150
        // records m·|C|·N passes 2⁶⁴, and every D_i needs i128.
        let values: Vec<f64> = (0..2_000).map(f64::from).collect();
        let global = OrderedEmd::try_from_global(values, vec![4_000_000_000; 2_000]).unwrap();
        let column: Vec<f64> = (0..3_000)
            .map(|_| (draw(&mut state, 64) % 2_000) as f64)
            .collect();
        let emd = global.rebind(&column).unwrap();
        for size in [1, 30, 1_000, 2_000] {
            let cluster = records(&mut state, &emd, size);
            check_union(&emd, &cluster, &cluster[..size / 2], &mut wide);
        }
        // 100,000 bins of u32::MAX records: the prefix sums pass 2⁶⁴.
        let m = 100_000;
        let values: Vec<f64> = (0..m).map(|v| v as f64).collect();
        let global = OrderedEmd::try_from_global(values, vec![u32::MAX; m]).unwrap();
        let column: Vec<f64> = (0..400)
            .map(|_| (draw(&mut state, 64) % m as u128) as f64)
            .collect();
        let emd = global.rebind(&column).unwrap();
        for size in [1, 7, 200] {
            let cluster = records(&mut state, &emd, size);
            check_union(&emd, &cluster, &cluster[size / 2..], &mut wide);
        }
        assert_eq!(wide, [[true; 2]; 2], "every width was taken");
    }
}
