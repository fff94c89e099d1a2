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
//! bins (docs/ALGORITHMS.md, "Exact EMD over runs"), and [`ExactEmd`]
//! scores the swaps of the one cluster Algorithm 2 refines over the same
//! runs. No f64 walk decides or reports anything: an f64 EMD is the exact
//! ratio rounded once ([`Ratio::to_f64`]).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
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

    /// `|Σ_{x≤i<y} D_i|` over bins where the cluster's cumulative count is
    /// `c` and every `D_i` has one sign: `N·c·(y − x)` against
    /// `|C|·(P_y − P_x)`, each at most `m·|C|·N ≤ 2¹²⁷`.
    fn run_sum(&self, size: u64, c: u64, x: usize, y: usize) -> u128 {
        let nc = self.n as u128 * u128::from(c);
        (nc * (y - x) as u128).abs_diff(u128::from(size) * (self.prefix[y] - self.prefix[x]))
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
        let global = &*self.global;
        let g = &global.cumulative;
        let wide = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let (n, size) = (global.n as u64, cluster.size as u64);
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
            sum += global.run_sum(size, c, lo, split) + global.run_sum(size, c, split, hi);
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

/// A cluster's ordered EMD held exactly in integers, for scoring swaps
/// over the cluster's runs of bins.
///
/// With `C_i` and `G_i` the cluster's and the data set's cumulative
/// counts through bin `i`, `D_i = N·C_i − |C|·G_i` and `S = Σ|D_i|`, so
/// that `EMD(C, T) = S / ((m − 1)·|C|·N)` exactly ([`ExactEmd::emd`]). The
/// state keeps the cluster's pairs, `S` and the split table `q[c]`, the
/// first bin with `|C|·G_i > N·c`, for `c` in `0..=|C|`: on a run of bins
/// where `C_i = c`, `D_i ≥ N` before `q[c − 1]`, `0 ≤ D_i < N` up to
/// `q[c]`, `−N ≤ D_i < 0` up to `q[c + 1]` and `D_i < −N` after. A swap
/// keeps `|C|`, and so `q`; its change of `S` has a closed form per run
/// ([`ExactEmd::swap_deltas`]). No part of the state is per bin of the
/// domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactEmd {
    hist: SparseHistogram,
    /// `S = Σ|D_i|`.
    sum: i128,
    /// `q[c]` for `c` in `0..=|C|`.
    splits: Vec<usize>,
    /// `(m − 1)·|C|·N`.
    den: u128,
}

impl ExactEmd {
    /// The exact state of the cluster with histogram `hist` under `emd`'s
    /// domain: `S` from [`OrderedEmd::exact_emd`], and `q` from one binary
    /// search per `c`. Cost `O((r + |C|) log m)` for a cluster over `r`
    /// distinct bins.
    ///
    /// # Panics
    /// Panics where [`OrderedEmd::exact_emd`] does.
    pub fn new(emd: &OrderedEmd, hist: SparseHistogram) -> Self {
        let Ratio { num, den } = emd.exact_emd(&hist);
        let (n, size) = (emd.n() as u128, hist.size as u128);
        let g = &emd.global.cumulative;
        let splits = (0..=size)
            .map(|c| g.partition_point(|&gi| size * u128::from(gi) <= n * c))
            .collect();
        ExactEmd {
            hist,
            sum: num as i128,
            splits,
            den,
        }
    }

    /// The state of this cluster with one record of `bin` added: `|C|`
    /// grows, so the state is built afresh from the grown pairs.
    pub fn grown(&self, emd: &OrderedEmd, bin: usize) -> Self {
        let mut hist = self.hist.clone();
        hist.add(bin);
        Self::new(emd, hist)
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
    /// (an entry of [`ExactEmd::swap_deltas`]).
    pub fn emd_after(&self, delta: i128) -> Ratio {
        Ratio {
            num: (self.sum + delta) as u128,
            den: self.den,
        }
    }

    /// The index of the pair of `bin`, whose entry of
    /// [`ExactEmd::swap_deltas`] scores swapping that bin's records out.
    ///
    /// # Panics
    /// Panics if no record of the cluster falls in `bin`.
    pub fn pair_of(&self, bin: usize) -> usize {
        self.hist.find(bin).expect("a bin of the cluster")
    }

    /// Fills `deltas` with one change of [`ExactEmd::sum`] per pair, in
    /// pair order: that of swapping one record of the pair's bin `a` out
    /// for one of `in_bin`. The swap moves `D_i` by `−N` on
    /// `a ≤ i < in_bin`, or by `+N` on `in_bin ≤ i < a`; a pair at `in_bin`
    /// gets 0.
    ///
    /// One walk down from `in_bin` serves the pairs below it, nearest
    /// first, and one walk up those above: each pair's range is the next
    /// pair's plus one run, so the walks cost `O(r)` for `r` pairs,
    /// whatever the size of the domain. Each `|ΔS| ≤ N·m`.
    pub fn swap_deltas(&self, emd: &OrderedEmd, in_bin: usize, deltas: &mut Vec<i128>) {
        let pairs = &self.hist.bins;
        let below = pairs.partition_point(|&(bin, _)| (bin as usize) < in_bin);
        let c_in: u64 = pairs[..below].iter().map(|&(_, c)| u64::from(c)).sum();
        deltas.clear();
        deltas.resize(pairs.len(), 0);
        // Down: pair j's range [a_j, in_bin) is pair j + 1's plus the run
        // [a_j, a_{j+1}), where C_i is the count through pair j.
        let (mut acc, mut c, mut hi) = (0, c_in, in_bin);
        for (j, &(bin, count)) in pairs[..below].iter().enumerate().rev() {
            acc += self.run_delta(emd, c, bin as usize, hi, true);
            deltas[j] = acc;
            (c, hi) = (c - u64::from(count), bin as usize);
        }
        // Up: pair j's range [in_bin, a_j) is pair j − 1's plus the run
        // [a_{j−1}, a_j), where C_i is the count through pair j − 1.
        let (mut acc, mut c, mut lo) = (0, c_in, in_bin);
        for (j, &(bin, count)) in pairs.iter().enumerate().skip(below) {
            acc += self.run_delta(emd, c, lo, bin as usize, false);
            deltas[j] = acc;
            (c, lo) = (c + u64::from(count), bin as usize);
        }
    }

    /// The change of `S` over bins `[x, y)`, on which `C_i = c`, when a
    /// swap moves every `D_i` there by `−N` (`down`) or `+N`. Down, a bin
    /// adds `−N` before `q[c − 1]`, `N − 2·D_i` up to `q[c]` and `+N`
    /// after; up, `+N` before `q[c]`, `N + 2·D_i` up to `q[c + 1]` and
    /// `−N` after. The middle `D_i` have one sign and `|D_i| ≤ N`, so
    /// their sum is a [`Global::run_sum`] below `N·m`. A walk down has
    /// `1 ≤ c ≤ |C|` and one up `c < |C|`, so `q` covers both.
    fn run_delta(&self, emd: &OrderedEmd, c: u64, x: usize, y: usize, down: bool) -> i128 {
        let q = &self.splits[c as usize - usize::from(down)..];
        let (u, v) = (q[0].clamp(x, y), q[1].clamp(x, y));
        let global = &*emd.global;
        let n = global.n as i128;
        let middle = global.run_sum(self.hist.size as u64, c, u, v) as i128;
        let outer = n * ((y - v) as i128 - (u - x) as i128);
        n * (v - u) as i128 - 2 * middle + if down { outer } else { -outer }
    }

    /// Applies the swap of one record of bin `out_bin`, which the caller
    /// guarantees holds a record of the cluster, for one of bin `in_bin`:
    /// `S` changes by the pair's [`ExactEmd::swap_deltas`] entry and the
    /// record moves between pairs.
    pub fn swap(&mut self, emd: &OrderedEmd, out_bin: usize, in_bin: usize) {
        let mut deltas = Vec::new();
        self.swap_deltas(emd, in_bin, &mut deltas);
        self.sum += deltas[self.pair_of(out_bin)];
        self.hist.remove(out_bin);
        self.hist.add(in_bin);
    }
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

    /// Number of distinct bins, and so distinct values, the cluster's
    /// records fall in.
    pub fn distinct_bins(&self) -> usize {
        self.bins.len()
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

    /// The domains the dense-reference tests run on, each with its cluster
    /// sizes: 1 to 100,000 bins with heavy ties, bound to their own column;
    /// `N` = 8·10¹², 2,000 bins of 4·10⁹ records, where from about 1,150
    /// records `m·|C|·N` passes 2⁶⁴; and 100,000 bins of `u32::MAX`
    /// records, whose prefix sums pass 2⁶⁴.
    fn reference_domains(state: &mut u64) -> Vec<(OrderedEmd, &'static [usize])> {
        let mut domains = Vec::new();
        for m in [1, 2, 3, 17, 400, 2_000, 100_000] {
            let emd = OrderedEmd::new(&tied_column(state, m));
            assert_eq!(emd.m(), m);
            domains.push((emd, &[1, 2, 5, 13, 50, 300][..]));
        }
        let values: Vec<f64> = (0..2_000).map(f64::from).collect();
        let global = OrderedEmd::try_from_global(values, vec![4_000_000_000; 2_000]).unwrap();
        let column: Vec<f64> = (0..3_000)
            .map(|_| (draw(state, 64) % 2_000) as f64)
            .collect();
        domains.push((global.rebind(&column).unwrap(), &[1, 30, 1_000, 2_000]));
        let m = 100_000;
        let values: Vec<f64> = (0..m).map(|v| v as f64).collect();
        let global = OrderedEmd::try_from_global(values, vec![u32::MAX; m]).unwrap();
        let column: Vec<f64> = (0..400)
            .map(|_| (draw(state, 64) % m as u128) as f64)
            .collect();
        domains.push((global.rebind(&column).unwrap(), &[1, 7, 200]));
        domains
    }

    /// Whether `m·|C|·N`, the bound of every run term, passes 2⁶⁴.
    fn past_u64(emd: &OrderedEmd, size: usize) -> bool {
        denominator(emd.m(), size, emd.n()) + size as u128 * emd.n() as u128 > u128::from(u64::MAX)
    }

    /// The cluster of `members` checked against the dense reference: the
    /// sparse EMD, and [`ExactEmd::new`]'s sum and EMD.
    fn check_against_dense(emd: &OrderedEmd, hist: &SparseHistogram, members: &[usize]) {
        let counts = reference::counts(emd, members);
        let want = reference::exact_emd(emd, &counts);
        let case = format!("m={} |C|={}", emd.m(), members.len());
        assert_eq!(hist.size(), members.len(), "{case}");
        assert_eq!(emd.exact_emd(hist), want, "{case}");
        assert_eq!(emd.emd(hist).to_bits(), want.to_f64().to_bits());
        let state = ExactEmd::new(emd, hist.clone());
        assert_eq!(state.sum() as u128, want.num, "{case}");
        assert_eq!(state.emd(), want, "{case}");
    }

    #[test]
    fn sparse_exact_emd_and_state_equal_the_dense_reference() {
        let (mut state, mut wide) = (4, [false; 2]);
        for (emd, sizes) in reference_domains(&mut state) {
            for &size in sizes {
                // A cluster and its union with another.
                let a = records(&mut state, &emd, size);
                let b = records(&mut state, &emd, 1 + size / 2);
                let mut hist = SparseHistogram::of_records(&emd, &a);
                check_against_dense(&emd, &hist, &a);
                hist.merge(&SparseHistogram::of_records(&emd, &b));
                check_against_dense(&emd, &hist, &[a, b].concat());
                wide[usize::from(past_u64(&emd, hist.size()))] = true;
            }
            // A domain bound to its own column: the whole of it has EMD 0.
            if emd.n_bound() == emd.n() {
                let all: Vec<usize> = (0..emd.n()).collect();
                let whole = SparseHistogram::of_records(&emd, &all);
                assert_eq!(emd.exact_emd(&whole), Ratio::ZERO);
            }
        }
        assert_eq!(wide, [true; 2], "both sides of 2⁶⁴ were taken");
    }

    /// The histogram with per-bin `counts`.
    fn hist_of(counts: &[u32]) -> SparseHistogram {
        let bins: Vec<(u32, u32)> = (0..counts.len() as u32)
            .zip(counts.iter().copied())
            .filter(|&(_, c)| c > 0)
            .collect();
        let size = bins.iter().map(|&(_, c)| c as usize).sum();
        SparseHistogram { bins, size }
    }

    /// `exact` checked against the dense reference of the cluster with
    /// per-bin `counts`: its sum and EMD, and every pair's swap delta for
    /// each of `in_bins`, against the `D_i` of [`reference::diffs`] moved
    /// bin by bin.
    fn check_swap_state(emd: &OrderedEmd, exact: &ExactEmd, counts: &[u32], in_bins: &[usize]) {
        let want = reference::exact_emd(emd, counts);
        let case = format!("m={} |C|={}", emd.m(), exact.hist.size());
        assert_eq!(exact.hist, hist_of(counts), "{case}");
        assert_eq!(exact.sum() as u128, want.num, "{case}");
        assert_eq!(exact.emd(), want, "{case}");
        // The change of Σ|D_i| when each D_i falls, or rises, by N, summed
        // from bin 0.
        let n = emd.n() as i128;
        let (mut down, mut up) = (vec![0], vec![0]);
        for d in reference::diffs(emd, counts) {
            down.push(down[down.len() - 1] + (d - n).abs() - d.abs());
            up.push(up[up.len() - 1] + (d + n).abs() - d.abs());
        }
        let mut deltas = Vec::new();
        for &b in in_bins {
            exact.swap_deltas(emd, b, &mut deltas);
            let pairs = exact.hist.bins.iter().map(|&(a, _)| a as usize);
            let want: Vec<i128> = pairs
                .map(|a| {
                    if a < b {
                        down[b] - down[a]
                    } else {
                        up[a] - up[b]
                    }
                })
                .collect();
            assert_eq!(deltas, want, "{case} in bin {b}");
        }
    }

    #[test]
    fn swap_deltas_swaps_and_growth_equal_the_dense_reference() {
        let (mut state, mut wide) = (5, [false; 2]);
        for (emd, sizes) in reference_domains(&mut state) {
            let m = emd.m();
            for &size in sizes {
                let members = records(&mut state, &emd, size);
                let mut counts = reference::counts(&emd, &members);
                let mut exact = ExactEmd::new(&emd, hist_of(&counts));
                wide[usize::from(past_u64(&emd, size))] = true;
                // Incoming bins at both ends, on a member's bin and between.
                let member = members[(draw(&mut state, 32) % size as u128) as usize];
                let between = (draw(&mut state, 64) % m as u128) as usize;
                let in_bins = [0, m - 1, emd.bin_of(member), between];
                check_swap_state(&emd, &exact, &counts, &in_bins);
                for &b in &in_bins {
                    let mut grown = counts.clone();
                    grown[b] += 1;
                    check_swap_state(&emd, &exact.grown(&emd, b), &grown, &[b, between]);
                    // Swap out a record of a drawn pair for one of b.
                    let pairs = &exact.hist.bins;
                    let out = pairs[(draw(&mut state, 32) % pairs.len() as u128) as usize].0;
                    exact.swap(&emd, out as usize, b);
                    counts[out as usize] -= 1;
                    counts[b] += 1;
                    check_swap_state(&emd, &exact, &counts, &in_bins);
                    assert_eq!(exact, ExactEmd::new(&emd, hist_of(&counts)));
                }
            }
        }
        assert_eq!(wide, [true; 2], "both sides of 2⁶⁴ were taken");
    }
}
