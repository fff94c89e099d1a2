//! Descriptive statistics over numeric slices.
//!
//! These helpers are used by normalization, data-set calibration and the
//! utility metrics. All of them operate on plain `&[f64]` so they compose
//! with both column borrows and scratch buffers.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`); `0.0` for slices shorter than 2.
pub fn population_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    population_variance(xs).sqrt()
}

/// Smallest element; `None` for an empty slice.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Largest element; `None` for an empty slice.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// `max − min`; `0.0` for an empty slice.
pub fn range(xs: &[f64]) -> f64 {
    match (min(xs), max(xs)) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => 0.0,
    }
}

/// Mergeable streaming moments of one numeric attribute: count, mean,
/// variance (via Welford's M2), min and max.
///
/// This is the building block of the out-of-core fit: each value is folded
/// in with [`RunningStats::push`] (or shards are accumulated independently and
/// combined with [`RunningStats::merge`], Chan et al.'s pairwise update),
/// and the final moments parameterize the frozen normalization the
/// streaming engine applies shard by shard. Merging is exact in the counts
/// and algebraically equivalent to one pass in the moments; the floating-
/// point result depends on the shard structure (not on which thread folded
/// which shard), so a fixed shard size keeps it deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one value in (Welford's online update).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Combines two accumulators covering disjoint record sets.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of values folded in.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty (matching [`mean`]).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`); `0.0` for fewer than 2 values
    /// (matching [`population_variance`]).
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            // Guard the tiny negative M2 a cancellation-heavy merge can leave.
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest value; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest value; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// `max − min`; `0.0` when empty (matching [`range`]).
    pub fn range(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }
}

/// Pearson correlation coefficient between two equally long slices.
///
/// Returns `0.0` when either slice is constant (the coefficient is undefined
/// there, and 0 is the conventional neutral choice for calibration code).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(
        xs.len(),
        ys.len(),
        "correlation requires equally long slices"
    );
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Sample `p`-quantile (linear interpolation), `p ∈ [0,1]`.
///
/// Returns `None` for an empty slice. The sort is `total_cmp` with `-0.0`
/// folded into `0.0`, so it never panics: the two zeros keep their input
/// order, as under `partial_cmp`, and a NaN sorts by its sign bit.
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| (a + 0.0).total_cmp(&(b + 0.0)));
    let p = p.clamp(0.0, 1.0);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn mean_variance_std() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < EPS);
        assert_eq!(population_variance(&[5.0]), 0.0);
        assert!((population_variance(&[2.0, 4.0]) - 1.0).abs() < EPS);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < EPS);
    }

    #[test]
    fn min_max_range() {
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(range(&[]), 0.0);
        assert_eq!(min(&[3.0, -1.0, 2.0]), Some(-1.0));
        assert_eq!(max(&[3.0, -1.0, 2.0]), Some(3.0));
        assert_eq!(range(&[3.0, -1.0, 2.0]), 4.0);
    }

    #[test]
    fn running_stats_match_batch_helpers() {
        let xs: Vec<f64> = (0..500)
            .map(|i| ((i * 37) % 101) as f64 * 0.25 - 7.0)
            .collect();
        let mut rs = RunningStats::new();
        xs.iter().for_each(|&x| rs.push(x));
        assert_eq!(rs.count(), xs.len());
        assert!((rs.mean() - mean(&xs)).abs() < 1e-9);
        assert!((rs.population_variance() - population_variance(&xs)).abs() < 1e-9);
        assert!((rs.std_dev() - std_dev(&xs)).abs() < 1e-9);
        assert_eq!(rs.min(), min(&xs));
        assert_eq!(rs.max(), max(&xs));
        assert!((rs.range() - range(&xs)).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_equals_single_pass() {
        let xs: Vec<f64> = (0..997).map(|i| ((i * 13) % 37) as f64 - 11.5).collect();
        let mut whole = RunningStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        for chunk_size in [1usize, 7, 100, 996, 2000] {
            let mut merged = RunningStats::new();
            for shard in xs.chunks(chunk_size) {
                let mut part = RunningStats::new();
                shard.iter().for_each(|&x| part.push(x));
                merged.merge(&part);
            }
            assert_eq!(merged.count(), whole.count());
            assert!((merged.mean() - whole.mean()).abs() < 1e-9);
            assert!(
                (merged.population_variance() - whole.population_variance()).abs() < 1e-9,
                "chunk={chunk_size}"
            );
            assert_eq!(merged.min(), whole.min());
            assert_eq!(merged.max(), whole.max());
        }
    }

    #[test]
    fn running_stats_empty_and_merge_identities() {
        let empty = RunningStats::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.population_variance(), 0.0);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
        assert_eq!(empty.range(), 0.0);

        let mut one = RunningStats::new();
        one.push(3.5);
        assert_eq!(one.population_variance(), 0.0);

        // merging with empty on either side is the identity
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut b = RunningStats::new();
        b.merge(&before);
        assert_eq!(b, before);
    }

    #[test]
    fn correlation_basics() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&x, &y) - 1.0).abs() < EPS);
        let yneg = [8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&x, &yneg) + 1.0).abs() < EPS);
        let konst = [5.0; 4];
        assert_eq!(correlation(&x, &konst), 0.0);
        assert_eq!(correlation(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn correlation_length_mismatch_panics() {
        correlation(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn quantiles() {
        assert_eq!(quantile(&[], 0.5), None);
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < EPS);
        // out-of-range p is clamped
        assert_eq!(quantile(&xs, 2.0), Some(4.0));
    }

    #[test]
    fn quantile_of_a_nan_sample_does_not_panic() {
        assert_eq!(quantile(&[1.0, f64::NAN], 0.0), Some(1.0));
        assert!(quantile(&[1.0, f64::NAN], 0.5).unwrap().is_nan());
        assert_eq!(quantile(&[-f64::NAN, 1.0], 1.0), Some(1.0));
        assert_eq!(quantile(&[0.0, -0.0, -1.0], 0.75), Some(0.0));
    }
}
