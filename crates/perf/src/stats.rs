//! Sample summaries for the timed iterations of one benchmark case.

/// Robust summary of a set of timing samples (nanoseconds).
///
/// The gate reads `median_ns` (central tendency robust to one-off
/// stalls) and `min_ns` (the best observed run — the least noisy
/// estimate of the true cost on an otherwise idle machine); `iqr_ns`
/// records the spread so a human can judge how trustworthy a delta is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub median_ns: f64,
    /// Smallest sample.
    pub min_ns: f64,
    /// Largest sample.
    pub max_ns: f64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Interquartile range (p75 − p25, linear interpolation).
    pub iqr_ns: f64,
}

/// Summarizes a non-empty sample set.
///
/// The samples sort by `total_cmp` with `-0.0` folded into `0.0`, so a
/// NaN sample sorts by its sign bit instead of panicking.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "cannot summarize zero samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| (a + 0.0).total_cmp(&(b + 0.0)));
    let q = |p: f64| percentile(&sorted, p);
    Summary {
        median_ns: q(0.5),
        min_ns: sorted[0],
        max_ns: sorted[sorted.len() - 1],
        mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
        iqr_ns: q(0.75) - q(0.25),
    }
}

/// Linear-interpolation percentile over an already-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Human-readable duration for tables (`842 ns`, `12.4 µs`, `3.07 ms`,
/// `1.25 s`).
pub fn format_ns(ns: f64) -> String {
    let (value, unit) = if ns < 1e3 {
        (ns, "ns")
    } else if ns < 1e6 {
        (ns / 1e3, "µs")
    } else if ns < 1e9 {
        (ns / 1e6, "ms")
    } else {
        (ns / 1e9, "s")
    };
    if value < 10.0 {
        format!("{value:.2} {unit}")
    } else if value < 100.0 {
        format!("{value:.1} {unit}")
    } else {
        format!("{value:.0} {unit}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median_ns, 3.0);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 5.0);
        assert_eq!(s.mean_ns, 3.0);
        assert_eq!(s.iqr_ns, 2.0);
    }

    #[test]
    fn even_count_interpolates_the_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(s.median_ns, 2.5);
    }

    #[test]
    fn single_sample_is_degenerate_but_valid() {
        let s = summarize(&[7.0]);
        assert_eq!(s.median_ns, 7.0);
        assert_eq!(s.iqr_ns, 0.0);
    }

    #[test]
    fn a_nan_sample_does_not_panic() {
        let s = summarize(&[3.0, f64::NAN, 1.0]);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 3.0);
        assert!(s.max_ns.is_nan() && s.mean_ns.is_nan());
        let s = summarize(&[-f64::NAN, 2.0, 4.0]);
        assert!(s.min_ns.is_nan());
        assert_eq!((s.median_ns, s.max_ns), (2.0, 4.0));
        assert_eq!(summarize(&[0.0, -0.0]).min_ns.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_samples_panic() {
        summarize(&[]);
    }

    #[test]
    fn formats_across_units() {
        assert_eq!(format_ns(842.0), "842 ns");
        assert_eq!(format_ns(12_400.0), "12.4 µs");
        assert_eq!(format_ns(3_070_000.0), "3.07 ms");
        assert_eq!(format_ns(1_250_000_000.0), "1.25 s");
    }
}
