//! Order statistics over measured samples.

/// Median (mean of the two middle values for an even count). 0 for an
/// empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 100]. 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// True when the later part of a latency series trends up: the median of
/// its last third exceeds twice the median of its first third plus
/// `slack`. `series` is in scheduled-send order.
pub fn backlog_grows(series: &[f64], slack: f64) -> bool {
    let third = series.len() / 3;
    if third == 0 {
        return false;
    }
    let first = median(&series[..third]);
    let last = median(&series[series.len() - third..]);
    last > 2.0 * first + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn backlog_detection() {
        let flat: Vec<f64> = (0..90).map(|i| 2.0 + (i % 3) as f64 * 0.1).collect();
        assert!(!backlog_grows(&flat, 1.0));
        let rising: Vec<f64> = (0..90).map(|i| 2.0 + i as f64).collect();
        assert!(backlog_grows(&rising, 1.0));
    }
}
