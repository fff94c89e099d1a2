//! Optimal univariate microaggregation (Hansen–Mukherjee 2003).
//!
//! For a single attribute the optimal k-partition is computable in
//! polynomial time: sort the values; an optimal partition uses only
//! *contiguous* groups of between `k` and `2k − 1` consecutive values, so
//! minimizing SSE reduces to a shortest-path / dynamic program over the
//! sorted order, `O(nk)` after an `O(n log n)` sort.
//!
//! This module serves as the exact oracle against which the multivariate
//! heuristics are sanity-checked in one dimension, and as a fast path for
//! genuinely univariate workloads. It operates on a plain `&[f64]` column
//! (a one-column flat matrix *is* its contiguous buffer, so callers with a
//! `Matrix` can pass `m.data()` directly when `n_cols == 1`); its
//! prefix-sum DP is already `O(nk)` sequential and cache-linear, so it
//! needs none of the scan parallelism of the MDAV path.

use crate::cluster::Clustering;

/// Within-group sum of squared errors of a contiguous sorted slice, via
/// prefix sums: `Σ x² − (Σ x)²/len`.
fn group_sse(prefix: &[f64], prefix_sq: &[f64], lo: usize, hi: usize) -> f64 {
    // group covers sorted positions lo..hi (exclusive hi)
    let len = (hi - lo) as f64;
    let s = prefix[hi] - prefix[lo];
    let s2 = prefix_sq[hi] - prefix_sq[lo];
    (s2 - s * s / len).max(0.0)
}

/// Optimal univariate microaggregation of `values` with minimum group size
/// `k`, minimizing total within-group SSE.
///
/// Returns the optimal [`Clustering`] (over the *original* record indices)
/// and its SSE.
///
/// # Panics
/// Panics if `k == 0` or any value is non-finite.
pub fn optimal_univariate(values: &[f64], k: usize) -> (Clustering, f64) {
    assert!(k >= 1, "k must be at least 1");
    assert!(
        values.iter().all(|x| x.is_finite()),
        "values must be finite"
    );
    let n = values.len();
    if n == 0 {
        return (Clustering::new(vec![], 0).expect("valid"), 0.0);
    }
    if n < 2 * k {
        let sse = {
            let mean = values.iter().sum::<f64>() / n as f64;
            values.iter().map(|x| (x - mean) * (x - mean)).sum()
        };
        return (
            Clustering::new(vec![(0..n).collect()], n).expect("valid"),
            sse,
        );
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| (values[a] + 0.0).total_cmp(&(values[b] + 0.0)));
    let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();

    let mut prefix = vec![0.0; n + 1];
    let mut prefix_sq = vec![0.0; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + sorted[i];
        prefix_sq[i + 1] = prefix_sq[i] + sorted[i] * sorted[i];
    }

    // dp[j] = minimal SSE partitioning sorted[0..j]; groups have length in
    // [k, 2k−1]. back[j] = start of the last group.
    const INF: f64 = f64::INFINITY;
    let mut dp = vec![INF; n + 1];
    let mut back = vec![usize::MAX; n + 1];
    dp[0] = 0.0;
    for j in k..=n {
        let lo_start = j.saturating_sub(2 * k - 1);
        let hi_start = j - k;
        for i in lo_start..=hi_start {
            if dp[i] == INF {
                continue;
            }
            let cand = dp[i] + group_sse(&prefix, &prefix_sq, i, j);
            if cand < dp[j] {
                dp[j] = cand;
                back[j] = i;
            }
        }
    }

    // n ≥ 2k ⇒ a feasible partition exists, dp[n] is finite.
    debug_assert!(dp[n].is_finite());
    let mut clusters_sorted: Vec<(usize, usize)> = Vec::new();
    let mut j = n;
    while j > 0 {
        let i = back[j];
        clusters_sorted.push((i, j));
        j = i;
    }
    clusters_sorted.reverse();

    let clusters: Vec<Vec<usize>> = clusters_sorted
        .into_iter()
        .map(|(lo, hi)| order[lo..hi].to_vec())
        .collect();
    (
        Clustering::new(clusters, n).expect("DP produces a valid partition"),
        dp[n],
    )
}

/// Total within-group SSE of an arbitrary clustering of `values` (used to
/// compare heuristics against the optimum).
pub fn clustering_sse(values: &[f64], clustering: &Clustering) -> f64 {
    let mut total = 0.0;
    for c in clustering.clusters() {
        let mean = c.iter().map(|&r| values[r]).sum::<f64>() / c.len() as f64;
        total += c.iter().map(|&r| (values[r] - mean).powi(2)).sum::<f64>();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mdav, Microaggregator};

    #[test]
    fn trivial_cases() {
        let (c, sse) = optimal_univariate(&[], 2);
        assert_eq!(c.n_clusters(), 0);
        assert_eq!(sse, 0.0);

        let (c, sse) = optimal_univariate(&[5.0, 5.0, 5.0], 2);
        assert_eq!(c.n_clusters(), 1);
        assert!(sse < 1e-12);
    }

    #[test]
    fn two_obvious_groups() {
        let vals = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        let (c, sse) = optimal_univariate(&vals, 3);
        assert_eq!(c.n_clusters(), 2);
        // optimal SSE: 2 × var within each triple = 2 × 0.02
        assert!((sse - 0.04) < 1e-9);
        for cluster in c.clusters() {
            let lows = cluster.iter().filter(|&&r| r < 3).count();
            assert!(lows == 0 || lows == 3);
        }
    }

    #[test]
    fn group_sizes_within_k_and_2k_minus_1() {
        let vals: Vec<f64> = (0..37).map(|i| (i * 7 % 31) as f64).collect();
        for k in [2, 3, 4, 5] {
            let (c, _) = optimal_univariate(&vals, k);
            c.check_min_size(k).unwrap();
            assert!(c.max_size() < 2 * k);
        }
    }

    #[test]
    fn optimum_never_worse_than_mdav() {
        let vals: Vec<f64> = (0..60)
            .map(|i| ((i * 13 % 47) as f64).sqrt() * 10.0)
            .collect();
        let rows: Vec<Vec<f64>> = vals.iter().map(|&v| vec![v]).collect();
        for k in [2, 3, 5] {
            let (_, opt_sse) = optimal_univariate(&vals, k);
            let heur = Mdav.partition(&rows, k);
            let heur_sse = clustering_sse(&vals, &heur);
            assert!(
                opt_sse <= heur_sse + 1e-9,
                "k={k}: optimal {opt_sse} > MDAV {heur_sse}"
            );
        }
    }

    #[test]
    fn unsorted_input_maps_back_to_original_indices() {
        let vals = [10.0, 0.0, 10.1, 0.1];
        let (c, _) = optimal_univariate(&vals, 2);
        assert_eq!(c.n_clusters(), 2);
        for cluster in c.clusters() {
            let mut v: Vec<f64> = cluster.iter().map(|&r| vals[r]).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert!(v[1] - v[0] < 1.0, "cluster mixes far values: {v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_values_panic() {
        optimal_univariate(&[1.0, f64::NAN, 2.0, 3.0], 2);
    }
}
