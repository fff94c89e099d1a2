//! Mondrian multidimensional partitioning with the t-closeness constraint.
//!
//! Mondrian (LeFevre et al., ICDE 2006) recursively splits the record set
//! on the quasi-identifier with the widest normalized range, at the median,
//! as long as the split is *allowable*. For plain k-anonymity a split is
//! allowable when both halves keep at least `k` records; following the
//! t-closeness adaptation (Li et al., TKDE 2010) we additionally require
//! both halves to satisfy `EMD ≤ t`. Since the root trivially satisfies
//! t-closeness (EMD = 0) and every accepted split preserves it, the
//! resulting classes are t-close by induction.
//!
//! Mondrian is a *global recoding* method: each class is released as a
//! hyper-rectangle of QI ranges (see
//! [`crate::baselines::generalize_columns`]). Its per-class ranges are
//! what the paper's Section 4 critique targets: coarse granularity,
//! outlier sensitivity, discretized numeric values.

use tclose_core::{Confidential, TCloseClusterer, TClosenessParams};
use tclose_microagg::{Clustering, Matrix};

/// Mondrian k-anonymity with the t-closeness split constraint.
#[derive(Debug, Clone, Copy, Default)]
pub struct MondrianTClose {
    /// When `true`, splits only need the k-anonymity size test (classic
    /// Mondrian); t-closeness is then *not* guaranteed. Default `false`.
    pub ignore_t: bool,
}

impl MondrianTClose {
    /// Mondrian with both the size and the EMD split constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classic k-anonymity-only Mondrian (ablation / k-anonymity baseline).
    pub fn k_anonymity_only() -> Self {
        MondrianTClose { ignore_t: true }
    }
}

impl TCloseClusterer for MondrianTClose {
    fn cluster(&self, m: &Matrix, conf: &Confidential, params: TClosenessParams) -> Clustering {
        let n = m.n_rows();
        if n == 0 {
            return Clustering::new(vec![], 0).expect("empty clustering is valid");
        }
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let all: Vec<usize> = (0..n).collect();
        self.split_recursive(m, conf, params, all, &mut classes);
        Clustering::new(classes, n).expect("Mondrian partitions the records")
    }

    fn name(&self) -> &'static str {
        if self.ignore_t {
            "Mondrian-k"
        } else {
            "Mondrian-t"
        }
    }
}

impl MondrianTClose {
    fn split_recursive(
        &self,
        m: &Matrix,
        conf: &Confidential,
        params: TClosenessParams,
        records: Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if let Some((left, right)) = self.try_split(m, conf, params, &records) {
            self.split_recursive(m, conf, params, left, out);
            self.split_recursive(m, conf, params, right, out);
        } else {
            out.push(records);
        }
    }

    /// Attempts the best allowable median split; `None` if no dimension
    /// admits one.
    fn try_split(
        &self,
        m: &Matrix,
        conf: &Confidential,
        params: TClosenessParams,
        records: &[usize],
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        if records.len() < 2 * params.k {
            return None;
        }
        let dim_count = m.n_cols();

        // Dimensions ordered by descending value range over this class —
        // Mondrian's "choose the widest attribute" heuristic, with the
        // remaining dimensions as fallbacks.
        let mut dims: Vec<(usize, f64)> = (0..dim_count)
            .map(|d| {
                let lo = records
                    .iter()
                    .map(|&r| m.get(r, d))
                    .fold(f64::INFINITY, f64::min);
                let hi = records
                    .iter()
                    .map(|&r| m.get(r, d))
                    .fold(f64::NEG_INFINITY, f64::max);
                (d, hi - lo)
            })
            .collect();
        dims.sort_by(|a, b| (b.1 + 0.0).total_cmp(&(a.1 + 0.0)).then(a.0.cmp(&b.0)));

        for (d, range) in dims {
            if range <= 0.0 {
                continue; // constant dimension cannot separate records
            }
            let mut sorted: Vec<usize> = records.to_vec();
            sorted.sort_by(|&a, &b| {
                (m.get(a, d) + 0.0)
                    .total_cmp(&(m.get(b, d) + 0.0))
                    .then(a.cmp(&b))
            });
            // Median split on *values*: records equal to the median value
            // must land on one side (strict partitioning).
            let mid_value = m.get(sorted[sorted.len() / 2], d);
            let split_at = sorted.partition_point(|&r| m.get(r, d) < mid_value);
            let (lo, hi) = sorted.split_at(split_at);
            if lo.len() < params.k || hi.len() < params.k {
                continue;
            }
            if !self.ignore_t
                && (conf.emd_of_records(lo) > params.t || conf.emd_of_records(hi) > params.t)
            {
                continue;
            }
            return Some((lo.to_vec(), hi.to_vec()));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_metrics::emd::OrderedEmd;

    fn problem(n: usize) -> (Matrix, Confidential) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        let conf: Vec<f64> = (0..n).map(|i| ((i * 13) % 23) as f64).collect();
        (
            Matrix::from_rows(&rows),
            Confidential::single(OrderedEmd::new(&conf)),
        )
    }

    #[test]
    fn produces_valid_k_anonymous_partition() {
        let (rows, conf) = problem(100);
        for k in [2, 5, 10] {
            let params = TClosenessParams::new(k, 0.3).unwrap();
            let c = MondrianTClose::new().cluster(&rows, &conf, params);
            assert_eq!(c.n_records(), 100);
            c.check_min_size(k).unwrap();
        }
    }

    #[test]
    fn classes_satisfy_t_closeness_by_induction() {
        let (rows, conf) = problem(100);
        for t in [0.05, 0.15, 0.3] {
            let params = TClosenessParams::new(2, t).unwrap();
            let c = MondrianTClose::new().cluster(&rows, &conf, params);
            for cl in c.clusters() {
                assert!(conf.emd_of_records(cl) <= t + 1e-12, "t={t}");
            }
        }
    }

    #[test]
    fn stricter_t_yields_fewer_classes() {
        let (rows, conf) = problem(100);
        let strict =
            MondrianTClose::new().cluster(&rows, &conf, TClosenessParams::new(2, 0.03).unwrap());
        let loose =
            MondrianTClose::new().cluster(&rows, &conf, TClosenessParams::new(2, 0.4).unwrap());
        assert!(strict.n_clusters() <= loose.n_clusters());
    }

    #[test]
    fn k_only_variant_ignores_t() {
        // Perfectly correlated conf: with tiny t the t-aware variant cannot
        // split at all, while the k-only variant splits down to size k.
        let n = 64;
        let rows = Matrix::from_rows(&(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let conf = Confidential::single(OrderedEmd::new(
            &(0..n).map(|i| i as f64).collect::<Vec<_>>(),
        ));
        let params = TClosenessParams::new(2, 0.01).unwrap();
        let with_t = MondrianTClose::new().cluster(&rows, &conf, params);
        let k_only = MondrianTClose::k_anonymity_only().cluster(&rows, &conf, params);
        assert_eq!(with_t.n_clusters(), 1);
        assert!(k_only.n_clusters() > 10);
    }

    #[test]
    fn median_ties_do_not_break_partitioning() {
        // Heavily tied dimension values.
        let rows = Matrix::from_rows(&(0..40).map(|i| vec![(i % 2) as f64]).collect::<Vec<_>>());
        let conf = Confidential::single(OrderedEmd::new(
            &(0..40).map(|i| (i % 4) as f64).collect::<Vec<_>>(),
        ));
        let params = TClosenessParams::new(3, 0.3).unwrap();
        let c = MondrianTClose::new().cluster(&rows, &conf, params);
        assert_eq!(c.n_records(), 40);
        c.check_min_size(3).unwrap();
    }

    #[test]
    fn small_and_empty_inputs() {
        let conf = Confidential::single(OrderedEmd::new(&[1.0, 2.0, 3.0]));
        let params = TClosenessParams::new(2, 0.2).unwrap();
        let c = MondrianTClose::new().cluster(&Matrix::from_rows(&[]), &conf, params);
        assert_eq!(c.n_clusters(), 0);

        let rows = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let c = MondrianTClose::new().cluster(&rows, &conf, params);
        assert_eq!(c.n_clusters(), 1); // 3 < 2k → no split
    }
}
