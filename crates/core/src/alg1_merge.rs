//! Algorithm 1: standard microaggregation followed by cluster merging.
//!
//! The data set is first microaggregated on the quasi-identifiers with any
//! off-the-shelf algorithm (MDAV by default), producing a k-anonymous
//! clustering. Then, while any cluster violates t-closeness, the cluster
//! whose confidential distribution is *farthest* from the global one is
//! merged with its nearest cluster in quasi-identifier space. In the worst
//! case everything collapses into a single cluster, whose EMD is zero — so
//! the algorithm always terminates with a t-close result.
//!
//! The merge-partner criterion is the paper's (QI-nearest centroid); an
//! alternative criterion that picks the partner minimizing the merged EMD
//! is available for ablation ([`MergePartner::ComplementaryEmd`]).

use crate::confidential::{ClusterHists, Confidential};
use crate::params::TClosenessParams;
use crate::TCloseClusterer;
use tclose_metrics::distance::{centroid_ids, sq_dist};
use tclose_metrics::emd::Ratio;
use tclose_microagg::{Clustering, Matrix, Mdav, Microaggregator, NeighborBackend, Parallelism};

/// How Algorithm 1 chooses the cluster to merge the worst offender with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePartner {
    /// The cluster with the nearest QI centroid (the paper's criterion).
    #[default]
    NearestQi,
    /// The cluster whose union with the offender has the smallest EMD
    /// (ablation; more EMD evaluations, potentially fewer mergers).
    ComplementaryEmd,
}

/// Algorithm 1 of the paper: microaggregation + merging.
#[derive(Debug, Clone)]
pub struct MergeAlgorithm<M = Mdav> {
    base: M,
    partner: MergePartner,
    par: Parallelism,
    backend: NeighborBackend,
}

impl MergeAlgorithm<Mdav> {
    /// Algorithm 1 over MDAV with the paper's merge criterion.
    pub fn new() -> Self {
        MergeAlgorithm {
            base: Mdav::new(),
            partner: MergePartner::NearestQi,
            par: Parallelism::auto(),
            backend: NeighborBackend::Auto,
        }
    }
}

impl Default for MergeAlgorithm<Mdav> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Microaggregator> MergeAlgorithm<M> {
    /// Algorithm 1 over a custom base microaggregation.
    pub fn with_base(base: M) -> Self {
        MergeAlgorithm {
            base,
            partner: MergePartner::NearestQi,
            par: Parallelism::auto(),
            backend: NeighborBackend::Auto,
        }
    }

    /// Selects the merge-partner criterion (ablation hook).
    pub fn with_partner(mut self, partner: MergePartner) -> Self {
        self.partner = partner;
        self
    }

    /// Pins the worker count of the merge phase's centroid scans (the
    /// base microaggregation keeps its own policy). The clustering never
    /// depends on this — only wall-clock time does. Useful to avoid
    /// thread oversubscription when many clusterings run concurrently
    /// (e.g. under the experiment harness's `parallel_map`).
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Selects the neighbor-search backend of the base microaggregation
    /// (default [`NeighborBackend::Auto`]). Backends are exact — the
    /// clustering never depends on this, only wall-clock time does.
    pub fn with_backend(mut self, backend: NeighborBackend) -> Self {
        self.backend = backend;
        self
    }
}

impl<M: Microaggregator> TCloseClusterer for MergeAlgorithm<M> {
    fn cluster(&self, m: &Matrix, conf: &Confidential, params: TClosenessParams) -> Clustering {
        let initial = self.base.partition_matrix_with(m, params.k, self.backend);
        merge_until_t_close_with(m, conf, params.t, initial, self.partner, self.par)
    }

    fn name(&self) -> &'static str {
        "Alg1-merge"
    }
}

/// The merging phase of Algorithm 1, usable on any starting clustering
/// (Algorithms 2 and 3 reuse it as their t-closeness repair).
///
/// Repeatedly merges the cluster with the greatest EMD into a partner
/// until every cluster's EMD is ≤ `t` (or one cluster remains), ranking
/// and testing clusters by their exact EMDs
/// ([`Confidential::exact_emd_of_hists`]) on their sparse histograms. `par`
/// sets the worker count of the centroid scans; the result never depends
/// on it.
pub fn merge_until_t_close_with(
    m: &Matrix,
    conf: &Confidential,
    t: f64,
    clustering: Clustering,
    partner: MergePartner,
    par: Parallelism,
) -> Clustering {
    let n = clustering.n_records();
    let mut clusters: Vec<Vec<usize>> = clustering.into_clusters();
    if clusters.is_empty() {
        return Clustering::new(clusters, n).expect("empty clustering is valid");
    }

    let mut hists: Vec<ClusterHists> = clusters.iter().map(|c| conf.histograms(c)).collect();
    let mut emds: Vec<Ratio> = hists.iter().map(|h| conf.exact_emd_of_hists(h)).collect();
    let mut centroids: Vec<Vec<f64>> = clusters.iter().map(|c| centroid_ids(m, c, par)).collect();

    while clusters.len() > 1 {
        // The cluster farthest from t-closeness (the last one on ties).
        let (worst, &worst_emd) = emds
            .iter()
            .enumerate()
            .max_by_key(|&(_, emd)| emd)
            .expect("non-empty");
        if !worst_emd.exceeds(t) {
            break;
        }

        let mate = match partner {
            MergePartner::NearestQi => {
                // Nearest centroid in QI space.
                let mut best = usize::MAX;
                let mut best_d = f64::INFINITY;
                for ci in 0..clusters.len() {
                    if ci == worst {
                        continue;
                    }
                    let d = sq_dist(&centroids[worst], &centroids[ci]);
                    if d < best_d {
                        best_d = d;
                        best = ci;
                    }
                }
                best
            }
            // Partner minimizing the merged cluster's EMD (the first one
            // on ties).
            MergePartner::ComplementaryEmd => (0..clusters.len())
                .filter(|&ci| ci != worst)
                .min_by_key(|&ci| {
                    let mut merged = hists[worst].clone();
                    merged.merge(&hists[ci]);
                    conf.exact_emd_of_hists(&merged)
                })
                .expect("at least two clusters"),
        };
        debug_assert!(mate != usize::MAX);

        // Merge `mate` into `worst`, then drop `mate` (swap_remove keeps the
        // parallel vectors aligned).
        let (wa, wb) = (clusters[worst].len() as f64, clusters[mate].len() as f64);
        let merged_centroid: Vec<f64> = centroids[worst]
            .iter()
            .zip(&centroids[mate])
            .map(|(a, b)| (a * wa + b * wb) / (wa + wb))
            .collect();
        let moved = std::mem::take(&mut clusters[mate]);
        clusters[worst].extend(moved);
        let moved = std::mem::take(&mut hists[mate]);
        hists[worst].merge(&moved);
        emds[worst] = conf.exact_emd_of_hists(&hists[worst]);
        centroids[worst] = merged_centroid;

        clusters.swap_remove(mate);
        hists.swap_remove(mate);
        emds.swap_remove(mate);
        centroids.swap_remove(mate);
    }

    Clustering::new(clusters, n).expect("merging preserves the partition invariant")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, Draws};
    use tclose_metrics::emd::OrderedEmd;

    /// QI = position on a line; confidential value strongly correlated with
    /// the QI (the adversarial case for merge-based t-closeness).
    fn correlated_problem(n: usize) -> (Matrix, Confidential) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let conf_col: Vec<f64> = (0..n).map(|i| (i as f64) * 10.0).collect();
        (
            Matrix::from_rows(&rows),
            Confidential::single(OrderedEmd::new(&conf_col)),
        )
    }

    /// Confidential values independent of the QI.
    fn independent_problem(n: usize) -> (Matrix, Confidential) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let conf_col: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        (
            Matrix::from_rows(&rows),
            Confidential::single(OrderedEmd::new(&conf_col)),
        )
    }

    #[test]
    fn always_returns_t_close_clustering() {
        for t in [0.02, 0.1, 0.25] {
            let (rows, conf) = correlated_problem(60);
            let params = TClosenessParams::new(3, t).unwrap();
            let c = MergeAlgorithm::new().cluster(&rows, &conf, params);
            c.check_min_size(3).unwrap();
            for cl in c.clusters() {
                assert!(
                    !conf.exact_emd_of_records(cl).exceeds(t),
                    "cluster violates t={t}"
                );
            }
        }
    }

    #[test]
    fn strict_t_on_correlated_data_forces_large_clusters() {
        let (rows, conf) = correlated_problem(60);
        let strict =
            MergeAlgorithm::new().cluster(&rows, &conf, TClosenessParams::new(2, 1e-6).unwrap());
        let loose =
            MergeAlgorithm::new().cluster(&rows, &conf, TClosenessParams::new(2, 0.4).unwrap());
        assert!(
            strict.mean_size() > loose.mean_size(),
            "stricter t must force more merging: strict {} vs loose {}",
            strict.mean_size(),
            loose.mean_size()
        );
    }

    #[test]
    fn independent_confidential_needs_little_merging() {
        let (rows, conf) = independent_problem(60);
        let params = TClosenessParams::new(3, 0.25).unwrap();
        let c = MergeAlgorithm::new().cluster(&rows, &conf, params);
        // weak dependence → clusters mostly stay near size k
        assert!(c.mean_size() <= 6.0, "mean size {}", c.mean_size());
        c.check_min_size(3).unwrap();
    }

    #[test]
    fn worst_case_collapses_to_single_cluster() {
        // perfectly correlated data and an unattainably small t (below the
        // Proposition 1 bound for any k < n) → everything merges.
        let (rows, conf) = correlated_problem(20);
        let params = TClosenessParams::new(2, 1e-6).unwrap();
        let c = MergeAlgorithm::new().cluster(&rows, &conf, params);
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(conf.exact_emd_of_records(&c.clusters()[0]), Ratio::ZERO);
    }

    #[test]
    fn merge_phase_is_identity_when_already_t_close() {
        let (rows, conf) = independent_problem(30);
        let base = Mdav.partition_matrix(&rows, 5);
        let merged = merge_until_t_close_with(
            &rows,
            &conf,
            1.0,
            base.clone(),
            MergePartner::NearestQi,
            Parallelism::auto(),
        );
        assert_eq!(base, merged);
    }

    #[test]
    fn complementary_emd_partner_needs_no_more_mergers() {
        let (rows, conf) = correlated_problem(48);
        let params = TClosenessParams::new(2, 0.1).unwrap();
        let qi = MergeAlgorithm::new().cluster(&rows, &conf, params);
        let ce = MergeAlgorithm::new()
            .with_partner(MergePartner::ComplementaryEmd)
            .cluster(&rows, &conf, params);
        // picking the EMD-complementary partner can only need fewer or equal
        // mergers on this monotone data set
        assert!(ce.n_clusters() >= qi.n_clusters());
        for cl in ce.clusters() {
            assert!(!conf.exact_emd_of_records(cl).exceeds(0.1));
        }
    }

    /// The merge pass as it reads with [`reference`] EMDs: the worst
    /// cluster is the last of the maxima, the pass stops once it is
    /// within `t`, and the complementary partner is the first minimum.
    fn reference_merge(
        m: &Matrix,
        conf: &Confidential,
        t: f64,
        clustering: Clustering,
        partner: MergePartner,
    ) -> Clustering {
        let n = clustering.n_records();
        let mut clusters = clustering.into_clusters();
        let emd = |c: &[usize]| reference::emd(conf, c);
        let centroid = |c: &[usize]| centroid_ids(m, c, Parallelism::sequential());
        let mut centroids: Vec<Vec<f64>> = clusters.iter().map(|c| centroid(c)).collect();
        let mut emds: Vec<_> = clusters.iter().map(|c| emd(c)).collect();
        while clusters.len() > 1 {
            let mut worst = 0;
            for ci in 1..clusters.len() {
                if reference::cmp(emds[ci], emds[worst]).is_ge() {
                    worst = ci;
                }
            }
            if reference::cmp_t(emds[worst], t).is_le() {
                break;
            }
            let others = (0..clusters.len()).filter(|&ci| ci != worst);
            let mate = match partner {
                MergePartner::NearestQi => others
                    .min_by(|&a, &b| {
                        let d = |ci: usize| sq_dist(&centroids[worst], &centroids[ci]);
                        d(a).partial_cmp(&d(b)).unwrap()
                    })
                    .unwrap(),
                MergePartner::ComplementaryEmd => others
                    .min_by(|&a, &b| {
                        let merged = |ci: usize| [&clusters[worst][..], &clusters[ci]].concat();
                        reference::cmp(emd(&merged(a)), emd(&merged(b)))
                    })
                    .unwrap(),
            };
            let (wa, wb) = (clusters[worst].len() as f64, clusters[mate].len() as f64);
            centroids[worst] = centroids[worst]
                .iter()
                .zip(&centroids[mate])
                .map(|(a, b)| (a * wa + b * wb) / (wa + wb))
                .collect();
            let moved = std::mem::take(&mut clusters[mate]);
            clusters[worst].extend(moved);
            emds[worst] = emd(&clusters[worst]);
            clusters.swap_remove(mate);
            centroids.swap_remove(mate);
            emds.swap_remove(mate);
        }
        Clustering::new(clusters, n).unwrap()
    }

    #[test]
    fn merge_pass_matches_a_rational_reference() {
        // Tied confidential models of one to three attributes (the third
        // of one bin), QI points on a small grid so that centroid distances
        // tie too, and random partitions into clusters of one to six
        // records; t at the reported EMD of a cluster and its neighbours, so
        // that some t equal an exact EMD.
        for (case, bins) in [2usize, 3, 5, 17, 60].into_iter().enumerate() {
            for attrs in 1..=3 {
                let mut rng = Draws(500 + 10 * case as u64 + attrs as u64);
                let domains = [bins, (bins / 7).max(2), 1];
                let conf = reference::tied_model(&mut rng, &domains[..attrs], 2 * bins + 40);
                let n = conf.n_bound();
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| vec![rng.below(4) as f64, rng.below(4) as f64])
                    .collect();
                let m = Matrix::from_rows(&rows);
                for _ in 0..4 {
                    let mut order: Vec<usize> = (0..n).collect();
                    for i in (1..n).rev() {
                        order.swap(i, rng.below(i + 1));
                    }
                    let mut clusters = Vec::new();
                    while !order.is_empty() {
                        let size = (1 + rng.below(6)).min(order.len());
                        clusters.push(order.split_off(order.len() - size));
                    }
                    let some = &clusters[rng.below(clusters.len())];
                    let rounded = conf.emd_of_records(some);
                    let start = Clustering::new(clusters, n).unwrap();
                    for t in [
                        rounded,
                        rounded.next_up(),
                        rounded.next_down(),
                        0.05 + 0.3 * rng.unit(),
                    ] {
                        if t <= 1e-30 {
                            continue;
                        }
                        for partner in [MergePartner::NearestQi, MergePartner::ComplementaryEmd] {
                            let seq = Parallelism::sequential();
                            assert_eq!(
                                merge_until_t_close_with(&m, &conf, t, start.clone(), partner, seq),
                                reference_merge(&m, &conf, t, start.clone(), partner),
                                "bins={bins} attributes={attrs} t={t} {partner:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_input() {
        let conf = Confidential::single(OrderedEmd::new(&[1.0]));
        let c = MergeAlgorithm::new().cluster(
            &Matrix::from_rows(&[]),
            &conf,
            TClosenessParams::new(2, 0.1).unwrap(),
        );
        assert_eq!(c.n_clusters(), 0);
    }
}
