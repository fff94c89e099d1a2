//! Algorithm 2: k-anonymity-first t-closeness-aware microaggregation.
//!
//! Clusters are formed MDAV-style over the quasi-identifiers (size exactly
//! `k`), but immediately after a cluster is formed it is *refined*: while
//! its EMD to the global confidential distribution exceeds `t`, the nearest
//! unclustered record `y` (in QI space) is considered and — if beneficial —
//! swapped with the cluster member `y'` whose replacement minimizes the
//! cluster's EMD. Swapping (rather than adding) keeps the cluster size at
//! `k`; the swapped-out record returns to the unclustered pool.
//!
//! The refinement may exhaust the candidate pool before reaching `t`
//! (especially for the last clusters), so Algorithm 2 alone cannot
//! guarantee t-closeness. Per the paper, it is therefore used as the
//! microaggregation step of Algorithm 1: a final merging pass
//! ([`merge_until_t_close_with`]) always repairs any violating
//! clusters.

use crate::alg1_merge::{merge_until_t_close_with, MergePartner};
use crate::confidential::Confidential;
use crate::params::TClosenessParams;
use crate::TCloseClusterer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tclose_index::IndexPool;
use tclose_metrics::distance::{centroid_ids, distances_to_ids};
use tclose_microagg::{Clustering, Matrix, NeighborBackend, NeighborSet, Parallelism};

/// How a freshly formed cluster is refined toward t-closeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefineStrategy {
    /// Swap a member for an outside record (the paper's choice: cluster size
    /// stays `k`).
    #[default]
    Swap,
    /// Add outside records while they reduce the EMD (the alternative the
    /// paper discarded because clusters balloon under high QI↔confidential
    /// correlation; kept for ablation).
    Add,
}

/// Algorithm 2 of the paper: k-anonymity-first cluster formation with
/// EMD-driven refinement.
#[derive(Debug, Clone, Copy)]
pub struct KAnonymityFirst {
    /// Refinement strategy (paper: [`RefineStrategy::Swap`]).
    pub strategy: RefineStrategy,
    par: Parallelism,
    backend: NeighborBackend,
}

impl KAnonymityFirst {
    /// The paper's configuration: swap refinement + merge fallback.
    pub fn new() -> Self {
        KAnonymityFirst {
            strategy: RefineStrategy::Swap,
            par: Parallelism::auto(),
            backend: NeighborBackend::Auto,
        }
    }

    /// Selects the refinement strategy (ablation hook).
    pub fn with_strategy(mut self, strategy: RefineStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Pins the worker count of the QI scans. The clustering never depends
    /// on this — only wall-clock time does.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Selects the neighbor-search backend of the seed-selection and
    /// k-nearest queries (default [`NeighborBackend::Auto`]). Backends are
    /// exact — the clustering never depends on this.
    pub fn with_backend(mut self, backend: NeighborBackend) -> Self {
        self.backend = backend;
        self
    }
}

impl Default for KAnonymityFirst {
    fn default() -> Self {
        Self::new()
    }
}

impl TCloseClusterer for KAnonymityFirst {
    fn cluster(&self, m: &Matrix, conf: &Confidential, params: TClosenessParams) -> Clustering {
        let refined = self.refine(m, conf, params);
        merge_until_t_close_with(
            m,
            conf,
            params.t,
            refined,
            MergePartner::NearestQi,
            self.par,
        )
    }

    fn name(&self) -> &'static str {
        "Alg2-kfirst"
    }
}

impl KAnonymityFirst {
    /// The refinement alone: clusters formed MDAV-style and refined by
    /// [`generate_cluster`](Self::generate_cluster), before the merging
    /// pass that makes them t-close.
    pub(crate) fn refine(
        &self,
        m: &Matrix,
        conf: &Confidential,
        params: TClosenessParams,
    ) -> Clustering {
        assert!(params.k >= 1, "k must be at least 1");
        let par = self.par;
        let n = m.n_rows();
        let mut search = NeighborSet::new(m, self.backend, par);
        let mut remaining = IndexPool::full(n);
        let mut clusters: Vec<Vec<usize>> = Vec::new();

        while !remaining.is_empty() {
            let xa = centroid_ids(m, remaining.items(), par);
            let x0 = search
                .farthest_from(remaining.items(), &xa)
                .expect("non-empty");
            let c = self.generate_cluster(m, conf, params, x0, &mut remaining, &mut search);
            clusters.push(c);

            if !remaining.is_empty() {
                let x1 = search
                    .farthest_from(remaining.items(), m.row(x0))
                    .expect("non-empty");
                let c = self.generate_cluster(m, conf, params, x1, &mut remaining, &mut search);
                clusters.push(c);
            }
        }

        Clustering::new(clusters, n).expect("cluster generation partitions the records")
    }

    /// `GenerateCluster` of the paper: seed a cluster with the `k` records
    /// nearest to `seed`, then refine until t-close or candidates exhausted.
    fn generate_cluster(
        &self,
        m: &Matrix,
        conf: &Confidential,
        params: TClosenessParams,
        seed: usize,
        remaining: &mut IndexPool,
        search: &mut NeighborSet<'_>,
    ) -> Vec<usize> {
        let k = params.k;
        // Too few records for two clusters: the tail becomes one cluster.
        if remaining.len() < 2 * k {
            let members: Vec<usize> = remaining.items().to_vec();
            for &r in &members {
                remaining.remove(r);
                search.remove(r);
            }
            return members;
        }

        let mut members = search.k_nearest(remaining.items(), m.row(seed), k);
        for &r in &members {
            remaining.remove(r);
            search.remove(r);
        }

        // Only a cluster that needs refining gets a candidate queue.
        let mut scorer = conf.scorer(&members);
        if !scorer.exceeds(params.t) {
            return members;
        }

        // Candidate queue: the unclustered records by (distance to the seed,
        // id). Each candidate is considered once (the paper's
        // `X' = X' \ {y}`), which guarantees termination; records swapped
        // *out* stay available for later clusters via `remaining` but never
        // enter this queue, so every queued `y` is still unclustered when
        // popped. Refinement usually stops after a few dozen candidates, so
        // the distances are computed once and the queue is a heap consumed
        // lazily rather than a full sort. Squared distances between finite
        // rows are never negative, NaN or −0.0, and on such floats the IEEE
        // bit pattern orders exactly as the value does.
        let mut queue: BinaryHeap<Reverse<(u64, usize)>> =
            distances_to_ids(m, remaining.items(), m.row(seed), self.par)
                .into_iter()
                .map(|(d, y)| Reverse((d.to_bits(), y)))
                .collect();

        while scorer.exceeds(params.t) {
            let Some(Reverse((_, y))) = queue.pop() else {
                break;
            };
            debug_assert!(remaining.contains(y));
            match self.strategy {
                RefineStrategy::Swap => {
                    // The member whose replacement by y helps most (the
                    // first one on ties).
                    if let Some(i) = scorer.best_swap(&members, y) {
                        let out = members[i];
                        scorer.swap(out, y);
                        members[i] = y;
                        remaining.remove(y);
                        search.remove(y);
                        remaining.insert(out);
                        search.insert(out);
                    }
                }
                RefineStrategy::Add => {
                    if scorer.add_if_lower(y) {
                        members.push(y);
                        remaining.remove(y);
                        search.remove(y);
                    }
                }
            }
        }
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_metrics::emd::OrderedEmd;

    fn correlated(n: usize) -> (Matrix, Confidential) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let conf: Vec<f64> = (0..n).map(|i| i as f64).collect();
        (
            Matrix::from_rows(&rows),
            Confidential::single(OrderedEmd::new(&conf)),
        )
    }

    fn independent(n: usize) -> (Matrix, Confidential) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let conf: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64).collect();
        (
            Matrix::from_rows(&rows),
            Confidential::single(OrderedEmd::new(&conf)),
        )
    }

    #[test]
    fn partitions_all_records_with_min_size_k() {
        for n in [10, 37, 60] {
            for k in [2, 3, 5] {
                let (rows, conf) = independent(n);
                let params = TClosenessParams::new(k, 0.15).unwrap();
                let c = KAnonymityFirst::new().cluster(&rows, &conf, params);
                assert_eq!(c.n_records(), n);
                c.check_min_size(k).unwrap();
            }
        }
    }

    #[test]
    fn with_fallback_result_is_t_close() {
        for t in [0.05, 0.15, 0.25] {
            let (rows, conf) = correlated(48);
            let params = TClosenessParams::new(2, t).unwrap();
            let c = KAnonymityFirst::new().cluster(&rows, &conf, params);
            for cl in c.clusters() {
                assert!(!conf.exact_emd_of_records(cl).exceeds(t), "t={t}");
            }
        }
    }

    #[test]
    fn swapping_beats_plain_mdav_on_emd() {
        use tclose_microagg::{Mdav, Microaggregator};
        let (rows, conf) = correlated(60);
        let params = TClosenessParams::new(3, 0.10).unwrap();
        // the refinement alone, so we observe pure refinement quality
        let refined = KAnonymityFirst::new().refine(&rows, &conf, params);
        let plain = Mdav.partition_matrix(&rows, 3);
        let worst_refined = refined
            .clusters()
            .iter()
            .map(|c| conf.emd_of_records(c))
            .fold(0.0, f64::max);
        let worst_plain = plain
            .clusters()
            .iter()
            .map(|c| conf.emd_of_records(c))
            .fold(0.0, f64::max);
        assert!(
            worst_refined < worst_plain,
            "refinement should reduce the worst EMD: {worst_refined} vs {worst_plain}"
        );
    }

    #[test]
    fn cluster_sizes_stay_near_k_with_swap_strategy() {
        let (rows, conf) = correlated(60);
        let params = TClosenessParams::new(3, 0.25).unwrap();
        let c = KAnonymityFirst::new().refine(&rows, &conf, params);
        // swap strategy never grows a cluster beyond the MDAV tail bound
        assert!(c.max_size() <= 2 * 3 - 1 + 3);
        c.check_min_size(3).unwrap();
    }

    #[test]
    fn add_strategy_grows_clusters_under_correlation() {
        let (rows, conf) = correlated(60);
        let params = TClosenessParams::new(3, 0.05).unwrap();
        let add = KAnonymityFirst::new()
            .with_strategy(RefineStrategy::Add)
            .refine(&rows, &conf, params);
        let swap = KAnonymityFirst::new().refine(&rows, &conf, params);
        // the paper's motivation for swapping: adding balloons cluster size
        // when QIs and confidential values are highly correlated
        assert!(
            add.mean_size() > swap.mean_size(),
            "add {} should exceed swap {}",
            add.mean_size(),
            swap.mean_size()
        );
    }

    #[test]
    fn loose_t_needs_no_refinement_and_matches_sizes_of_mdav() {
        let (rows, conf) = independent(40);
        let params = TClosenessParams::new(4, 1.0).unwrap();
        let c = KAnonymityFirst::new().cluster(&rows, &conf, params);
        // t = 1 never constrains → fixed-size clusters like MDAV
        assert_eq!(c.min_size(), 4);
        assert!(c.max_size() <= 7);
    }

    /// Algorithm 2's refinement as it ran before the swap scorer and the
    /// lazy queue: every unclustered record sorted by (distance to the
    /// seed, id), then one exact EMD of the swapped histograms per
    /// (member, candidate) pair. No merge pass.
    fn reference_clusters(
        m: &Matrix,
        conf: &Confidential,
        params: TClosenessParams,
        strategy: RefineStrategy,
    ) -> Clustering {
        use tclose_metrics::distance::sq_dist;
        let par = Parallelism::auto();
        let mut search = NeighborSet::new(m, NeighborBackend::Auto, par);
        let mut remaining = IndexPool::full(m.n_rows());
        let generate = |seed: usize, remaining: &mut IndexPool, search: &mut NeighborSet<'_>| {
            if remaining.len() < 2 * params.k {
                let members = remaining.items().to_vec();
                for &r in &members {
                    remaining.remove(r);
                    search.remove(r);
                }
                return members;
            }
            let mut members = search.k_nearest(remaining.items(), m.row(seed), params.k);
            for &r in &members {
                remaining.remove(r);
                search.remove(r);
            }
            let mut hists = conf.histograms(&members);
            let mut emd = conf.exact_emd_of_hists(&hists);
            let mut queue = remaining.items().to_vec();
            queue.sort_by(|&a, &b| {
                sq_dist(m.row(a), m.row(seed))
                    .partial_cmp(&sq_dist(m.row(b), m.row(seed)))
                    .unwrap()
                    .then(a.cmp(&b))
            });
            for y in queue {
                if !emd.exceeds(params.t) {
                    break;
                }
                match strategy {
                    RefineStrategy::Swap => {
                        let mut best = None;
                        let mut best_emd = emd;
                        for (i, &out) in members.iter().enumerate() {
                            let mut swapped = hists.clone();
                            swapped.remove(conf, out);
                            swapped.add(conf, y);
                            let e = conf.exact_emd_of_hists(&swapped);
                            if e < best_emd {
                                (best, best_emd) = (Some(i), e);
                            }
                        }
                        if let Some(i) = best {
                            let out = members[i];
                            hists.remove(conf, out);
                            hists.add(conf, y);
                            members[i] = y;
                            remaining.remove(y);
                            search.remove(y);
                            remaining.insert(out);
                            search.insert(out);
                            emd = best_emd;
                        }
                    }
                    RefineStrategy::Add => {
                        let mut trial = hists.clone();
                        trial.add(conf, y);
                        let e = conf.exact_emd_of_hists(&trial);
                        if e < emd {
                            hists = trial;
                            members.push(y);
                            remaining.remove(y);
                            search.remove(y);
                            emd = e;
                        }
                    }
                }
            }
            members
        };
        let mut clusters = Vec::new();
        while !remaining.is_empty() {
            let xa = centroid_ids(m, remaining.items(), par);
            let x0 = search.farthest_from(remaining.items(), &xa).unwrap();
            clusters.push(generate(x0, &mut remaining, &mut search));
            if !remaining.is_empty() {
                let x1 = search.farthest_from(remaining.items(), m.row(x0)).unwrap();
                clusters.push(generate(x1, &mut remaining, &mut search));
            }
        }
        Clustering::new(clusters, m.n_rows()).unwrap()
    }

    #[test]
    fn refinement_matches_the_pairwise_sorted_reference() {
        use crate::fit::GlobalFit;
        use tclose_microdata::NormalizeMethod;
        // census_table keeps two confidential attributes (FEDTAX, FICA).
        // The first 300 rows of each table keep the unoptimized reference
        // affordable in debug builds; at k = 2, t = 0.1 (below
        // Proposition 1's bound) every cluster exhausts its queue. The twin
        // set holds every QI point twice, so every candidate ties with its
        // twin and the queue's id tie-break decides the order. The tied
        // census tables put many records on few confidential values (zero
        // tax, the FICA cap), where different swaps can tie exactly and
        // the first member must win: census_tied_mcd with FEDTAX, and
        // census_tied with FEDTAX and FICA.
        let rows: Vec<usize> = (0..300).collect();
        let twins: Vec<Vec<f64>> = (0..60).map(|i| vec![(i / 2) as f64]).collect();
        let twin_conf: Vec<f64> = (0..60).map(|i| ((i * 7) % 11) as f64).collect();
        let mut cases = vec![
            correlated(60),
            (
                Matrix::from_rows(&twins),
                Confidential::single(OrderedEmd::new(&twin_conf)),
            ),
        ];
        for table in [
            tclose_datasets::census_mcd(5),
            tclose_datasets::census_table(6),
            tclose_datasets::census_tied_mcd(7),
            tclose_datasets::census::census_tied(8),
        ] {
            let table = table.take_rows(&rows).unwrap();
            let fit = GlobalFit::fit(&table, NormalizeMethod::ZScore).unwrap();
            let m = fit.embedding().embed(&table, fit.qi()).unwrap();
            cases.push((m, fit.confidential().clone()));
        }
        for (m, conf) in &cases {
            for k in [2, 5, 9] {
                for t in [0.1, 0.2] {
                    let params = TClosenessParams::new(k, t).unwrap();
                    for strategy in [RefineStrategy::Swap, RefineStrategy::Add] {
                        let got = KAnonymityFirst::new()
                            .with_strategy(strategy)
                            .refine(m, conf, params);
                        let want = reference_clusters(m, conf, params, strategy);
                        assert_eq!(
                            got,
                            want,
                            "{} rows, {} confidential attribute(s), k={k} t={t} {strategy:?}",
                            m.n_rows(),
                            conf.n_attributes()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let conf = Confidential::single(OrderedEmd::new(&[1.0, 2.0]));
        let params = TClosenessParams::new(3, 0.2).unwrap();
        let c = KAnonymityFirst::new().cluster(&Matrix::from_rows(&[]), &conf, params);
        assert_eq!(c.n_clusters(), 0);

        let rows = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let c = KAnonymityFirst::new().cluster(&rows, &conf, params);
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.min_size(), 2);
    }
}
