//! Merged reporting for sharded runs.

use std::time::Duration;

use tclose_core::AnonymizationReport;

/// Merged audit of one streaming anonymization run: the per-shard
/// [`AnonymizationReport`]s plus the aggregates an operator cares about.
///
/// Aggregation semantics, chosen so the merged numbers stay *audits*:
///
/// * `max_emd` — worst class-to-global EMD over all shards. Every shard is
///   audited against the **global** confidential distribution, and the EMD
///   is jointly convex, so classes that collide across shards in the merged
///   release can only move *closer* to the global distribution — the
///   reported maximum is a sound bound for the merged file.
/// * `min_cluster_size` — smallest audited class over all shards; merged
///   classes can only grow, so this is a sound lower bound on the merged
///   release's k.
/// * `sse` — record-weighted mean of the per-shard normalized SSEs
///   (normalized SSE is a per-record average, so the weighted mean is the
///   exact whole-release value up to each shard's own normalization
///   ranges).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Algorithm that produced the release.
    pub algorithm: &'static str,
    /// Requested k-anonymity level.
    pub k_requested: usize,
    /// Requested t-closeness level.
    pub t_requested: f64,
    /// Total records anonymized.
    pub n_records: usize,
    /// Number of shards processed.
    pub n_shards: usize,
    /// Configured maximum records per shard.
    pub shard_rows: usize,
    /// Total equivalence classes produced (sum over shards).
    pub n_clusters: usize,
    /// Smallest audited class size over all shards (sound lower bound for
    /// the merged release).
    pub min_cluster_size: usize,
    /// Mean class size over the whole release.
    pub mean_cluster_size: f64,
    /// Largest class size over all shards.
    pub max_cluster_size: usize,
    /// Worst audited class-to-global EMD over all shards (sound upper
    /// bound for the merged release).
    pub max_emd: f64,
    /// `max_emd / t_requested`: how much of the requested t-budget the
    /// worst class spends. ≤ 1.0 means the release honors the request;
    /// with an approximate backend this is the number to watch (0.0 when
    /// `t_requested` is 0 — nothing to deviate from).
    pub achieved_t_deviation: f64,
    /// Record-weighted mean of per-shard normalized SSEs.
    pub sse: f64,
    /// Wall time of pass 1 (streaming fit); zero when the run was
    /// pre-fitted.
    pub fit_time: Duration,
    /// Wall time of pass 2 (sharded anonymize + write).
    pub apply_time: Duration,
    /// True when the run applied a pre-fitted model (pass 1 skipped
    /// entirely — see `ShardedAnonymizer::apply_file_with`).
    pub prefitted: bool,
    /// Distinct cells rewritten by the compliance pre-pass (0 when no
    /// compliance policy was configured).
    pub scrubbed_cells: usize,
    /// Compliance audit records of the whole run: one per (cell, rule)
    /// the scrub rewrote, counted whether or not the policy writes a log
    /// (0 when no compliance policy was configured).
    pub compliance_audits: usize,
    /// The per-shard reports, in input order.
    pub shards: Vec<AnonymizationReport>,
}

impl StreamReport {
    /// Assembles the merged report from per-shard reports in input order.
    ///
    /// # Panics
    /// Panics if `shards` is empty — a run that anonymized nothing has no
    /// report (the engine errors out earlier).
    pub fn merge(
        shards: Vec<AnonymizationReport>,
        shard_rows: usize,
        fit_time: Duration,
        apply_time: Duration,
    ) -> Self {
        assert!(!shards.is_empty(), "cannot merge zero shard reports");
        let first = &shards[0];
        let n_records: usize = shards.iter().map(|r| r.n_records).sum();
        let n_clusters: usize = shards.iter().map(|r| r.n_clusters).sum();
        let sse_weighted: f64 = shards
            .iter()
            .map(|r| r.sse * r.n_records as f64)
            .sum::<f64>()
            / n_records as f64;
        let max_emd = shards.iter().map(|r| r.max_emd).fold(0.0, f64::max);
        let achieved_t_deviation = if first.t_requested > 0.0 {
            max_emd / first.t_requested
        } else {
            0.0
        };
        StreamReport {
            algorithm: first.algorithm,
            k_requested: first.k_requested,
            t_requested: first.t_requested,
            n_records,
            n_shards: shards.len(),
            shard_rows,
            n_clusters,
            min_cluster_size: shards.iter().map(|r| r.min_cluster_size).min().unwrap_or(0),
            mean_cluster_size: n_records as f64 / n_clusters as f64,
            max_cluster_size: shards.iter().map(|r| r.max_cluster_size).max().unwrap_or(0),
            max_emd,
            achieved_t_deviation,
            sse: sse_weighted,
            fit_time,
            apply_time,
            prefitted: false,
            scrubbed_cells: 0,
            compliance_audits: 0,
            shards,
        }
    }

    /// True when every shard's audit satisfies both requested levels.
    pub fn satisfies_request(&self) -> bool {
        self.shards
            .iter()
            .all(AnonymizationReport::satisfies_request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_core::Ratio;

    fn report(
        n: usize,
        clusters: usize,
        min: usize,
        max: usize,
        emd: Ratio,
        sse: f64,
    ) -> AnonymizationReport {
        AnonymizationReport {
            algorithm: "Alg3-tfirst",
            k_requested: 3,
            t_requested: 0.2,
            n_records: n,
            n_clusters: clusters,
            min_cluster_size: min,
            mean_cluster_size: n as f64 / clusters as f64,
            max_cluster_size: max,
            max_emd: emd.to_f64(),
            max_emd_exact: emd,
            sse,
            clustering_time: Duration::from_millis(1),
        }
    }

    #[test]
    fn merge_aggregates_correctly() {
        let merged = StreamReport::merge(
            vec![
                report(100, 20, 3, 8, Ratio::new(15, 100), 0.01),
                report(50, 10, 4, 6, Ratio::new(19, 100), 0.04),
            ],
            100,
            Duration::from_millis(5),
            Duration::from_millis(9),
        );
        assert_eq!(merged.n_records, 150);
        assert_eq!(merged.n_shards, 2);
        assert_eq!(merged.n_clusters, 30);
        assert_eq!(merged.min_cluster_size, 3);
        assert_eq!(merged.max_cluster_size, 8);
        assert!((merged.max_emd - 0.19).abs() < 1e-12);
        // deviation = worst EMD / requested t = 0.19 / 0.2
        assert!((merged.achieved_t_deviation - 0.95).abs() < 1e-12);
        assert!((merged.mean_cluster_size - 5.0).abs() < 1e-12);
        // record-weighted SSE: (100·0.01 + 50·0.04) / 150 = 0.02
        assert!((merged.sse - 0.02).abs() < 1e-12);
        assert!(merged.satisfies_request());
    }

    #[test]
    fn merge_flags_a_violating_shard() {
        let merged = StreamReport::merge(
            vec![
                report(30, 10, 3, 3, Ratio::new(1, 10), 0.0),
                report(30, 10, 2, 3, Ratio::new(1, 10), 0.0),
            ],
            30,
            Duration::ZERO,
            Duration::ZERO,
        );
        assert!(!merged.satisfies_request(), "k=2 < requested 3");
    }

    #[test]
    #[should_panic(expected = "zero shard")]
    fn merge_of_nothing_panics() {
        StreamReport::merge(vec![], 10, Duration::ZERO, Duration::ZERO);
    }
}
