//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Algorithm 2 refinement strategy** — swap (paper) vs add;
//! 2. **Algorithm 1 merge partner** — QI-nearest (paper) vs
//!    EMD-complementary;
//! 3. **Algorithm 1 base microaggregation** — MDAV vs V-MDAV(γ);
//! 4. **Algorithm 3 surplus placement** — central (paper) vs tail.
//!
//! The variants exist only here, built from the algorithms' public
//! builders: the product (`tclose_core::Algorithm`, model files, the
//! daemon) runs the paper's three algorithms.

use crate::render::{fmt_f, Grid};
use crate::runner::parallel_map;
use crate::{Context, Dataset};
use tclose_core::alg1_merge::MergePartner;
use tclose_core::alg3_tfirst::ExtraPlacement;
use tclose_core::{
    KAnonymityFirst, MergeAlgorithm, RefineStrategy, TCloseClusterer, TClosenessFirst,
};
use tclose_microagg::{aggregate_columns, VMdav};
use tclose_microdata::Table;

use super::baseline_cmp::run_clusterer;

/// One ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationCell {
    /// Study this cell belongs to.
    pub study: &'static str,
    /// Variant name.
    pub variant: &'static str,
    /// t level.
    pub t: f64,
    /// Normalized SSE of the release.
    pub sse: f64,
    /// Smallest cluster size (the achieved k).
    pub min_size: usize,
    /// Mean cluster size.
    pub mean_size: f64,
    /// Achieved worst-class EMD.
    pub achieved_t: f64,
}

/// One ablation variant: its study, its label and the clusterer it runs.
/// Every variant ends in the merging pass, so each is t-close.
pub type Variant = (&'static str, &'static str, Box<dyn TCloseClusterer + Sync>);

/// The ablation variants, built from the algorithms' public builders.
pub fn ablation_variants() -> Vec<Variant> {
    vec![
        ("refine", "swap (paper)", Box::new(KAnonymityFirst::new())),
        (
            "refine",
            "add",
            Box::new(KAnonymityFirst::new().with_strategy(RefineStrategy::Add)),
        ),
        (
            "merge-partner",
            "QI-nearest (paper)",
            Box::new(MergeAlgorithm::new()),
        ),
        (
            "merge-partner",
            "EMD-complementary",
            Box::new(MergeAlgorithm::new().with_partner(MergePartner::ComplementaryEmd)),
        ),
        (
            "base-microagg",
            "MDAV (paper)",
            Box::new(MergeAlgorithm::new()),
        ),
        (
            "base-microagg",
            "V-MDAV γ=0.2",
            Box::new(MergeAlgorithm::with_base(VMdav::new(0.2))),
        ),
        (
            "base-microagg",
            "V-MDAV γ=1.1",
            Box::new(MergeAlgorithm::with_base(VMdav::new(1.1))),
        ),
        (
            "extras",
            "central (paper)",
            Box::new(TClosenessFirst::new()),
        ),
        (
            "extras",
            "tail",
            Box::new(TClosenessFirst::new().with_extras(ExtraPlacement::Tail)),
        ),
    ]
}

/// Raw ablation sweep on one table at fixed `k`: every variant released
/// by cluster centroids, as the pipeline releases.
pub fn ablation_cells(table: &Table, k: usize, ts: &[f64]) -> Vec<AblationCell> {
    let variants = ablation_variants();
    let jobs: Vec<_> = variants
        .iter()
        .flat_map(|v| ts.iter().map(move |&t| (v, t)))
        .collect();
    parallel_map(jobs, |&((study, variant, clusterer), t)| {
        let r = run_clusterer(table, clusterer.as_ref(), k, t, aggregate_columns);
        AblationCell {
            study,
            variant,
            t,
            sse: r.sse,
            min_size: r.min_size,
            mean_size: r.mean_size,
            achieved_t: r.achieved_t,
        }
    })
}

/// Renders the ablations: one row per (study, variant), columns = t values
/// showing `SSE (mean size)`.
pub fn ablation_grid(ctx: &Context, dataset: Dataset) -> Grid {
    let table = dataset.table(ctx);
    let ts: Vec<f64> = if ctx.quick {
        vec![0.05, 0.13, 0.25]
    } else {
        ctx.t_grid_figures()
    };
    let cells = ablation_cells(&table, 2, &ts);

    let mut headers: Vec<String> = vec!["study".into(), "variant".into()];
    headers.extend(ts.iter().map(|t| format!("t={t}")));
    let mut grid = Grid {
        title: format!(
            "Ablations — SSE (mean cluster size), k=2, {} (n={})",
            dataset.name(),
            table.n_rows()
        ),
        headers,
        rows: Vec::new(),
    };
    for (study, variant, _) in ablation_variants() {
        let mut row = vec![study.to_owned(), variant.to_owned()];
        for &t in &ts {
            let c = cells
                .iter()
                .find(|c| c.study == study && c.variant == variant && (c.t - t).abs() < 1e-12)
                .expect("cell computed");
            row.push(format!("{} ({})", fmt_f(c.sse, 5), fmt_f(c.mean_size, 1)));
        }
        grid.push_row(row);
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::small_mcd;

    #[test]
    fn all_variants_run() {
        let t = small_mcd(80);
        let cells = ablation_cells(&t, 2, &[0.2]);
        assert_eq!(cells.len(), ablation_variants().len());
        for c in &cells {
            assert!(c.sse.is_finite(), "{}: SSE {}", c.variant, c.sse);
            assert!(
                c.min_size >= 2,
                "{}: smallest class {}",
                c.variant,
                c.min_size
            );
            assert!(
                c.achieved_t <= 0.2 + 1e-9,
                "{}: achieved t {}",
                c.variant,
                c.achieved_t
            );
        }
    }

    #[test]
    fn swap_variant_keeps_clusters_smaller_than_add_under_correlation() {
        // The paper's argument for swapping over adding concerns highly
        // correlated data with an *achievable* t: adding records grows the
        // cluster, swapping keeps it at k. (At an unachievably small t —
        // below the Proposition 1 bound — both degenerate to merging.)
        use crate::experiments::test_support::small_hcd;
        let t = small_hcd(120);
        let cells = ablation_cells(&t, 2, &[0.25]);
        let size_of = |variant: &str| {
            cells
                .iter()
                .find(|c| c.variant == variant)
                .unwrap()
                .mean_size
        };
        assert!(
            size_of("swap (paper)") <= size_of("add") + 1e-9,
            "swap {} vs add {}",
            size_of("swap (paper)"),
            size_of("add")
        );
    }

    #[test]
    fn grid_lists_every_variant() {
        let ctx = Context {
            seed: 9,
            patient_n: 100,
            quick: true,
        };
        let g = ablation_grid(&ctx, Dataset::Mcd);
        assert_eq!(g.rows.len(), ablation_variants().len());
    }
}
