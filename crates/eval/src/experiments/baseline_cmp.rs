//! Extension experiment: the paper's three microaggregation algorithms
//! against the generalization-based baselines its Sections 3–4 argue
//! against — Mondrian with the t-closeness split constraint, and a
//! SABRE-style bucketization. Baseline releases use global recoding to
//! ranges (midpoints), microaggregation releases use centroids; SSE then
//! quantifies the utility advantage the paper claims for perturbation.

use crate::baselines::{generalize_columns, MondrianTClose, SabreLite};
use crate::render::{fmt_f, Grid};
use crate::runner::parallel_map;
use crate::{Context, Dataset};
use tclose_core::pipeline::qi_matrix;
use tclose_core::{Algorithm, Confidential, TCloseClusterer, TClosenessParams};
use tclose_metrics::sse::normalized_sse;
use tclose_microdata::{NormalizeMethod, Table};

use super::run_cell;

/// One comparison measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCell {
    /// Method name.
    pub method: String,
    /// t level.
    pub t: f64,
    /// Normalized SSE of the release.
    pub sse: f64,
    /// Mean equivalence-class size.
    pub mean_size: f64,
    /// Worst class-to-table EMD actually achieved.
    pub achieved_t: f64,
}

/// Runs one generalization baseline end to end.
fn run_baseline(table: &Table, clusterer: &dyn TCloseClusterer, k: usize, t: f64) -> BaselineCell {
    let qi = table.schema().quasi_identifiers();
    let rows = qi_matrix(table, &qi, NormalizeMethod::ZScore).expect("metric QI space");
    let conf = Confidential::from_table(table).expect("confidential attribute present");
    let params = TClosenessParams::new(k, t).expect("valid parameters");
    let clustering = clusterer.cluster(&rows, &conf, params);
    let released = generalize_columns(table, &qi, &clustering).expect("release");
    let sse = normalized_sse(table, &released, &qi).expect("comparable tables");
    let achieved_t = clustering
        .clusters()
        .iter()
        .map(|c| conf.emd_of_records(c))
        .fold(0.0, f64::max);
    BaselineCell {
        method: clusterer.name().to_owned(),
        t,
        sse,
        mean_size: clustering.mean_size(),
        achieved_t,
    }
}

/// Raw comparison sweep at fixed `k`: Algorithms 1–3 plus the baselines.
pub fn baseline_cells(table: &Table, k: usize, ts: &[f64]) -> Vec<BaselineCell> {
    #[derive(Clone, Copy)]
    enum Job {
        Core(Algorithm, f64),
        Mondrian(f64),
        Sabre(f64),
    }
    let mut jobs = Vec::new();
    for &t in ts {
        for alg in [
            Algorithm::Merge,
            Algorithm::KAnonymityFirst,
            Algorithm::TClosenessFirst,
        ] {
            jobs.push(Job::Core(alg, t));
        }
        jobs.push(Job::Mondrian(t));
        jobs.push(Job::Sabre(t));
    }
    parallel_map(jobs, |job| match *job {
        Job::Core(alg, t) => {
            let r = run_cell(table, alg, k, t);
            BaselineCell {
                method: alg.name().to_owned(),
                t,
                sse: r.sse,
                mean_size: r.mean_cluster_size,
                achieved_t: r.max_emd,
            }
        }
        Job::Mondrian(t) => run_baseline(table, &MondrianTClose::new(), k, t),
        Job::Sabre(t) => run_baseline(table, &SabreLite::new(), k, t),
    })
}

/// Renders the comparison: rows = method, columns = t, cells = SSE.
pub fn baselines_grid(ctx: &Context, dataset: Dataset) -> Grid {
    let table = dataset.table(ctx);
    let ts = ctx.t_grid_figures();
    let cells = baseline_cells(&table, 2, &ts);

    let methods: Vec<String> = {
        let mut seen = Vec::new();
        for c in &cells {
            if !seen.contains(&c.method) {
                seen.push(c.method.clone());
            }
        }
        seen
    };

    let mut headers: Vec<String> = vec!["method".into()];
    headers.extend(ts.iter().map(|t| format!("t={t}")));
    let mut grid = Grid {
        title: format!(
            "Baselines — normalized SSE, k=2, {} (n={}); microaggregation vs generalization",
            dataset.name(),
            table.n_rows()
        ),
        headers,
        rows: Vec::new(),
    };
    for m in &methods {
        let mut row = vec![m.clone()];
        for &t in &ts {
            let c = cells
                .iter()
                .find(|c| &c.method == m && (c.t - t).abs() < 1e-12)
                .expect("cell computed");
            row.push(fmt_f(c.sse, 5));
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
    fn all_methods_measured() {
        let t = small_mcd(100);
        let cells = baseline_cells(&t, 2, &[0.2]);
        assert_eq!(cells.len(), 5);
        let names: Vec<&str> = cells.iter().map(|c| c.method.as_str()).collect();
        assert!(names.contains(&"Mondrian-t"));
        assert!(names.contains(&"SABRE-lite"));
        assert!(names.contains(&"Alg3-tfirst"));
    }

    #[test]
    fn guaranteeing_methods_achieve_t() {
        let t = small_mcd(100);
        let cells = baseline_cells(&t, 2, &[0.2]);
        for c in &cells {
            if c.method == "Mondrian-t" || c.method == "Alg3-tfirst" || c.method == "Alg1-merge" {
                assert!(
                    c.achieved_t <= 0.2 + 1e-9,
                    "{}: achieved {}",
                    c.method,
                    c.achieved_t
                );
            }
        }
    }

    #[test]
    fn microaggregation_beats_generalization_on_utility() {
        // The paper's core claim (Section 4): for the same privacy level,
        // perturbation (centroids) loses less information than global
        // recoding (range midpoints). Compare best-of-each-family totals.
        let t = small_mcd(120);
        let cells = baseline_cells(&t, 2, &[0.1, 0.2]);
        let total = |name: &str| -> f64 {
            cells
                .iter()
                .filter(|c| c.method == name)
                .map(|c| c.sse)
                .sum()
        };
        let best_micro = total("Alg3-tfirst");
        let mondrian = total("Mondrian-t");
        assert!(
            best_micro <= mondrian + 1e-9,
            "Alg3 SSE {best_micro} should not exceed Mondrian SSE {mondrian}"
        );
    }
}
