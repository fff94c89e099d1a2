//! Tables 1–3: actual microaggregation level (min / average cluster size)
//! per `(k, t)` for the MCD and HCD data sets.

use crate::render::{fmt_f, Grid};
use crate::runner::parallel_map;
use crate::{Context, Dataset};
use tclose_core::Algorithm;
use tclose_microdata::Table;

use super::run_cell;

/// One grid cell of Tables 1–3.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeCell {
    /// Requested k.
    pub k: usize,
    /// Requested t.
    pub t: f64,
    /// Size of the smallest produced cluster (the achieved k).
    pub min_size: usize,
    /// Mean produced cluster size.
    pub avg_size: f64,
}

/// Raw measurements for one algorithm on one table over a `(k, t)` grid.
pub fn size_cells(table: &Table, alg: Algorithm, ks: &[usize], ts: &[f64]) -> Vec<SizeCell> {
    let cells: Vec<(usize, f64)> = ks
        .iter()
        .flat_map(|&k| ts.iter().map(move |&t| (k, t)))
        .collect();
    parallel_map(cells, |&(k, t)| {
        let r = run_cell(table, alg, k, t);
        SizeCell {
            k,
            t,
            min_size: r.min_cluster_size,
            avg_size: r.mean_cluster_size,
        }
    })
}

/// Which paper table an algorithm's size grid corresponds to.
pub fn table_number(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::Merge => "Table 1",
        Algorithm::KAnonymityFirst => "Table 2",
        Algorithm::TClosenessFirst => "Table 3",
    }
}

/// Renders a size grid in the paper's layout: rows = k, columns = t, cell
/// = `min/avg`.
pub fn size_grid(ctx: &Context, alg: Algorithm, dataset: Dataset) -> Grid {
    let table = dataset.table(ctx);
    let ks = ctx.k_grid();
    let ts = ctx.t_grid_tables();
    let cells = size_cells(&table, alg, &ks, &ts);

    let mut headers: Vec<String> = vec!["k".into()];
    headers.extend(ts.iter().map(|t| format!("t={t}")));
    let mut grid = Grid {
        title: format!(
            "{} — {} on {} (min/avg cluster size)",
            table_number(alg),
            alg.name(),
            dataset.name()
        ),
        headers,
        rows: Vec::new(),
    };
    for &k in &ks {
        let mut row = vec![format!("{k}")];
        for &t in &ts {
            let cell = cells
                .iter()
                .find(|c| c.k == k && (c.t - t).abs() < 1e-12)
                .expect("cell computed");
            row.push(format!("{}/{}", cell.min_size, fmt_f(cell.avg_size, 0)));
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
    fn alg3_cells_match_analytic_sizes() {
        let t = small_mcd(120);
        let cells = size_cells(&t, Algorithm::TClosenessFirst, &[2, 5], &[0.05, 0.25]);
        assert_eq!(cells.len(), 4);
        for c in &cells {
            let k_eff = tclose_core::bounds::tfirst_cluster_size(120, c.k, c.t);
            assert_eq!(c.min_size, k_eff, "k={} t={}", c.k, c.t);
        }
    }

    #[test]
    fn alg1_sizes_grow_as_t_shrinks() {
        let t = small_mcd(120);
        let cells = size_cells(&t, Algorithm::Merge, &[2], &[0.02, 0.25]);
        let strict = &cells[0];
        let loose = &cells[1];
        assert!(
            strict.avg_size >= loose.avg_size,
            "strict t avg {} < loose t avg {}",
            strict.avg_size,
            loose.avg_size
        );
    }

    #[test]
    fn grid_renders_paper_layout() {
        let ctx = Context {
            seed: 3,
            patient_n: 200,
            quick: true,
        };
        // use the real (small) ctx grids but a cheap algorithm/dataset combo
        let g = size_grid(&ctx, Algorithm::TClosenessFirst, Dataset::Mcd);
        assert!(g.title.contains("Table 3"));
        assert_eq!(g.rows.len(), ctx.k_grid().len());
        assert_eq!(g.headers.len(), ctx.t_grid_tables().len() + 1);
        // every cell is "min/avg"
        assert!(g.rows[0][1].contains('/'));
    }

    #[test]
    fn table_numbers() {
        assert_eq!(table_number(Algorithm::Merge), "Table 1");
        assert_eq!(table_number(Algorithm::KAnonymityFirst), "Table 2");
        assert_eq!(table_number(Algorithm::TClosenessFirst), "Table 3");
    }
}
