//! Global recoding to ranges — the generalization release style.
//!
//! Generalization-based methods (Mondrian, Incognito) release each
//! equivalence class as a hyper-rectangle of quasi-identifier *ranges*
//! rather than a point. For numeric utility comparison against
//! microaggregation, every QI value is replaced by the midpoint of its
//! class's range — the canonical numeric surrogate for an interval, and
//! the one that minimizes worst-case reconstruction error.
//!
//! This module is where the paper's Section 4 critique becomes measurable:
//! the midpoint of a *range* is dragged by outliers, whereas the *mean*
//! used by microaggregation is not — so generalized releases show a higher
//! SSE on skewed data (tested below and measured by the `baselines`
//! experiment).

use tclose_microagg::Clustering;
use tclose_microdata::{AttributeKind, Error, Result, Table};

/// Returns a copy of `table` in which, for each cluster and each attribute
/// in `attrs`, every member's value is replaced by the cluster's
/// range-midpoint (numeric) or kept as is for categorical attributes, for
/// which range recoding has no numeric counterpart (categorical
/// generalization hierarchies are out of scope for the numeric baselines).
pub fn generalize_columns(
    table: &Table,
    attrs: &[usize],
    clustering: &Clustering,
) -> Result<Table> {
    if clustering.n_records() != table.n_rows() {
        return Err(Error::RowMismatch {
            detail: format!(
                "clustering covers {} records but the table has {}",
                clustering.n_records(),
                table.n_rows()
            ),
        });
    }
    let mut out = table.clone();
    for cluster in clustering.clusters() {
        for &a in attrs {
            if table.schema().attribute(a)?.kind != AttributeKind::Numeric {
                continue;
            }
            let col = table.numeric_column(a)?;
            let lo = cluster
                .iter()
                .map(|&r| col[r])
                .fold(f64::INFINITY, f64::min);
            let hi = cluster
                .iter()
                .map(|&r| col[r])
                .fold(f64::NEG_INFINITY, f64::max);
            let mid = (lo + hi) / 2.0;
            for &r in cluster {
                out.set_numeric(a, r, mid)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_metrics::sse::normalized_sse;
    use tclose_microagg::aggregate_columns;
    use tclose_microdata::{AttributeDef, AttributeRole, Schema, Value};

    fn table(values: &[f64]) -> Table {
        let schema = Schema::new(vec![
            AttributeDef::numeric("x", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("c", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for &v in values {
            t.push_row(&[Value::Number(v), Value::Number(0.0)]).unwrap();
        }
        t
    }

    #[test]
    fn midpoint_recoding_shares_one_value_per_class() {
        let t = table(&[0.0, 1.0, 10.0, 11.0]);
        let c = Clustering::new(vec![vec![0, 1], vec![2, 3]], 4).unwrap();
        let g = generalize_columns(&t, &[0], &c).unwrap();
        assert_eq!(g.numeric_column(0).unwrap(), &[0.5, 0.5, 10.5, 10.5]);
        // confidential untouched
        assert_eq!(g.numeric_column(1).unwrap(), &[0.0; 4]);
    }

    #[test]
    fn outliers_hurt_midpoints_more_than_means() {
        // One cluster with an outlier: mean stays near the mass, the range
        // midpoint is dragged halfway to the outlier — Section 4's claim.
        let t = table(&[0.0, 1.0, 2.0, 100.0]);
        let c = Clustering::new(vec![vec![0, 1, 2, 3]], 4).unwrap();
        let generalized = generalize_columns(&t, &[0], &c).unwrap();
        let microagged = aggregate_columns(&t, &[0], &c).unwrap();
        let sse_gen = normalized_sse(&t, &generalized, &[0]).unwrap();
        let sse_mic = normalized_sse(&t, &microagged, &[0]).unwrap();
        assert!(
            sse_gen > sse_mic,
            "generalization SSE {sse_gen} should exceed microaggregation SSE {sse_mic}"
        );
    }

    #[test]
    fn clustering_size_mismatch_errors() {
        let t = table(&[0.0, 1.0]);
        let c = Clustering::new(vec![vec![0]], 1).unwrap();
        assert!(generalize_columns(&t, &[0], &c).is_err());
    }
}
