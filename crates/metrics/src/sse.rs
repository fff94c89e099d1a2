//! Information loss: Sum of Squared Errors between original and anonymized
//! tables.
//!
//! The paper (Eq. 5) normalizes SSE so it is comparable across data sets of
//! different sizes and attribute ranges:
//!
//! ```text
//! SSE = (1/n) Σ_records (1/m) Σ_attrs NED(a, a')²
//! ```
//!
//! where `NED` is the normalized Euclidean distance between the original and
//! anonymized value of one attribute. For numeric attributes we normalize by
//! the attribute's range *in the original table*; categorical attributes
//! contribute 0 when equal and 1 otherwise.
//!
//! Numeric accumulation runs as a chunked loop over fixed-size blocks
//! (parallelised with scoped threads on long columns); within each block
//! the squared errors reduce through the canonical 8-lane DAG of
//! [`crate::simd`]. Neither the block structure nor the lane DAG depends
//! on the worker count or the selected [`KernelPath`], so the reported
//! SSE is deterministic on any machine and any configuration.

use crate::simd::{self, KernelPath};
use tclose_microdata::{stats, AttributeKind, Error, Result, Table};
use tclose_parallel::{map_blocks, Parallelism};

/// Scaled sum of squared errors of one numeric column, accumulated over
/// the fixed block structure of [`map_blocks`] so the result is
/// bit-identical for any worker count (and parallel on long columns).
fn column_sq_err(orig: &[f64], anon: &[f64], scale: f64) -> f64 {
    column_sq_err_with(orig, anon, scale, Parallelism::auto(), KernelPath::Lanes8)
}

/// `column_sq_err` with explicit parallelism and kernel path — the SSE
/// inner loop, exposed for differential tests and the `kernel_scaling`
/// bench. Bit-identical on every path and worker count.
pub fn column_sq_err_with(
    orig: &[f64],
    anon: &[f64],
    scale: f64,
    par: Parallelism,
    path: KernelPath,
) -> f64 {
    let workers = par.effective(orig.len(), tclose_parallel::BLOCK);
    map_blocks(orig.len(), workers, |r| {
        simd::sq_err_sum(&orig[r.clone()], &anon[r], scale, path)
    })
    .iter()
    .sum()
}

/// Normalized SSE (Eq. 5 of the paper) over the attributes at `attrs`.
///
/// Both tables must have the same number of rows (record `j` of
/// `anonymized` is the masked version of record `j` of `original`).
/// Typically `attrs` is the quasi-identifier set — the only attributes
/// microaggregation perturbs — but any subset works.
pub fn normalized_sse(original: &Table, anonymized: &Table, attrs: &[usize]) -> Result<f64> {
    check_shapes(original, anonymized, attrs)?;
    if original.is_empty() {
        return Err(Error::EmptyTable);
    }
    let n = original.n_rows();
    let m = attrs.len();
    if m == 0 {
        return Ok(0.0);
    }

    let mut total = 0.0;
    for &a in attrs {
        let attr = original.schema().attribute(a)?;
        match attr.kind {
            AttributeKind::Numeric => {
                let orig = original.numeric_column(a)?;
                let anon = anonymized.numeric_column(a)?;
                let range = stats::range(orig);
                let scale = if range > 0.0 { range } else { 1.0 };
                total += column_sq_err(orig, anon, scale);
            }
            AttributeKind::OrdinalCategorical | AttributeKind::NominalCategorical => {
                let orig = original.categorical_column(a)?;
                let anon = anonymized.categorical_column(a)?;
                for (x, y) in orig.iter().zip(anon) {
                    if x != y {
                        total += 1.0;
                    }
                }
            }
        }
    }
    Ok(total / (n as f64 * m as f64))
}

/// Absolute (non-normalized) SSE over the attributes at `attrs`:
/// `Σ_records Σ_attrs (a − a')²` for numeric attributes, 0/1 mismatch for
/// categorical ones.
pub fn sse_absolute(original: &Table, anonymized: &Table, attrs: &[usize]) -> Result<f64> {
    check_shapes(original, anonymized, attrs)?;
    let mut total = 0.0;
    for &a in attrs {
        let attr = original.schema().attribute(a)?;
        match attr.kind {
            AttributeKind::Numeric => {
                let orig = original.numeric_column(a)?;
                let anon = anonymized.numeric_column(a)?;
                total += column_sq_err(orig, anon, 1.0);
            }
            _ => {
                let orig = original.categorical_column(a)?;
                let anon = anonymized.categorical_column(a)?;
                for (x, y) in orig.iter().zip(anon) {
                    if x != y {
                        total += 1.0;
                    }
                }
            }
        }
    }
    Ok(total)
}

fn check_shapes(original: &Table, anonymized: &Table, attrs: &[usize]) -> Result<()> {
    if original.n_rows() != anonymized.n_rows() {
        return Err(Error::RowMismatch {
            detail: format!(
                "original has {} records, anonymized has {}",
                original.n_rows(),
                anonymized.n_rows()
            ),
        });
    }
    for &a in attrs {
        original.schema().attribute(a)?;
        anonymized.schema().attribute(a)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_microdata::{AttributeDef, AttributeRole, Schema, Value};

    fn numeric_table(rows: &[(f64, f64)]) -> Table {
        let schema = Schema::new(vec![
            AttributeDef::numeric("a", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("b", AttributeRole::QuasiIdentifier),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for &(a, b) in rows {
            t.push_row(&[Value::Number(a), Value::Number(b)]).unwrap();
        }
        t
    }

    #[test]
    fn identical_tables_have_zero_sse() {
        let t = numeric_table(&[(0.0, 1.0), (2.0, 3.0)]);
        assert_eq!(normalized_sse(&t, &t, &[0, 1]).unwrap(), 0.0);
        assert_eq!(sse_absolute(&t, &t, &[0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn normalized_sse_hand_computed() {
        let orig = numeric_table(&[(0.0, 0.0), (10.0, 0.0)]);
        let anon = numeric_table(&[(5.0, 0.0), (5.0, 0.0)]);
        // attr a: range 10, errors 5 and 5 → NED² = 0.25 each → sum 0.5
        // attr b: constant → scale 1, errors 0
        // SSE = 0.5 / (n=2 × m=2) = 0.125
        let s = normalized_sse(&orig, &anon, &[0, 1]).unwrap();
        assert!((s - 0.125).abs() < 1e-12);
        // absolute: 25 + 25 = 50
        assert_eq!(sse_absolute(&orig, &anon, &[0, 1]).unwrap(), 50.0);
    }

    #[test]
    fn subset_of_attributes() {
        let orig = numeric_table(&[(0.0, 0.0), (10.0, 8.0)]);
        let anon = numeric_table(&[(0.0, 4.0), (10.0, 4.0)]);
        assert_eq!(normalized_sse(&orig, &anon, &[0]).unwrap(), 0.0);
        assert!(normalized_sse(&orig, &anon, &[1]).unwrap() > 0.0);
        assert_eq!(normalized_sse(&orig, &anon, &[]).unwrap(), 0.0);
    }

    #[test]
    fn categorical_contributes_binary_mismatch() {
        let schema = Schema::new(vec![AttributeDef::nominal(
            "c",
            AttributeRole::QuasiIdentifier,
            ["x", "y"],
        )])
        .unwrap();
        let mut orig = Table::new(schema.clone());
        orig.push_row(&[Value::Category(0)]).unwrap();
        orig.push_row(&[Value::Category(1)]).unwrap();
        let mut anon = Table::new(schema);
        anon.push_row(&[Value::Category(0)]).unwrap();
        anon.push_row(&[Value::Category(0)]).unwrap();
        // one mismatch over n=2, m=1 → 0.5
        assert!((normalized_sse(&orig, &anon, &[0]).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(sse_absolute(&orig, &anon, &[0]).unwrap(), 1.0);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = numeric_table(&[(0.0, 0.0)]);
        let b = numeric_table(&[(0.0, 0.0), (1.0, 1.0)]);
        assert!(normalized_sse(&a, &b, &[0]).is_err());
        assert!(normalized_sse(&a, &a, &[9]).is_err());
        let empty = numeric_table(&[]);
        assert!(matches!(
            normalized_sse(&empty, &empty, &[0]),
            Err(Error::EmptyTable)
        ));
    }
}
