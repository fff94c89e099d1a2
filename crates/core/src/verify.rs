//! Independent verifiers for the two privacy models, and for the
//! l-diversity level reported beside them.
//!
//! These functions check a *released table* (not the clustering the
//! algorithm claims to have used): equivalence classes are recomputed from
//! the actual quasi-identifier values, exactly as an auditor — or an
//! intruder — would see them.

use crate::confidential::Confidential;
use crate::error::{Error, Result};
use std::collections::HashMap;
use tclose_metrics::emd::Ratio;
use tclose_microdata::{AttributeKind, Table};
use tclose_parallel::{parallel_map_with, Parallelism};

/// Groups the records of `table` into equivalence classes: maximal sets of
/// records sharing every quasi-identifier value. Classes are returned in
/// first-appearance order.
pub fn equivalence_classes(table: &Table) -> Result<Vec<Vec<usize>>> {
    let qi = table.schema().quasi_identifiers();
    if qi.is_empty() {
        return Err(Error::UnsupportedData(
            "the schema declares no quasi-identifier attribute".into(),
        ));
    }
    // Key each record by the exact bit patterns of its QI values, in one
    // row-major buffer. Numeric aggregation copies centroids bit-for-bit,
    // so exact matching is right.
    let d = qi.len();
    let mut keys = vec![0u64; table.n_rows() * d];
    for (j, &a) in qi.iter().enumerate() {
        let column = keys.iter_mut().skip(j).step_by(d);
        match table.schema().attribute(a)?.kind {
            AttributeKind::Numeric => {
                for (k, x) in column.zip(table.numeric_column(a)?) {
                    *k = x.to_bits();
                }
            }
            _ => {
                for (k, &c) in column.zip(table.categorical_column(a)?) {
                    *k = u64::from(c);
                }
            }
        }
    }
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut index: HashMap<&[u64], usize> = HashMap::new();
    for (r, key) in keys.chunks_exact(d).enumerate() {
        let ci = *index.entry(key).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[ci].push(r);
    }
    Ok(classes)
}

/// Audits k-anonymity of a released table: returns the size of its
/// smallest equivalence class (the achieved `k`).
pub fn verify_k_anonymity(table: &Table) -> Result<usize> {
    if table.is_empty() {
        return Err(Error::Microdata(tclose_microdata::Error::EmptyTable));
    }
    let classes = equivalence_classes(table)?;
    Ok(classes.iter().map(Vec::len).min().unwrap_or(0))
}

/// What one audit pass measures on a released table: every level comes
/// from one grouping of its rows into equivalence classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleaseAudit {
    /// The size of the smallest class: the achieved `k` (0 for no rows).
    pub achieved_k: usize,
    /// The largest EMD of any class on any confidential attribute, exactly:
    /// the achieved `t`, which [`Ratio::exceeds`] grades against a request.
    pub max_emd: Ratio,
    /// The fewest distinct values of any class on any confidential
    /// attribute (0 for no rows): the achieved `l` of distinct
    /// l-diversity (Machanavajjhala et al. 2007), which is also the `p` of
    /// p-sensitive k-anonymity (Truta & Vinay 2006). Values are counted as
    /// bins of the EMD's domain, so `-0.0` and `0.0` are one value.
    pub achieved_l: usize,
}

/// Audits a released table in one pass: groups its rows into equivalence
/// classes once and measures achieved k, the worst class's exact EMD
/// ([`Confidential::exact_emd_of_hists`]) and achieved l from those
/// classes, each class's l from the histograms its EMD is summed over.
///
/// `conf` must be *bound* to the rows of `table`: either fitted directly on
/// its confidential columns ([`Confidential::from_table`] — microaggregation
/// leaves them untouched, so fitting on the original or the released table
/// is equivalent), or rebound to this record subset via
/// [`Confidential::rebind`] when auditing one shard against a global fit.
/// `par` sets the worker count of the per-class EMDs; the result is the
/// same for any worker count.
pub fn audit_release(table: &Table, conf: &Confidential, par: Parallelism) -> Result<ReleaseAudit> {
    if table.n_rows() != conf.n_bound() {
        return Err(Error::UnsupportedData(format!(
            "confidential model is bound to {} records, table has {}",
            conf.n_bound(),
            table.n_rows()
        )));
    }
    let classes = equivalence_classes(table)?;
    let achieved_k = classes.iter().map(Vec::len).min().unwrap_or(0);
    let measured = parallel_map_with(classes, par, |c| {
        let hists = conf.histograms(c);
        (conf.exact_emd_of_hists(&hists), hists.distinct_bins())
    });
    Ok(ReleaseAudit {
        achieved_k,
        max_emd: measured.iter().map(|m| m.0).max().unwrap_or(Ratio::ZERO),
        achieved_l: measured.iter().map(|m| m.1).min().unwrap_or(0),
    })
}

/// Audits t-closeness of a released table: [`audit_release`]'s `max_emd`,
/// the achieved `t`, rounded once to the nearest `f64`.
pub fn verify_t_closeness(table: &Table, conf: &Confidential) -> Result<f64> {
    verify_t_closeness_with(table, conf, Parallelism::auto())
}

/// [`verify_t_closeness`] with an explicit thread-count policy for the
/// per-class EMD evaluations (the CLI's `--workers` lands here). The
/// result is identical for any worker count.
pub fn verify_t_closeness_with(
    table: &Table,
    conf: &Confidential,
    par: Parallelism,
) -> Result<f64> {
    Ok(audit_release(table, conf, par)?.max_emd.to_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_microdata::{AttributeDef, AttributeRole, Schema, Value};

    fn released_table() -> Table {
        // Two equivalence classes: (30, "a") ×3 and (40, "b") ×2.
        let schema = Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::nominal("city", AttributeRole::QuasiIdentifier, ["a", "b"]),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (age, city, wage) in [
            (30.0, 0u32, 10.0),
            (30.0, 0, 20.0),
            (30.0, 0, 30.0),
            (40.0, 1, 10.0),
            (40.0, 1, 30.0),
        ] {
            t.push_row(&[
                Value::Number(age),
                Value::Category(city),
                Value::Number(wage),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn classes_group_identical_qi_tuples() {
        let t = released_table();
        let classes = equivalence_classes(&t).unwrap();
        assert_eq!(classes, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn k_anonymity_is_min_class_size() {
        let t = released_table();
        assert_eq!(verify_k_anonymity(&t).unwrap(), 2);
    }

    #[test]
    fn distinct_qi_rows_are_1_anonymous() {
        let schema = Schema::new(vec![
            AttributeDef::numeric("x", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("c", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..4 {
            t.push_row(&[Value::Number(i as f64), Value::Number(0.0)])
                .unwrap();
        }
        assert_eq!(verify_k_anonymity(&t).unwrap(), 1);
    }

    #[test]
    fn t_closeness_audit_matches_manual_emd() {
        let t = released_table();
        let conf = Confidential::from_table(&t).unwrap();
        let audit = verify_t_closeness(&t, &conf).unwrap();
        let manual = conf
            .emd_of_records(&[0, 1, 2])
            .max(conf.emd_of_records(&[3, 4]));
        assert!((audit - manual).abs() < 1e-12);
        assert!(audit > 0.0);
    }

    #[test]
    fn t_closeness_is_zero_when_every_class_mirrors_the_population() {
        // Both classes carry the same {10, 30} confidential distribution as
        // the population, so the audited t must be exactly 0.
        let schema = Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (age, wage) in [(30.0, 10.0), (30.0, 30.0), (40.0, 10.0), (40.0, 30.0)] {
            t.push_row(&[Value::Number(age), Value::Number(wage)])
                .unwrap();
        }
        let conf = Confidential::from_table(&t).unwrap();
        assert!(verify_t_closeness(&t, &conf).unwrap() < 1e-12);
    }

    #[test]
    fn t_closeness_flags_a_concentrated_class() {
        // One class holds only the lowest confidential value, the other only
        // the highest: each is maximally far from the 50/50 population, so
        // the audit must report the singleton-vs-population EMD (here 0.5).
        let schema = Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (age, wage) in [(30.0, 10.0), (30.0, 10.0), (40.0, 30.0), (40.0, 30.0)] {
            t.push_row(&[Value::Number(age), Value::Number(wage)])
                .unwrap();
        }
        let conf = Confidential::from_table(&t).unwrap();
        let audited = verify_t_closeness(&t, &conf).unwrap();
        // m = 2 bins; a pure class vs the 50/50 global: |1 - 0.5| = 0.5.
        assert!((audited - 0.5).abs() < 1e-12, "audited t = {audited}");
    }

    #[test]
    fn t_closeness_reports_the_worst_class() {
        // The large class {0..3} spans the whole wage range; the small class
        // {4, 5} holds only the top value and must dominate the audit.
        // (Classes of *equal* size that partition the table always tie —
        // their deviations from the population are mirror images.)
        let schema = Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (age, wage) in [
            (30.0, 10.0),
            (30.0, 20.0),
            (30.0, 30.0),
            (30.0, 40.0),
            (40.0, 40.0),
            (40.0, 40.0),
        ] {
            t.push_row(&[Value::Number(age), Value::Number(wage)])
                .unwrap();
        }
        let conf = Confidential::from_table(&t).unwrap();
        let audited = verify_t_closeness(&t, &conf).unwrap();
        let worst = conf.emd_of_records(&[4, 5]);
        let mild = conf.emd_of_records(&[0, 1, 2, 3]);
        assert!(mild < worst);
        assert!((audited - worst).abs() < 1e-12);
    }

    #[test]
    fn single_category_confidential_is_trivially_t_close() {
        // A constant confidential column reveals nothing: t must audit to 0
        // regardless of how the classes slice the table.
        let schema = Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for age in [30.0, 30.0, 40.0, 50.0] {
            t.push_row(&[Value::Number(age), Value::Number(7.0)])
                .unwrap();
        }
        let conf = Confidential::from_table(&t).unwrap();
        assert_eq!(verify_t_closeness(&t, &conf).unwrap(), 0.0);
    }

    #[test]
    fn t_closeness_audit_is_worker_count_invariant() {
        let t = released_table();
        let conf = Confidential::from_table(&t).unwrap();
        let seq = verify_t_closeness_with(&t, &conf, Parallelism::sequential()).unwrap();
        for w in [2usize, 4, 8] {
            let par = verify_t_closeness_with(&t, &conf, Parallelism::workers(w)).unwrap();
            assert_eq!(seq.to_bits(), par.to_bits(), "workers={w}");
        }
    }

    #[test]
    fn shard_audit_through_rebind() {
        // Audit one shard of a release against the *global* confidential
        // model: rebinding keeps the global distribution as the reference.
        let t = released_table();
        let conf = Confidential::from_table(&t).unwrap();
        let shard = t.take_rows(&[0, 1, 2]).unwrap(); // first class only
        let bound = conf.rebind(&shard).unwrap();
        let audited = verify_t_closeness(&shard, &bound).unwrap();
        assert!((audited - conf.emd_of_records(&[0, 1, 2])).abs() < 1e-12);
    }

    #[test]
    fn errors_on_degenerate_inputs() {
        let schema = Schema::new(vec![AttributeDef::numeric(
            "c",
            AttributeRole::Confidential,
        )])
        .unwrap();
        let mut no_qi = Table::new(schema);
        no_qi.push_row(&[Value::Number(1.0)]).unwrap();
        assert!(equivalence_classes(&no_qi).is_err());

        let empty = Table::new(
            Schema::new(vec![
                AttributeDef::numeric("q", AttributeRole::QuasiIdentifier),
                AttributeDef::numeric("c", AttributeRole::Confidential),
            ])
            .unwrap(),
        );
        assert!(verify_k_anonymity(&empty).is_err());

        // conf model size mismatch
        let t = released_table();
        let conf = Confidential::from_table(&t).unwrap();
        let smaller = t.take_rows(&[0, 1]).unwrap();
        assert!(verify_t_closeness(&smaller, &conf).is_err());
    }
}
