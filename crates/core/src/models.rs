//! Auditor for a related k-anonymity refinement the paper discusses
//! (Section 2.2): **distinct l-diversity** (Machanavajjhala et al. 2007).
//! Its count is also the `p` of **p-sensitive k-anonymity** (Truta &
//! Vinay 2006), which pairs it with the `k` of
//! [`crate::verify_k_anonymity`].
//!
//! t-Closeness subsumes both in spirit — it constrains the *whole*
//! within-class distribution rather than counting distinct values — but
//! real deployments often need to report all three levels for one release.
//! The auditor recomputes equivalence classes from the released table,
//! exactly like [`crate::verify`].
//!
//! A structural relation worth knowing (and tested below): a class
//! satisfying t-closeness with small `t` necessarily contains many
//! distinct confidential values (its distribution must cover the global
//! spread), so strict t-closeness ⇒ high diversity in practice; the
//! converse fails — 2 well-chosen distinct values satisfy 2-diversity while
//! grossly violating t-closeness.

use crate::error::Result;
use crate::verify::equivalence_classes;
use std::collections::HashSet;
use tclose_microdata::{AttributeKind, Table};

/// Number of *distinct* values of confidential attribute `attr` within the
/// records of `class`.
fn distinct_values(table: &Table, attr: usize, class: &[usize]) -> Result<usize> {
    let kind = table.schema().attribute(attr)?.kind;
    match kind {
        AttributeKind::Numeric => {
            let col = table.numeric_column(attr)?;
            let set: HashSet<u64> = class.iter().map(|&r| col[r].to_bits()).collect();
            Ok(set.len())
        }
        _ => {
            let col = table.categorical_column(attr)?;
            let set: HashSet<u32> = class.iter().map(|&r| col[r]).collect();
            Ok(set.len())
        }
    }
}

/// Audits **distinct l-diversity**: returns the smallest number of
/// distinct confidential values in any equivalence class, minimized over
/// all confidential attributes. A release is l-diverse iff the returned
/// value is ≥ l.
pub fn verify_l_diversity(table: &Table) -> Result<usize> {
    let classes = equivalence_classes(table)?;
    let conf = table.schema().confidential();
    if conf.is_empty() {
        return Err(crate::error::Error::UnsupportedData(
            "the schema declares no confidential attribute".into(),
        ));
    }
    let mut worst = usize::MAX;
    for class in &classes {
        for &a in &conf {
            worst = worst.min(distinct_values(table, a, class)?);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Anonymizer};
    use tclose_microdata::{AttributeDef, AttributeRole, Schema, Value};

    fn release(classes: &[(f64, &[f64])]) -> Table {
        // one QI value per class, explicit confidential values
        let schema = Schema::new(vec![
            AttributeDef::numeric("qi", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("c", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (qi, confs) in classes {
            for &c in *confs {
                t.push_row(&[Value::Number(*qi), Value::Number(c)]).unwrap();
            }
        }
        t
    }

    #[test]
    fn l_diversity_counts_distinct_values_per_class() {
        let t = release(&[
            (1.0, &[10.0, 20.0, 30.0]), // 3 distinct
            (2.0, &[10.0, 10.0, 20.0]), // 2 distinct
        ]);
        assert_eq!(verify_l_diversity(&t).unwrap(), 2);
    }

    #[test]
    fn homogeneous_class_is_1_diverse() {
        let t = release(&[(1.0, &[5.0, 5.0, 5.0])]);
        assert_eq!(verify_l_diversity(&t).unwrap(), 1);
    }

    #[test]
    fn categorical_confidential_supported() {
        let schema = Schema::new(vec![
            AttributeDef::numeric("qi", AttributeRole::QuasiIdentifier),
            AttributeDef::ordinal("diag", AttributeRole::Confidential, ["a", "b", "c"]),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for code in [0u32, 1, 1, 2] {
            t.push_row(&[Value::Number(1.0), Value::Category(code)])
                .unwrap();
        }
        assert_eq!(verify_l_diversity(&t).unwrap(), 3);
    }

    #[test]
    fn strict_t_closeness_implies_high_diversity_here() {
        // Anonymize a 120-record table at strict t; every class must cover
        // much of the confidential spread, hence many distinct values.
        let schema = Schema::new(vec![
            AttributeDef::numeric("qi", AttributeRole::QuasiIdentifier),
            AttributeDef::numeric("c", AttributeRole::Confidential),
        ])
        .unwrap();
        let mut table = Table::new(schema);
        for i in 0..120 {
            table
                .push_row(&[
                    Value::Number((i % 17) as f64),
                    Value::Number(i as f64), // all distinct
                ])
                .unwrap();
        }
        let out = Anonymizer::new(2, 0.05)
            .algorithm(Algorithm::TClosenessFirst)
            .anonymize(&table)
            .unwrap();
        let l = verify_l_diversity(&out.table).unwrap();
        // k'(0.05) = ⌈120/12.9⌉ = 10 distinct-valued strata → ≥ 10 values
        assert!(
            l >= 10,
            "strict t-closeness produced only {l}-diverse classes"
        );
    }

    #[test]
    fn diversity_does_not_imply_t_closeness() {
        // Two distinct extreme values per class: 2-diverse, terrible EMD.
        let t = release(&[(1.0, &[0.0, 1.0]), (2.0, &[999.0, 1000.0])]);
        assert_eq!(verify_l_diversity(&t).unwrap(), 2);
        let conf = crate::Confidential::from_table(&t).unwrap();
        let achieved_t = crate::verify::verify_t_closeness(&t, &conf).unwrap();
        assert!(achieved_t > 0.3, "t = {achieved_t} should be large");
    }

    #[test]
    fn no_confidential_attribute_errors() {
        let schema = Schema::new(vec![AttributeDef::numeric(
            "qi",
            AttributeRole::QuasiIdentifier,
        )])
        .unwrap();
        let mut t = Table::new(schema);
        t.push_row(&[Value::Number(1.0)]).unwrap();
        assert!(verify_l_diversity(&t).is_err());
    }
}
