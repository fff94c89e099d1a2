//! Tests of the related models whose level [`crate::audit_release`]
//! reports beside k and t: **distinct l-diversity** (Machanavajjhala et
//! al. 2007; Section 2.2 of the paper), whose count is also the `p` of
//! **p-sensitive k-anonymity** (Truta & Vinay 2006). The audit counts it
//! from the histograms each class's EMD is summed over, so one grouping of
//! the release serves all three levels.
//!
//! t-Closeness subsumes both in spirit — it constrains the *whole*
//! within-class distribution rather than counting distinct values — but
//! real deployments often need to report all three levels for one release.
//!
//! A structural relation worth knowing (and tested below): a class
//! satisfying t-closeness with small `t` necessarily contains many
//! distinct confidential values (its distribution must cover the global
//! spread), so strict t-closeness ⇒ high diversity in practice; the
//! converse fails — 2 well-chosen distinct values satisfy 2-diversity while
//! grossly violating t-closeness.

#[cfg(test)]
mod tests {
    use crate::{audit_release, Algorithm, Anonymizer, Confidential};
    use tclose_microdata::{AttributeDef, AttributeRole, Schema, Table, Value};
    use tclose_parallel::Parallelism;

    /// The audited l of `table`, against its own confidential distribution.
    fn achieved_l(table: &Table) -> usize {
        let conf = Confidential::from_table(table).unwrap();
        let audit = audit_release(table, &conf, Parallelism::sequential()).unwrap();
        audit.achieved_l
    }

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
        assert_eq!(achieved_l(&t), 2);
    }

    #[test]
    fn homogeneous_class_is_1_diverse() {
        let t = release(&[(1.0, &[5.0, 5.0, 5.0])]);
        assert_eq!(achieved_l(&t), 1);
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
        assert_eq!(achieved_l(&t), 3);
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
        let l = achieved_l(&out.table);
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
        assert_eq!(achieved_l(&t), 2);
        let conf = Confidential::from_table(&t).unwrap();
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
        // The audit measures l through a confidential model, and a table
        // without a confidential attribute has none.
        assert!(Confidential::from_table(&t).is_err());
    }

    #[test]
    fn negative_zero_and_zero_are_one_value() {
        // The EMD's domain folds -0.0 into 0.0, and l counts its bins.
        let t = release(&[(1.0, &[-0.0, 0.0, 1.0]), (2.0, &[0.0, -0.0, 2.0, 2.0])]);
        assert_eq!(achieved_l(&t), 2);
        let t = release(&[(1.0, &[-0.0, 0.0])]);
        assert_eq!(achieved_l(&t), 1);
    }
}
