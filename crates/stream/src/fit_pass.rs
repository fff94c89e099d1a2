//! Pass 1: one streaming scan of the input accumulating the global fit.
//!
//! [`fit_auto`] knows no schema up front. It scans raw records, infers
//! each column's kind over the *whole* file (a column is numeric when
//! every value parses as `f64`), requires quasi-identifier and
//! confidential columns to be numeric, and accumulates [`RunningStats`] /
//! [`DomainAccumulator`]s as it goes. A pass-through column only has its
//! kind inferred, by [`ColumnInference`] as `read_csv_auto` does, and its
//! labels are never kept: the fit's schema holds an empty dictionary for
//! it, and pass 2 reads its labels chunk by chunk. Memory is bounded by
//! the number of *distinct* confidential values (the EMD domain is that
//! set anyway), never by the record count or by a pass-through column.
//! Ordinal attributes, which inference cannot produce, stream through
//! pass 2 with a fit made in memory or loaded from a model artifact.

use std::io::Read;

use crate::error::{Error, Result};
use tclose_core::{Confidential, GlobalFit, QiEmbedding};
use tclose_metrics::emd::DomainAccumulator;
use tclose_microdata::csv::{ColumnInference, CsvRecords};
use tclose_microdata::{AttributeDef, AttributeRole, NormalizeMethod, RunningStats, Schema};

#[cfg(test)]
mod reference;

/// What the inference scan accumulates for one column, by its role.
enum Accumulator {
    /// Moments of a quasi-identifier.
    Qi(RunningStats),
    /// Domain and counts of a confidential attribute.
    Confidential(DomainAccumulator),
    /// Kind inference of a pass-through column.
    Other(ColumnInference),
}

/// Per-column state of the inference scan.
struct ColumnScan {
    name: String,
    acc: Accumulator,
}

impl ColumnScan {
    fn scan(&mut self, field: &str, row: usize, lineno: usize) -> Result<()> {
        let finite = || field.trim().parse::<f64>().ok().filter(|x| x.is_finite());
        match &mut self.acc {
            Accumulator::Qi(stats) => {
                let x = finite().ok_or_else(|| Error::Data {
                    line: Some(lineno),
                    detail: format!(
                        "quasi-identifier {:?} has non-numeric or non-finite value \
                         {field:?}; the streaming fit needs finite numeric \
                         quasi-identifiers (to stream an ordinal one, fit in memory \
                         under a schema that declares it ordinal, or load a model \
                         artifact, then apply it with \
                         `ShardedAnonymizer::apply_file_with`)",
                        self.name
                    ),
                })?;
                stats.push(x);
            }
            Accumulator::Confidential(domain) => {
                let x = finite().ok_or_else(|| Error::Data {
                    line: Some(lineno),
                    detail: format!(
                        "confidential attribute {:?} has non-numeric or non-finite \
                         value {field:?}; the ordered EMD needs a rankable attribute",
                        self.name
                    ),
                })?;
                domain.add(x, row).map_err(|e| Error::Data {
                    line: Some(lineno),
                    detail: e.to_string(),
                })?;
            }
            Accumulator::Other(kind) => {
                kind.push(field, lineno);
            }
        }
        Ok(())
    }

    /// Post-scan validation of a pass-through column: a column that ends
    /// numeric must be finite throughout (parity with `read_csv_auto`).
    fn check_finite(&self) -> Result<()> {
        if let Accumulator::Other(kind) = &self.acc {
            if let (true, Some((line, _))) = (kind.is_numeric(), kind.first_non_finite()) {
                return Err(Error::Data {
                    line: Some(line),
                    detail: format!("non-finite number in numeric column {:?}", self.name),
                });
            }
        }
        Ok(())
    }
}

/// Resolves each header column's accumulator from the requested QI /
/// confidential name lists (confidential wins when a name is listed twice,
/// mirroring sequential `Schema::set_roles` assignment).
fn resolve_roles(
    header: &[String],
    qi: &[String],
    confidential: &[String],
) -> Result<Vec<ColumnScan>> {
    for name in qi.iter().chain(confidential) {
        if !header.contains(name) {
            return Err(Error::Config(format!(
                "column {name:?} is not in the input header {header:?}"
            )));
        }
    }
    Ok(header
        .iter()
        .map(|name| ColumnScan {
            name: name.clone(),
            acc: if confidential.contains(name) {
                Accumulator::Confidential(DomainAccumulator::new())
            } else if qi.contains(name) {
                Accumulator::Qi(RunningStats::new())
            } else {
                Accumulator::Other(ColumnInference::new())
            },
        })
        .collect())
}

/// Streaming fit with column-kind inference (no schema known up front).
///
/// Returns the assembled [`GlobalFit`]; its schema carries the inferred
/// kinds and the requested roles, ready to drive the pass-2 chunked
/// re-read. A nominal pass-through column's dictionary is empty: the fit
/// never reads its labels.
pub fn fit_auto<R: Read>(
    reader: R,
    qi: &[String],
    confidential: &[String],
    normalize: NormalizeMethod,
) -> Result<GlobalFit> {
    if qi.is_empty() {
        return Err(Error::Config(
            "at least one quasi-identifier column is required".into(),
        ));
    }
    if confidential.is_empty() {
        return Err(Error::Config(
            "at least one confidential column is required".into(),
        ));
    }
    let mut records = CsvRecords::new(reader)?;
    let mut cols = resolve_roles(records.header(), qi, confidential)?;

    let mut n = 0usize;
    while let Some(record) = records.next_record()? {
        for (col, field) in cols.iter_mut().zip(record.fields()) {
            col.scan(field, n, record.line())?;
        }
        n += 1;
    }
    if n == 0 {
        return Err(Error::Data {
            line: None,
            detail: "input has a header but no data records".into(),
        });
    }
    for col in &cols {
        col.check_finite()?;
    }

    let mut attrs = Vec::with_capacity(cols.len());
    let mut stats = Vec::new();
    let mut domains = Vec::new();
    for ColumnScan { name, acc } in cols {
        attrs.push(match acc {
            Accumulator::Qi(s) => {
                stats.push(s);
                AttributeDef::numeric(name, AttributeRole::QuasiIdentifier)
            }
            Accumulator::Confidential(domain) => {
                domains.push((name.clone(), domain));
                AttributeDef::numeric(name, AttributeRole::Confidential)
            }
            Accumulator::Other(kind) if kind.is_numeric() => {
                AttributeDef::numeric(name, AttributeRole::NonConfidential)
            }
            Accumulator::Other(_) => {
                AttributeDef::nominal(name, AttributeRole::NonConfidential, Vec::<String>::new())
            }
        });
    }
    let schema = Schema::new(attrs)?;

    let embedding = QiEmbedding::from_stats(normalize, &stats);
    let emds = domains
        .iter()
        .map(|(name, domain)| {
            domain.finalize().map_err(|e| Error::Data {
                line: None,
                detail: format!("confidential attribute {name:?}: {e}"),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let conf = Confidential::from_emds(emds)?;
    Ok(GlobalFit::from_parts(schema, embedding, conf, n)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_microdata::AttributeKind;

    const CSV: &str = "age,city,wage\n\
                       30,rome,100\n\
                       34,paris,200\n\
                       41,rome,100\n\
                       29,oslo,300\n";

    fn names(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn fit_auto_accumulates_stats_and_domain() {
        let fit = fit_auto(
            CSV.as_bytes(),
            &names(&["age"]),
            &names(&["wage"]),
            NormalizeMethod::ZScore,
        )
        .unwrap();
        assert_eq!(fit.n_records(), 4);
        assert_eq!(fit.qi(), &[0]);
        assert_eq!(fit.confidential().n(), 4);
        // The domain is {100, 200, 300}.
        assert_eq!(fit.confidential().primary().m(), 3);
        // city is inferred nominal, and the fit keeps none of its labels.
        let city = fit.schema().attribute(1).unwrap();
        assert_eq!(city.kind, AttributeKind::NominalCategorical);
        assert_eq!(city.role, AttributeRole::NonConfidential);
        assert!(city.dictionary.is_empty(), "{:?}", city.dictionary);
        // z-score params match the batch statistics
        let (shift, scale) = fit.embedding().params()[0];
        let ages = [30.0, 34.0, 41.0, 29.0];
        assert!((shift - tclose_microdata::mean(&ages)).abs() < 1e-9);
        assert!((scale - tclose_microdata::std_dev(&ages)).abs() < 1e-9);
    }

    #[test]
    fn fit_auto_rejects_bad_inputs_with_context() {
        // unknown column
        assert!(matches!(
            fit_auto(
                CSV.as_bytes(),
                &names(&["nope"]),
                &names(&["wage"]),
                NormalizeMethod::ZScore
            ),
            Err(Error::Config(_))
        ));
        // empty role lists
        assert!(matches!(
            fit_auto(
                CSV.as_bytes(),
                &[],
                &names(&["wage"]),
                NormalizeMethod::ZScore
            ),
            Err(Error::Config(_))
        ));
        // non-numeric QI errors at its line
        match fit_auto(
            CSV.as_bytes(),
            &names(&["city"]),
            &names(&["wage"]),
            NormalizeMethod::ZScore,
        ) {
            Err(Error::Data { line, detail }) => {
                assert_eq!(line, Some(2));
                assert!(detail.contains("city"), "{detail}");
            }
            other => panic!("expected Data error, got {other:?}"),
        }
        // header only
        assert!(matches!(
            fit_auto(
                "a,b\n".as_bytes(),
                &names(&["a"]),
                &names(&["b"]),
                NormalizeMethod::ZScore
            ),
            Err(Error::Data { line: None, .. })
        ));
        // empty file
        assert!(matches!(
            fit_auto(
                "".as_bytes(),
                &names(&["a"]),
                &names(&["b"]),
                NormalizeMethod::ZScore
            ),
            Err(Error::Microdata(_))
        ));
    }

    #[test]
    fn non_numeric_qi_error_names_the_ordinal_route() {
        match fit_auto(
            CSV.as_bytes(),
            &names(&["city"]),
            &names(&["wage"]),
            NormalizeMethod::ZScore,
        ) {
            Err(Error::Data { detail, .. }) => {
                for route in [
                    "fit in memory under a schema that declares it ordinal",
                    "load a model artifact",
                    "`ShardedAnonymizer::apply_file_with`",
                ] {
                    assert!(detail.contains(route), "{detail}");
                }
                assert!(!detail.contains("explicit schema"), "{detail}");
            }
            other => panic!("expected Data error, got {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_fails_at_its_file_line() {
        let data = b"age,city,wage\n30,rome,100\n\n34,p\xc3ris,200\n";
        match fit_auto(
            &data[..],
            &names(&["age"]),
            &names(&["wage"]),
            NormalizeMethod::ZScore,
        ) {
            Err(Error::Microdata(tclose_microdata::Error::Csv { line, detail })) => {
                assert_eq!(line, 4);
                assert!(detail.contains("UTF-8"), "{detail}");
            }
            other => panic!("expected a CSV error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_passthrough_matches_the_in_memory_reader() {
        // A numeric-looking pass-through column containing "inf" fails in
        // both ingestion modes (parity with read_csv_auto + parse_record)…
        let data = "age,extra,wage\n30,1.5,100\n31,inf,200\n32,2.5,100\n";
        assert!(tclose_microdata::csv::read_csv_auto(data.as_bytes()).is_err());
        match fit_auto(
            data.as_bytes(),
            &names(&["age"]),
            &names(&["wage"]),
            NormalizeMethod::ZScore,
        ) {
            Err(Error::Data { line, detail }) => {
                assert_eq!(line, Some(3));
                assert!(detail.contains("non-finite"), "{detail}");
            }
            other => panic!("expected Data error, got {other:?}"),
        }

        // …while a mixed column (text + "inf") goes nominal in both; the
        // in-memory table holds its labels, the fit none.
        let mixed = "age,extra,wage\n30,x,100\n31,inf,200\n32,y,100\n";
        let table = tclose_microdata::csv::read_csv_auto(mixed.as_bytes()).unwrap();
        let extra = table.schema().attribute(1).unwrap();
        assert_eq!(extra.kind, AttributeKind::NominalCategorical);
        assert!(extra.dictionary.labels().eq(["x", "inf", "y"]));
        let fit = fit_auto(
            mixed.as_bytes(),
            &names(&["age"]),
            &names(&["wage"]),
            NormalizeMethod::ZScore,
        )
        .unwrap();
        let extra = fit.schema().attribute(1).unwrap();
        assert_eq!(extra.kind, AttributeKind::NominalCategorical);
        assert!(extra.dictionary.is_empty(), "{:?}", extra.dictionary);
    }
}
