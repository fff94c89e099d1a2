//! The inference scan [`fit_auto`](super::fit_auto) replaced, kept as its
//! test-only specification: owned `String` fields per record, and for
//! each pass-through column a label list plus a `seen` set, rebuilt into
//! a dictionary at the end. The test below holds the production scan
//! equal to it on seeded random inputs.
//!
//! Both read through the production record reader, which the
//! differential test of `tclose_microdata::csv` holds equal to the old
//! `lines()` reader; here only the scan differs.

use std::collections::HashSet;
use std::io::Read;

use crate::error::{Error, Result};
use tclose_core::{Confidential, GlobalFit, QiEmbedding};
use tclose_metrics::emd::DomainAccumulator;
use tclose_microdata::csv::CsvRecords;
use tclose_microdata::{AttributeDef, AttributeRole, NormalizeMethod, RunningStats, Schema};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanRole {
    Qi,
    Confidential,
    Other,
}

struct ColumnScan {
    name: String,
    role: ScanRole,
    numeric: bool,
    first_non_finite: Option<usize>,
    labels: Vec<String>,
    seen: HashSet<String>,
    stats: RunningStats,
    domain: DomainAccumulator,
}

impl ColumnScan {
    fn new(name: &str, role: ScanRole) -> Self {
        ColumnScan {
            name: name.to_owned(),
            role,
            numeric: true,
            first_non_finite: None,
            labels: Vec::new(),
            seen: HashSet::new(),
            stats: RunningStats::new(),
            domain: DomainAccumulator::new(),
        }
    }

    fn scan(&mut self, field: &str, row: usize, lineno: usize) -> Result<()> {
        let parsed = field.trim().parse::<f64>().ok();
        let finite = parsed.filter(|x| x.is_finite());
        match self.role {
            ScanRole::Qi => {
                let x = finite.ok_or_else(|| Error::Data {
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
                self.stats.push(x);
            }
            ScanRole::Confidential => {
                let x = finite.ok_or_else(|| Error::Data {
                    line: Some(lineno),
                    detail: format!(
                        "confidential attribute {:?} has non-numeric or non-finite \
                         value {field:?}; the ordered EMD needs a rankable attribute",
                        self.name
                    ),
                })?;
                self.domain.add(x, row).map_err(|e| Error::Data {
                    line: Some(lineno),
                    detail: e.to_string(),
                })?;
            }
            ScanRole::Other => {
                match parsed {
                    None => self.numeric = false,
                    Some(x) if !x.is_finite() && self.first_non_finite.is_none() => {
                        self.first_non_finite = Some(lineno);
                    }
                    Some(_) => {}
                }
                if !self.seen.contains(field) {
                    self.seen.insert(field.to_owned());
                    self.labels.push(field.to_owned());
                }
            }
        }
        Ok(())
    }

    fn check_finite(&self) -> Result<()> {
        if self.role == ScanRole::Other && self.numeric {
            if let Some(line) = self.first_non_finite {
                return Err(Error::Data {
                    line: Some(line),
                    detail: format!("non-finite number in numeric column {:?}", self.name),
                });
            }
        }
        Ok(())
    }
}

fn resolve_roles(
    header: &[String],
    qi: &[String],
    confidential: &[String],
) -> Result<Vec<ScanRole>> {
    for name in qi.iter().chain(confidential) {
        if !header.contains(name) {
            return Err(Error::Config(format!(
                "column {name:?} is not in the input header {header:?}"
            )));
        }
    }
    Ok(header
        .iter()
        .map(|name| {
            if confidential.contains(name) {
                ScanRole::Confidential
            } else if qi.contains(name) {
                ScanRole::Qi
            } else {
                ScanRole::Other
            }
        })
        .collect())
}

/// The records of `reader` as the old reader yielded them: one owned
/// `String` per field.
fn owned_records<R: Read>(
    records: &mut CsvRecords<R>,
) -> impl Iterator<Item = tclose_microdata::Result<(usize, Vec<String>)>> + '_ {
    std::iter::from_fn(move || {
        records
            .next_record()
            .map(|r| r.map(|r| (r.line(), r.fields().map(str::to_owned).collect())))
            .transpose()
    })
}

pub(super) fn fit_auto<R: Read>(
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
    let header = records.header().to_vec();
    let roles = resolve_roles(&header, qi, confidential)?;
    let mut cols: Vec<ColumnScan> = header
        .iter()
        .zip(&roles)
        .map(|(name, &role)| ColumnScan::new(name, role))
        .collect();

    let mut n = 0usize;
    for record in owned_records(&mut records) {
        let (lineno, fields) = record?;
        for (col, field) in cols.iter_mut().zip(&fields) {
            col.scan(field, n, lineno)?;
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

    let attrs: Vec<AttributeDef> = cols
        .iter()
        .map(|c| match c.role {
            ScanRole::Qi => AttributeDef::numeric(c.name.clone(), AttributeRole::QuasiIdentifier),
            ScanRole::Confidential => {
                AttributeDef::numeric(c.name.clone(), AttributeRole::Confidential)
            }
            ScanRole::Other if c.numeric => {
                AttributeDef::numeric(c.name.clone(), AttributeRole::NonConfidential)
            }
            ScanRole::Other => AttributeDef::nominal(
                c.name.clone(),
                AttributeRole::NonConfidential,
                c.labels.clone(),
            ),
        })
        .collect();
    let schema = Schema::new(attrs)?;

    let stats: Vec<RunningStats> = cols
        .iter()
        .filter(|c| c.role == ScanRole::Qi)
        .map(|c| c.stats)
        .collect();
    let embedding = QiEmbedding::from_stats(normalize, &stats);
    let emds = cols
        .iter()
        .filter(|c| c.role == ScanRole::Confidential)
        .map(|c| {
            c.domain.finalize().map_err(|e| Error::Data {
                line: None,
                detail: format!("confidential attribute {:?}: {e}", c.name),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let conf = Confidential::from_emds(emds)?;
    Ok(GlobalFit::from_parts(schema, embedding, conf, n)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: a seeded, dependency-free generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
    }

    /// Cells: finite numbers (two spellings of one value among them),
    /// non-finite numbers, words, an empty cell, a quoted comma.
    const CELLS: &[&str] = &[
        "30", "41.5", " 7 ", "7", "-2", "1e2", "100", "inf", "NaN", "rome", "", "\"a,b\"",
    ];

    /// A random CSV over `names`: mostly finite numbers, so QI and
    /// confidential columns often scan clean, with words, non-finite
    /// values, blank lines, CRLF endings and the odd ragged record.
    fn random_csv(rng: &mut Rng, names: &[&str]) -> String {
        let mut out = names.join(",");
        out.push('\n');
        for _ in 0..rng.below(10) {
            if rng.chance(8) {
                out.push_str("\r\n");
                continue;
            }
            let n = if rng.chance(3) {
                1 + rng.below(names.len() + 1)
            } else {
                names.len()
            };
            let cells: Vec<&str> = (0..n)
                .map(|_| {
                    let pool = if rng.chance(85) { 7 } else { CELLS.len() };
                    CELLS[rng.below(pool)]
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push_str(if rng.chance(20) { "\r\n" } else { "\n" });
        }
        out
    }

    /// Everything a fit holds, in comparable form.
    type Summary = (
        Schema,
        Vec<usize>,
        QiEmbedding,
        usize,
        Vec<(Vec<u64>, Vec<u32>)>,
    );

    fn summary(fit: Result<GlobalFit>) -> Result<Summary> {
        fit.map(|f| {
            let emds = f
                .confidential()
                .emds()
                .iter()
                .map(|e| {
                    let values = e.values().iter().map(|v| v.to_bits()).collect();
                    (values, e.global_counts().to_vec())
                })
                .collect();
            (
                f.schema().clone(),
                f.qi().to_vec(),
                f.embedding().clone(),
                f.n_records(),
                emds,
            )
        })
    }

    #[test]
    fn fit_auto_equals_the_reference_on_random_csv() {
        let mut rng = Rng(0x0f17_a070);
        let names = ["age", "city", "wage", "extra"];
        let (mut fitted, mut failed) = (0, 0);
        for _ in 0..20_000 {
            let data = random_csv(&mut rng, &names);
            let pick = |rng: &mut Rng| -> Vec<String> {
                (0..1 + rng.below(2))
                    .map(|_| names[rng.below(names.len())].to_owned())
                    .collect()
            };
            let (qi, conf) = (pick(&mut rng), pick(&mut rng));
            let normalize = [
                NormalizeMethod::ZScore,
                NormalizeMethod::MinMax,
                NormalizeMethod::None,
            ][rng.below(3)];
            let old = summary(fit_auto(data.as_bytes(), &qi, &conf, normalize));
            let new = summary(super::super::fit_auto(
                data.as_bytes(),
                &qi,
                &conf,
                normalize,
            ));
            match &old {
                Ok(_) => fitted += 1,
                Err(_) => failed += 1,
            }
            assert_eq!(old, new, "qi {qi:?} conf {conf:?}: {data:?}");
        }
        assert!(
            fitted > 2_000 && failed > 2_000,
            "{fitted} fitted, {failed} failed"
        );
    }
}
