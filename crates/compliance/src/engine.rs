//! The compliance engine: scan (detect + report) and scrub (transform +
//! audit) over microdata tables.
//!
//! Scrubbing only ever rewrites **categorical** columns whose role is
//! `Identifier` or `NonConfidential`. Quasi-identifiers and confidential
//! attributes are deliberately untouched — rewriting them would change
//! the fit and the t-closeness guarantee — which is also what makes the
//! streamed scrub byte-identical to the monolithic one: the scrub is a
//! pure per-cell function, independent of clustering.
//!
//! Scan and scrub share one per-cell detection pass, so a scan's
//! "cells pending transform" count is exactly the number of audit
//! records a scrub of the same table counts. Because the scrub of a
//! cell depends on its label alone, a scrub detects, rewrites, interns
//! and audit-hashes each distinct label of a column once. It hashes and
//! renders records only when the policy writes a log.

use std::borrow::Cow;
use std::ops::Range;

use tclose_microdata::{AttributeDef, AttributeRole, Column, Dictionary, Schema, Table};
use tclose_ser::Json;

use crate::audit::{line_middle, push_line, salted_digest, AuditLog, LINE_FRAME};
use crate::config::{ComplianceConfig, Strategy};
use crate::rules::Rule;
use crate::sha256::{push_hex, HmacKey};
use crate::ComplianceError;

/// Max sampled matches per (column, rule) in scan reports.
const MAX_SAMPLES: usize = 3;

/// A configured detector + transformer.
#[derive(Debug, Clone)]
pub struct ComplianceEngine {
    config: ComplianceConfig,
    rules: Vec<Rule>,
    /// The tokenize/hash key, padded key blocks precompressed.
    hmac: HmacKey,
    /// Per rule, the replacement text ahead of the keyed hex tail
    /// (`TOK_<RULE>_`, `HASH_`), or all of it (`[REDACTED:<id>]`).
    heads: Vec<String>,
}

/// Hit counts for one rule in one column.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleHits {
    /// Rule id.
    pub rule: String,
    /// Cells with at least one accepted match.
    pub cells: usize,
    /// Accepted match spans (≥ `cells`).
    pub spans: usize,
    /// Up to `MAX_SAMPLES` matched texts (plaintext — scan reports
    /// are operator previews, unlike the audit log).
    pub samples: Vec<String>,
}

/// Scan result for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnScan {
    /// Column name.
    pub column: String,
    /// Whether a scrub would rewrite this column (categorical with an
    /// `Identifier`/`NonConfidential` role). Hits in non-transformable
    /// columns are report-only findings.
    pub transformable: bool,
    /// Distinct cells with at least one hit from any rule.
    pub matched_cells: usize,
    /// Per-rule hit counts, in rule order.
    pub hits: Vec<RuleHits>,
}

/// A full scan report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// Active profile name.
    pub profile: String,
    /// Configured transform strategy.
    pub strategy: String,
    /// Rows scanned.
    pub n_rows: usize,
    /// Per-column results (every column appears, hits or not).
    pub columns: Vec<ColumnScan>,
}

/// Result of scrubbing one table (or shard).
#[derive(Debug, Clone)]
pub struct ScrubOutcome {
    /// The scrubbed table (same schema shape; rewritten dictionaries).
    pub table: Table,
    /// Distinct cells transformed.
    pub cells: usize,
    /// Audit records: one per (cell, rule) transformed, counted whether
    /// or not the policy writes a log.
    pub records: usize,
    /// The records as audit-log lines, ordered by (row, column, rule),
    /// when the policy writes a log
    /// ([`ComplianceConfig::audit_log_path`]); empty otherwise.
    pub log: String,
}

/// Per-cell detection outcome shared by scan and scrub.
struct CellHits {
    /// `(rule index, accepted spans)`, in rule order. For a whole-cell
    /// rule the single span covers the entire cell.
    by_rule: Vec<(usize, Vec<(usize, usize)>)>,
}

/// Buffers reused across the cells of one scan or scrub.
#[derive(Default)]
struct CellBuffers {
    /// The cell last passed to `detect_cell`, decoded.
    chars: Vec<char>,
    /// Chars already inside an earlier rule's accepted span.
    claimed: Vec<bool>,
    /// One matched span: the input of a keyed token.
    span: String,
    /// The rewritten cell.
    out: String,
}

/// The scrub of one distinct label, shared by every row holding it.
/// It owns no heap memory: a per-label allocation that outlived the
/// label's scrub would scatter the output dictionary's strings across
/// the heap and slow every later pass over the released table.
struct Scrubbed {
    /// Code of the scrubbed label in the output dictionary.
    code: u32,
    /// The rules that fired, in rule order, as a range of the column's
    /// `fired` list; empty when the label passes.
    fired: Range<usize>,
    /// `sha256(salt ‖ original label)` for the audit log; zero when the
    /// policy writes none.
    hash: [u8; 32],
}

/// A scrubbed column, as the audit log reads it back row by row.
struct LoggedColumn<'a> {
    /// The column's input codes.
    codes: &'a [u32],
    /// Input code → index into `memo`.
    slot_of: Vec<u32>,
    memo: Vec<Scrubbed>,
    /// The rules that fired, as `Scrubbed::fired` ranges index them.
    fired: Vec<usize>,
    /// Per rule, the lines' shared middle ([`line_middle`]).
    middles: Vec<String>,
}

/// `slot_of` entry for an input code not seen yet.
const NO_SLOT: u32 = u32::MAX;

impl ComplianceEngine {
    /// Builds an engine, compiling the config's active rules.
    pub fn new(config: ComplianceConfig) -> Result<ComplianceEngine, ComplianceError> {
        let rules = config.compile_rules()?;
        let heads = rules
            .iter()
            .map(|rule| match config.strategy {
                Strategy::Redact => format!("[REDACTED:{}]", rule.id),
                Strategy::Tokenize => format!("TOK_{}_", rule.id.to_uppercase()),
                Strategy::Hash => "HASH_".to_owned(),
            })
            .collect();
        Ok(ComplianceEngine {
            hmac: HmacKey::new(config.key.as_bytes()),
            heads,
            config,
            rules,
        })
    }

    /// The policy this engine enforces.
    pub fn config(&self) -> &ComplianceConfig {
        &self.config
    }

    /// The compiled active rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The policy fingerprint (see [`ComplianceConfig::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        self.config.fingerprint()
    }

    /// Opens the policy's audit log for writing, or `None` when the
    /// policy writes no log ([`ComplianceConfig::audit_log_path`]). A
    /// release opens it before it writes anything, so a log that cannot
    /// be created fails the run before the release file exists.
    pub fn open_audit_log(&self) -> Result<Option<AuditLog>, ComplianceError> {
        self.config
            .audit_log_path()
            .map(AuditLog::create)
            .transpose()
    }

    /// True when the whole of `cell` is one token a scrub writes —
    /// `TOK_<ID>_<hex16>`, `HASH_<hex16>` or `[REDACTED:<id>]`, with ids
    /// from `[A-Za-z0-9_-]+` and lowercase hex. Such cells are skipped
    /// by both scan and scrub, which is what makes scrubbing idempotent.
    /// A cell that only starts like a token is scanned like any other.
    pub fn is_scrub_output(cell: &str) -> bool {
        let id = |s: &str| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        };
        let hex16 =
            |s: &str| s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        if let Some(rest) = cell.strip_prefix("TOK_") {
            rest.rsplit_once('_')
                .is_some_and(|(rule, tail)| id(rule) && hex16(tail))
        } else if let Some(rest) = cell.strip_prefix("HASH_") {
            hex16(rest)
        } else if let Some(rest) = cell.strip_prefix("[REDACTED:") {
            rest.strip_suffix(']').is_some_and(id)
        } else {
            false
        }
    }

    /// True when a scrub would rewrite the column: categorical, and the
    /// role is not part of the t-closeness computation.
    fn transformable(attr: &AttributeDef) -> bool {
        attr.kind.is_categorical()
            && matches!(
                attr.role,
                AttributeRole::Identifier | AttributeRole::NonConfidential
            )
    }

    /// Detects matches in one cell, decoding it into `buf.chars`: whole-
    /// cell rules win outright; otherwise span rules claim
    /// non-overlapping spans in rule order.
    fn detect_cell(
        &self,
        applicable: &[usize],
        cell: &str,
        buf: &mut CellBuffers,
    ) -> Option<CellHits> {
        buf.chars.clear();
        if cell.is_empty() || Self::is_scrub_output(cell) {
            return None;
        }
        buf.chars.extend(cell.chars());
        let chars = &buf.chars;
        for &ri in applicable {
            let rule = &self.rules[ri];
            if rule.whole_cell && rule.pattern.is_match_chars(chars) {
                return Some(CellHits {
                    by_rule: vec![(ri, vec![(0, chars.len())])],
                });
            }
        }
        let claimed = &mut buf.claimed;
        claimed.clear();
        claimed.resize(chars.len(), false);
        let mut by_rule = Vec::new();
        for &ri in applicable {
            let rule = &self.rules[ri];
            if rule.whole_cell {
                continue;
            }
            let mut spans = rule.pattern.find_all_chars(chars);
            spans.retain(|&(s, e)| !claimed[s..e].contains(&true));
            if spans.is_empty() {
                continue;
            }
            for &(s, e) in &spans {
                claimed[s..e].iter_mut().for_each(|c| *c = true);
            }
            by_rule.push((ri, spans));
        }
        if by_rule.is_empty() {
            None
        } else {
            Some(CellHits { by_rule })
        }
    }

    /// Rule indices applicable to a column, in rule order.
    fn applicable(&self, column: &str) -> Vec<usize> {
        (0..self.rules.len())
            .filter(|&i| self.rules[i].applies_to(column))
            .collect()
    }

    /// Cell text for scanning: categorical label, or the CSV rendering
    /// of a numeric value.
    fn cell_text<'a>(attr: &'a AttributeDef, column: &Column, row: usize) -> Cow<'a, str> {
        match column {
            Column::F64(values) => Cow::Owned(format_numeric(values[row])),
            Column::Cat(codes) => {
                Cow::Borrowed(attr.dictionary.label(codes[row]).unwrap_or_default())
            }
        }
    }

    /// Scans every column of `table`, counting matches without
    /// transforming anything.
    pub fn scan_table(&self, table: &Table) -> Result<ScanReport, ComplianceError> {
        let mut columns = Vec::with_capacity(table.n_cols());
        let mut buf = CellBuffers::default();
        for c in 0..table.n_cols() {
            let attr = table.schema().attribute(c).map_err(data_err)?;
            let column = table.column(c).map_err(data_err)?;
            let applicable = self.applicable(&attr.name);
            let mut hits: Vec<RuleHits> = Vec::new();
            let mut matched_cells = 0;
            if !applicable.is_empty() {
                for r in 0..table.n_rows() {
                    let text = Self::cell_text(attr, column, r);
                    let Some(cell_hits) = self.detect_cell(&applicable, &text, &mut buf) else {
                        continue;
                    };
                    matched_cells += 1;
                    for (ri, spans) in cell_hits.by_rule {
                        let id = &self.rules[ri].id;
                        let entry = match hits.iter_mut().find(|h| &h.rule == id) {
                            Some(e) => e,
                            None => {
                                hits.push(RuleHits {
                                    rule: id.clone(),
                                    cells: 0,
                                    spans: 0,
                                    samples: Vec::new(),
                                });
                                hits.last_mut().expect("just pushed")
                            }
                        };
                        entry.cells += 1;
                        entry.spans += spans.len();
                        for &(s, e) in &spans {
                            if entry.samples.len() >= MAX_SAMPLES {
                                break;
                            }
                            entry.samples.push(buf.chars[s..e].iter().collect());
                        }
                    }
                }
            }
            columns.push(ColumnScan {
                column: attr.name.clone(),
                transformable: Self::transformable(attr),
                matched_cells,
                hits,
            });
        }
        Ok(ScanReport {
            profile: self.config.profile.name().to_owned(),
            strategy: self.config.strategy.name().to_owned(),
            n_rows: table.n_rows(),
            columns,
        })
    }

    /// Scrubs `table`: rewrites matching cells in transformable columns
    /// and returns the new table, the counts and, when the policy writes
    /// a log, the audit-log lines. `row_offset` is added to local row
    /// indices so shard-level scrubs audit global row numbers.
    pub fn scrub_table(
        &self,
        table: &Table,
        row_offset: usize,
    ) -> Result<ScrubOutcome, ComplianceError> {
        let logged = self.config.audit_log_path().is_some();
        let mut attrs: Vec<AttributeDef> = Vec::with_capacity(table.n_cols());
        let mut columns: Vec<Column> = Vec::with_capacity(table.n_cols());
        let mut logged_columns: Vec<LoggedColumn> = Vec::new();
        let (mut cells, mut records) = (0, 0);
        let mut buf = CellBuffers::default();

        for (c, attr) in table.schema().attributes().iter().enumerate() {
            let column = table.column(c).map_err(data_err)?;
            let applicable = self.applicable(&attr.name);
            let codes = match column {
                Column::Cat(codes) if Self::transformable(attr) && !applicable.is_empty() => codes,
                _ => {
                    attrs.push(attr.clone());
                    columns.push(column.clone());
                    continue;
                }
            };
            // Input code → index into `memo`, filled on first sight.
            let mut slot_of = vec![NO_SLOT; attr.dictionary.len()];
            let mut memo: Vec<Scrubbed> = Vec::new();
            let mut fired: Vec<usize> = Vec::new();
            let mut dict = Dictionary::new();
            let mut new_codes = Vec::with_capacity(codes.len());
            for &code in codes {
                let slot = &mut slot_of[code as usize];
                if *slot == NO_SLOT {
                    *slot = memo.len() as u32;
                    let label = attr.dictionary.label(code).unwrap_or_default();
                    let scrubbed = self.scrub_label(
                        &applicable,
                        label,
                        logged,
                        &mut dict,
                        &mut fired,
                        &mut buf,
                    );
                    memo.push(scrubbed);
                }
                let scrubbed = &memo[*slot as usize];
                new_codes.push(scrubbed.code);
                if !scrubbed.fired.is_empty() {
                    cells += 1;
                    records += scrubbed.fired.len();
                }
            }
            if logged {
                let middles = self
                    .rules
                    .iter()
                    .map(|rule| line_middle(&attr.name, &rule.id, self.config.strategy))
                    .collect();
                logged_columns.push(LoggedColumn {
                    codes,
                    slot_of,
                    memo,
                    fired,
                    middles,
                });
            }
            attrs.push(AttributeDef {
                name: attr.name.clone(),
                kind: attr.kind,
                role: attr.role,
                dictionary: dict,
            });
            columns.push(Column::Cat(new_codes));
        }

        let log = if logged {
            render_log(&logged_columns, table.n_rows(), row_offset, records)
        } else {
            String::new()
        };
        let schema = Schema::new(attrs).map_err(data_err)?;
        let table = Table::from_columns(schema, columns).map_err(data_err)?;
        Ok(ScrubOutcome {
            table,
            cells,
            records,
            log,
        })
    }

    /// Scrubs one distinct label: detects, rewrites, interns the result
    /// into `dict`, appends the rules that fired to `fired` and, when
    /// the scrub is `logged`, hashes the original for the audit log.
    fn scrub_label(
        &self,
        applicable: &[usize],
        label: &str,
        logged: bool,
        dict: &mut Dictionary,
        fired: &mut Vec<usize>,
        buf: &mut CellBuffers,
    ) -> Scrubbed {
        let start = fired.len();
        let Some(hits) = self.detect_cell(applicable, label, buf) else {
            return Scrubbed {
                code: dict.intern(label),
                fired: start..start,
                hash: [0; 32],
            };
        };
        self.rewrite(&hits, buf);
        fired.extend(hits.by_rule.iter().map(|&(ri, _)| ri));
        Scrubbed {
            code: dict.intern(&buf.out),
            fired: start..fired.len(),
            hash: if logged {
                salted_digest(&self.config.salt, label)
            } else {
                [0; 32]
            },
        }
    }

    /// Rewrites the cell in `buf.chars` into `buf.out`, replacing
    /// accepted spans (in span order) with the configured strategy's
    /// text.
    fn rewrite(&self, hits: &CellHits, buf: &mut CellBuffers) {
        let mut spans: Vec<(usize, usize, usize)> = hits
            .by_rule
            .iter()
            .flat_map(|(ri, spans)| spans.iter().map(move |&(s, e)| (s, e, *ri)))
            .collect();
        spans.sort_by_key(|&(s, ..)| s);
        let chars = &buf.chars;
        buf.out.clear();
        let mut pos = 0;
        for (s, e, ri) in spans {
            buf.out.extend(&chars[pos..s]);
            buf.span.clear();
            buf.span.extend(&chars[s..e]);
            self.push_replacement(ri, &buf.span, &mut buf.out);
            pos = e;
        }
        buf.out.extend(&chars[pos..]);
    }

    /// Appends the replacement text for one span of rule `ri` matching
    /// `matched` under the configured strategy.
    fn push_replacement(&self, ri: usize, matched: &str, out: &mut String) {
        out.push_str(&self.heads[ri]);
        if self.config.strategy != Strategy::Redact {
            // The first 16 hex chars of HMAC-SHA256(key, matched).
            push_hex(out, &self.hmac.mac(matched.as_bytes())[..8]);
        }
    }

    /// Removes `drop_columns` from a table (names not present are
    /// ignored — a shared policy file may name columns this dataset
    /// does not have).
    pub fn drop_release_columns(&self, table: &Table) -> Result<Table, ComplianceError> {
        if self.config.drop_columns.is_empty() {
            return Ok(table.clone());
        }
        let keep: Vec<usize> = (0..table.n_cols())
            .filter(|&c| {
                let name = &table.schema().attributes()[c].name;
                !self.config.drop_columns.contains(name)
            })
            .collect();
        if keep.len() == table.n_cols() {
            return Ok(table.clone());
        }
        table.project(&keep).map_err(data_err)
    }

    /// Column names surviving [`ComplianceEngine::drop_release_columns`].
    pub fn kept_columns<'a>(&self, names: &[&'a str]) -> Vec<&'a str> {
        names
            .iter()
            .copied()
            .filter(|n| !self.config.drop_columns.iter().any(|d| d == n))
            .collect()
    }
}

/// Renders the `records` audit-log lines of the scrubbed `columns`,
/// ordered by row, then column, then rule.
fn render_log(
    columns: &[LoggedColumn],
    n_rows: usize,
    row_offset: usize,
    records: usize,
) -> String {
    let middle = columns
        .iter()
        .flat_map(|c| c.middles.iter().map(String::len))
        .max()
        .unwrap_or(0);
    let digits = (row_offset + n_rows).to_string().len();
    let mut log = String::with_capacity(records * (LINE_FRAME + middle + digits));
    for r in 0..n_rows {
        for c in columns {
            let scrubbed = &c.memo[c.slot_of[c.codes[r] as usize] as usize];
            for &ri in &c.fired[scrubbed.fired.clone()] {
                push_line(&mut log, row_offset + r, &c.middles[ri], &scrubbed.hash);
            }
        }
    }
    log
}

/// Numeric cell rendering matching the CSV writer: integral values have
/// no trailing `.0`.
fn format_numeric(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn data_err(e: tclose_microdata::Error) -> ComplianceError {
    ComplianceError::Data(e.to_string())
}

impl ScanReport {
    /// Total cells matched per rule, sorted by rule id.
    pub fn rule_totals(&self) -> Vec<(String, usize)> {
        let mut totals: Vec<(String, usize)> = Vec::new();
        for col in &self.columns {
            for h in &col.hits {
                match totals.iter_mut().find(|(id, _)| id == &h.rule) {
                    Some((_, n)) => *n += h.cells,
                    None => totals.push((h.rule.clone(), h.cells)),
                }
            }
        }
        totals.sort();
        totals
    }

    /// Distinct matched cells across all columns.
    pub fn total_matched_cells(&self) -> usize {
        self.columns.iter().map(|c| c.matched_cells).sum()
    }

    /// Predicted audit-record count: (cell, rule) pairs in transformable
    /// columns. A scrub of the same table emits exactly this many lines.
    pub fn pending_transform(&self) -> usize {
        self.columns
            .iter()
            .filter(|c| c.transformable)
            .flat_map(|c| c.hits.iter())
            .map(|h| h.cells)
            .sum()
    }

    /// Stable plain-text rendering (the `tclose scan` output). Lines
    /// like `rule totals:` / `total matched cells N` are relied on by
    /// `scripts/compliance_gate.sh` — change them in both places.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "compliance scan: profile={} strategy={} rows={}\n",
            self.profile, self.strategy, self.n_rows
        ));
        for col in &self.columns {
            if col.hits.is_empty() {
                continue;
            }
            let tag = if col.transformable {
                "transform"
            } else {
                "report-only"
            };
            out.push_str(&format!(
                "column {} [{}]: {} matched cells\n",
                col.column, tag, col.matched_cells
            ));
            for h in &col.hits {
                out.push_str(&format!(
                    "  rule {}: cells={} spans={}",
                    h.rule, h.cells, h.spans
                ));
                if !h.samples.is_empty() {
                    out.push_str(&format!(" samples: {}", h.samples.join(" | ")));
                }
                out.push('\n');
            }
        }
        out.push_str("rule totals:\n");
        for (rule, n) in self.rule_totals() {
            out.push_str(&format!("  {rule}: {n}\n"));
        }
        out.push_str(&format!(
            "total matched cells {}\n",
            self.total_matched_cells()
        ));
        out.push_str(&format!(
            "cells pending transform {}\n",
            self.pending_transform()
        ));
        out
    }

    /// Structured rendering for `tclose scan --out`.
    pub fn to_json(&self) -> Json {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let hits = c
                    .hits
                    .iter()
                    .map(|h| {
                        Json::Obj(vec![
                            ("rule".to_owned(), Json::Str(h.rule.clone())),
                            ("cells".to_owned(), Json::Num(h.cells as f64)),
                            ("spans".to_owned(), Json::Num(h.spans as f64)),
                            (
                                "samples".to_owned(),
                                Json::Arr(h.samples.iter().cloned().map(Json::Str).collect()),
                            ),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("column".to_owned(), Json::Str(c.column.clone())),
                    ("transformable".to_owned(), Json::Bool(c.transformable)),
                    (
                        "matched_cells".to_owned(),
                        Json::Num(c.matched_cells as f64),
                    ),
                    ("hits".to_owned(), Json::Arr(hits)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("profile".to_owned(), Json::Str(self.profile.clone())),
            ("strategy".to_owned(), Json::Str(self.strategy.clone())),
            ("n_rows".to_owned(), Json::Num(self.n_rows as f64)),
            (
                "total_matched_cells".to_owned(),
                Json::Num(self.total_matched_cells() as f64),
            ),
            (
                "pending_transform".to_owned(),
                Json::Num(self.pending_transform() as f64),
            ),
            ("columns".to_owned(), Json::Arr(columns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-row table: NAME (identifier), NOTES (non-confidential, with
    /// embedded PII), AGE (QI numeric), DIAG (confidential categorical).
    fn sample_table() -> Table {
        let names = [
            "Ada Lovelace",
            "Grace Hopper",
            "Alan Turing",
            "Edsger Dijkstra",
        ];
        let notes = [
            "call 555-210-4477 re: visit",
            "email grace@navy.mil asap",
            "ssn on file: 123-45-6789",
            "no contact info",
        ];
        let diags = ["flu", "flu", "cold", "cold"];
        let attrs = vec![
            AttributeDef::nominal("NAME", AttributeRole::Identifier, names),
            AttributeDef::nominal("NOTES", AttributeRole::NonConfidential, notes),
            AttributeDef::numeric("AGE", AttributeRole::QuasiIdentifier),
            AttributeDef::nominal("DIAG", AttributeRole::Confidential, ["flu", "cold"]),
        ];
        let name_codes: Vec<u32> = (0..4).collect();
        let note_codes: Vec<u32> = (0..4).collect();
        let diag_codes: Vec<u32> = diags
            .iter()
            .map(|d| attrs[3].dictionary.code(d).unwrap())
            .collect();
        let schema = Schema::new(attrs).unwrap();
        Table::from_columns(
            schema,
            vec![
                Column::Cat(name_codes),
                Column::Cat(note_codes),
                Column::F64(vec![34.0, 45.0, 41.0, 56.0]),
                Column::Cat(diag_codes),
            ],
        )
        .unwrap()
    }

    fn engine(cfg: ComplianceConfig) -> ComplianceEngine {
        ComplianceEngine::new(cfg).unwrap()
    }

    /// The replacement `e` writes for `matched` under its first rule.
    fn token(e: &ComplianceEngine, matched: &str) -> String {
        let mut out = String::new();
        e.push_replacement(0, matched, &mut out);
        out
    }

    #[test]
    fn scan_counts_and_report_shape() {
        let e = engine(ComplianceConfig::default());
        let report = e.scan_table(&sample_table()).unwrap();
        assert_eq!(report.n_rows, 4);
        let totals = report.rule_totals();
        assert_eq!(
            totals,
            vec![
                ("email".to_owned(), 1),
                ("name".to_owned(), 4),
                ("phone".to_owned(), 1),
                ("ssn".to_owned(), 1),
            ]
        );
        assert_eq!(report.total_matched_cells(), 7);
        assert_eq!(report.pending_transform(), 7);
        let text = report.render();
        assert!(text.contains("rule totals:"));
        assert!(text.contains("  name: 4"));
        assert!(text.contains("total matched cells 7"));
        assert!(text.contains("cells pending transform 7"));
        // JSON mirror carries the same numbers
        let json = report.to_json();
        assert_eq!(json.get("pending_transform").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn scrub_tokenize_replaces_and_audits() {
        let table = sample_table();
        // Without a log, the records are counted but not made.
        let out = engine(ComplianceConfig::default())
            .scrub_table(&table, 100)
            .unwrap();
        assert_eq!((out.cells, out.records), (7, 7));
        assert!(out.log.is_empty());
        let e = engine(ComplianceConfig {
            audit_path: Some("audit.jsonl".into()),
            ..ComplianceConfig::default()
        });
        let logged = e.scrub_table(&table, 100).unwrap();
        assert_eq!((logged.cells, logged.records), (7, 7));
        // lines carry global rows in order, and never plaintext
        let rows: Vec<f64> = logged
            .log
            .lines()
            .map(|line| {
                Json::parse(line)
                    .unwrap()
                    .get("row")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert_eq!(rows, [100.0, 100.0, 101.0, 101.0, 102.0, 102.0, 103.0]);
        assert!(!logged.log.contains("Lovelace"));
        assert!(!logged.log.contains("555-210-4477"));
        // the release does not depend on the log
        let mut csv = (Vec::new(), Vec::new());
        tclose_microdata::csv::write_csv(&out.table, &mut csv.0).unwrap();
        tclose_microdata::csv::write_csv(&logged.table, &mut csv.1).unwrap();
        assert_eq!(csv.0, csv.1);
        // NAME cells became whole-cell tokens; NOTES kept surrounding text
        let name_attr = &out.table.schema().attributes()[0];
        let code = out.table.categorical_column(0).unwrap()[0];
        let tok = name_attr.dictionary.label(code).unwrap();
        assert!(tok.starts_with("TOK_NAME_"), "{tok}");
        let notes_attr = &out.table.schema().attributes()[1];
        let ncode = out.table.categorical_column(1).unwrap()[0];
        let note = notes_attr.dictionary.label(ncode).unwrap();
        assert!(note.starts_with("call TOK_PHONE_"), "{note}");
        assert!(note.ends_with(" re: visit"), "{note}");
        // QI and confidential columns are untouched
        assert_eq!(
            out.table.numeric_column(2).unwrap(),
            table.numeric_column(2).unwrap()
        );
        assert_eq!(
            out.table.categorical_column(3).unwrap(),
            table.categorical_column(3).unwrap()
        );
    }

    #[test]
    fn tokenize_is_deterministic_and_key_sensitive() {
        let e1 = engine(ComplianceConfig::default());
        let e2 = engine(ComplianceConfig::default());
        let e3 = engine(ComplianceConfig {
            key: "different".into(),
            ..ComplianceConfig::default()
        });
        let t1 = token(&e1, "123-45-6789");
        assert_eq!(t1, token(&e2, "123-45-6789"));
        assert_ne!(t1, token(&e3, "123-45-6789"));
        // same input in two different cells yields the same token: joins survive
        assert_eq!(t1, token(&e1, "123-45-6789"));
        // the tail is the one-shot HMAC under the configured key
        let mac = crate::sha256::hmac_sha256(b"tclose-compliance-key", b"123-45-6789");
        assert_eq!(t1, format!("TOK_SSN_{}", crate::sha256::hex(&mac[..8])));
    }

    #[test]
    fn scrub_is_idempotent() {
        for strategy in [Strategy::Tokenize, Strategy::Redact, Strategy::Hash] {
            let e = engine(ComplianceConfig {
                strategy,
                ..ComplianceConfig::default()
            });
            let once = e.scrub_table(&sample_table(), 0).unwrap();
            let twice = e.scrub_table(&once.table, 0).unwrap();
            assert_eq!(twice.cells, 0, "{strategy:?} re-scrubbed");
            assert_eq!(twice.records, 0);
            // byte-identical dictionaries
            for c in [0usize, 1, 3] {
                let a = &once.table.schema().attributes()[c];
                let b = &twice.table.schema().attributes()[c];
                let codes_a = once.table.categorical_column(c).unwrap();
                let codes_b = twice.table.categorical_column(c).unwrap();
                let labels_a: Vec<&str> = codes_a
                    .iter()
                    .map(|&k| a.dictionary.label(k).unwrap())
                    .collect();
                let labels_b: Vec<&str> = codes_b
                    .iter()
                    .map(|&k| b.dictionary.label(k).unwrap())
                    .collect();
                assert_eq!(labels_a, labels_b, "{strategy:?} column {c}");
            }
        }
    }

    #[test]
    fn redact_and_hash_formats() {
        let e = engine(ComplianceConfig {
            strategy: Strategy::Redact,
            ..ComplianceConfig::default()
        });
        let out = e.scrub_table(&sample_table(), 0).unwrap();
        let notes = &out.table.schema().attributes()[1];
        let code = out.table.categorical_column(1).unwrap()[2];
        let cell = notes.dictionary.label(code).unwrap();
        assert_eq!(cell, "ssn on file: [REDACTED:ssn]");

        let e = engine(ComplianceConfig {
            strategy: Strategy::Hash,
            ..ComplianceConfig::default()
        });
        let out = e.scrub_table(&sample_table(), 0).unwrap();
        let notes = &out.table.schema().attributes()[1];
        let code = out.table.categorical_column(1).unwrap()[2];
        let cell = notes.dictionary.label(code).unwrap();
        assert!(cell.starts_with("ssn on file: HASH_"), "{cell}");
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let e = engine(ComplianceConfig {
            disabled: vec!["ssn".into(), "phone".into()],
            ..ComplianceConfig::default()
        });
        let report = e.scan_table(&sample_table()).unwrap();
        let totals = report.rule_totals();
        assert!(totals.iter().all(|(id, _)| id != "ssn" && id != "phone"));
        assert_eq!(report.pending_transform(), 5); // 4 names + 1 email
    }

    #[test]
    fn drop_columns_are_projected_out() {
        let e = engine(ComplianceConfig {
            drop_columns: vec!["NOTES".into(), "MISSING".into()],
            ..ComplianceConfig::default()
        });
        let dropped = e.drop_release_columns(&sample_table()).unwrap();
        let names: Vec<&str> = dropped
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["NAME", "AGE", "DIAG"]);
        assert_eq!(
            e.kept_columns(&["NAME", "NOTES", "AGE"]),
            vec!["NAME", "AGE"]
        );
    }

    #[test]
    fn tokens_do_not_collide_over_10k_distinct_inputs() {
        let e = engine(ComplianceConfig::default());
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(
                seen.insert(token(&e, &format!("input-{i}"))),
                "collision at input {i}"
            );
        }
    }

    #[test]
    fn only_a_whole_cell_token_counts_as_scrub_output() {
        for cell in [
            "TOK_SSN_0123456789abcdef",
            "TOK_CREDIT_CARD_0123456789abcdef",
            "TOK_my-rule_0123456789abcdef",
            "HASH_0123456789abcdef",
            "[REDACTED:ssn]",
            "[REDACTED:credit_card]",
        ] {
            assert!(ComplianceEngine::is_scrub_output(cell), "{cell}");
        }
        for cell in [
            "TOK_ref 123-45-6789",
            "TOK__0123456789abcdef",
            "TOK_SSN_0123456789ABCDEF",
            "TOK_SSN_0123456789abcdef ",
            "TOK_SSN_0123456789abcdeg",
            "TOK_S.N_0123456789abcdef",
            "TOK_0123456789abcdef",
            "HASH_0123456789abcde",
            "HASH_note ssn 123-45-6789",
            "[REDACTED:]",
            "[REDACTED:x] mail a.b@example.com",
            "[REDACTED:a b]",
            "",
        ] {
            assert!(!ComplianceEngine::is_scrub_output(cell), "{cell:?}");
        }
    }

    #[test]
    fn cells_that_only_start_like_a_token_are_scanned_and_scrubbed() {
        let notes = [
            "TOK_ref 123-45-6789 call (555) 210-4477",
            "HASH_note ssn 123-45-6789",
            "[REDACTED:x] mail a.b@example.com",
            "TOK_SSN_0123456789abcdef",
        ];
        let attrs = vec![AttributeDef::nominal(
            "NOTES",
            AttributeRole::NonConfidential,
            notes,
        )];
        let table = Table::from_columns(
            Schema::new(attrs).unwrap(),
            vec![Column::Cat(vec![0, 1, 2, 3])],
        )
        .unwrap();
        let e = engine(ComplianceConfig::default());
        let report = e.scan_table(&table).unwrap();
        assert_eq!(
            report.rule_totals(),
            vec![
                ("email".to_owned(), 1),
                ("phone".to_owned(), 1),
                ("ssn".to_owned(), 2),
            ]
        );
        assert_eq!(report.total_matched_cells(), 3);

        let out = e.scrub_table(&table, 0).unwrap();
        assert_eq!(out.cells, 3);
        assert_eq!(out.records, 4);
        let dict = &out.table.schema().attributes()[0].dictionary;
        let cells: Vec<&str> = out
            .table
            .categorical_column(0)
            .unwrap()
            .iter()
            .map(|&k| dict.label(k).unwrap())
            .collect();
        for (cell, plain) in cells
            .iter()
            .zip(["123-45-6789", "123-45-6789", "a.b@example.com"])
        {
            assert!(!cell.contains(plain), "{cell:?} leaks {plain}");
        }
        assert!(cells[0].starts_with("TOK_ref TOK_SSN_"), "{}", cells[0]);
        // a whole-cell token is still left alone
        assert_eq!(cells[3], "TOK_SSN_0123456789abcdef");
    }

    #[test]
    fn numeric_columns_are_scanned_but_never_rewritten() {
        let e = engine(ComplianceConfig::default());
        let table = sample_table();
        let report = e.scan_table(&table).unwrap();
        let age = report.columns.iter().find(|c| c.column == "AGE").unwrap();
        assert!(!age.transformable);
        assert_eq!(age.matched_cells, 0);
        let out = e.scrub_table(&table, 0).unwrap();
        assert_eq!(
            out.table.numeric_column(2).unwrap(),
            table.numeric_column(2).unwrap()
        );
    }
}
