//! The per-shard release every entry point shares.
//!
//! After the fit, an in-memory run, a streamed shard, an artifact apply
//! and a served request all do the same thing to a record set:
//! [`release_shard`] runs the optional compliance scrub, the fitted
//! anonymizer, and the two column drops, in that order.

use tclose_compliance::ComplianceEngine;
use tclose_core::{AnonymizationReport, FittedAnonymizer};
use tclose_microdata::Table;

use crate::error::Result;

/// One released record set: what [`release_shard`] returns.
#[derive(Debug)]
pub struct ReleasedShard {
    /// The masked records without identifier columns or the policy's
    /// dropped columns, ready to write.
    pub table: Table,
    /// The shard's audit against the global fit.
    pub report: AnonymizationReport,
    /// Cells the compliance scrub rewrote (0 without a policy).
    pub scrubbed_cells: usize,
    /// Compliance audit records the scrub counted: one per (cell, rule)
    /// rewritten (0 without a policy).
    pub audit_records: usize,
    /// The records as audit-log lines, rows numbered from the shard's
    /// first input row; empty unless the policy writes a log.
    pub audit_log: String,
}

/// Releases one record set under a frozen fit: the compliance scrub when
/// a policy is given (audit-log rows numbered from `first_row`), then
/// [`FittedAnonymizer::apply_shard`], then
/// [`Table::drop_identifiers`], then the policy's
/// [`ComplianceEngine::drop_release_columns`].
///
/// The scrub only rewrites pass-through columns, which the fit never
/// reads, so scrubbing before or after fitting gives the same release.
/// An error that names a record counts it from `first_row` too
/// ([`tclose_core::Error::offset_rows`]).
pub fn release_shard(
    fitted: &FittedAnonymizer,
    compliance: Option<&ComplianceEngine>,
    shard: &Table,
    first_row: usize,
) -> Result<ReleasedShard> {
    let scrubbed = compliance
        .map(|engine| engine.scrub_table(shard, first_row))
        .transpose()?;
    let anon = fitted
        .apply_shard(scrubbed.as_ref().map_or(shard, |s| &s.table))
        .map_err(|e| e.offset_rows(first_row))?;
    let mut table = anon.table.drop_identifiers()?;
    if let Some(engine) = compliance {
        table = engine.drop_release_columns(&table)?;
    }
    let (scrubbed_cells, audit_records, audit_log) =
        scrubbed.map_or((0, 0, String::new()), |s| (s.cells, s.records, s.log));
    Ok(ReleasedShard {
        table,
        report: anon.report,
        scrubbed_cells,
        audit_records,
        audit_log,
    })
}
