//! Direct-identifier compliance layer: detection, scrubbing, and audit.
//!
//! The paper's model (and the rest of this workspace) partitions
//! attributes into quasi-identifiers and confidential attributes, but
//! real microdata also carries *direct* identifiers — names, SSNs,
//! emails, phone numbers — that a release can leak verbatim while being
//! perfectly t-close on its QIs. This crate closes that gap with a
//! pipeline stage that runs before anonymization:
//!
//! * [`rules`] — a regex registry of PII detectors (SSN, email, phone,
//!   credit card, names-by-column-hint, …) bundled into `hipaa` /
//!   `gdpr` / `custom` profiles;
//! * [`pattern`] — the dependency-free regex engine behind it;
//! * [`config`] — the `[compliance]` TOML policy ([`toml`] is the
//!   matching reader) with `TCLOSE_COMPLIANCE_*` env overrides and the
//!   policy fingerprint recorded in model artifacts;
//! * [`engine`] — scan (detect + report, including dry-run previews)
//!   and scrub (transform + audit) over tables;
//! * [`audit`] — the JSONL audit log: one line per transformed cell,
//!   carrying a salted SHA-256 of the original, never plaintext
//!   ([`sha256`] is the hash implementation). A scrub makes these lines
//!   only when the policy names a log, and [`AuditLog`] writes them as
//!   each shard is written.
//!
//! Scrubbing is a pure per-cell function over categorical
//! identifier/non-confidential columns, so it composes with the
//! streaming engine without breaking worker-invariance: a shard-by-shard
//! scrub is byte-identical to a whole-table scrub.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod engine;
pub mod pattern;
pub mod rules;
pub mod sha256;
pub mod toml;

pub use audit::{salted_hash, AuditLog};
pub use config::{ComplianceConfig, CustomRuleSpec, Strategy};
pub use engine::{ColumnScan, ComplianceEngine, RuleHits, ScanReport, ScrubOutcome};
pub use pattern::{PatternError, Regex};
pub use rules::{builtin_ids, builtin_rule, Profile, Rule};
pub use toml::{TomlDoc, TomlError, TomlValue};

use std::fmt;

/// Errors from configuration, detection, or scrubbing.
#[derive(Debug, Clone, PartialEq)]
pub enum ComplianceError {
    /// Invalid policy configuration (TOML, profile, rule, or override).
    Config(String),
    /// A table could not be scanned or rebuilt.
    Data(String),
    /// Reading a config or writing an audit log failed.
    Io(String),
}

impl fmt::Display for ComplianceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComplianceError::Config(m) => write!(f, "compliance config: {m}"),
            ComplianceError::Data(m) => write!(f, "compliance data: {m}"),
            ComplianceError::Io(m) => write!(f, "compliance io: {m}"),
        }
    }
}

impl std::error::Error for ComplianceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_one_line() {
        for e in [
            ComplianceError::Config("bad".into()),
            ComplianceError::Data("bad".into()),
            ComplianceError::Io("bad".into()),
        ] {
            let s = e.to_string();
            assert!(!s.contains('\n'), "{s:?}");
            assert!(s.contains("bad"));
        }
    }
}
