//! The compliance audit log: one JSON line per transformed cell.
//!
//! A record never contains the original value — only a salted SHA-256
//! of it, so a custodian who still holds the raw file can verify what
//! was scrubbed while the log itself leaks nothing. Serialization goes
//! through `tclose_ser::Json` so the log is byte-stable across runs,
//! worker counts, and shard sizes.

use std::io::Write;
use std::path::Path;

use tclose_ser::Json;

use crate::config::Strategy;
use crate::sha256::{hex, Sha256};
use crate::ComplianceError;

/// One transformed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Global (whole-file) row index of the cell.
    pub row: usize,
    /// Column name.
    pub column: String,
    /// Rule id that fired.
    pub rule: String,
    /// Transform applied.
    pub strategy: Strategy,
    /// `sha256(salt ‖ original cell)`, lowercase hex. Never plaintext.
    pub hash: String,
}

impl AuditRecord {
    /// Builds a record, hashing `original` under `salt`.
    pub fn new(
        row: usize,
        column: &str,
        rule: &str,
        strategy: Strategy,
        salt: &str,
        original: &str,
    ) -> AuditRecord {
        AuditRecord {
            row,
            column: column.to_owned(),
            rule: rule.to_owned(),
            strategy,
            hash: salted_hash(salt, original),
        }
    }

    /// The record as a JSON object (stable key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("row".to_owned(), Json::Num(self.row as f64)),
            ("column".to_owned(), Json::Str(self.column.clone())),
            ("rule".to_owned(), Json::Str(self.rule.clone())),
            (
                "strategy".to_owned(),
                Json::Str(self.strategy.name().to_owned()),
            ),
            ("hash".to_owned(), Json::Str(self.hash.clone())),
        ])
    }

    /// The record as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().to_string_compact()
    }
}

/// `sha256(salt ‖ original)` as lowercase hex — the only form of the
/// original value that ever leaves the scrub engine.
pub fn salted_hash(salt: &str, original: &str) -> String {
    hex(&salted_digest(salt, original))
}

/// The digest behind [`salted_hash`].
pub(crate) fn salted_digest(salt: &str, original: &str) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(salt.as_bytes());
    h.update(original.as_bytes());
    h.finish()
}

/// Writes records as JSONL, one line each, in the given order.
pub fn write_audit_log(path: &Path, records: &[AuditRecord]) -> Result<(), ComplianceError> {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_jsonl());
        out.push('\n');
    }
    let mut file = std::fs::File::create(path)
        .map_err(|e| ComplianceError::Io(format!("{}: {e}", path.display())))?;
    file.write_all(out.as_bytes())
        .map_err(|e| ComplianceError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_stable_and_plaintext_free() {
        let r = AuditRecord::new(7, "SSN", "ssn", Strategy::Tokenize, "salt", "123-45-6789");
        let line = r.to_jsonl();
        assert!(line
            .starts_with(r#"{"row":7,"column":"SSN","rule":"ssn","strategy":"tokenize","hash":""#));
        assert!(!line.contains("123-45-6789"), "plaintext leaked: {line}");
        assert!(!line.contains('\n'));
        assert_eq!(r.hash.len(), 64);
        // deterministic, salt-sensitive
        assert_eq!(r.hash, salted_hash("salt", "123-45-6789"));
        assert_ne!(r.hash, salted_hash("other", "123-45-6789"));
        // round-trips through the shared JSON parser
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("row").unwrap().as_f64(), Some(7.0));
        assert_eq!(parsed.get("rule").unwrap().as_str(), Some("ssn"));
    }

    #[test]
    fn log_writes_one_line_per_record() {
        let dir = std::env::temp_dir().join("tclose_compliance_audit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        let records: Vec<AuditRecord> = (0..3)
            .map(|i| AuditRecord::new(i, "EMAIL", "email", Strategy::Redact, "s", "a@b.co"))
            .collect();
        write_audit_log(&path, &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(parsed.get("row").unwrap().as_f64(), Some(i as f64));
        }
        std::fs::remove_file(&path).unwrap();
    }
}
