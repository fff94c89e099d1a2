//! The compliance audit log: one JSON line per transformed cell.
//!
//! A record never contains the original value — only a salted SHA-256
//! of it, so a custodian who still holds the raw file can verify what
//! was scrubbed while the log itself leaks nothing. A line reads
//! `{"row":R,"column":C,"rule":U,"strategy":S,"hash":H}`, with the
//! column and rule escaped by `tclose_ser::Json`, so the log is
//! byte-stable across runs, worker counts, and shard sizes.
//!
//! Records exist only where a log is written: a scrub renders its lines
//! straight into one buffer when the policy names a log
//! ([`ComplianceConfig::audit_log_path`](crate::ComplianceConfig::audit_log_path)),
//! and [`AuditLog`] appends each buffer to the file as its shard is
//! written.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use tclose_microdata::PartialFile;
use tclose_ser::Json;

use crate::config::Strategy;
use crate::sha256::{hex, push_hex, Sha256};
use crate::ComplianceError;

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

/// The part of a line that every record of one (column, rule) pair
/// shares: everything between the row number and the hash.
pub(crate) fn line_middle(column: &str, rule: &str, strategy: Strategy) -> String {
    let text = |s: &str| Json::Str(s.to_owned()).to_string_compact();
    format!(
        ",\"column\":{},\"rule\":{},\"strategy\":\"{}\",\"hash\":\"",
        text(column),
        text(rule),
        strategy.name()
    )
}

/// Bytes of a line besides its middle and its row's digits.
pub(crate) const LINE_FRAME: usize = "{\"row\":".len() + 64 + "\"}\n".len();

/// Appends one record's line, newline included. A row below 2⁵³ reads
/// as `Json::Num` renders it.
pub(crate) fn push_line(out: &mut String, row: usize, middle: &str, hash: &[u8; 32]) {
    out.push_str("{\"row\":");
    write!(out, "{row}").expect("writing to a String cannot fail");
    out.push_str(middle);
    push_hex(out, hash);
    out.push_str("\"}\n");
}

/// An audit log being written, as a [`PartialFile`]: lines go to a
/// temporary file beside the log's path, which [`AuditLog::commit`]
/// renames into place. A log dropped before its commit removes the
/// temporary file, so a failed run leaves no log, and a log already at the
/// path stays as it was.
#[derive(Debug)]
pub struct AuditLog {
    file: PartialFile,
}

impl AuditLog {
    /// Creates the temporary file beside `path`. A path that names no
    /// file, or names a directory, is refused here rather than at the
    /// rename.
    pub fn create(path: &Path) -> Result<AuditLog, ComplianceError> {
        let file = PartialFile::create(path).map_err(|e| io_err(path, e))?;
        Ok(AuditLog { file })
    }

    /// Appends `lines` (whole JSONL lines, as a scrub renders them).
    pub fn append(&mut self, lines: &str) -> Result<(), ComplianceError> {
        self.file
            .write_all(lines.as_bytes())
            .map_err(|e| io_err(self.file.path(), e))
    }

    /// Closes the file and renames it to the log's path. If the rename
    /// fails, the temporary file is removed.
    pub fn commit(self) -> Result<(), ComplianceError> {
        let path = self.file.path().to_owned();
        self.file.commit().map_err(|e| io_err(&path, e))
    }
}

fn io_err(path: &Path, e: std::io::Error) -> ComplianceError {
    ComplianceError::Io(format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line a record's JSON object renders to.
    fn json_line(row: usize, column: &str, rule: &str, strategy: Strategy, hash: &str) -> String {
        let obj = Json::Obj(vec![
            ("row".to_owned(), Json::Num(row as f64)),
            ("column".to_owned(), Json::Str(column.to_owned())),
            ("rule".to_owned(), Json::Str(rule.to_owned())),
            ("strategy".to_owned(), Json::Str(strategy.name().to_owned())),
            ("hash".to_owned(), Json::Str(hash.to_owned())),
        ]);
        obj.to_string_compact() + "\n"
    }

    #[test]
    fn record_serializes_stable_and_plaintext_free() {
        let digest = salted_digest("salt", "123-45-6789");
        let hash = hex(&digest);
        assert_eq!(hash, salted_hash("salt", "123-45-6789"));
        assert_ne!(hash, salted_hash("other", "123-45-6789"));
        for (row, column, rule) in [
            (7, "SSN", "ssn"),
            (0, "a \"quoted\"\\ name\twith\u{1}ctl", "credit_card"),
            ((1 << 53) - 1, "ÄRZTIN ✓", "my-rule"),
        ] {
            for strategy in [Strategy::Tokenize, Strategy::Redact, Strategy::Hash] {
                let mut line = String::new();
                push_line(
                    &mut line,
                    row,
                    &line_middle(column, rule, strategy),
                    &digest,
                );
                assert_eq!(line, json_line(row, column, rule, strategy, &hash));
                assert!(!line.contains("123-45-6789"), "plaintext leaked: {line}");
                let parsed = Json::parse(line.trim_end()).unwrap();
                assert_eq!(parsed.get("row").unwrap().as_f64(), Some(row as f64));
                assert_eq!(parsed.get("column").unwrap().as_str(), Some(column));
            }
        }
        let middle = line_middle("SSN", "ssn", Strategy::Tokenize);
        let mut line = String::new();
        push_line(&mut line, 7, &middle, &digest);
        assert_eq!(line.len(), LINE_FRAME + middle.len() + 1);
    }

    #[test]
    fn log_writes_one_line_per_record() {
        let dir = std::env::temp_dir().join("tclose_compliance_audit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        let partial = dir.join("audit.jsonl.partial");
        let _ = std::fs::remove_file(&path);
        let middle = line_middle("EMAIL", "email", Strategy::Redact);
        let digest = salted_digest("s", "a@b.co");

        // Two appends, as two shards write them, appear on commit only.
        let mut log = AuditLog::create(&path).unwrap();
        for rows in [0..2, 2..3] {
            let mut lines = String::new();
            for row in rows {
                push_line(&mut lines, row, &middle, &digest);
            }
            log.append(&lines).unwrap();
        }
        assert!(!path.exists() && partial.exists());
        log.commit().unwrap();
        assert!(!partial.exists());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(parsed.get("row").unwrap().as_f64(), Some(i as f64));
        }

        // A log dropped uncommitted leaves the earlier one as it was.
        let mut log = AuditLog::create(&path).unwrap();
        log.append("{}\n").unwrap();
        drop(log);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert!(!partial.exists());
        std::fs::remove_file(&path).unwrap();

        // A path that cannot take the log fails at create, and one that
        // stops taking it fails the commit, leaving nothing behind.
        let missing = dir.join("no_such_dir").join("audit.jsonl");
        let err = AuditLog::create(&missing).unwrap_err().to_string();
        assert!(err.contains("no_such_dir/audit.jsonl"), "{err}");
        for not_a_file in [Path::new(""), &dir] {
            assert!(AuditLog::create(not_a_file).is_err(), "{not_a_file:?}");
        }
        let log = AuditLog::create(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(log.commit().is_err());
        assert!(!partial.exists());
        std::fs::remove_dir(&path).unwrap();
    }
}
