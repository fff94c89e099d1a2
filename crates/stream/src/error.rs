//! Error handling for the streaming engine.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the streaming anonymization engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Invalid engine configuration (bad shard size, unknown column name,
    /// empty role list, …).
    Config(String),
    /// The input data cannot be anonymized as requested (non-numeric
    /// quasi-identifier in auto-inference mode, empty file, …). Carries
    /// the 1-based input line number when one is known.
    Data {
        /// 1-based input file line of the offending record, when known.
        line: Option<usize>,
        /// Explanation.
        detail: String,
    },
    /// An error bubbled up from the core pipeline (clustering, audits).
    Core(String),
    /// An error bubbled up from the compliance layer (identifier
    /// scrubbing, policy config).
    Compliance(String),
    /// An error bubbled up from the microdata layer (CSV parsing, typed
    /// column access).
    Microdata(tclose_microdata::Error),
    /// Underlying I/O failure.
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(d) => write!(f, "invalid streaming configuration: {d}"),
            Error::Data {
                line: Some(l),
                detail,
            } => {
                write!(f, "cannot anonymize input (line {l}): {detail}")
            }
            Error::Data { line: None, detail } => {
                write!(f, "cannot anonymize input: {detail}")
            }
            Error::Core(d) => write!(f, "anonymization failed: {d}"),
            Error::Compliance(d) => write!(f, "{d}"),
            Error::Microdata(e) => write!(f, "{e}"),
            Error::Io(d) => write!(f, "I/O error: {d}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<tclose_microdata::Error> for Error {
    fn from(e: tclose_microdata::Error) -> Self {
        Error::Microdata(e)
    }
}

impl From<tclose_core::Error> for Error {
    fn from(e: tclose_core::Error) -> Self {
        Error::Core(e.to_string())
    }
}

impl From<tclose_compliance::ComplianceError> for Error {
    fn from(e: tclose_compliance::ComplianceError) -> Self {
        Error::Compliance(e.to_string())
    }
}

/// A shard whose release panicked fails the run like any other shard
/// error; the index is the shard's 0-based position in the input.
impl From<tclose_parallel::ItemPanic> for Error {
    fn from(p: tclose_parallel::ItemPanic) -> Self {
        Error::Core(format!("shard {} panicked: {}", p.index, p.message))
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::Data {
            line: Some(42),
            detail: "quasi-identifier \"age\" has non-numeric value \"old\"".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("line 42") && msg.contains("age"));
        assert!(Error::Config("bad".into()).to_string().contains("bad"));
        let io: Error = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
    }
}
