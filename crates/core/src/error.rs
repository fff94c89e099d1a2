//! Error handling for the t-closeness pipeline.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the anonymization pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The privacy parameters are invalid (k = 0, t ∉ (0, 1], …).
    InvalidParams(String),
    /// The input table cannot be anonymized as requested.
    UnsupportedData(String),
    /// Propagated microdata error (schema/typing/CSV problems).
    Microdata(tclose_microdata::Error),
    /// Propagated clustering invariant violation.
    Clustering(tclose_microagg::ClusteringError),
    /// A quasi-identifier value embeds to NaN or ±∞: the column's values
    /// overflow `f64` under the fitted normalization.
    NonFiniteEmbedding {
        /// Name of the quasi-identifier attribute.
        attribute: String,
        /// Row index, within the embedded table, of the offending value.
        row: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParams(d) => write!(f, "invalid privacy parameters: {d}"),
            Error::UnsupportedData(d) => write!(f, "unsupported data: {d}"),
            Error::Microdata(e) => write!(f, "microdata error: {e}"),
            Error::Clustering(e) => write!(f, "clustering error: {e}"),
            Error::NonFiniteEmbedding { attribute, row } => write!(
                f,
                "quasi-identifier {attribute:?} at row {row} normalizes to a non-finite \
                 value; its values overflow f64 under the normalization (rescale the column)"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Microdata(e) => Some(e),
            Error::Clustering(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tclose_microdata::Error> for Error {
    fn from(e: tclose_microdata::Error) -> Self {
        Error::Microdata(e)
    }
}

impl From<tclose_microagg::ClusteringError> for Error {
    fn from(e: tclose_microagg::ClusteringError) -> Self {
        Error::Clustering(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = Error::InvalidParams("k must be positive".into());
        assert!(e.to_string().contains("k must be positive"));

        let inner = tclose_microdata::Error::EmptyTable;
        let e: Error = inner.into();
        assert!(e.to_string().contains("non-empty"));
        assert!(std::error::Error::source(&e).is_some());

        let inner = tclose_microagg::ClusteringError::MissingRecord(3);
        let e: Error = inner.into();
        assert!(matches!(e, Error::Clustering(_)));
    }
}
