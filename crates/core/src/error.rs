//! Error handling for the t-closeness pipeline.

use std::fmt;
use tclose_metrics::emd::EmdError;

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
        /// Row index, within the embedded table, of the offending value
        /// (see [`Error::offset_rows`]).
        row: usize,
    },
    /// A confidential value cannot be bound to its attribute's fitted EMD
    /// domain: the fit never saw it, or it is not finite.
    ConfidentialDomain {
        /// Name of the confidential attribute.
        attribute: String,
        /// The evaluator's error; its record index counts rows of the
        /// bound table (see [`Error::offset_rows`]).
        error: EmdError,
    },
}

impl Error {
    /// The same error with the row it names counted from `offset`, for a
    /// table that is one slice of a larger input starting at row
    /// `offset` (a stream shard), so the error names the input's row.
    pub fn offset_rows(mut self, offset: usize) -> Self {
        match &mut self {
            Error::NonFiniteEmbedding { row, .. }
            | Error::ConfidentialDomain {
                error:
                    EmdError::ValueNotInDomain { index: row, .. }
                    | EmdError::NonFinite { index: row, .. },
                ..
            } => *row += offset,
            _ => {}
        }
        self
    }
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
            Error::ConfidentialDomain { attribute, error } => write!(
                f,
                "unsupported data: confidential attribute {attribute:?}: {error}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Microdata(e) => Some(e),
            Error::Clustering(e) => Some(e),
            Error::ConfidentialDomain { error, .. } => Some(error),
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

    #[test]
    fn offset_rows_moves_only_the_rows_errors_name() {
        let unseen = Error::ConfidentialDomain {
            attribute: "CHARGE".into(),
            error: EmdError::ValueNotInDomain {
                index: 50,
                value: 9.5,
            },
        };
        assert!(unseen.to_string().contains("record 50 has value 9.5"));
        assert!(std::error::Error::source(&unseen).is_some());
        assert!(unseen.offset_rows(200).to_string().contains("record 250 "));
        let embedding = Error::NonFiniteEmbedding {
            attribute: "AGE".into(),
            row: 3,
        };
        assert!(embedding.offset_rows(100).to_string().contains("row 103 "));
        let empty = Error::ConfidentialDomain {
            attribute: "CHARGE".into(),
            error: EmdError::EmptyColumn,
        };
        assert_eq!(empty.clone().offset_rows(7), empty);
        let params = Error::InvalidParams("k".into());
        assert_eq!(params.clone().offset_rows(7), params);
    }
}
