//! Attribute normalization for distance computations.
//!
//! Microaggregation clusters records by distance over the quasi-identifier
//! space; attributes with large numeric ranges would otherwise dominate.
//! [`NormalizeMethod`] names how each numeric attribute is rescaled; the
//! fitted transform itself is `tclose_core::QiEmbedding`, frozen once on
//! the global data.

/// Normalization method for numeric attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormalizeMethod {
    /// `(x − mean) / std`; attributes with zero variance map to 0.
    #[default]
    ZScore,
    /// `(x − min) / (max − min)`; constant attributes map to 0.
    MinMax,
    /// Pass values through unchanged.
    None,
}

impl NormalizeMethod {
    /// Stable lower-case name, used by CLI flags and on-disk artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            NormalizeMethod::ZScore => "zscore",
            NormalizeMethod::MinMax => "minmax",
            NormalizeMethod::None => "none",
        }
    }

    /// Parses the name written by [`NormalizeMethod::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "zscore" | "z-score" => Some(NormalizeMethod::ZScore),
            "minmax" | "min-max" => Some(NormalizeMethod::MinMax),
            "none" => Some(NormalizeMethod::None),
            _ => None,
        }
    }
}
