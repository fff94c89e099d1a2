//! Generalization-based baselines the paper positions microaggregation
//! against (Sections 3–4):
//!
//! * [`MondrianTClose`] — the Mondrian multidimensional k-anonymity
//!   algorithm (LeFevre et al., ICDE 2006) extended with the t-closeness
//!   split constraint, as in Li et al.'s "Closeness" (TKDE 2010): a
//!   partition may only be split when both halves keep ≥ k records **and**
//!   confidential EMD ≤ t. Classes are released by *global recoding to
//!   ranges*; for numeric comparison the range midpoint is used
//!   ([`generalize_columns`]).
//! * [`SabreLite`] — a SABRE-style (Cao et al., VLDB J. 2011) bucketize-
//!   and-redistribute scheme: greedy buckets over the confidential domain,
//!   then equivalence classes assembled with per-bucket proportional
//!   quotas. Its greedy bucket count is ≥ the analytic minimum the
//!   t-closeness-first algorithm derives, demonstrating the paper's claim
//!   that more buckets ⇒ larger classes ⇒ more information loss.
//!
//! Both implement [`TCloseClusterer`], so they slot into the same
//! experiment harness as the paper's algorithms.

pub use crate::generalize::generalize_columns;
pub use crate::mondrian::MondrianTClose;
pub use crate::sabre::SabreLite;

pub use tclose_core::TCloseClusterer;
