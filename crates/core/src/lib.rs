//! # tclose-core
//!
//! k-Anonymous **t-closeness through microaggregation**: the three
//! algorithms of Soria-Comas, Domingo-Ferrer, Sánchez & Martínez (IEEE TKDE
//! 2015 / arXiv:1512.02909), plus the supporting theory (EMD bounds of
//! Propositions 1–2) and verifiers for both privacy models.
//!
//! ## The privacy models
//!
//! * **k-anonymity**: every record shares its quasi-identifier values with
//!   at least `k − 1` others, capping re-identification probability at
//!   `1/k`.
//! * **t-closeness**: in every such equivalence class, the distribution of
//!   the confidential attribute is within Earth Mover's Distance `t` of its
//!   distribution over the whole table — bounding what an intruder learns
//!   about any individual's confidential value beyond the public
//!   distribution.
//!
//! ## The algorithms
//!
//! | | strategy | guarantee | cost |
//! |---|---|---|---|
//! | [`MergeAlgorithm`] | microaggregate, then merge clusters until t-close | always | `max{O(microagg), O(n²/k)}` |
//! | [`KAnonymityFirst`] | refine each cluster by record swaps during formation | heuristic (merge fallback) | `O(n³/k)` worst case |
//! | [`TClosenessFirst`] | derive cluster size from Prop. 2, one record per confidential stratum | by construction | `O(n²/k)` |
//!
//! ## Quick start
//!
//! ```
//! use tclose_core::{Anonymizer, Algorithm};
//! use tclose_microdata::{AttributeDef, AttributeRole, Schema, Table, Value};
//!
//! // A toy table: one quasi-identifier, one confidential attribute.
//! let schema = Schema::new(vec![
//!     AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
//!     AttributeDef::numeric("wage", AttributeRole::Confidential),
//! ]).unwrap();
//! let mut table = Table::new(schema);
//! for i in 0..24 {
//!     table.push_row(&[
//!         Value::Number(20.0 + i as f64),
//!         Value::Number(1000.0 * (i % 7) as f64),
//!     ]).unwrap();
//! }
//!
//! let result = Anonymizer::new(3, 0.25)
//!     .algorithm(Algorithm::TClosenessFirst)
//!     .anonymize(&table)
//!     .unwrap();
//! assert!(result.report.max_emd <= 0.25 + 1e-12);
//! assert!(result.report.min_cluster_size >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg1_merge;
pub mod alg2_kfirst;
pub mod alg3_tfirst;
pub mod artifact;
pub mod bounds;
pub mod confidential;
pub mod error;
pub mod fit;
pub mod models;
pub mod params;
pub mod pipeline;
mod pool;
pub mod verify;

pub use alg1_merge::MergeAlgorithm;
pub use alg2_kfirst::{KAnonymityFirst, RefineStrategy};
pub use alg3_tfirst::TClosenessFirst;
pub use artifact::{ArtifactError, ModelArtifact, ModelParams, ARTIFACT_SCHEMA_VERSION};
pub use confidential::Confidential;
pub use error::{Error, Result};
pub use fit::{FittedAnonymizer, GlobalFit, QiEmbedding};
pub use models::verify_l_diversity;
pub use params::TClosenessParams;
pub use pipeline::{Algorithm, AnonymizationReport, Anonymized, Anonymizer};
pub use tclose_microagg::NeighborBackend;
pub use verify::{
    equivalence_classes, verify_k_anonymity, verify_t_closeness, verify_t_closeness_with,
};

/// A t-closeness-aware clustering algorithm over normalized QI vectors.
///
/// Implementations receive the records as a flat row-major
/// [`Matrix`](tclose_microagg::Matrix) (the representation every hot kernel
/// scans — see `docs/PERFORMANCE.md`) and partition the records
/// `0..m.n_rows()` into clusters of at least `params.k` records, attempting
/// (or guaranteeing — see each implementation) a maximum cluster-to-table
/// EMD of `params.t` for the confidential model `conf`.
pub trait TCloseClusterer {
    /// Produces the clustering.
    fn cluster(
        &self,
        m: &tclose_microagg::Matrix,
        conf: &Confidential,
        params: TClosenessParams,
    ) -> tclose_microagg::Clustering;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}
