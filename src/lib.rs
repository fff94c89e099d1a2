//! # tclose — k-anonymous t-closeness through microaggregation
//!
//! Umbrella crate re-exporting the full public API of the workspace:
//!
//! * [`parallel`] — scoped-thread substrate (balanced chunking, parallel
//!   map, deterministic fixed-block reductions).
//! * [`microdata`] — the microdata model (tables, schemas, roles, CSV).
//! * [`metrics`] — distances and metrics (flat record [`metrics::Matrix`],
//!   ordered EMD, SSE, disclosure risk).
//! * [`index`] — exact nearest-neighbor indexing (bulk kd-tree with
//!   tombstones) behind the [`index::NeighborBackend`] switch.
//! * [`microagg`] — microaggregation substrate (MDAV, V-MDAV, aggregation)
//!   over the flat matrix, byte-identical under any worker count and
//!   neighbor backend.
//! * [`core`] — the paper's contribution: Algorithms 1–3, bounds, verifiers,
//!   and the fit/apply split (`GlobalFit` / `FittedAnonymizer`).
//! * [`stream`] — the sharded streaming engine: two-pass, bounded-memory
//!   anonymization of CSV files that never fit in RAM.
//! * [`compliance`] — the identifier-column compliance layer: HIPAA/GDPR
//!   rule profiles, pluggable transform strategies (redact / tokenize /
//!   hash / drop), scan reports, and hashed audit logs.
//! * [`ser`] — the dependency-free JSON substrate shared by model
//!   artifacts, perf reports, scan reports, and audit logs.
//! * [`serve`] — the long-lived anonymization daemon: resident model
//!   registry with hot-reload, bounded-queue request batching over a
//!   length-prefixed socket protocol, and the `TestServer` harness.
//! * [`datasets`] — synthetic evaluation data sets (Census MCD/HCD, Patient).
//! * [`baselines`] — generalization-based baselines (Mondrian, SABRE),
//!   part of [`eval`].
//! * [`eval`] — the experiment harness regenerating every table and figure.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system map, and
//! `docs/PERFORMANCE.md` for the hot-path layout and thread-scaling model.

#![forbid(unsafe_code)]

pub use tclose_compliance as compliance;
pub use tclose_core as core;
pub use tclose_datasets as datasets;
pub use tclose_eval as eval;
pub use tclose_eval::baselines;
pub use tclose_index as index;
pub use tclose_metrics as metrics;
pub use tclose_microagg as microagg;
pub use tclose_microdata as microdata;
pub use tclose_parallel as parallel;
pub use tclose_ser as ser;
pub use tclose_serve as serve;
pub use tclose_stream as stream;

// Flat re-exports of the most common entry points so applications can write
// `use tclose::prelude::*;`.
pub mod prelude {
    //! One-line import of the types used by virtually every application.
    pub use tclose_compliance::{ComplianceConfig, ComplianceEngine, ScanReport, Strategy};
    pub use tclose_core::{
        Algorithm, AnonymizationReport, Anonymizer, ArtifactError, FittedAnonymizer, GlobalFit,
        KAnonymityFirst, MergeAlgorithm, ModelArtifact, ModelParams, TClosenessFirst,
        TClosenessParams,
    };
    pub use tclose_metrics::{emd::OrderedEmd, sse::normalized_sse};
    pub use tclose_microagg::{
        Clustering, Matrix, Mdav, Microaggregator, NeighborBackend, Parallelism, RowId, VMdav,
    };
    pub use tclose_microdata::{AttributeDef, AttributeKind, AttributeRole, Schema, Table, Value};
    pub use tclose_stream::{ShardedAnonymizer, StreamReport};
}
