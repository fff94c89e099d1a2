//! # tclose-metrics
//!
//! Distances and utility/privacy metrics for microdata anonymization:
//!
//! * [`emd`] — the Earth Mover's Distance with the *ordered* ground distance
//!   used by t-closeness (Li et al. 2007; Section 2.2 of Soria-Comas et al.,
//!   ICDE 2016), with an incremental evaluator for algorithms that mutate
//!   clusters record by record (the inner loop of the paper's Algorithm 2).
//! * [`matrix`] — the flat row-major [`Matrix`] record representation (with
//!   typed [`RowId`] indices) that every hot kernel operates on.
//! * [`distance`] — record-space distances (squared Euclidean over
//!   normalized quasi-identifier vectors) and the centroid / extreme-point /
//!   k-nearest kernels shared by all microaggregation algorithms (MDAV,
//!   V-MDAV, Algorithms 1–3), over the flat matrix with optional
//!   scoped-thread parallelism.
//! * [`simd`] — hand-unrolled 8-wide implementations of the hot per-block
//!   kernels with a permanent scalar reference path, named by
//!   [`KernelPath`]. Both paths are
//!   bit-identical by construction: comparison kernels keep per-row
//!   distance sequences unchanged, sum kernels share one canonical 8-lane
//!   reduction DAG.
//! * [`sse`] — the paper's utility metric: normalized Sum of Squared Errors
//!   (Eq. 5) between an original and an anonymized table.
//! * [`risk`] — identity-disclosure risk (distance-based record linkage).
//!
//! All parallel kernels reduce over the fixed block structure of
//! [`tclose_parallel::map_blocks`], so results are bit-identical for any
//! worker count — see `docs/PERFORMANCE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod emd;
pub mod matrix;
pub mod risk;
pub mod simd;
pub mod sse;

pub use distance::{centroid_ids, farthest_from_ids, k_nearest_ids, nearest_to_ids, sq_dist};
pub use emd::{DomainAccumulator, EmdError, OrderedEmd, SparseHistogram};
pub use matrix::{Matrix, RowId, RowIndex};
pub use simd::KernelPath;
pub use sse::{normalized_sse, sse_absolute};
