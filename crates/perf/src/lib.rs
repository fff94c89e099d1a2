//! # tclose-perf
//!
//! The measurement substrate behind the repo's performance claims: a
//! pinned macro-benchmark suite with machine-readable output and a
//! noise-aware regression gate, wired into CI so every push is judged
//! against a committed baseline.
//!
//! | piece | what it does |
//! |---|---|
//! | [`suite`] | the pinned case catalog (MDAV/V-MDAV flat vs kd-tree, Algorithms 1–3 end-to-end, monolithic vs sharded streaming, ordered-EMD verify) at two tiers (`smoke` / `full`), measured with warmup + repeated timed iterations |
//! | [`report`] | the schema-versioned `BENCH_<suite>.json` document: per-case medians/min/IQR plus raw samples, an environment [`fingerprint`], and a calibration time |
//! | [`mod@gate`] | baseline comparison: fails when a case's median regresses past a threshold (default 1.25×) *and* its min-of-runs confirms, with calibration-based rescaling so baselines survive hardware changes |
//! | [`selftest`] | proves the gate on synthetic data (2× injected slowdown must fail; unchanged must pass) |
//! | [`scratch`] | per-run temp directories, removed when the run ends |
//! | [`cli`] | the `tclose-perf` binary |
//!
//! The suite is driven end to end by the seeded generators in
//! `tclose-datasets`, so the measured work is bit-identical across runs
//! and machines; only the clock varies. Methodology, thresholds, and
//! the bless workflow are documented in `docs/PERFORMANCE.md`.
//!
//! ## Quick start
//!
//! ```text
//! cargo run --release -p tclose-perf -- --suite smoke      # BENCH_smoke.json
//! cargo run --release -p tclose-perf -- gate --suite smoke # vs committed baseline
//! cargo run --release -p tclose-perf -- bless --suite smoke
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod gate;
pub mod report;
pub mod scratch;
pub mod selftest;
pub mod stats;
pub mod suite;

// The JSON machinery and environment fingerprint moved to the shared
// `tclose-ser` crate (model artifacts embed the same fingerprint, so
// `BENCH_*.json` and model files agree on provenance fields); these
// re-exports keep every `tclose_perf::json::Json` path compiling.
pub use tclose_ser::{fingerprint, json};

pub use gate::{gate, CaseDelta, DeltaStatus, GateConfig, GateOutcome};
pub use report::{bench_file_name, CaseResult, Report, SCHEMA_VERSION};
pub use scratch::ScratchDir;
pub use stats::{summarize, Summary};
pub use suite::{measure, run_suite, RunConfig, Suite};
pub use tclose_ser::{Fingerprint, Json};
