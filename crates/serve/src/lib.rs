//! Long-lived anonymization daemon for pre-fitted t-closeness models.
//!
//! The fit/apply split (PR 6) freezes a model's global state into a
//! versioned [`ModelArtifact`](tclose_core::ModelArtifact); this crate
//! keeps those artifacts *resident* so online applies stop paying
//! process startup and model load — the amortization that makes exact
//! (NP-hard in general) t-closeness clustering economical under heavy
//! traffic.
//!
//! Architecture (see DESIGN.md "Serving architecture"):
//!
//! - [`registry`]: a [`ModelRegistry`] over a directory of artifacts —
//!   load on startup, hot-reload on mtime/length change, typed
//!   rejection of corrupt files that never unloads a healthy model.
//! - [`protocol`]: length-prefixed JSON frames; the cap on the length
//!   prefix is enforced *before* allocation.
//! - [`server`]: bounded-queue batching through
//!   [`release_shard`](tclose_stream::release_shard) workers,
//!   arrival-order responses, explicit `busy` backpressure, queue-wait
//!   timeouts, and drain-on-shutdown.
//! - [`client`]: a blocking client with pipelining support.
//! - [`testing`]: the [`TestServer`] fixture used by the unit,
//!   property, and e2e suites (ephemeral port, temp registry,
//!   deterministic `sleep` test op).
//!
//! Anonymize responses are **byte-identical** to offline
//! `tclose apply` on the same artifact and input by construction: both
//! read the records with [`tclose_stream::read_with_roles`] and release
//! them with one call to [`tclose_stream::release_shard`]. The daemon
//! passes no compliance policy, so the registry rejects models bound to
//! one; those are applied offline with `tclose apply --compliance`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod testing;

pub use client::{Client, ClientError};
pub use protocol::{
    read_frame, write_frame, ApplyReport, AuditReport, FrameError, ModelSummary, Request, Response,
    DEFAULT_MAX_FRAME,
};
pub use registry::{LoadedModel, ModelRegistry, ScanReport};
pub use server::{resolve_addr, ServeError, ServeStats, Server, ServerConfig, ServerHandle};
pub use testing::TestServer;
