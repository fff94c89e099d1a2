//! The benchmark's vocabulary: workloads, end-to-end metrics, per-layer
//! metrics and the frozen serve load parameters. Names here are stable
//! identifiers; `BENCHMARK.json` at the repository root lists every metric
//! and the workloads steady enough to gate on, and `tcbench --list` prints
//! this catalog.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub op: &'static str,
    pub why: &'static str,
}

pub const STREAM: &str = "stream-pii50k";
pub const KFIRST: &str = "kfirst-census-mcd";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: STREAM,
        op: "ShardedAnonymizer --stream release of a seeded 50,000-row pii_patients CSV under a \
             hipaa/tokenize compliance policy, 10,000-row shards, workers = nproc",
        why: "The only workload where chunked CSV I/O, the regex scrubber (250,000 cells) and the \
              cross-shard worker pool carry weight; each shard is rebound to a fit it was not part \
              of.",
    },
    Workload {
        name: KFIRST,
        op: "the anonymize CSV-in/CSV-out path with Alg. 2 (k-anonymity-first, k=5, t=0.2) on \
             a seeded census_mcd (1,080 rows); its traced run also probes the serve layers with \
             a daemon holding an Alg. 3 model of a seeded 23,435-row patient_discharge",
        why:
            "Alg. 2's swap-refinement loop runs only here (about 30x Alg. 3 on the same rows); it \
              is also the predicted no-change workload for scrub, wire and kd-tree changes.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Definition, per workload where it differs.
    pub what: &'static str,
    /// For a per-layer metric: the end-to-end metric(s) it should move,
    /// and on which workloads.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        what,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        what,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run (`--trace 0`). Each
/// workload runs its operation back to back in one closed loop (one
/// operation in flight).
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        "in-process time to build what the first operation needs: parameter validation, worker \
         resolution and the anonymizer (stream: also the policy parse, ComplianceEngine::new and \
         the ShardedAnonymizer); each of 15 groups, spread evenly over the run between \
         operations, builds back to back for 100 ms and keeps its fastest build; the median \
         over the groups",
    ),
    e2e(
        "rows_per_s",
        "rows/s",
        Higher,
        "input rows released per second of operation wall time: rows of all input data sets / \
         sum of each data set's median operation wall time",
    ),
    e2e(
        "peak_rss_mb",
        "MiB",
        Lower,
        "peak resident memory (VmHWM) of the benchmark process up to the end of its operations \
         (inputs are generated in a child process)",
    ),
    e2e(
        "release_sse",
        "1",
        Lower,
        "normalized SSE of the release (Eq. 5); mean over the run's input data sets",
    ),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A layer
/// a workload never enters reports 0. The served latencies and
/// `max_rate_rps` come from the serve-layer probes of the `kfirst` traced
/// run (see [`serve_load`]).
pub const PER_LAYER: &[Metric] = &[
    layer(
        "microdata.csv_read_ms",
        "ms",
        Lower,
        "read_csv_auto / CsvChunks (new, next), per operation",
        "rows_per_s on kfirst and stream; served p50 latency",
    ),
    layer(
        "microdata.csv_write_ms",
        "ms",
        Lower,
        "Table::drop_identifiers plus write_csv / CsvAppendWriter (new, append, finish) / \
         to_csv_string, per operation",
        "rows_per_s on kfirst and stream; served p50 latency",
    ),
    layer(
        "core.fit_ms",
        "ms",
        Lower,
        "GlobalFit::fit, per operation",
        "rows_per_s on kfirst",
    ),
    layer(
        "stream.fit_pass_ms",
        "ms",
        Lower,
        "fit_auto (streaming pass 1), per operation",
        "rows_per_s on stream",
    ),
    layer(
        "core.embed_ms",
        "ms",
        Lower,
        "QiEmbedding::embed, per operation",
        "rows_per_s on stream; served p50 latency",
    ),
    layer(
        "core.rebind_ms",
        "ms",
        Lower,
        "Confidential::rebind (or the clone apply_shard takes when the records are the fitting \
         table), per operation",
        "rows_per_s on stream; served p50 latency",
    ),
    layer(
        "core.partition_ms",
        "ms",
        Lower,
        "TCloseClusterer::cluster with the workload's algorithm, per operation",
        "rows_per_s: dominant on kfirst, large on stream; minor in served requests",
    ),
    layer(
        "core.clusters",
        "count",
        Higher,
        "equivalence classes released per operation (must repeat exactly for a seed)",
        "release_sse",
    ),
    layer(
        "microagg.aggregate_ms",
        "ms",
        Lower,
        "aggregate_columns, per operation",
        "rows_per_s on kfirst and stream",
    ),
    layer(
        "core.verify_k_ms",
        "ms",
        Lower,
        "verify_k_anonymity, per operation",
        "rows_per_s on kfirst and stream",
    ),
    layer(
        "core.verify_t_ms",
        "ms",
        Lower,
        "verify_t_closeness_with, per operation",
        "rows_per_s on kfirst and stream",
    ),
    layer(
        "metrics.sse_ms",
        "ms",
        Lower,
        "normalized_sse, per operation",
        "rows_per_s on kfirst and stream",
    ),
    layer(
        "metrics.emd_swap_ns",
        "ns",
        Lower,
        "Confidential::emd_after_swap on a fixed seeded set of (cluster, out, in) triples from \
         the workload's own release, median per call",
        "core.partition_ms and through it rows_per_s on kfirst",
    ),
    layer(
        "metrics.emd_bins",
        "count",
        Lower,
        "ordered-EMD domain bins one emd_after_swap call walks",
        "metrics.emd_swap_ns",
    ),
    layer(
        "compliance.scrub_ms",
        "ms",
        Lower,
        "ComplianceEngine::scrub_table and drop_release_columns, per operation",
        "rows_per_s on stream",
    ),
    layer(
        "compliance.cells_scrubbed",
        "count",
        Higher,
        "cells the scrub rewrote per operation (5 per pii_patients row)",
        "rows_per_s on stream",
    ),
    layer(
        "compliance.scrub_ns_per_cell",
        "ns",
        Lower,
        "compliance.scrub_ms per scrubbed cell",
        "rows_per_s on stream",
    ),
    layer(
        "stream.shards",
        "count",
        Lower,
        "shards the streaming engine processes per operation",
        "rows_per_s on stream",
    ),
    layer(
        "parallel.busy_ratio",
        "ratio",
        Higher,
        "sum of per-shard scrub+apply time / (workers x pass-2 wall)",
        "rows_per_s on stream",
    ),
    layer(
        "ser.request_encode_us",
        "us",
        Lower,
        "Request::encode of the workload's anonymize payloads, median",
        "served p50 latency at the low rate",
    ),
    layer(
        "ser.request_decode_us",
        "us",
        Lower,
        "Request::decode of the workload's anonymize payloads, median",
        "served p50 latency at the low rate",
    ),
    layer(
        "ser.response_encode_us",
        "us",
        Lower,
        "Response::encode of the workload's anonymize responses, median",
        "served p50 latency at the low rate",
    ),
    layer(
        "ser.response_decode_us",
        "us",
        Lower,
        "Response::decode of the workload's anonymize responses, median",
        "served p50 latency at the low rate",
    ),
    layer(
        "serve.ping_rtt_us",
        "us",
        Lower,
        "unloaded Ping round trip (frame, reader thread, outbox; no queue), median",
        "served p50 latency at the low rate",
    ),
    layer(
        "serve.registry_scan_ms",
        "ms",
        Lower,
        "ModelRegistry::scan of the unchanged registry directory (run before every batch), \
         median",
        "served p50 latency at the high rate",
    ),
    layer(
        "serve.service_ms",
        "ms",
        Lower,
        "one request replayed in-process: CSV parse and roles, apply_shard, drop_identifiers, \
         to_csv_string, median",
        "served p50 latency at the low rate",
    ),
    layer(
        "serve.unattributed_ms",
        "ms",
        Lower,
        "served p50 latency at the low rate - (serve.service_ms + the four ser.* medians + \
         serve.ping_rtt_us)",
        "served p50 latency at both rates",
    ),
    layer(
        "serve.overhead_ratio",
        "ratio",
        Lower,
        "served p50 latency at the low rate / serve.service_ms (base: in-process replay of \
         the same requests)",
        "served p50 latency at the low rate",
    ),
    layer(
        "serve.wait_ms.high",
        "ms",
        Lower,
        "served p50 latency at the high rate - (serve.service_ms + the four ser.* medians + \
         serve.ping_rtt_us)",
        "served latency at the high rate",
    ),
    layer(
        "serve.served",
        "count",
        Higher,
        "ServerHandle::stats served counter after the probes' load phases",
        "served latency at the high rate",
    ),
    layer(
        "serve.busy",
        "count",
        Lower,
        "ServerHandle::stats busy rejections",
        "served latency at the high rate",
    ),
    layer(
        "serve.timeouts",
        "count",
        Lower,
        "ServerHandle::stats queue timeouts",
        "served latency at the high rate",
    ),
    layer(
        "lat_p50_ms.low",
        "ms",
        Lower,
        "served request latency at the low rate, from the request's scheduled send time until \
         its response is read, median",
        "none: the end-to-end figure the serve.* layers are subtracted from",
    ),
    layer(
        "lat_p99_ms.low",
        "ms",
        Lower,
        "as lat_p50_ms.low, 99th percentile",
        "none: the end-to-end figure the serve.* layers are subtracted from",
    ),
    layer(
        "lat_p50_ms.high",
        "ms",
        Lower,
        "as lat_p50_ms.low, at the high rate",
        "none: the end-to-end figure the serve.* layers are subtracted from",
    ),
    layer(
        "lat_p99_ms.high",
        "ms",
        Lower,
        "as lat_p99_ms.low, at the high rate",
        "none: the end-to-end figure the serve.* layers are subtracted from",
    ),
    layer(
        "max_rate_rps",
        "req/s",
        Higher,
        "highest rate of the ladder (the low and the high rate) at which it and every lower step \
         keep p99 under the latency limit with no failed request and no growing backlog; 0 if \
         none does",
        "none: the served capacity the serve.* layers explain",
    ),
    layer(
        "loadgen.lag_ms_p99",
        "ms",
        Lower,
        "99th percentile of how late the generator sent each request (validity of the open loop)",
        "none: a large value invalidates the served latencies",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "median traced operation wall / median untraced operation wall, same run",
        "none: the cost of the traced re-composition itself",
    ),
];

/// Privacy parameters shared by every workload.
pub const K: usize = 5;
pub const T: f64 = 0.2;

/// Frozen load of the serve-layer probes, chosen once from the seed
/// commit's measured capacity on a 2-core machine (350 to 470 req/s;
/// a 500-row request costs 3.3 ms of service) and never derived from the
/// code under test. The high rate is half of capacity rather than three
/// quarters: nearer the knee, outside load on the machine decides the
/// latency.
pub mod serve_load {
    /// Rows per request.
    pub const REQUEST_ROWS: usize = 500;
    /// Poisson arrival rate of the low-rate phase (requests/s).
    pub const RATE_LOW: f64 = 140.0;
    /// Poisson arrival rate of the high-rate phase (requests/s).
    pub const RATE_HIGH: f64 = 210.0;
    /// The `max_rate_rps` ladder, ascending.
    pub const LADDER: [f64; 2] = [RATE_LOW, RATE_HIGH];
    /// p99 latency a ladder step must stay under (ms): about four times
    /// the seed commit's p99 at the high rate.
    pub const P99_LIMIT_MS: f64 = 60.0;
}
