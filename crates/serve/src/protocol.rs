//! Length-prefixed wire protocol for the anonymization daemon.
//!
//! Every message on the wire is a **frame**: a 4-byte big-endian `u32`
//! payload length followed by that many bytes of UTF-8 JSON. The length
//! prefix is validated against a frame cap *before* any payload buffer
//! is allocated, so a hostile or corrupt prefix can never balloon server
//! memory. Frames carry [`Request`] and [`Response`] documents encoded
//! via the workspace's dependency-free [`Json`] value type.
//!
//! Requests carry a client-chosen `id` that the server echoes in the
//! matching response. Responses are streamed back in *arrival order*
//! (the order frames were read off the connection), so a pipelining
//! client can match responses positionally as well as by id.

use std::io::{self, Read, Write};

use tclose_core::{audit_release, Confidential, Ratio};
use tclose_microdata::Table;
use tclose_parallel::Parallelism;
use tclose_ser::Json;

/// Default maximum frame payload size: 64 MiB.
///
/// Large enough for any realistic shard of CSV rows, small enough that
/// a corrupt length prefix cannot request an absurd allocation.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// Errors produced by the frame codec.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The length prefix declared a payload larger than the cap.
    /// Detected before any allocation happens.
    TooLarge {
        /// Payload size the prefix declared.
        declared: usize,
        /// The configured cap.
        max: usize,
    },
    /// The stream ended mid-frame (inside the prefix or the payload).
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::TooLarge { declared, max } => write!(
                f,
                "frame of {declared} bytes exceeds the {max}-byte cap; rejected before allocation"
            ),
            FrameError::Truncated { missing } => {
                write!(f, "stream ended mid-frame ({missing} bytes short)")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes the writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max: usize) -> Result<(), FrameError> {
    if payload.len() > max {
        return Err(FrameError::TooLarge {
            declared: payload.len(),
            max,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge {
        declared: payload.len(),
        max,
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (the
/// peer closed between frames); a stream that ends *inside* a frame is
/// a [`FrameError::Truncated`] error instead.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    missing: prefix.len() - got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let declared = u32::from_be_bytes(prefix) as usize;
    // The cap check must precede the allocation: that is the whole
    // defense against hostile length prefixes.
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared];
    let mut filled = 0;
    while filled < declared {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    missing: declared - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// A client request. Every variant carries the client-chosen `id`
/// echoed back in the matching [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered immediately, never queued.
    Ping {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// List the models currently loaded in the registry (scans the
    /// registry directory first, so the answer reflects disk).
    ListModels {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Anonymize a CSV payload with the named model.
    Anonymize {
        /// Client-chosen correlation id.
        id: u64,
        /// Registry model id (artifact file stem).
        model: String,
        /// Input records as CSV text (header + rows).
        csv: String,
    },
    /// Audit a released CSV payload with the named model's schema roles.
    Audit {
        /// Client-chosen correlation id.
        id: u64,
        /// Registry model id (artifact file stem).
        model: String,
        /// Released records as CSV text (header + rows).
        csv: String,
    },
    /// Test-only op: occupy a batch worker for `millis` milliseconds.
    /// Rejected unless the server was started with test ops enabled;
    /// exists so backpressure and timeout tests are deterministic.
    Sleep {
        /// Client-chosen correlation id.
        id: u64,
        /// How long the worker sleeps.
        millis: u64,
    },
    /// Ask the server to shut down: stop accepting, drain the queue.
    Shutdown {
        /// Client-chosen correlation id.
        id: u64,
    },
}

impl Request {
    /// The client-chosen correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Ping { id }
            | Request::ListModels { id }
            | Request::Anonymize { id, .. }
            | Request::Audit { id, .. }
            | Request::Sleep { id, .. }
            | Request::Shutdown { id } => *id,
        }
    }

    /// Encodes the request to its JSON wire form.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![("id".to_string(), num_u64(self.id()))];
        match self {
            Request::Ping { .. } => obj.push(op("ping")),
            Request::ListModels { .. } => obj.push(op("list")),
            Request::Anonymize { model, csv, .. } => {
                obj.push(op("anonymize"));
                obj.push(("model".to_string(), Json::Str(model.clone())));
                obj.push(("csv".to_string(), Json::Str(csv.clone())));
            }
            Request::Audit { model, csv, .. } => {
                obj.push(op("audit"));
                obj.push(("model".to_string(), Json::Str(model.clone())));
                obj.push(("csv".to_string(), Json::Str(csv.clone())));
            }
            Request::Sleep { millis, .. } => {
                obj.push(op("sleep"));
                obj.push(("millis".to_string(), num_u64(*millis)));
            }
            Request::Shutdown { .. } => obj.push(op("shutdown")),
        }
        Json::Obj(obj)
    }

    /// Serializes to frame payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().to_string_pretty().into_bytes()
    }

    /// Parses a request from its JSON wire form.
    pub fn from_json(doc: &Json) -> Result<Request, String> {
        let id = get_u64(doc, "id")?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request is missing the \"op\" field")?;
        match op {
            "ping" => Ok(Request::Ping { id }),
            "list" => Ok(Request::ListModels { id }),
            "anonymize" => Ok(Request::Anonymize {
                id,
                model: get_str(doc, "model")?,
                csv: get_str(doc, "csv")?,
            }),
            "audit" => Ok(Request::Audit {
                id,
                model: get_str(doc, "model")?,
                csv: get_str(doc, "csv")?,
            }),
            "sleep" => Ok(Request::Sleep {
                id,
                millis: get_u64(doc, "millis")?,
            }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Parses a request from frame payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let s = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let doc = Json::parse(s).map_err(|e| format!("payload is not valid JSON: {e}"))?;
        Request::from_json(&doc)
    }
}

/// One registry entry as reported by `list`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSummary {
    /// Registry model id (artifact file stem).
    pub id: String,
    /// Algorithm name recorded in the artifact.
    pub algorithm: String,
    /// Requested k recorded in the artifact.
    pub k: usize,
    /// Requested t recorded in the artifact.
    pub t: f64,
    /// Number of records the model was fitted on.
    pub n_records: usize,
}

impl ModelSummary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("algorithm".to_string(), Json::Str(self.algorithm.clone())),
            ("k".to_string(), num_u64(self.k as u64)),
            ("t".to_string(), Json::Num(self.t)),
            ("n_records".to_string(), num_u64(self.n_records as u64)),
        ])
    }

    fn from_json(doc: &Json) -> Result<ModelSummary, String> {
        Ok(ModelSummary {
            id: get_str(doc, "id")?,
            algorithm: get_str(doc, "algorithm")?,
            k: get_u64(doc, "k")? as usize,
            t: get_f64(doc, "t")?,
            n_records: get_u64(doc, "n_records")? as usize,
        })
    }
}

/// Audited outcome of one anonymize request.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyReport {
    /// Records in the release.
    pub n_records: usize,
    /// Equivalence classes produced.
    pub n_clusters: usize,
    /// Smallest class size — the achieved k.
    pub achieved_k: usize,
    /// Largest class-to-table EMD — the achieved t.
    pub max_emd: f64,
    /// Normalized SSE over the quasi-identifiers.
    pub sse: f64,
}

impl ApplyReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n_records".to_string(), num_u64(self.n_records as u64)),
            ("n_clusters".to_string(), num_u64(self.n_clusters as u64)),
            ("achieved_k".to_string(), num_u64(self.achieved_k as u64)),
            ("max_emd".to_string(), Json::Num(self.max_emd)),
            ("sse".to_string(), Json::Num(self.sse)),
        ])
    }

    fn from_json(doc: &Json) -> Result<ApplyReport, String> {
        Ok(ApplyReport {
            n_records: get_u64(doc, "n_records")? as usize,
            n_clusters: get_u64(doc, "n_clusters")? as usize,
            achieved_k: get_u64(doc, "achieved_k")? as usize,
            max_emd: get_f64(doc, "max_emd")?,
            sse: get_f64(doc, "sse")?,
        })
    }
}

/// Audited privacy levels of one audit request.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Records audited.
    pub n_records: usize,
    /// Achieved k (minimum class size).
    pub achieved_k: usize,
    /// Achieved t (maximum class EMD).
    pub achieved_t: f64,
    /// Achieved l (minimum distinct confidential values per class).
    pub achieved_l: usize,
}

impl AuditReport {
    /// Audits a released table: k-anonymity, t-closeness against the
    /// table's own confidential distribution and l-diversity, from one
    /// audit pass ([`audit_release`]) that groups the rows once. Returns
    /// the report and the worst class's exact EMD, which `achieved_t`
    /// rounds and which grades a requested t. `tclose audit` and the
    /// daemon's audit op both run this.
    pub fn measure(table: &Table, par: Parallelism) -> Result<(AuditReport, Ratio), String> {
        let conf = Confidential::from_table(table).map_err(|e| e.to_string())?;
        let audit = audit_release(table, &conf, par).map_err(|e| e.to_string())?;
        let report = AuditReport {
            n_records: table.n_rows(),
            achieved_k: audit.achieved_k,
            achieved_t: audit.max_emd.to_f64(),
            achieved_l: audit.achieved_l,
        };
        Ok((report, audit.max_emd))
    }

    /// The audit as text, naming the audited `source`.
    pub fn render(&self, source: &str) -> String {
        format!(
            "audited {} records from {source}\n\
             achieved k (min class size) {}\n\
             achieved t (max class EMD)  {:.5}\n\
             achieved l (min distinct)   {}",
            self.n_records, self.achieved_k, self.achieved_t, self.achieved_l
        )
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n_records".to_string(), num_u64(self.n_records as u64)),
            ("achieved_k".to_string(), num_u64(self.achieved_k as u64)),
            ("achieved_t".to_string(), Json::Num(self.achieved_t)),
            ("achieved_l".to_string(), num_u64(self.achieved_l as u64)),
        ])
    }

    fn from_json(doc: &Json) -> Result<AuditReport, String> {
        Ok(AuditReport {
            n_records: get_u64(doc, "n_records")? as usize,
            achieved_k: get_u64(doc, "achieved_k")? as usize,
            achieved_t: get_f64(doc, "achieved_t")?,
            achieved_l: get_u64(doc, "achieved_l")? as usize,
        })
    }
}

/// A server response, echoing the request's `id`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `ping` (and to the test-only `sleep`).
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Answer to `list`.
    Models {
        /// Echoed request id.
        id: u64,
        /// Loaded models, sorted by id.
        models: Vec<ModelSummary>,
    },
    /// Successful anonymize: the released CSV plus its audit report.
    Anonymized {
        /// Echoed request id.
        id: u64,
        /// Released records as CSV text, byte-identical to what
        /// `tclose apply` would have written for the same input.
        csv: String,
        /// Audited outcome.
        report: ApplyReport,
    },
    /// Successful audit.
    Audited {
        /// Echoed request id.
        id: u64,
        /// Audited privacy levels.
        report: AuditReport,
    },
    /// Backpressure: the bounded queue is full; retry later.
    Busy {
        /// Echoed request id.
        id: u64,
        /// Human-readable detail (queue depth).
        detail: String,
    },
    /// The request waited in the queue past its deadline.
    TimedOut {
        /// Echoed request id.
        id: u64,
        /// Human-readable detail (configured timeout).
        detail: String,
    },
    /// The request failed (unknown model, malformed CSV, bad frame…).
    Error {
        /// Echoed request id (0 when the request could not be parsed).
        id: u64,
        /// Human-readable failure detail.
        detail: String,
    },
    /// Acknowledgement of `shutdown`; the server drains and exits.
    ShuttingDown {
        /// Echoed request id.
        id: u64,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Pong { id }
            | Response::Models { id, .. }
            | Response::Anonymized { id, .. }
            | Response::Audited { id, .. }
            | Response::Busy { id, .. }
            | Response::TimedOut { id, .. }
            | Response::Error { id, .. }
            | Response::ShuttingDown { id } => *id,
        }
    }

    /// Encodes the response to its JSON wire form.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![("id".to_string(), num_u64(self.id()))];
        match self {
            Response::Pong { .. } => {
                obj.push(status("ok"));
                obj.push(result("pong"));
            }
            Response::Models { models, .. } => {
                obj.push(status("ok"));
                obj.push(result("models"));
                obj.push((
                    "models".to_string(),
                    Json::Arr(models.iter().map(ModelSummary::to_json).collect()),
                ));
            }
            Response::Anonymized { csv, report, .. } => {
                obj.push(status("ok"));
                obj.push(result("anonymized"));
                obj.push(("csv".to_string(), Json::Str(csv.clone())));
                obj.push(("report".to_string(), report.to_json()));
            }
            Response::Audited { report, .. } => {
                obj.push(status("ok"));
                obj.push(result("audited"));
                obj.push(("report".to_string(), report.to_json()));
            }
            Response::Busy { detail, .. } => {
                obj.push(status("busy"));
                obj.push(("error".to_string(), Json::Str(detail.clone())));
            }
            Response::TimedOut { detail, .. } => {
                obj.push(status("timeout"));
                obj.push(("error".to_string(), Json::Str(detail.clone())));
            }
            Response::Error { detail, .. } => {
                obj.push(status("error"));
                obj.push(("error".to_string(), Json::Str(detail.clone())));
            }
            Response::ShuttingDown { .. } => {
                obj.push(status("ok"));
                obj.push(result("shutting-down"));
            }
        }
        Json::Obj(obj)
    }

    /// Serializes to frame payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().to_string_pretty().into_bytes()
    }

    /// Parses a response from its JSON wire form.
    pub fn from_json(doc: &Json) -> Result<Response, String> {
        let id = get_u64(doc, "id")?;
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .ok_or("response is missing the \"status\" field")?;
        match status {
            "busy" => Ok(Response::Busy {
                id,
                detail: get_str(doc, "error")?,
            }),
            "timeout" => Ok(Response::TimedOut {
                id,
                detail: get_str(doc, "error")?,
            }),
            "error" => Ok(Response::Error {
                id,
                detail: get_str(doc, "error")?,
            }),
            "ok" => {
                let result = doc
                    .get("result")
                    .and_then(Json::as_str)
                    .ok_or("ok response is missing the \"result\" field")?;
                match result {
                    "pong" => Ok(Response::Pong { id }),
                    "shutting-down" => Ok(Response::ShuttingDown { id }),
                    "models" => {
                        let arr = doc
                            .get("models")
                            .and_then(Json::as_arr)
                            .ok_or("models response is missing the \"models\" array")?;
                        let models = arr
                            .iter()
                            .map(ModelSummary::from_json)
                            .collect::<Result<Vec<_>, _>>()?;
                        Ok(Response::Models { id, models })
                    }
                    "anonymized" => Ok(Response::Anonymized {
                        id,
                        csv: get_str(doc, "csv")?,
                        report: ApplyReport::from_json(
                            doc.get("report").ok_or("missing \"report\"")?,
                        )?,
                    }),
                    "audited" => Ok(Response::Audited {
                        id,
                        report: AuditReport::from_json(
                            doc.get("report").ok_or("missing \"report\"")?,
                        )?,
                    }),
                    other => Err(format!("unknown result kind {other:?}")),
                }
            }
            other => Err(format!("unknown status {other:?}")),
        }
    }

    /// Parses a response from frame payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let s = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let doc = Json::parse(s).map_err(|e| format!("payload is not valid JSON: {e}"))?;
        Response::from_json(&doc)
    }
}

fn op(name: &str) -> (String, Json) {
    ("op".to_string(), Json::Str(name.to_string()))
}

fn status(name: &str) -> (String, Json) {
    ("status".to_string(), Json::Str(name.to_string()))
}

fn result(name: &str) -> (String, Json) {
    ("result".to_string(), Json::Str(name.to_string()))
}

fn num_u64(v: u64) -> Json {
    Json::Num(v as f64)
}

fn get_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn get_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let v = get_f64(doc, key)?;
    if v.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&v) {
        return Err(format!("field {key:?} is not a non-negative integer"));
    }
    Ok(v as u64)
}
