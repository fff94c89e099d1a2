//! The long-lived anonymization daemon.
//!
//! One accept loop, one reader thread per connection, one batcher
//! thread. Readers parse frames, answer cheap ops (`ping`, `list`,
//! `shutdown`) inline, and push expensive ops (`anonymize`, `audit`)
//! onto a **bounded** queue — a full queue yields an immediate
//! [`Response::Busy`], never unbounded memory. The batcher pops up to
//! `batch_workers` jobs at a time, rescans the model registry (so
//! hot-reloads land between batches, deterministically), and drives the
//! batch through [`parallel_map_with`] — workers across requests,
//! sequential kernels inside each, mirroring the streaming engine's
//! shard split.
//!
//! Responses go through a per-connection outbox that restores
//! *arrival order*: each frame gets a sequence number at read time, and
//! the outbox buffers out-of-order completions until their turn. An
//! immediate `Busy` for frame 3 therefore still arrives after the
//! (slower) responses to frames 1 and 2.
//!
//! Shutdown: stop accepting, close the queue, let the batcher drain
//! every queued job, then unblock the readers by closing their sockets.
//! A drain that exceeds the caller's deadline returns
//! [`ServeError::DrainTimeout`] — the CLI maps it to a nonzero exit.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tclose_core::NeighborBackend;
use tclose_microdata::csv::to_csv_string;
use tclose_microdata::Table;
use tclose_parallel::{parallel_map_with, Parallelism};
use tclose_stream::{read_with_roles, release_shard, Roles};

use crate::protocol::{
    read_frame, write_frame, ApplyReport, AuditReport, FrameError, Request, Response,
    DEFAULT_MAX_FRAME,
};
use crate::registry::{LoadedModel, ModelRegistry, ScanReport};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory of model artifacts the registry watches.
    pub registry_dir: PathBuf,
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads per batch (and the maximum batch width).
    pub batch_workers: usize,
    /// Neighbor-search backend resident models are built with.
    pub backend: NeighborBackend,
    /// Bounded queue depth; beyond it requests get `Busy`.
    pub queue_depth: usize,
    /// Queue-wait budget per request; beyond it requests get `TimedOut`.
    pub request_timeout: Duration,
    /// Maximum frame payload size accepted or sent.
    pub max_frame: usize,
    /// Enables the test-only `sleep` op (the `TestServer` fixture turns
    /// this on so backpressure/timeout tests are deterministic).
    pub enable_test_ops: bool,
}

impl ServerConfig {
    /// Defaults: ephemeral loopback port, 4 batch workers, queue of 64,
    /// 30 s request timeout, 64 MiB frames, test ops off.
    pub fn new(registry_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            registry_dir: registry_dir.into(),
            addr: "127.0.0.1:0".to_string(),
            batch_workers: 4,
            backend: NeighborBackend::Auto,
            queue_depth: 64,
            request_timeout: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
            enable_test_ops: false,
        }
    }
}

/// Errors starting or stopping the server.
#[derive(Debug)]
pub enum ServeError {
    /// Bad configuration (zero workers, zero queue depth…).
    Config(String),
    /// The registry directory or the listener could not be set up.
    Io(String),
    /// Shutdown drain exceeded its deadline with jobs still pending.
    DrainTimeout {
        /// Jobs still queued or in flight when the deadline passed.
        pending: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(d) => write!(f, "invalid server configuration: {d}"),
            ServeError::Io(d) => write!(f, "server I/O error: {d}"),
            ServeError::DrainTimeout { pending } => write!(
                f,
                "shutdown drain timed out with {pending} request(s) still pending"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Counters accumulated over the server's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with a real result.
    pub served: u64,
    /// Requests rejected with `Busy` (queue full).
    pub busy_rejections: u64,
    /// Requests expired in the queue (`TimedOut`).
    pub timeouts: u64,
}

/// One queued expensive op, stamped with its connection outbox and
/// arrival sequence number.
struct Job {
    request: Request,
    enqueued: Instant,
    outbox: Arc<Outbox>,
    seq: u64,
}

/// Per-connection writer that restores arrival order.
///
/// Completions arrive tagged with the sequence number their frame got
/// at read time; out-of-order ones wait in a reorder buffer until every
/// earlier sequence has been written.
struct Outbox {
    state: Mutex<OutboxState>,
    max_frame: usize,
}

struct OutboxState {
    stream: TcpStream,
    next: u64,
    pending: BTreeMap<u64, Vec<u8>>,
    /// Set after a write fails (client vanished); later submissions are
    /// discarded instead of erroring the worker that produced them.
    dead: bool,
}

impl Outbox {
    fn new(stream: TcpStream, max_frame: usize) -> Outbox {
        Outbox {
            state: Mutex::new(OutboxState {
                stream,
                next: 0,
                pending: BTreeMap::new(),
                dead: false,
            }),
            max_frame,
        }
    }

    /// Submits the encoded response for arrival-order slot `seq`.
    fn submit(&self, seq: u64, payload: Vec<u8>) {
        let mut st = self.state.lock().unwrap();
        st.pending.insert(seq, payload);
        while let Some(payload) = {
            let next = st.next;
            st.pending.remove(&next)
        } {
            if !st.dead && write_frame(&mut st.stream, &payload, self.max_frame).is_err() {
                st.dead = true;
            }
            st.next += 1;
        }
    }
}

/// Queue shared between readers and the batcher.
struct QueueState {
    jobs: VecDeque<Job>,
    /// False once shutdown begins: new jobs are refused.
    open: bool,
    /// Set by the batcher after the queue closed and fully drained.
    batcher_done: bool,
}

struct Shared {
    cfg: ServerConfig,
    queue: Mutex<QueueState>,
    /// Wakes the batcher on new jobs / queue close, and the shutdown
    /// waiter on `batcher_done`.
    queue_cv: Condvar,
    registry: Mutex<ModelRegistry>,
    stop_accepting: AtomicBool,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Clones of live connection streams, so shutdown can unblock
    /// readers parked in `read_frame`.
    conns: Mutex<Vec<TcpStream>>,
    served: AtomicU64,
    busy_rejections: AtomicU64,
    timeouts: AtomicU64,
}

impl Shared {
    fn request_shutdown(&self) {
        *self.shutdown_requested.lock().unwrap() = true;
        self.shutdown_cv.notify_all();
        self.stop_accepting.store(true, Ordering::SeqCst);
        self.queue.lock().unwrap().open = false;
        self.queue_cv.notify_all();
    }
}

/// Entry point: [`Server::start`] binds, scans, and spawns the threads.
pub struct Server;

/// A running server. Dropping the handle shuts the server down
/// best-effort; call [`shutdown`](ServerHandle::shutdown) for the
/// drain-or-fail contract.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    initial_scan: ScanReport,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, performs the initial registry scan, and
    /// spawns the accept and batcher threads.
    pub fn start(cfg: ServerConfig) -> Result<ServerHandle, ServeError> {
        if cfg.batch_workers == 0 {
            return Err(ServeError::Config("batch_workers must be ≥ 1".into()));
        }
        if cfg.queue_depth == 0 {
            return Err(ServeError::Config("queue_depth must be ≥ 1".into()));
        }
        let (registry, initial_scan) = ModelRegistry::open(&cfg.registry_dir, cfg.backend)
            .map_err(|e| {
                ServeError::Io(format!(
                    "cannot scan registry {}: {e}",
                    cfg.registry_dir.display()
                ))
            })?;
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::Io(format!("cannot bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(e.to_string()))?;

        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
                batcher_done: false,
            }),
            queue_cv: Condvar::new(),
            registry: Mutex::new(registry),
            stop_accepting: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            served: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(shared, listener))
        };
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(shared))
        };

        Ok(ServerHandle {
            shared,
            addr,
            initial_scan,
            accept: Some(accept),
            batcher: Some(batcher),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What the startup scan loaded and rejected.
    pub fn initial_scan(&self) -> &ScanReport {
        &self.initial_scan
    }

    /// True once a client issued `shutdown` (or [`Self::shutdown`] ran).
    pub fn shutdown_requested(&self) -> bool {
        *self.shared.shutdown_requested.lock().unwrap()
    }

    /// Blocks until a client issues `shutdown`. Used by the CLI to turn
    /// the daemon's main thread into the lifecycle waiter.
    pub fn wait_for_shutdown_request(&self) {
        let mut flag = self.shared.shutdown_requested.lock().unwrap();
        while !*flag {
            flag = self.shared.shutdown_cv.wait(flag).unwrap();
        }
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            served: self.shared.served.load(Ordering::SeqCst),
            busy_rejections: self.shared.busy_rejections.load(Ordering::SeqCst),
            timeouts: self.shared.timeouts.load(Ordering::SeqCst),
        }
    }

    /// Stops intake, drains every queued job, and joins the threads.
    ///
    /// Every job already accepted gets a real response before the
    /// server exits. If the drain has not finished within
    /// `drain_timeout` the queue is abandoned and
    /// [`ServeError::DrainTimeout`] is returned — the CLI maps this to
    /// a nonzero exit code.
    pub fn shutdown(mut self, drain_timeout: Duration) -> Result<ServeStats, ServeError> {
        self.shared.request_shutdown();
        let drained = {
            let deadline = Instant::now() + drain_timeout;
            let mut q = self.shared.queue.lock().unwrap();
            loop {
                if q.batcher_done {
                    break true;
                }
                let now = Instant::now();
                if now >= deadline {
                    break false;
                }
                let (guard, _) = self
                    .shared
                    .queue_cv
                    .wait_timeout(q, deadline - now)
                    .unwrap();
                q = guard;
            }
        };
        if !drained {
            let pending = self.shared.queue.lock().unwrap().jobs.len();
            return Err(ServeError::DrainTimeout {
                pending: pending.max(1),
            });
        }
        // Readers may be parked in read_frame on idle connections; close
        // the sockets under them so their threads exit.
        for conn in self.shared.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        Ok(self.stats())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort teardown for fixtures that forget to call
        // shutdown(); does not wait for the drain.
        self.shared.request_shutdown();
        for conn in self.shared.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    while !shared.stop_accepting.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap().push(clone);
                }
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || reader_loop(shared, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn reader_loop(shared: Arc<Shared>, stream: TcpStream) {
    let max_frame = shared.cfg.max_frame;
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let outbox = Arc::new(Outbox::new(write_half, max_frame));
    let mut reader = BufReader::new(stream);
    let mut seq: u64 = 0;
    loop {
        match read_frame(&mut reader, max_frame) {
            // Clean close between frames, or the client vanished
            // mid-frame: either way this connection is done. In-flight
            // jobs finish and their writes land on a dead socket, which
            // the outbox absorbs.
            Ok(None) | Err(FrameError::Truncated { .. }) | Err(FrameError::Io(_)) => break,
            Err(e @ FrameError::TooLarge { .. }) => {
                // Protocol violation: tell the client, then drop the
                // connection (the stream position is unrecoverable).
                let resp = Response::Error {
                    id: 0,
                    detail: e.to_string(),
                };
                outbox.submit(seq, resp.encode());
                break;
            }
            Ok(Some(payload)) => {
                let this_seq = seq;
                seq += 1;
                match Request::decode(&payload) {
                    Err(detail) => {
                        outbox.submit(this_seq, Response::Error { id: 0, detail }.encode())
                    }
                    Ok(req) => handle_request(&shared, &outbox, this_seq, req),
                }
            }
        }
    }
}

fn handle_request(shared: &Arc<Shared>, outbox: &Arc<Outbox>, seq: u64, req: Request) {
    match req {
        Request::Ping { id } => outbox.submit(seq, Response::Pong { id }.encode()),
        Request::ListModels { id } => {
            let models = {
                let mut reg = shared.registry.lock().unwrap();
                // Scan first so `list` reflects what is on disk now.
                if let Ok(report) = reg.scan() {
                    log_scan(&report);
                }
                reg.summaries()
            };
            outbox.submit(seq, Response::Models { id, models }.encode());
        }
        Request::Shutdown { id } => {
            outbox.submit(seq, Response::ShuttingDown { id }.encode());
            shared.request_shutdown();
        }
        Request::Sleep { id, .. } if !shared.cfg.enable_test_ops => outbox.submit(
            seq,
            Response::Error {
                id,
                detail: "the sleep op is a test hook; this server has test ops disabled".into(),
            }
            .encode(),
        ),
        req @ (Request::Anonymize { .. } | Request::Audit { .. } | Request::Sleep { .. }) => {
            let id = req.id();
            let mut q = shared.queue.lock().unwrap();
            if !q.open {
                drop(q);
                outbox.submit(
                    seq,
                    Response::Error {
                        id,
                        detail: "server is shutting down; request refused".into(),
                    }
                    .encode(),
                );
            } else if q.jobs.len() >= shared.cfg.queue_depth {
                drop(q);
                shared.busy_rejections.fetch_add(1, Ordering::SeqCst);
                outbox.submit(
                    seq,
                    Response::Busy {
                        id,
                        detail: format!(
                            "queue full ({} requests queued); retry later",
                            shared.cfg.queue_depth
                        ),
                    }
                    .encode(),
                );
            } else {
                q.jobs.push_back(Job {
                    request: req,
                    enqueued: Instant::now(),
                    outbox: Arc::clone(outbox),
                    seq,
                });
                drop(q);
                shared.queue_cv.notify_all();
            }
        }
    }
}

fn batcher_loop(shared: Arc<Shared>) {
    let par = Parallelism::workers(shared.cfg.batch_workers);
    loop {
        let batch: Vec<Job> = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if !q.jobs.is_empty() {
                    break;
                }
                if !q.open {
                    q.batcher_done = true;
                    shared.queue_cv.notify_all();
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap();
            }
            let width = q.jobs.len().min(shared.cfg.batch_workers);
            q.jobs.drain(..width).collect()
        };

        // Hot-reload point: pick up new/changed/removed artifacts
        // before resolving this batch's model ids. Corrupt files are
        // logged and skipped; previously healthy models keep serving.
        {
            let mut reg = shared.registry.lock().unwrap();
            match reg.scan() {
                Ok(report) => log_scan(&report),
                Err(e) => eprintln!("serve: registry scan failed: {e}"),
            }
        }

        let timeout = shared.cfg.request_timeout;
        let jobs: Vec<(Job, Option<Arc<LoadedModel>>)> = batch
            .into_iter()
            .map(|job| {
                let model = match &job.request {
                    Request::Anonymize { model, .. } | Request::Audit { model, .. } => {
                        shared.registry.lock().unwrap().get(model)
                    }
                    _ => None,
                };
                (job, model)
            })
            .collect();

        let shared_ref = Arc::clone(&shared);
        let results: Vec<(Arc<Outbox>, u64, Vec<u8>)> =
            parallel_map_with(jobs, par, move |(job, model)| {
                let response = if job.enqueued.elapsed() > timeout {
                    shared_ref.timeouts.fetch_add(1, Ordering::SeqCst);
                    Response::TimedOut {
                        id: job.request.id(),
                        detail: format!(
                            "request waited in the queue past its {} ms budget",
                            timeout.as_millis()
                        ),
                    }
                } else {
                    shared_ref.served.fetch_add(1, Ordering::SeqCst);
                    process(&shared_ref, &job.request, model.clone())
                };
                (Arc::clone(&job.outbox), job.seq, response.encode())
            });
        for (outbox, seq, payload) in results {
            outbox.submit(seq, payload);
        }
    }
}

/// Executes one expensive op against its resolved model.
fn process(shared: &Shared, req: &Request, model: Option<Arc<LoadedModel>>) -> Response {
    match req {
        Request::Sleep { id, millis } => {
            std::thread::sleep(Duration::from_millis(*millis));
            Response::Pong { id: *id }
        }
        Request::Anonymize {
            id,
            model: name,
            csv,
        } => {
            let Some(model) = model else {
                return unknown_model(shared, *id, name);
            };
            match anonymize_csv(&model, csv) {
                Ok((csv, report)) => Response::Anonymized {
                    id: *id,
                    csv,
                    report,
                },
                Err(detail) => Response::Error { id: *id, detail },
            }
        }
        Request::Audit {
            id,
            model: name,
            csv,
        } => {
            let Some(model) = model else {
                return unknown_model(shared, *id, name);
            };
            match model_table(&model, csv)
                .and_then(|table| AuditReport::measure(&table, Parallelism::sequential()))
            {
                Ok((report, _)) => Response::Audited { id: *id, report },
                Err(detail) => Response::Error { id: *id, detail },
            }
        }
        _ => Response::Error {
            id: req.id(),
            detail: "internal: non-batch op reached the batcher".into(),
        },
    }
}

fn unknown_model(shared: &Shared, id: u64, name: &str) -> Response {
    let detail = match shared.registry.lock().unwrap().last_error(name) {
        Some(e) => format!("model {name:?} failed to load: {e}"),
        None => format!("unknown model {name:?} (not in the registry)"),
    };
    Response::Error { id, detail }
}

/// Releases the request CSV under the resident model: the model's
/// roles, then [`release_shard`] without a compliance policy — the call
/// `tclose apply` makes, so responses are byte-identical to it.
fn anonymize_csv(model: &LoadedModel, csv: &str) -> Result<(String, ApplyReport), String> {
    let shard = release_shard(&model.fitted, None, &model_table(model, csv)?, 0)
        .map_err(|e| e.to_string())?;
    let rendered = to_csv_string(&shard.table).map_err(|e| e.to_string())?;
    let r = shard.report;
    Ok((
        rendered,
        ApplyReport {
            n_records: r.n_records,
            n_clusters: r.n_clusters,
            achieved_k: r.min_cluster_size,
            max_emd: r.max_emd,
            sse: r.sse,
        },
    ))
}

/// Reads a request CSV with the roles the model's schema declares.
fn model_table(model: &LoadedModel, csv: &str) -> Result<Table, String> {
    read_with_roles(
        csv.as_bytes(),
        Roles::Model(model.fitted.global_fit().schema()),
    )
    .map_err(|e| e.to_string())
}

fn log_scan(report: &ScanReport) {
    for id in &report.loaded {
        eprintln!("serve: loaded model {id:?}");
    }
    for (id, err) in &report.rejected {
        eprintln!("serve: rejected model {id:?}: {err}");
    }
    for id in &report.removed {
        eprintln!("serve: unloaded model {id:?} (file removed)");
    }
}

/// Resolves a bind address string, for CLI validation before start.
pub fn resolve_addr(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr:?} resolved to no addresses"))
}
