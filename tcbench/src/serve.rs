//! The serve layers: a `tclose-serve` daemon holding a resident Alg. 3
//! model of a seeded 23,435-row `patient_discharge`, probed by the traced
//! run of `kfirst-census-mcd`.
//!
//! Open-loop served latency is measured here but not gated: on a shared
//! 2-core machine the daemon, its batch workers and the load generator
//! contend for the same cores, and queueing amplifies outside load on the
//! machine into run-to-run latency spreads far beyond any usable bound.
//!
//! The load generator is one process with two threads: a sender that
//! writes each request at its scheduled Poisson arrival time, and a
//! receiver that reads the in-order responses. Latency runs from each
//! request's *scheduled* send time until its response is read and decoded,
//! so a stall also charges the requests queued behind it; how late the
//! sender ran is reported as `loadgen.lag_ms_p99`. A rate counts toward
//! `max_rate_rps` only if its p99 stays under the frozen limit with no
//! failed request and no segment whose backlog grows.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tclose_core::{Algorithm, Anonymizer, FittedAnonymizer, ModelArtifact, NeighborBackend};
use tclose_datasets::{patient_discharge, PATIENT_N};
use tclose_microdata::csv::{read_csv_auto, to_csv_string};
use tclose_microdata::{AttributeRole, Table};
use tclose_parallel::{parallel_map_with, Parallelism};
use tclose_serve::{
    read_frame, write_frame, ApplyReport, Client, ModelRegistry, Request, Response, Server,
    ServerConfig, ServerHandle, DEFAULT_MAX_FRAME,
};

use crate::catalog::serve_load::{LADDER, P99_LIMIT_MS, RATE_HIGH, RATE_LOW, REQUEST_ROWS};
use crate::catalog::{K, T};
use crate::common::{audit_release, OrMsg, Outcome, WorkDir, PATIENT_ROLES};
use crate::stats::{backlog_grows, median, percentile};

/// Share of the probes' budget the in-process replay and the low and
/// high rates each run for; each rate runs in `SEGMENTS` segments that
/// alternate with the other's.
const REPLAY_SHARE: f64 = 0.2;
const LOW_SHARE: f64 = 0.4;
const HIGH_SHARE: f64 = 0.4;
const SEGMENTS: usize = 4;
/// A segment's backlog grows when the median latency of its last third
/// exceeds twice that of its first third plus this many ms.
const BACKLOG_SLACK_MS: f64 = 5.0;
/// One response in this many is also replayed in-process and compared
/// byte for byte (the choice is seeded).
const REPLAY_SAMPLE: u64 = 16;
/// Model id (artifact file stem) of the served model.
const MODEL_ID: &str = "patient";

/// What the benchmark holds besides the daemon: the population the
/// requests are drawn from and the model the daemon serves, as the
/// registry builds it.
struct Model {
    population: Table,
    artifact: ModelArtifact,
    fitted: FittedAnonymizer,
}

impl Model {
    /// Fits Alg. 3 on a seeded `patient_discharge` of the paper's size and
    /// saves the artifact into the registry directory; the benchmark's
    /// copy is the artifact read back, as the registry loads it.
    fn fit(seed: u64, work: &WorkDir) -> Result<Model, String> {
        let mut population = patient_discharge(seed, PATIENT_N);
        PATIENT_ROLES.apply(&mut population)?;
        let fitted = Anonymizer::new(K, T)
            .algorithm(Algorithm::TClosenessFirst)
            .fit(&population)
            .msg("fit serve model")?;
        let path = work.registry().join(format!("{MODEL_ID}.json"));
        std::fs::create_dir_all(work.registry()).msg("create registry")?;
        ModelArtifact::from_fitted(&fitted)
            .save(&path)
            .msg("save serve model")?;
        let artifact = ModelArtifact::load(&path).msg("load model")?;
        let fitted = FittedAnonymizer::from_artifact(&artifact)
            .with_backend(NeighborBackend::Auto)
            .with_parallelism(Parallelism::sequential());
        Ok(Model {
            population,
            artifact,
            fitted,
        })
    }

    /// Parses a request CSV and applies the model's schema roles, as the
    /// daemon does.
    fn table(&self, csv: &str) -> Result<Table, String> {
        let mut table = read_csv_auto(csv.as_bytes()).msg("parse request")?;
        let roles: Vec<(&str, AttributeRole)> = self
            .artifact
            .global_fit()
            .schema()
            .attributes()
            .iter()
            .map(|a| (a.name.as_str(), a.role))
            .collect();
        table.schema_mut().set_roles(&roles).msg("model roles")?;
        Ok(table)
    }

    /// The daemon's per-request work, in-process through public calls:
    /// the released CSV and the report a response carries.
    fn replay(&self, csv: &str) -> Result<(String, ApplyReport), String> {
        let table = self.table(csv)?;
        let out = self.fitted.apply_shard(&table).msg("apply")?;
        let released = out.table.drop_identifiers().msg("drop identifiers")?;
        let r = &out.report;
        let report = ApplyReport {
            n_records: r.n_records,
            n_clusters: r.n_clusters,
            achieved_k: r.min_cluster_size,
            max_emd: r.max_emd,
            sse: r.sse,
        };
        Ok((to_csv_string(&released).msg("render")?, report))
    }

    /// Independent audit of one response against the model's global
    /// confidential distribution.
    fn audit(&self, csv: &str) -> Result<(), String> {
        let released = self.table(csv)?;
        let conf = self
            .artifact
            .global_fit()
            .confidential()
            .rebind(&released)
            .msg("rebind")?;
        audit_release(&released, &conf, REQUEST_ROWS)
    }
}

/// Draws distinct seeded `REQUEST_ROWS`-row subsets of the population.
struct RequestGen {
    rng: StdRng,
    perm: Vec<usize>,
}

impl RequestGen {
    fn new(seed: u64, n: usize) -> RequestGen {
        RequestGen {
            rng: StdRng::seed_from_u64(seed),
            perm: (0..n).collect(),
        }
    }

    fn next_csv(&mut self, population: &Table) -> Result<String, String> {
        let n = self.perm.len();
        for j in 0..REQUEST_ROWS {
            let r = self.rng.gen_range(j..n);
            self.perm.swap(j, r);
        }
        let mut rows = self.perm[..REQUEST_ROWS].to_vec();
        rows.sort_unstable();
        to_csv_string(&population.take_rows(&rows).msg("subset")?).msg("render request")
    }
}

/// Starts the daemon on the registry with `batch_workers` = nproc.
fn start(work: &WorkDir) -> Result<ServerHandle, String> {
    let mut cfg = ServerConfig::new(work.registry());
    cfg.batch_workers = crate::sys::nproc();
    let handle = Server::start(cfg).msg("start server")?;
    if handle.initial_scan().loaded.len() != 1 {
        return Err(format!("model not loaded: {:?}", handle.initial_scan()));
    }
    Ok(handle)
}

/// The daemon's answer to one anonymize request.
enum Reply {
    Released(String, ApplyReport),
    /// `Busy` or `TimedOut`: the request missed, but nothing wrong was
    /// released.
    Refused,
    /// Any other answer, or none that decodes.
    Wrong(String),
}

/// One open-loop segment at a fixed Poisson rate, as received.
struct Phase {
    rate: f64,
    /// Latency per request in ms, in scheduled order.
    lat_ms: Vec<f64>,
    /// How late the sender wrote each request, ms.
    lag_ms: Vec<f64>,
    /// Per request: the decoded response, or why it failed.
    responses: Vec<Reply>,
    /// Seeded sample of (request index, request CSV) to replay.
    sampled: Vec<(usize, String)>,
}

/// Runs one segment: schedules Poisson arrivals for `secs`, draws one
/// request per arrival, then drives them through one connection.
fn run_phase(
    addr: SocketAddr,
    model: &Model,
    gen: &mut RequestGen,
    rate: f64,
    secs: f64,
    seed: u64,
) -> Result<Phase, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ rate.to_bits());
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= secs {
            break;
        }
        schedule.push(Duration::from_secs_f64(t));
    }
    let mut payloads = Vec::with_capacity(schedule.len());
    let mut sampled = Vec::new();
    for i in 0..schedule.len() {
        let csv = gen.next_csv(&model.population)?;
        if rng.gen_range(0..REPLAY_SAMPLE) == 0 {
            sampled.push((i, csv.clone()));
        }
        payloads.push(csv);
    }

    let stream = TcpStream::connect(addr).msg("connect")?;
    stream.set_nodelay(true).msg("nodelay")?;
    // Bounded waits on both halves: if either thread stops, the other
    // fails within a minute instead of blocking on a full socket.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .msg("read timeout")?;
    stream
        .set_write_timeout(Some(Duration::from_secs(60)))
        .msg("write timeout")?;
    let mut writer = stream.try_clone().msg("clone socket")?;
    let mut reader = BufReader::new(stream);
    let n = schedule.len();
    let start = Instant::now() + Duration::from_millis(20);
    let (lag_ms, received) = std::thread::scope(|s| {
        let schedule = &schedule;
        let sender = s.spawn(move || {
            let mut lag = Vec::with_capacity(n);
            for (i, csv) in payloads.into_iter().enumerate() {
                let due = start + schedule[i];
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                lag.push(due.elapsed().as_secs_f64() * 1e3);
                let req = Request::Anonymize {
                    id: i as u64 + 1,
                    model: MODEL_ID.to_string(),
                    csv,
                };
                if let Err(e) = write_frame(&mut writer, &req.encode(), DEFAULT_MAX_FRAME) {
                    return Err(format!("send request {i}: {e}"));
                }
            }
            Ok(lag)
        });
        let receiver = s.spawn(move || {
            let mut got = Vec::with_capacity(n);
            for (i, &at) in schedule.iter().enumerate() {
                let frame = read_frame(&mut reader, DEFAULT_MAX_FRAME)
                    .map_err(|e| format!("receive response {i}: {e}"))?
                    .ok_or_else(|| format!("server closed before response {i}"))?;
                let resp = Response::decode(&frame);
                let done = Instant::now();
                let lat = done.saturating_duration_since(start + at);
                let r = match resp {
                    Ok(Response::Anonymized { id, csv, report }) if id == i as u64 + 1 => {
                        Reply::Released(csv, report)
                    }
                    Ok(Response::Busy { .. } | Response::TimedOut { .. }) => Reply::Refused,
                    Ok(other) => Reply::Wrong(format!("{other:?}")),
                    Err(e) => Reply::Wrong(format!("undecodable response: {e}")),
                };
                got.push((lat.as_secs_f64() * 1e3, r));
            }
            Ok::<_, String>(got)
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let lag_ms = lag_ms?;
    let (lat_ms, responses): (Vec<f64>, Vec<_>) = received?.into_iter().unzip();
    Ok(Phase {
        rate,
        lat_ms,
        lag_ms,
        responses,
        sampled,
    })
}

/// Output checks of one segment, run after it (so they never compete with
/// the daemon for the cores): every response is audited independently,
/// and the seeded sample must equal an in-process replay byte for byte.
/// Returns the number of failed requests. A refused request fails without
/// being a wrong output; every other failure is also reported as one.
fn check_phase(model: &Model, phase: &Phase, out: &mut Outcome) -> usize {
    let par = Parallelism::workers(crate::sys::nproc());
    let audits = parallel_map_with(phase.responses.iter().collect(), par, |r| match r {
        Reply::Released(csv, report) if report.achieved_k >= crate::catalog::K => {
            model.audit(csv).map(|()| true)
        }
        Reply::Released(_, report) => Err(format!("reported k {}", report.achieved_k)),
        Reply::Refused => Ok(false),
        Reply::Wrong(e) => Err(e.clone()),
    });
    let mut bad: Vec<bool> = audits.iter().map(|a| a != &Ok(true)).collect();
    for (i, e) in audits.iter().enumerate() {
        if let Err(e) = e {
            out.problem(format!("{} req/s, request {}: {e}", phase.rate, i + 1));
        }
    }
    for (i, csv) in &phase.sampled {
        if let Reply::Released(served, report) = &phase.responses[*i] {
            match model.replay(csv) {
                Ok((local, local_report)) if local == *served && local_report == *report => {}
                Ok(_) => {
                    bad[*i] = true;
                    out.problem(format!(
                        "{} req/s, request {}: response differs from in-process apply",
                        phase.rate,
                        i + 1
                    ));
                }
                Err(e) => {
                    bad[*i] = true;
                    out.problem(format!("replay of request {}: {e}", i + 1));
                }
            }
        }
    }
    bad.iter().filter(|&&b| b).count()
}

/// What is kept of the requests sent at one rate once their responses
/// are checked.
struct RateResult {
    rate: f64,
    /// Latency per request in ms, in scheduled order within each segment.
    lat_ms: Vec<f64>,
    /// How late the sender wrote each request, ms.
    lag_ms: Vec<f64>,
    failed: usize,
    /// Whether any segment's latencies trended up (see [`backlog_grows`]).
    backlog: bool,
}

impl RateResult {
    fn new(rate: f64) -> RateResult {
        RateResult {
            rate,
            lat_ms: Vec::new(),
            lag_ms: Vec::new(),
            failed: 0,
            backlog: false,
        }
    }

    fn p50(&self) -> f64 {
        median(&self.lat_ms)
    }

    fn p99(&self) -> f64 {
        percentile(&self.lat_ms, 99.0)
    }

    /// Whether this rate counts as a `max_rate_rps` ladder step.
    fn meets_limit(&self) -> bool {
        self.failed == 0 && !self.backlog && self.p99() < P99_LIMIT_MS
    }

    fn describe(&self) -> String {
        format!(
            "{:>6.1} req/s: {} requests, p50 {:.3} ms, p99 {:.3} ms, lag p99 {:.3} ms, failed {}{}",
            self.rate,
            self.lat_ms.len(),
            self.p50(),
            self.p99(),
            percentile(&self.lag_ms, 99.0),
            self.failed,
            if self.backlog { ", backlog grows" } else { "" }
        )
    }
}

/// Runs one segment at `into.rate` and checks its responses as soon as it
/// ends, folding the result into `into`.
fn drive(
    addr: SocketAddr,
    model: &Model,
    gen: &mut RequestGen,
    secs: f64,
    seed: u64,
    into: &mut RateResult,
    out: &mut Outcome,
) -> Result<(), String> {
    let phase = run_phase(addr, model, gen, into.rate, secs, seed)?;
    into.failed += check_phase(model, &phase, out);
    into.backlog |= backlog_grows(&phase.lat_ms, BACKLOG_SLACK_MS);
    into.lat_ms.extend(&phase.lat_ms);
    into.lag_ms.extend(&phase.lag_ms);
    Ok(())
}

/// The two fixed rates, measured in alternating segments so that a burst
/// of outside load on the machine falls on both alike.
fn fixed_rates(
    addr: SocketAddr,
    model: &Model,
    gen: &mut RequestGen,
    secs: f64,
    seed: u64,
    out: &mut Outcome,
) -> Result<(RateResult, RateResult), String> {
    // Warm the daemon's and the client's paths before timing.
    drive(
        addr,
        model,
        gen,
        0.5,
        seed ^ 1,
        &mut RateResult::new(RATE_LOW),
        out,
    )?;
    let (mut low, mut high) = (RateResult::new(RATE_LOW), RateResult::new(RATE_HIGH));
    for seg in 0..SEGMENTS {
        let seg_seed = seed ^ ((seg as u64 + 1) << 40);
        let n = SEGMENTS as f64;
        drive(
            addr,
            model,
            gen,
            secs * LOW_SHARE / n,
            seg_seed,
            &mut low,
            out,
        )?;
        drive(
            addr,
            model,
            gen,
            secs * HIGH_SHARE / n,
            seg_seed,
            &mut high,
            out,
        )?;
    }
    out.attempted += (low.lat_ms.len() + high.lat_ms.len()) as u64;
    out.failed += (low.failed + high.failed) as u64;
    Ok((low, high))
}

/// Median µs of `f` over every item.
fn median_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let samples: Vec<f64> = items
        .iter()
        .map(|x| {
            let t0 = Instant::now();
            f(x);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The serve layers, probed for `budget`: the unloaded ping round trip,
/// the registry rescan, wire encode/decode of the workload's payloads,
/// the per-request work replayed in-process, and the low and high rates
/// the layers are subtracted from.
pub fn layer_probes(
    seed: u64,
    work: &WorkDir,
    budget: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let model = Model::fit(seed, work)?;
    let handle = start(work)?;
    let addr = handle.addr();
    let secs = budget.as_secs_f64();
    let mut gen = RequestGen::new(seed, model.population.n_rows());
    let requests: Vec<String> = (0..200)
        .map(|_| gen.next_csv(&model.population))
        .collect::<Result<_, _>>()?;

    // Unloaded ping round trip.
    let mut client = Client::connect(addr).msg("connect")?;
    let pings: Vec<u8> = vec![0; 300];
    out.set(
        "serve.ping_rtt_us",
        median_us(&pings, |_| client.ping().expect("ping")),
    );

    // Registry rescan of the unchanged directory, as before every batch.
    let (mut registry, _) =
        ModelRegistry::open(work.registry(), NeighborBackend::Auto).msg("open registry")?;
    let scans: Vec<u8> = vec![0; 300];
    out.set(
        "serve.registry_scan_ms",
        median_us(&scans, |_| {
            registry.scan().expect("scan");
        }) / 1e3,
    );

    // Wire encode/decode of the workload's payloads.
    let reqs: Vec<Request> = requests
        .iter()
        .enumerate()
        .map(|(i, csv)| Request::Anonymize {
            id: i as u64 + 1,
            model: MODEL_ID.to_string(),
            csv: csv.clone(),
        })
        .collect();
    let responses: Vec<Response> = requests
        .iter()
        .enumerate()
        .map(|(i, csv)| {
            let (csv, report) = model.replay(csv)?;
            Ok(Response::Anonymized {
                id: i as u64 + 1,
                csv,
                report,
            })
        })
        .collect::<Result<_, String>>()?;
    let req_bytes: Vec<Vec<u8>> = reqs.iter().map(Request::encode).collect();
    let resp_bytes: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
    let ser = [
        (
            "ser.request_encode_us",
            median_us(&reqs, |r| drop(std::hint::black_box(r.encode()))),
        ),
        (
            "ser.request_decode_us",
            median_us(&req_bytes, |b| drop(Request::decode(b))),
        ),
        (
            "ser.response_encode_us",
            median_us(&responses, |r| drop(std::hint::black_box(r.encode()))),
        ),
        (
            "ser.response_decode_us",
            median_us(&resp_bytes, |b| drop(Response::decode(b))),
        ),
    ];
    for (name, v) in ser {
        out.set(name, v);
    }

    // The per-request work replayed in-process.
    let mut replays = Vec::new();
    let started = Instant::now();
    for csv in requests.iter().cycle() {
        if replays.len() >= 20 && started.elapsed().as_secs_f64() >= secs * REPLAY_SHARE {
            break;
        }
        let t0 = Instant::now();
        model.replay(csv)?;
        replays.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let service = median(&replays);
    out.set("serve.service_ms", service);

    // Served latency at the two fixed rates.
    let (low, high) = fixed_rates(addr, &model, &mut gen, secs, seed, out)?;
    out.set("lat_p50_ms.low", low.p50());
    out.set("lat_p99_ms.low", low.p99());
    out.set("lat_p50_ms.high", high.p50());
    out.set("lat_p99_ms.high", high.p99());
    let max_rate = LADDER
        .iter()
        .zip([&low, &high])
        .take_while(|(_, step)| step.meets_limit())
        .last()
        .map_or(0.0, |(&rate, _)| rate);
    out.set("max_rate_rps", max_rate);
    let attributed = service
        + ser.iter().map(|(_, us)| us / 1e3).sum::<f64>()
        + out.metrics["serve.ping_rtt_us"] / 1e3;
    out.set("serve.unattributed_ms", low.p50() - attributed);
    out.set("serve.overhead_ratio", low.p50() / service);
    out.set("serve.wait_ms.high", high.p50() - attributed);
    let lags: Vec<f64> = low.lag_ms.iter().chain(&high.lag_ms).copied().collect();
    out.set("loadgen.lag_ms_p99", percentile(&lags, 99.0));
    let stats = handle.stats();
    out.set("serve.served", stats.served as f64);
    out.set("serve.busy", stats.busy_rejections as f64);
    out.set("serve.timeouts", stats.timeouts as f64);
    out.notes.push(format!(
        "serve layers: open loop, one connection, batch_workers = nproc; \
         serve.overhead_ratio base: serve.service_ms = {service:.3} ms (in-process replay of the \
         same requests)"
    ));
    out.notes.push(low.describe());
    out.notes.push(high.describe());
    handle
        .shutdown(Duration::from_secs(30))
        .msg("drain server")
        .map(drop)
}
