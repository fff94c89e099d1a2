//! The batch workloads: `kfirst-census-mcd` and `stream-pii50k`. Each
//! operation is one whole CSV-to-CSV release, run back to back by one
//! closed-loop client.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tclose_compliance::{ComplianceConfig, ComplianceEngine};
use tclose_core::{
    verify_k_anonymity, verify_t_closeness_with, Algorithm, Anonymizer, Confidential, GlobalFit,
    KAnonymityFirst, NeighborBackend, TCloseClusterer, TClosenessFirst, TClosenessParams,
};
use tclose_metrics::sse::normalized_sse;
use tclose_microagg::{aggregate_columns, Clustering};
use tclose_microdata::csv::{read_csv_auto, write_csv, CsvAppendWriter, CsvChunks};
use tclose_microdata::{AttributeRole, NormalizeMethod, Table};
use tclose_parallel::{parallel_map_with, Parallelism};
use tclose_stream::{fit_auto, ShardedAnonymizer, DEFAULT_SHARD_ROWS};

use crate::catalog::{K, KFIRST, T};
use crate::common::{
    audit_release_file, closed_loop, load_with_roles, n_inputs, same_bytes, save, OrMsg, Outcome,
    WorkDir, CENSUS_ROLES, PII_ROLES, STREAM_ROWS,
};
use crate::stats::{mean, median};
use crate::trace::{breakdown, Recorder, SpanId};

/// The compliance policy of the stream workload.
const POLICY: &str = "\
[compliance]
profile = \"hipaa\"
strategy = \"tokenize\"
key = \"tcbench-key\"

[compliance.audit]
enabled = true
salt = \"tcbench\"
";

/// Operations a measured phase runs at least, whatever its budget.
const MIN_OPS: usize = 3;
/// Share of the kfirst traced run's budget spent on the serve-layer
/// probes.
const SERVE_PROBE_SHARE: f64 = 0.45;

/// The kfirst set-up: parameter validation, worker resolution and the
/// Alg. 2 anonymizer every operation runs.
fn kfirst_setup() -> Result<Anonymizer, String> {
    TClosenessParams::new(K, T).msg("parameters")?;
    Ok(Anonymizer::new(K, T)
        .algorithm(Algorithm::KAnonymityFirst)
        .with_parallelism(Parallelism::auto()))
}

/// One untraced kfirst operation: exactly the CLI's `anonymize`
/// (non-stream) path. Returns the release's normalized SSE.
fn anonymize_op(anonymizer: &Anonymizer, input: &Path, output: &Path) -> Result<f64, String> {
    let table = load_with_roles(input, &CENSUS_ROLES)?;
    let out = anonymizer.anonymize(&table).msg("anonymize")?;
    let released = out.table.drop_identifiers().msg("drop identifiers")?;
    save(&released, output)?;
    Ok(out.report.sse)
}

/// Sets `rows_per_s` from the wall times of a closed loop that released
/// input `op mod rows.len()` at operation `op`: all inputs' rows over the
/// sum of each input's median wall time, so the mix of inputs, not one
/// input's share of the loop, decides the figure.
fn throughput(out: &mut Outcome, walls: &[f64], rows: &[usize]) {
    let n = rows.len();
    let per_input: Vec<f64> = (0..n)
        .map(|i| median(&walls.iter().skip(i).step_by(n).copied().collect::<Vec<_>>()))
        .collect();
    let total_ms: f64 = per_input.iter().sum();
    out.set(
        "rows_per_s",
        rows.iter().sum::<usize>() as f64 / (total_ms / 1e3),
    );
    out.notes.push(format!(
        "operations timed {} (closed loop, one in flight, {n} input data set(s)); median \
         operation {:.3} ms",
        walls.len(),
        median(walls)
    ));
}

/// `kfirst-census-mcd`, tracing off. Operation `i` releases input
/// `i mod n` (see [`n_inputs`]).
pub fn run_kfirst(work: &WorkDir, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let anonymizer = kfirst_setup()?;
    let n = n_inputs(KFIRST);
    let rows: Vec<usize> = (0..n)
        .map(|i| Ok(load_with_roles(&work.input(i), &CENSUS_ROLES)?.n_rows()))
        .collect::<Result<_, String>>()?;

    // Each input's first release is the reference every later one must
    // equal byte for byte; references are audited after the timed loop.
    let references: Vec<PathBuf> = (0..n)
        .map(|i| work.file(&format!("reference-{i}.csv")))
        .collect();
    let sse: Vec<f64> = (0..n)
        .map(|i| anonymize_op(&anonymizer, &work.input(i), &references[i]))
        .collect::<Result<_, _>>()?;
    out.attempted += n as u64;
    let output = work.file("release.csv");
    let timed = closed_loop(
        budget,
        MIN_OPS.max(n),
        kfirst_setup,
        |op| {
            let i = op % n;
            let s = anonymize_op(&anonymizer, &work.input(i), &output)?;
            if s.to_bits() != sse[i].to_bits() || !same_bytes(&output, &references[i])? {
                return Err("release differs from the input's first release".into());
            }
            Ok(())
        },
        &mut out,
    )?;
    out.set("peak_rss_mb", crate::sys::peak_rss_mib()?);
    for (i, reference) in references.iter().enumerate() {
        if let Err(e) = audit_release_file(reference, &CENSUS_ROLES, rows[i]) {
            out.problem(format!("reference release {i}: {e}"));
            out.failed = out.attempted;
        }
    }
    out.set("release_sse", mean(&sse));
    out.set("setup_s", timed.setup_s);
    throughput(&mut out, &timed.walls, &rows);
    Ok(out)
}

/// The traced re-composition of [`anonymize_op`]: the same public calls
/// `Anonymizer::anonymize` makes (fit, embed, bind, cluster, aggregate,
/// audit), each inside a span. Returns the clustering and the bound
/// confidential model for the EMD probe.
fn anonymize_traced(
    input: &Path,
    output: &Path,
    rec: &Recorder,
    op: u32,
) -> Result<(Clustering, Confidential), String> {
    let root = rec.open("op", None, op);
    let mut table = rec.span("microdata.csv_read_ms", root, || {
        let file = File::open(input).msg("open input")?;
        read_csv_auto(BufReader::new(file)).msg("read csv")
    })?;
    CENSUS_ROLES.apply(&mut table)?;
    let params = TClosenessParams::new(K, T).msg("params")?;
    let fit = rec.span("core.fit_ms", root, || {
        GlobalFit::fit(&table, NormalizeMethod::ZScore).msg("fit")
    })?;
    let released = apply_traced(
        &fit,
        &table,
        params,
        Algorithm::KAnonymityFirst,
        None,
        rec,
        root,
    )?;
    let (masked, clustering, conf) = released;
    rec.span("microdata.csv_write_ms", root, || {
        let released = masked.drop_identifiers().msg("drop identifiers")?;
        let file = File::create(output).msg("create output")?;
        write_csv(&released, BufWriter::new(file)).msg("write csv")
    })?;
    rec.add(op, "core.clusters", clustering.n_clusters() as f64);
    rec.close(root);
    Ok((clustering, conf))
}

/// `FittedAnonymizer::apply_shard` re-composed from public calls, each in
/// a span under `parent`: embed, bind the confidential model, cluster,
/// aggregate, verify k, verify t, SSE. `par` is the anonymizer's pinned
/// parallelism (`None` leaves each step on its default). Returns the
/// masked table, the clustering and the bound confidential model.
fn apply_traced(
    fit: &GlobalFit,
    shard: &Table,
    params: TClosenessParams,
    algorithm: Algorithm,
    par: Option<Parallelism>,
    rec: &Recorder,
    parent: SpanId,
) -> Result<(Table, Clustering, Confidential), String> {
    let qi = fit.qi();
    let m = rec.span("core.embed_ms", parent, || {
        fit.embedding().embed(shard, qi).msg("embed")
    })?;
    let conf = rec.span("core.rebind_ms", parent, || {
        let c = fit.confidential();
        if shard.n_rows() == fit.n_records() && c.n_bound() == fit.n_records() {
            Ok(c.clone())
        } else {
            c.rebind(shard).msg("rebind")
        }
    })?;
    let clustering = rec.span("core.partition_ms", parent, || {
        cluster(algorithm, par, &m, &conf, params)
    })?;
    clustering
        .check_min_size(params.k.min(shard.n_rows()))
        .msg("cluster sizes")?;
    let released = rec.span("microagg.aggregate_ms", parent, || {
        aggregate_columns(shard, qi, &clustering).msg("aggregate")
    })?;
    rec.span("core.verify_k_ms", parent, || {
        verify_k_anonymity(&released).msg("verify k")
    })?;
    rec.span("core.verify_t_ms", parent, || {
        verify_t_closeness_with(&released, &conf, par.unwrap_or_else(Parallelism::auto))
            .msg("verify t")
    })?;
    rec.span("metrics.sse_ms", parent, || {
        normalized_sse(shard, &released, qi).msg("sse")
    })?;
    Ok((released, clustering, conf))
}

/// The clusterer `Anonymizer` runs for `algorithm`, built the same way
/// (backend `Auto`; one worker per core unless pinned).
fn cluster(
    algorithm: Algorithm,
    par: Option<Parallelism>,
    m: &tclose_microagg::Matrix,
    conf: &Confidential,
    params: TClosenessParams,
) -> Result<Clustering, String> {
    let (backend, par) = (NeighborBackend::Auto, par.unwrap_or_else(Parallelism::auto));
    Ok(match algorithm {
        Algorithm::TClosenessFirst => TClosenessFirst::new()
            .with_backend(backend)
            .with_parallelism(par)
            .cluster(m, conf, params),
        Algorithm::KAnonymityFirst => KAnonymityFirst::new()
            .with_backend(backend)
            .with_parallelism(par)
            .cluster(m, conf, params),
        other => return Err(format!("no traced clusterer for {}", other.name())),
    })
}

/// Times `Confidential::emd_after_swap` on a fixed seeded set of
/// (cluster, out, in) triples drawn from `clustering`. Returns the median
/// ns per call and the domain bins one call walks.
fn emd_swap_probe(
    conf: &Confidential,
    clustering: &Clustering,
    seed: u64,
    budget: Duration,
) -> (f64, f64) {
    let clusters = clustering.clusters();
    let n = clustering.n_records();
    let mut owner = vec![0usize; n];
    for (c, members) in clusters.iter().enumerate() {
        for &r in members {
            owner[r] = c;
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_e3d5);
    let triples: Vec<_> = (0..256)
        .map(|_| {
            let c = rng.gen_range(0..clusters.len());
            let out = clusters[c][rng.gen_range(0..clusters[c].len())];
            let mut inn = rng.gen_range(0..n);
            while owner[inn] == c && clusters[c].len() < n {
                inn = rng.gen_range(0..n);
            }
            (conf.histograms(&clusters[c]), out, inn)
        })
        .collect();
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || started.elapsed() < budget {
        let t0 = Instant::now();
        for (h, out, inn) in &triples {
            black_box(conf.emd_after_swap(black_box(h), *out, *inn));
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / triples.len() as f64);
    }
    let bins: usize = conf.emds().iter().map(|e| e.m()).sum();
    (median(&per_call), bins as f64)
}

/// Per-layer metrics from the recorded spans: per-operation medians of
/// self time (and of per-operation values), plus trace overhead.
fn layer_metrics(rec: &Recorder, ops: &[u32], out: &mut Outcome) {
    let b = breakdown(&rec.spans());
    let values = rec.values();
    for m in crate::catalog::PER_LAYER {
        let per_op: Vec<f64> = ops
            .iter()
            .filter_map(|&op| {
                b.self_ms
                    .get(&(op, m.name))
                    .or_else(|| values.get(&(op, m.name)))
                    .copied()
            })
            .collect();
        if !per_op.is_empty() {
            out.set(m.name, median(&per_op));
        }
    }
    let cov: Vec<f64> = ops
        .iter()
        .filter_map(|op| b.coverage.get(op))
        .map(|(wall, covered)| covered / wall)
        .collect();
    out.notes.push(format!(
        "named layer spans cover {:.1}% of operation wall time (median over {} traced operations)",
        100.0 * median(&cov),
        cov.len()
    ));
}

/// Alternates untraced and traced operations for `budget` (at least
/// `min_ops` pairs); every traced release must equal the untraced release
/// of its pair byte for byte. Reports the per-layer medians of the traced
/// operations and `trace.overhead_ratio`, and returns what the last
/// traced operation returned.
fn alternate<P>(
    work: &WorkDir,
    budget: Duration,
    min_ops: usize,
    rec: &Recorder,
    out: &mut Outcome,
    mut untraced: impl FnMut(u32, &Path) -> Result<(), String>,
    mut traced: impl FnMut(u32, &Path) -> Result<P, String>,
) -> Result<Option<P>, String> {
    let (untraced_out, traced_out) = (work.file("untraced.csv"), work.file("traced.csv"));
    let (mut untraced_s, mut traced_s, mut ops) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    let mut op = 0u32;
    while ops.len() < min_ops || started.elapsed() < budget {
        let t0 = Instant::now();
        untraced(op, &untraced_out)?;
        untraced_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let r = traced(op, &traced_out);
        traced_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match r {
            Ok(parts) if same_bytes(&traced_out, &untraced_out)? => last = Some(parts),
            Ok(_) => {
                out.failed += 1;
                out.problem(format!(
                    "traced operation {op}: release differs from untraced"
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("traced operation {op}: {e}"));
            }
        }
        ops.push(op);
        op += 1;
    }
    layer_metrics(rec, &ops, out);
    out.set(
        "trace.overhead_ratio",
        median(&traced_s) / median(&untraced_s),
    );
    Ok(last)
}

/// Sets the EMD-swap probe metrics from a traced operation's release.
fn probe_emd(parts: Option<(Clustering, Confidential)>, seed: u64, out: &mut Outcome) {
    if let Some((clustering, conf)) = parts {
        let (ns, bins) = emd_swap_probe(&conf, &clustering, seed, Duration::from_millis(300));
        out.set("metrics.emd_swap_ns", ns);
        out.set("metrics.emd_bins", bins);
    }
}

/// Traced run of `kfirst-census-mcd`, followed by the serve-layer probes
/// (see [`crate::serve`]).
pub fn run_kfirst_traced(
    seed: u64,
    work: &WorkDir,
    budget: Duration,
    rec: &Recorder,
) -> Result<Outcome, String> {
    let n = n_inputs(KFIRST);
    let mut out = Outcome::default();
    let anonymizer = kfirst_setup()?;
    let probes = budget.mul_f64(SERVE_PROBE_SHARE);
    let last = alternate(
        work,
        budget - probes,
        MIN_OPS.max(n),
        rec,
        &mut out,
        |op, output| anonymize_op(&anonymizer, &work.input(op as usize % n), output).map(drop),
        |op, output| anonymize_traced(&work.input(op as usize % n), output, rec, op),
    )?;
    probe_emd(last, seed, &mut out);
    crate::serve::layer_probes(seed, work, probes, &mut out)?;
    Ok(out)
}

fn policy_engine() -> Result<ComplianceEngine, String> {
    let cfg = ComplianceConfig::from_toml_str(POLICY).msg("parse policy")?;
    ComplianceEngine::new(cfg).msg("compile policy")
}

/// The stream set-up: parameter validation, the policy parse,
/// `ComplianceEngine::new`, worker resolution and the sharded anonymizer
/// every operation runs.
fn stream_setup() -> Result<ShardedAnonymizer, String> {
    TClosenessParams::new(K, T).msg("parameters")?;
    Ok(ShardedAnonymizer::new(K, T)
        .algorithm(Algorithm::TClosenessFirst)
        .with_parallelism(Parallelism::workers(crate::sys::nproc()))
        .with_compliance(policy_engine()?))
}

/// One untraced stream operation: `tclose anonymize --stream` with the
/// policy. Checks the scrub count. Returns the release's SSE.
fn stream_op(sharded: &ShardedAnonymizer, input: &Path, output: &Path) -> Result<f64, String> {
    let report = sharded
        .anonymize_file(
            input,
            output,
            &PII_ROLES.qi_owned(),
            &PII_ROLES.conf_owned(),
        )
        .msg("stream release")?;
    if report.scrubbed_cells != 5 * STREAM_ROWS {
        return Err(format!(
            "scrubbed {} cells, expected {}",
            report.scrubbed_cells,
            5 * STREAM_ROWS
        ));
    }
    Ok(report.sse)
}

/// Checks that no planted identifier of the input survives in the
/// release: no release cell equals a planted name, SSN, email or phone
/// value, and no cell contains an email address.
fn check_no_planted_pii(input: &Path, released: &Table) -> Result<(), String> {
    let planted =
        read_csv_auto(BufReader::new(File::open(input).msg("open input")?)).msg("read input")?;
    let mut values = std::collections::HashSet::new();
    for name in ["NAME", "SSN", "EMAIL", "PHONE"] {
        let c = planted.schema().index_of(name).msg("planted column")?;
        let attr = &planted.schema().attributes()[c];
        for &code in planted.categorical_column(c).msg("planted column")? {
            values.insert(
                attr.dictionary
                    .label(code)
                    .ok_or("unknown label")?
                    .to_owned(),
            );
        }
    }
    for (c, attr) in released.schema().attributes().iter().enumerate() {
        if !attr.kind.is_categorical() {
            continue;
        }
        for &code in released.categorical_column(c).msg("release column")? {
            let cell = attr.dictionary.label(code).ok_or("unknown label")?;
            if values.contains(cell) || cell.contains('@') {
                return Err(format!(
                    "planted identifier survives in {}: {cell}",
                    attr.name
                ));
            }
        }
    }
    Ok(())
}

/// `stream-pii50k`, tracing off.
pub fn run_stream(work: &WorkDir, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sharded = stream_setup()?;
    let input = work.input(0);
    let reference = work.file("reference.csv");
    let sse = stream_op(&sharded, &input, &reference)?;
    out.attempted += 1;
    let output = work.file("release.csv");
    let timed = closed_loop(
        budget,
        MIN_OPS,
        stream_setup,
        |_| {
            let s = stream_op(&sharded, &input, &output)?;
            if s.to_bits() != sse.to_bits() || !same_bytes(&output, &reference)? {
                return Err("release differs from the first operation's".into());
            }
            Ok(())
        },
        &mut out,
    )?;
    out.set("peak_rss_mb", crate::sys::peak_rss_mib()?);
    let audit = audit_release_file(&reference, &PII_ROLES, STREAM_ROWS)
        .and_then(|released| check_no_planted_pii(&input, &released));
    if let Err(e) = audit {
        out.problem(format!("reference release: {e}"));
        out.failed = out.attempted;
    }
    out.set("release_sse", sse);
    out.set("setup_s", timed.setup_s);
    throughput(&mut out, &timed.walls, &[STREAM_ROWS]);
    Ok(out)
}

/// Splits `CsvChunks` output into shards the way the streaming engine
/// does: a final chunk shorter than `tail_min` merges into its
/// predecessor.
struct Shards<R: std::io::Read> {
    chunks: CsvChunks<R>,
    pending: Option<Table>,
    started: bool,
    tail_min: usize,
}

impl<R: std::io::Read> Shards<R> {
    fn next_chunk(&mut self, rec: &Recorder, root: SpanId) -> Result<Option<Table>, String> {
        rec.span("microdata.csv_read_ms", root, || {
            self.chunks.next().transpose().msg("read chunk")
        })
    }

    fn next(&mut self, rec: &Recorder, root: SpanId) -> Result<Option<Table>, String> {
        let current = match self.pending.take() {
            Some(t) => t,
            None if self.started => return Ok(None),
            None => match self.next_chunk(rec, root)? {
                Some(t) => t,
                None => return Ok(None),
            },
        };
        self.started = true;
        match self.next_chunk(rec, root)? {
            None => Ok(Some(current)),
            Some(next) if next.n_rows() < DEFAULT_SHARD_ROWS && next.n_rows() < self.tail_min => {
                let mut merged = Table::new(next.schema().clone());
                for row in current.rows().chain(next.rows()) {
                    merged.push_row(&row).msg("merge tail")?;
                }
                Ok(Some(merged))
            }
            Some(next) => {
                self.pending = Some(next);
                Ok(Some(current))
            }
        }
    }
}

/// The traced re-composition of [`stream_op`]: pass 1 (`fit_auto`), then
/// chunked reads, the tail merge, per-shard scrub and apply on `nproc`
/// workers, and ordered appends — the public calls the engine makes, each
/// in a span. Returns one shard's clustering and bound model for the EMD
/// probe.
fn stream_traced(
    engine: &ComplianceEngine,
    input: &Path,
    output: &Path,
    rec: &Recorder,
    op: u32,
) -> Result<(Clustering, Confidential), String> {
    let root = rec.open("op", None, op);
    let fit = rec.span("stream.fit_pass_ms", root, || {
        let file = File::open(input).msg("open input")?;
        fit_auto(
            BufReader::new(file),
            &PII_ROLES.qi_owned(),
            &PII_ROLES.conf_owned(),
            NormalizeMethod::ZScore,
        )
        .msg("fit pass")
    })?;
    let params = TClosenessParams::new(K, T).msg("params")?;
    let seq = Some(Parallelism::sequential());
    let pass2 = Instant::now();
    let schema = fit.schema().clone();
    let chunks = rec.span("microdata.csv_read_ms", root, || {
        let file = File::open(input).msg("open input")?;
        CsvChunks::new(BufReader::new(file), schema.clone(), DEFAULT_SHARD_ROWS)
            .msg("chunked reader")
    })?;
    let mut shards = Shards {
        chunks,
        pending: None,
        started: false,
        tail_min: (2 * K).max(DEFAULT_SHARD_ROWS / 2),
    };
    let keep: Vec<usize> = (0..schema.n_attributes())
        .filter(|&i| {
            let a = &schema.attributes()[i];
            a.role != AttributeRole::Identifier && !engine.config().drop_columns.contains(&a.name)
        })
        .collect();
    let mut writer = rec.span("microdata.csv_write_ms", root, || {
        let release_schema = schema.project(&keep).msg("release schema")?;
        let file = File::create(output).msg("create output")?;
        CsvAppendWriter::new(BufWriter::new(file), &release_schema).msg("append writer")
    })?;

    let workers = crate::sys::nproc();
    let par = Parallelism::workers(workers);
    let (mut next_row, mut busy_s, mut n_shards, mut cells, mut clusters) = (0, 0.0, 0, 0, 0);
    let mut probe = None;
    loop {
        let mut batch = Vec::with_capacity(workers);
        while batch.len() < workers {
            match shards.next(rec, root)? {
                Some(t) => {
                    let offset = next_row;
                    next_row += t.n_rows();
                    batch.push((t, offset));
                }
                None => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        let results = parallel_map_with(batch, par, |(shard, offset)| {
            let t0 = Instant::now();
            let r = (|| {
                let scrubbed = rec.span("compliance.scrub_ms", root, || {
                    engine.scrub_table(shard, *offset).msg("scrub")
                })?;
                let applied = apply_traced(
                    &fit,
                    &scrubbed.table,
                    params,
                    Algorithm::TClosenessFirst,
                    seq,
                    rec,
                    root,
                )?;
                Ok::<_, String>((applied, scrubbed.cells))
            })();
            (r, t0.elapsed().as_secs_f64())
        });
        for (r, secs) in results {
            let ((masked, clustering, conf), c) = r?;
            busy_s += secs;
            n_shards += 1;
            cells += c;
            clusters += clustering.n_clusters();
            let released = rec.span("microdata.csv_write_ms", root, || {
                masked.drop_identifiers().msg("drop identifiers")
            })?;
            let released = rec.span("compliance.scrub_ms", root, || {
                engine
                    .drop_release_columns(&released)
                    .msg("drop policy columns")
            })?;
            rec.span("microdata.csv_write_ms", root, || {
                writer.append(&released).msg("append")
            })?;
            probe.get_or_insert((clustering, conf));
        }
    }
    rec.span("microdata.csv_write_ms", root, || {
        writer.finish().msg("finish")?.flush().msg("flush release")
    })?;
    let pass2_s = pass2.elapsed().as_secs_f64();
    rec.add(op, "stream.shards", n_shards as f64);
    rec.add(op, "compliance.cells_scrubbed", cells as f64);
    rec.add(op, "core.clusters", clusters as f64);
    rec.add(
        op,
        "parallel.busy_ratio",
        busy_s / (workers as f64 * pass2_s),
    );
    rec.close(root);
    if cells != 5 * STREAM_ROWS {
        return Err(format!(
            "scrubbed {cells} cells, expected {}",
            5 * STREAM_ROWS
        ));
    }
    probe.ok_or_else(|| "input has no records".to_string())
}

/// Traced run of `stream-pii50k`.
pub fn run_stream_traced(
    seed: u64,
    work: &WorkDir,
    budget: Duration,
    rec: &Recorder,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = work.input(0);
    let (sharded, engine) = (stream_setup()?, policy_engine()?);
    let last = alternate(
        work,
        budget,
        MIN_OPS,
        rec,
        &mut out,
        |_, output| stream_op(&sharded, &input, output).map(drop),
        |op, output| stream_traced(&engine, &input, output, rec, op),
    )?;
    let metric = |name| out.metrics.get(name).copied().unwrap_or(0.0);
    let (scrub, cells) = (
        metric("compliance.scrub_ms"),
        metric("compliance.cells_scrubbed"),
    );
    if cells > 0.0 {
        out.set("compliance.scrub_ns_per_cell", scrub * 1e6 / cells);
    }
    probe_emd(last, seed, &mut out);
    Ok(out)
}
