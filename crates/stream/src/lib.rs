//! # tclose-stream
//!
//! Sharded, bounded-memory anonymization of CSV files that never fit in
//! RAM — the out-of-core engine on top of the fit/apply split of
//! `tclose-core`.
//!
//! ## How it works
//!
//! The paper's algorithms (Soria-Comas et al., ICDE 2016) need *global*
//! knowledge exactly once: the quasi-identifier normalization statistics
//! and the ordered-EMD domain + global confidential distribution (Li et
//! al., ICDE 2007). Everything else — clustering, aggregation,
//! verification — is local to a working set. The engine therefore makes
//! **two passes** over the input file:
//!
//! 1. **Fit** — one streaming scan accumulating mergeable statistics
//!    ([`RunningStats`](tclose_microdata::RunningStats) per QI,
//!    [`DomainAccumulator`](tclose_metrics::emd::DomainAccumulator) per
//!    confidential attribute) into a frozen
//!    [`GlobalFit`]. Memory is bounded by the
//!    number of *distinct* confidential values, never the record count;
//!    pass-through columns only have their kind inferred.
//! 2. **Apply** — re-read the file in shards of `shard_rows` records
//!    through [`CsvChunks`] and release them through one
//!    [`ordered_pipeline`]: the calling thread reads the shards and
//!    appends the released ones to the output **in input order** through
//!    [`CsvAppendWriter`], while `workers` threads that live for the whole
//!    pass run [`release_shard`], a free worker taking the next shard at
//!    once. Peak residency is at most `workers + 1` shards in flight (read
//!    but not yet written), plus the one chunk of lookahead that merges a
//!    ragged tail, plus the fit. A shard carries its own labels of each
//!    categorical pass-through column (its codes are chunk-local, see
//!    [`CsvChunks`]), so no dictionary of such a column grows with the
//!    file; quasi-identifier and confidential dictionaries run across
//!    shards and are shared by every shard in flight (a
//!    [`Dictionary`](tclose_microdata::Dictionary) is copy-on-write). Only
//!    a label the fit never saw, as when a model is applied to another
//!    file, makes the reader copy one that an earlier shard still
//!    holds. Under a compliance policy that writes an audit log, each
//!    shard in flight also carries its own log lines, appended to the log
//!    right after the shard's rows, so a logged run holds at most
//!    `workers + 1` shards' lines; a policy without a log makes no audit
//!    records at all, and the run only counts them.
//!
//! [`release_shard`] is the one release path of the workspace: the
//! in-memory `tclose anonymize` and `tclose apply` call it once on the
//! whole table, and the serving daemon once per request. With a
//! compliance policy installed ([`ShardedAnonymizer::with_compliance`]),
//! it scrubs each shard of direct identifiers (SSNs, emails, phone
//! numbers, …) *before* anonymization. The scrub is a pure per-cell
//! function of the policy, so the release stays invariant to shard size
//! and worker count, and byte-identical to scrubbing the file
//! monolithically.
//!
//! Every shard is audited against the **global** confidential
//! distribution, so each released equivalence class is t-close in the
//! sense that matters. Because the ordered EMD is jointly convex, classes
//! that collide across shards in the merged release only move closer to
//! the global distribution — the per-shard audits soundly bound the merged
//! file (see [`StreamReport`]).
//!
//! Output is **invariant to the worker count** at a fixed shard size: the
//! fit pass is a sequential scan, shards are deterministic functions of
//! the frozen fit, and writes are ordered. So is the error a failing run
//! reports: the first failure in input order, whether the reader, a
//! release or the writer raised it.
//!
//! ## Example
//!
//! ```no_run
//! use tclose_stream::ShardedAnonymizer;
//!
//! let report = ShardedAnonymizer::new(5, 0.25)
//!     .shard_rows(10_000)
//!     .anonymize_file(
//!         "census.csv".as_ref(),
//!         "census_anon.csv".as_ref(),
//!         &["AGE".into(), "ZIP".into()],
//!         &["WAGE".into()],
//!     )
//!     .unwrap();
//! assert!(report.satisfies_request());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fit_pass;
mod release;
mod report;

pub use error::{Error, Result};
pub use fit_pass::fit_auto;
pub use release::{release_shard, ReleasedShard};
pub use report::StreamReport;

use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::Path;
use std::time::{Duration, Instant};

use tclose_compliance::ComplianceEngine;
use tclose_core::{
    Algorithm, Anonymizer, FittedAnonymizer, GlobalFit, NeighborBackend, TClosenessParams,
};
use tclose_microdata::csv::{read_csv_auto, CsvAppendWriter, CsvChunks};
use tclose_microdata::{AttributeRole, Column, NormalizeMethod, PartialFile, Schema, Table};
use tclose_parallel::{ordered_pipeline, Parallelism};

/// Default shard size (records per shard) when none is configured.
pub const DEFAULT_SHARD_ROWS: usize = 10_000;

/// Builder-style front door of the streaming engine, mirroring
/// [`Anonymizer`] plus the sharding knobs.
#[derive(Debug, Clone)]
pub struct ShardedAnonymizer {
    k: usize,
    t: f64,
    algorithm: Algorithm,
    normalize: NormalizeMethod,
    shard_rows: usize,
    par: Parallelism,
    backend: NeighborBackend,
    compliance: Option<ComplianceEngine>,
}

impl ShardedAnonymizer {
    /// An engine for the given `(k, t)` pair with the paper's default
    /// algorithm (t-closeness-first), z-score normalization,
    /// [`DEFAULT_SHARD_ROWS`] records per shard, one worker per core, and
    /// the automatic neighbor-search backend.
    pub fn new(k: usize, t: f64) -> Self {
        ShardedAnonymizer {
            k,
            t,
            algorithm: Algorithm::TClosenessFirst,
            normalize: NormalizeMethod::ZScore,
            shard_rows: DEFAULT_SHARD_ROWS,
            par: Parallelism::auto(),
            backend: NeighborBackend::Auto,
            compliance: None,
        }
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the quasi-identifier normalization.
    pub fn normalization(mut self, method: NormalizeMethod) -> Self {
        self.normalize = method;
        self
    }

    /// Sets the shard size (maximum records per shard). A ragged final
    /// chunk smaller than `max(2k, shard_rows / 2)` is merged into its
    /// predecessor so no shard is ever too small to carry the privacy
    /// guarantees.
    pub fn shard_rows(mut self, rows: usize) -> Self {
        self.shard_rows = rows;
        self
    }

    /// Pins the worker count of pass 2: how many shards are released at
    /// once. [`ShardedAnonymizer::anonymize_file`] runs the kernels inside
    /// each shard on one thread, so the workers never oversubscribe the
    /// machine; [`ShardedAnonymizer::apply_file_with`] runs them with the
    /// parallelism its `fitted` anonymizer was built with. Output is
    /// identical for any value.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Selects the neighbor-search backend of the per-shard clustering
    /// (default [`NeighborBackend::Auto`], which resolves **per shard**:
    /// each shard's matrix decides for its own row count, so small tails
    /// stay on flat scans while full shards use the kd-tree). Backends
    /// are exact — the release is identical for any choice.
    pub fn with_backend(mut self, backend: NeighborBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Installs a compliance policy: every shard is scrubbed through
    /// `engine` **before** anonymization, so direct identifiers (SSNs,
    /// emails, …) in categorical pass-through columns never reach the
    /// release, and the policy's `drop_columns` are removed from the
    /// output alongside schema identifiers.
    ///
    /// Scrubbing is a pure per-cell function of the policy, so the
    /// release stays byte-identical across shard sizes and worker counts,
    /// and identical to scrubbing the whole file monolithically. When the
    /// policy writes an audit log
    /// ([`ComplianceConfig::audit_log_path`](tclose_compliance::ComplianceConfig::audit_log_path)),
    /// pass 2 opens it before the release and appends each shard's lines,
    /// numbered by **global** input row, as that shard is written: the
    /// log is the same bytes for any shard size and worker count, and
    /// holds at most `workers + 1` shards' lines in memory. It appears at
    /// its path only when the run succeeds. Without a log no record is
    /// made; [`StreamReport::compliance_audits`] counts them either way.
    pub fn with_compliance(mut self, engine: ComplianceEngine) -> Self {
        self.compliance = Some(engine);
        self
    }

    /// Runs the fit pass only (pass 1) and returns the frozen global
    /// state, e.g. to apply the same fit to several files.
    pub fn fit_file(
        &self,
        input: &Path,
        qi: &[String],
        confidential: &[String],
    ) -> Result<GlobalFit> {
        self.check_shard_rows()?;
        let file = open(input)?;
        fit_pass::fit_auto(BufReader::new(file), qi, confidential, self.normalize)
    }

    /// Anonymizes `input` into `output` with the two-pass sharded engine.
    ///
    /// `qi` / `confidential` name the quasi-identifier and confidential
    /// columns (a name in both lists is treated as confidential, matching
    /// sequential role assignment). The `(k, t)` pair and the shard size
    /// are checked before the input is opened.
    pub fn anonymize_file(
        &self,
        input: &Path,
        output: &Path,
        qi: &[String],
        confidential: &[String],
    ) -> Result<StreamReport> {
        TClosenessParams::new(self.k, self.t)?;
        let fit_started = Instant::now();
        // Parallelism is spent *across* shards (the pipeline's workers in
        // pass 2); inside each shard the kernels run sequentially so
        // `workers` shards never oversubscribe the machine. Either split
        // yields bit-identical output — kernels are worker-count
        // independent.
        let fitted = Anonymizer::new(self.k, self.t)
            .algorithm(self.algorithm)
            .normalization(self.normalize)
            .with_parallelism(Parallelism::sequential())
            .with_backend(self.backend)
            .with_fit(self.fit_file(input, qi, confidential)?)?;
        let fit_time = fit_started.elapsed();

        let mut report = self.apply_file_with(&fitted, input, output)?;
        report.fit_time = fit_time;
        report.prefitted = false;
        Ok(report)
    }

    /// Pass 2 only: applies an already-fitted anonymizer — typically
    /// reconstructed from a saved
    /// [`ModelArtifact`](tclose_core::ModelArtifact) via
    /// [`FittedAnonymizer::from_artifact`](tclose_core::FittedAnonymizer::from_artifact)
    /// — to `input`, skipping the fit pass entirely.
    ///
    /// The privacy parameters, algorithm, and schema all come from
    /// `fitted`: the shards are parsed with its column kinds (ordinal
    /// attributes included) and lose the identifier columns it declares.
    /// Of this engine's own configuration only `shard_rows`, the worker
    /// count and the compliance policy are used. The returned report has
    /// [`StreamReport::prefitted`] set, [`StreamReport::fit_time`] zero,
    /// and output byte-identical to
    /// [`ShardedAnonymizer::anonymize_file`] with the same fit. For the
    /// engine's usual parallelism split (workers across shards,
    /// sequential kernels inside each — either choice is
    /// output-invariant), build `fitted` with `Parallelism::sequential()`.
    ///
    /// Each shard goes through [`release_shard`] on the pipeline's
    /// workers; the released shards are appended to `output` in input
    /// order, and their audit-log lines to the policy's log. Both are
    /// [`PartialFile`]s, renamed into place once the last shard is
    /// written, so a failed run leaves no release and no log, and a file
    /// already at either path stays as it was. The log is opened first, so
    /// an unwritable log path fails the run before any release is written.
    /// The error returned is the first failure in input order (see
    /// [`ordered_pipeline`]), so it does not depend on the worker count.
    pub fn apply_file_with(
        &self,
        fitted: &FittedAnonymizer,
        input: &Path,
        output: &Path,
    ) -> Result<StreamReport> {
        self.check_shard_rows()?;
        let started = Instant::now();
        let schema = fitted.global_fit().schema().clone();
        let reader = BufReader::new(open(input)?);
        let chunks = CsvChunks::new(reader, schema, self.shard_rows)?;
        // Never hand a too-small final shard to the clusterer: below
        // max(2k, shard/2) records it merges into its predecessor. k comes
        // from the fitted anonymizer, which may differ from this
        // builder's own `k`.
        let tail_min = (2 * fitted.params().k).max(self.shard_rows / 2);
        // Each shard carries its global starting row so compliance audits
        // report input-file row numbers.
        let mut shards = MergeTail::new(chunks, self.shard_rows, tail_min);
        let mut next_row = 0;
        let shards = std::iter::from_fn(|| shards.next().transpose()).map(|shard| {
            shard.map(|t| {
                let first_row = next_row;
                next_row += t.n_rows();
                (t, first_row)
            })
        });

        let mut log = match &self.compliance {
            Some(engine) => engine.open_audit_log()?,
            None => None,
        };
        let mut sink = Some(BufWriter::new(PartialFile::create(output).map_err(
            |e| Error::Io(format!("cannot create {}: {e}", output.display())),
        )?));
        // The header comes from the first released shard, so it names
        // exactly the columns `release_shard` keeps.
        let mut writer = None;
        let mut reports = Vec::new();
        let (mut scrubbed_cells, mut audit_records) = (0, 0);
        // This thread reads and writes while the workers release: at most
        // `workers + 1` shards in flight, appended in input order.
        ordered_pipeline(
            self.par,
            shards,
            |(shard, first_row): (Table, usize)| {
                release_shard(fitted, self.compliance.as_ref(), &shard, first_row)
            },
            |shard: ReleasedShard| {
                let writer = match &mut writer {
                    Some(w) => w,
                    None => writer.insert(CsvAppendWriter::new(
                        sink.take().expect("the sink is opened once"),
                        shard.table.schema(),
                    )?),
                };
                writer.append(&shard.table)?;
                if let Some(log) = &mut log {
                    log.append(&shard.audit_log)?;
                }
                reports.push(shard.report);
                scrubbed_cells += shard.scrubbed_cells;
                audit_records += shard.audit_records;
                Ok(())
            },
        )?;
        let Some(writer) = writer else {
            return Err(Error::Data {
                line: None,
                detail: "input has a header but no data records".into(),
            });
        };
        let written = |e| Error::Io(format!("cannot write {}: {e}", output.display()));
        let release = writer.finish()?.into_inner();
        release
            .map_err(|e| written(e.into_error()))?
            .commit()
            .map_err(written)?;
        if let Some(log) = log {
            log.commit()?;
        }
        let mut report =
            StreamReport::merge(reports, self.shard_rows, Duration::ZERO, started.elapsed());
        report.prefitted = true;
        report.scrubbed_cells = scrubbed_cells;
        report.compliance_audits = audit_records;
        Ok(report)
    }

    fn check_shard_rows(&self) -> Result<()> {
        if self.shard_rows == 0 {
            return Err(Error::Config("shard size must be at least 1".into()));
        }
        Ok(())
    }
}

/// Where the column roles of a table read by [`read_with_roles`] come
/// from.
#[derive(Debug, Clone, Copy)]
pub enum Roles<'a> {
    /// Quasi-identifier and confidential column names; a name in both
    /// lists is confidential.
    Named {
        /// Quasi-identifier columns.
        qi: &'a [String],
        /// Confidential columns.
        confidential: &'a [String],
    },
    /// Every role a fitted model's schema declares.
    Model(&'a Schema),
}

impl Roles<'_> {
    /// Assigns the roles to `schema` by column name.
    fn assign(self, schema: &mut Schema) -> tclose_microdata::Result<()> {
        match self {
            Roles::Named { qi, confidential } => {
                let qi = qi
                    .iter()
                    .map(|n| (n.as_str(), AttributeRole::QuasiIdentifier));
                let conf = confidential
                    .iter()
                    .map(|n| (n.as_str(), AttributeRole::Confidential));
                schema.set_roles(&qi.chain(conf).collect::<Vec<_>>())
            }
            Roles::Model(model) => {
                let roles: Vec<_> = model
                    .attributes()
                    .iter()
                    .map(|a| (a.name.as_str(), a.role))
                    .collect();
                schema.set_roles(&roles).map_err(|e| {
                    tclose_microdata::Error::InvalidSchema(format!(
                        "input does not match the model's schema: {e}"
                    ))
                })
            }
        }
    }
}

/// Reads a whole CSV into memory, inferring column kinds, and assigns
/// `roles`.
pub fn read_with_roles<R: Read>(reader: R, roles: Roles<'_>) -> Result<Table> {
    let mut table = read_csv_auto(reader)?;
    roles.assign(table.schema_mut())?;
    Ok(table)
}

/// One-chunk-lookahead adapter merging a too-small final chunk into its
/// predecessor. Every chunk before the last has exactly `chunk_rows`
/// records, so a short chunk is always the last one.
struct MergeTail<R: Read> {
    chunks: CsvChunks<R>,
    pending: Option<Table>,
    chunk_rows: usize,
    tail_min: usize,
    started: bool,
}

impl<R: Read> MergeTail<R> {
    fn new(chunks: CsvChunks<R>, chunk_rows: usize, tail_min: usize) -> Self {
        MergeTail {
            chunks,
            pending: None,
            chunk_rows,
            tail_min,
            started: false,
        }
    }

    fn next(&mut self) -> Result<Option<Table>> {
        let mut current = match self.pending.take() {
            Some(t) => t,
            None => {
                if self.started {
                    return Ok(None);
                }
                match self.chunks.next() {
                    None => return Ok(None),
                    Some(c) => c?,
                }
            }
        };
        self.started = true;
        match self.chunks.next() {
            None => Ok(Some(current)),
            Some(next) => {
                let next = next?;
                // A chunk shorter than `chunk_rows` is necessarily the
                // final one (all earlier chunks are full).
                if next.n_rows() < self.chunk_rows && next.n_rows() < self.tail_min {
                    // `next` is the ragged tail — fold it into `current`.
                    current = concat(&current, &next)?;
                    // Drain (the iterator is exhausted; this keeps the
                    // invariant that `pending == None` means done).
                    debug_assert!(self.chunks.next().is_none());
                    Ok(Some(current))
                } else {
                    self.pending = Some(next);
                    Ok(Some(current))
                }
            }
        }
    }
}

/// Concatenates two consecutive chunks of one reader into the table one
/// chunk of both would have been. Quasi-identifier and confidential codes
/// run across chunks, so the second chunk's dictionaries (which extend
/// the first's) serve both. A pass-through column's codes are its chunk's
/// own, so the columns are joined by label: the second chunk's labels,
/// held in the order they appear in it, are interned after the first's.
fn concat(a: &Table, b: &Table) -> Result<Table> {
    let mut attrs = Vec::with_capacity(b.n_cols());
    let mut columns = Vec::with_capacity(b.n_cols());
    let pairs = a.schema().attributes().iter().zip(b.schema().attributes());
    for (c, (first, second)) in pairs.enumerate() {
        let mut attr = second.clone();
        let mut column = a.column(c)?.clone();
        match (&mut column, b.column(c)?) {
            (Column::Cat(codes), Column::Cat(more)) if attr.is_categorical_pass_through() => {
                attr.dictionary = first.dictionary.clone();
                let code_of: Vec<u32> = second
                    .dictionary
                    .labels()
                    .map(|label| attr.dictionary.intern(label))
                    .collect();
                codes.extend(more.iter().map(|&code| code_of[code as usize]));
            }
            (Column::Cat(codes), Column::Cat(more)) => codes.extend_from_slice(more),
            (Column::F64(values), Column::F64(more)) => values.extend_from_slice(more),
            _ => unreachable!("the chunks of one reader share their column kinds"),
        }
        attrs.push(attr);
        columns.push(column);
    }
    Ok(Table::from_columns(Schema::new(attrs)?, columns)?)
}

fn open(path: &Path) -> Result<File> {
    File::open(path).map_err(|e| Error::Io(format!("cannot open {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use tclose_core::{verify_k_anonymity, verify_t_closeness, Confidential};
    use tclose_microdata::csv::read_csv_auto;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tclose_stream_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A deterministic synthetic file: `n` rows, numeric QIs, one
    /// confidential column with a small domain, one nominal pass-through.
    fn write_input(path: &Path, n: usize) {
        let mut f = std::fs::File::create(path).unwrap();
        writeln!(f, "age,zip,dept,wage").unwrap();
        for i in 0..n {
            writeln!(
                f,
                "{},{},d{},{}",
                20 + (i * 7) % 50,
                1000 + (i * 37) % 200,
                i % 4,
                100 * ((i * 13) % 11)
            )
            .unwrap();
        }
    }

    fn qi() -> Vec<String> {
        vec!["age".into(), "zip".into()]
    }

    fn conf() -> Vec<String> {
        vec!["wage".into()]
    }

    #[test]
    fn streaming_release_passes_global_audits() {
        let input = tmp("audit_in.csv");
        let output = tmp("audit_out.csv");
        write_input(&input, 700);

        let report = ShardedAnonymizer::new(4, 0.3)
            .shard_rows(200)
            .anonymize_file(&input, &output, &qi(), &conf())
            .unwrap();
        assert_eq!(report.n_records, 700);
        // 700 = 3 shards of 200 + tail 100 ≥ max(8, 100) → 4 shards
        assert_eq!(report.n_shards, 4);
        assert!(report.satisfies_request());
        assert!(report.min_cluster_size >= 4);
        assert!(report.max_emd <= 0.3 + 1e-9);

        // independent audit of the merged release
        let mut released = read_csv_auto(std::fs::File::open(&output).unwrap()).unwrap();
        released
            .schema_mut()
            .set_roles(&[
                ("age", AttributeRole::QuasiIdentifier),
                ("zip", AttributeRole::QuasiIdentifier),
                ("wage", AttributeRole::Confidential),
            ])
            .unwrap();
        assert_eq!(released.n_rows(), 700);
        assert!(verify_k_anonymity(&released).unwrap() >= 4);
        let conf_model = Confidential::from_table(&released).unwrap();
        assert!(verify_t_closeness(&released, &conf_model).unwrap() <= 0.3 + 1e-9);
    }

    #[test]
    fn output_is_invariant_to_worker_count() {
        let input = tmp("workers_in.csv");
        write_input(&input, 500);
        let mut outputs = Vec::new();
        for workers in [1usize, 2, 3, 8] {
            let output = tmp(&format!("workers_out_{workers}.csv"));
            let report = ShardedAnonymizer::new(3, 0.35)
                .shard_rows(120)
                .with_parallelism(Parallelism::workers(workers))
                .anonymize_file(&input, &output, &qi(), &conf())
                .unwrap();
            assert_eq!(report.n_records, 500);
            outputs.push(std::fs::read(&output).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "1 vs 2 workers");
        assert_eq!(outputs[0], outputs[2], "1 vs 3 workers");
        assert_eq!(outputs[0], outputs[3], "1 vs 8 workers");
    }

    #[test]
    fn output_is_invariant_to_the_backend() {
        let input = tmp("backend_in.csv");
        write_input(&input, 500);
        let mut outputs = Vec::new();
        for (name, backend) in [
            ("flat", NeighborBackend::FlatScan),
            ("kd", NeighborBackend::KdTree),
        ] {
            let output = tmp(&format!("backend_out_{name}.csv"));
            let report = ShardedAnonymizer::new(3, 0.35)
                .shard_rows(120)
                .with_backend(backend)
                .anonymize_file(&input, &output, &qi(), &conf())
                .unwrap();
            assert_eq!(report.n_records, 500);
            outputs.push(std::fs::read(&output).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "flat vs kd-tree backend");
    }

    #[test]
    fn ragged_tail_merges_into_its_predecessor() {
        let input = tmp("tail_in.csv");
        let output = tmp("tail_out.csv");
        // 205 rows at shard 100: tail of 5 < max(2k, 50) merges → 2 shards
        write_input(&input, 205);
        let report = ShardedAnonymizer::new(3, 0.4)
            .shard_rows(100)
            .anonymize_file(&input, &output, &qi(), &conf())
            .unwrap();
        assert_eq!(report.n_shards, 2);
        assert_eq!(report.shards[0].n_records, 100);
        assert_eq!(report.shards[1].n_records, 105);
        assert!(report.satisfies_request());
    }

    #[test]
    fn a_merged_tail_joins_pass_through_columns_by_label() {
        // 205 rows at shard 100: rows 100..205 are one shard, merged from
        // two chunks whose email codes are each their own.
        let input = tmp("tail_labels_in.csv");
        write_pii_input(&input, 205);
        let fit = ShardedAnonymizer::new(3, 0.4)
            .fit_file(&input, &qi(), &conf())
            .unwrap();
        let reader = BufReader::new(open(&input).unwrap());
        let chunks = CsvChunks::new(reader, fit.schema().clone(), 100).unwrap();
        let mut shards = MergeTail::new(chunks, 100, 50);
        let first = shards.next().unwrap().unwrap();
        let tail = shards.next().unwrap().unwrap();
        assert!(shards.next().unwrap().is_none());

        let email = |t: &Table| t.schema().attributes()[2].dictionary.len();
        assert_eq!((email(&first), email(&tail)), (100, 105));
        // Each shard renders to its own lines of the input.
        let text = std::fs::read_to_string(&input).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let rendered = |t: &Table| tclose_microdata::csv::to_csv_string(t).unwrap();
        assert_eq!(rendered(&first), lines[..101].join("\n") + "\n");
        let tail_lines = [&lines[..1], &lines[101..]].concat();
        assert_eq!(rendered(&tail), tail_lines.join("\n") + "\n");
    }

    #[test]
    fn single_small_input_is_one_shard() {
        let input = tmp("small_in.csv");
        let output = tmp("small_out.csv");
        write_input(&input, 30);
        let report = ShardedAnonymizer::new(3, 0.5)
            .shard_rows(1000)
            .anonymize_file(&input, &output, &qi(), &conf())
            .unwrap();
        assert_eq!(report.n_shards, 1);
        assert_eq!(report.n_records, 30);
    }

    #[test]
    fn engine_rejects_degenerate_configs() {
        let input = tmp("cfg_in.csv");
        let output = tmp("cfg_out.csv");
        write_input(&input, 20);
        let eng = ShardedAnonymizer::new(3, 0.4);
        assert!(matches!(
            eng.clone()
                .shard_rows(0)
                .anonymize_file(&input, &output, &qi(), &conf()),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            eng.anonymize_file(&input, &output, &[], &conf()),
            Err(Error::Config(_))
        ));
        // header-only input
        let empty = tmp("cfg_empty.csv");
        std::fs::write(&empty, "age,zip,dept,wage\n").unwrap();
        assert!(matches!(
            ShardedAnonymizer::new(3, 0.4).anonymize_file(&empty, &output, &qi(), &conf()),
            Err(Error::Data { .. })
        ));
        // missing file
        assert!(matches!(
            ShardedAnonymizer::new(3, 0.4).anonymize_file(
                &tmp("does_not_exist.csv"),
                &output,
                &qi(),
                &conf()
            ),
            Err(Error::Io(_))
        ));
    }

    #[test]
    fn invalid_utf8_fails_at_its_file_line_in_either_pass() {
        let good = tmp("utf8_good.csv");
        let bad = tmp("utf8_bad.csv");
        let output = tmp("utf8_out.csv");
        write_input(&good, 60);
        // File line 40 (the header is line 1) gets a byte that is not UTF-8.
        let mut lines: Vec<Vec<u8>> = std::fs::read(&good)
            .unwrap()
            .split(|&b| b == b'\n')
            .map(<[u8]>::to_vec)
            .collect();
        lines[39].push(0xff);
        std::fs::write(&bad, lines.join(&b'\n')).unwrap();
        let at_line_40 = |e: Error| match e {
            Error::Microdata(tclose_microdata::Error::Csv { line, detail }) => {
                assert_eq!(line, 40);
                assert!(detail.contains("UTF-8"), "{detail}");
            }
            other => panic!("expected a CSV error, got {other:?}"),
        };

        // The fit pass meets it first…
        let engine = ShardedAnonymizer::new(3, 0.4).shard_rows(20);
        at_line_40(
            engine
                .anonymize_file(&bad, &output, &qi(), &conf())
                .unwrap_err(),
        );
        // …and pass 2 when a fit of the good file is applied to it.
        let fitted = Anonymizer::new(3, 0.4)
            .with_fit(engine.fit_file(&good, &qi(), &conf()).unwrap())
            .unwrap();
        at_line_40(engine.apply_file_with(&fitted, &bad, &output).unwrap_err());
        // The in-memory loader names the line too.
        at_line_40(
            read_with_roles(
                std::fs::File::open(&bad).unwrap(),
                Roles::Named {
                    qi: &qi(),
                    confidential: &conf(),
                },
            )
            .unwrap_err(),
        );
    }

    #[test]
    fn bad_privacy_parameters_fail_before_the_input_is_opened() {
        let missing = tmp("params_never_there.csv");
        let output = tmp("params_out.csv");
        let err = ShardedAnonymizer::new(3, 1.5)
            .anonymize_file(&missing, &output, &qi(), &conf())
            .unwrap_err();
        assert!(matches!(err, Error::Core(_)), "{err:?}");
        assert!(err.to_string().contains("t must lie in (0, 1]"), "{err}");
    }

    #[test]
    fn prefitted_apply_skips_pass_one_with_identical_output() {
        use tclose_core::{FittedAnonymizer, ModelArtifact};

        let input = tmp("prefit_in.csv");
        write_input(&input, 500);
        let engine = ShardedAnonymizer::new(3, 0.35).shard_rows(120);

        // fused two-pass run
        let fused_out = tmp("prefit_fused.csv");
        let fused = engine
            .anonymize_file(&input, &fused_out, &qi(), &conf())
            .unwrap();
        assert!(!fused.prefitted);

        // fit once, round-trip through a serialized artifact, apply only
        let fit = engine.fit_file(&input, &qi(), &conf()).unwrap();
        let fitted = Anonymizer::new(3, 0.35)
            .with_parallelism(Parallelism::sequential())
            .with_fit(fit)
            .unwrap();
        let art = ModelArtifact::from_fitted(&fitted);
        let loaded = ModelArtifact::from_json_str(&art.to_string_pretty()).unwrap();
        let prefit_out = tmp("prefit_only.csv");
        let report = engine
            .apply_file_with(
                &FittedAnonymizer::from_artifact(&loaded)
                    .with_parallelism(Parallelism::sequential()),
                &input,
                &prefit_out,
            )
            .unwrap();

        assert!(report.prefitted, "pass 1 skipped");
        assert_eq!(report.fit_time, std::time::Duration::ZERO);
        assert_eq!(report.n_records, fused.n_records);
        assert_eq!(report.n_shards, fused.n_shards);
        assert_eq!(
            std::fs::read(&prefit_out).unwrap(),
            std::fs::read(&fused_out).unwrap(),
            "pre-fitted release is byte-identical to the fused two-pass run"
        );
    }

    /// Like [`write_input`] but with a planted-PII email column that the
    /// auto-inferred schema treats as a nominal pass-through.
    fn write_pii_input(path: &Path, n: usize) {
        let mut f = std::fs::File::create(path).unwrap();
        writeln!(f, "age,zip,email,wage").unwrap();
        for i in 0..n {
            writeln!(
                f,
                "{},{},user{}@example.com,{}",
                20 + (i * 7) % 50,
                1000 + (i * 37) % 200,
                i,
                100 * ((i * 13) % 11)
            )
            .unwrap();
        }
    }

    fn hipaa_engine() -> tclose_compliance::ComplianceEngine {
        tclose_compliance::ComplianceEngine::new(tclose_compliance::ComplianceConfig::default())
            .unwrap()
    }

    /// The hipaa policy, writing its audit log to `log`.
    fn logged_engine(log: &Path) -> tclose_compliance::ComplianceEngine {
        tclose_compliance::ComplianceEngine::new(tclose_compliance::ComplianceConfig {
            audit_path: Some(log.display().to_string()),
            ..tclose_compliance::ComplianceConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn compliance_scrub_removes_planted_pii_from_the_release() {
        let input = tmp("pii_in.csv");
        let output = tmp("pii_out.csv");
        let log = tmp("pii_audit.jsonl");
        write_pii_input(&input, 300);
        let report = ShardedAnonymizer::new(3, 0.4)
            .shard_rows(100)
            .with_compliance(logged_engine(&log))
            .anonymize_file(&input, &output, &qi(), &conf())
            .unwrap();
        assert!(report.satisfies_request());
        assert_eq!(report.scrubbed_cells, 300, "every email cell rewritten");
        assert_eq!(report.compliance_audits, 300);

        let released = std::fs::read_to_string(&output).unwrap();
        assert!(!released.contains("@example.com"), "planted PII leaked");
        assert!(released.contains("TOK_EMAIL_"), "tokens present");

        // The log's lines carry global row numbers in order, never
        // plaintext.
        let log = std::fs::read_to_string(&log).unwrap();
        assert_eq!(log.lines().count(), 300);
        for (row, line) in log.lines().enumerate() {
            let head = format!(
                "{{\"row\":{row},\"column\":\"email\",\"rule\":\"email\",\
                 \"strategy\":\"tokenize\",\"hash\":\""
            );
            let hash = line
                .strip_prefix(&head)
                .and_then(|rest| rest.strip_suffix("\"}"))
                .unwrap_or_else(|| panic!("line {row}: {line}"));
            assert_eq!(hash.len(), 64, "{line}");
        }
    }

    /// The scrubbed pass-through column of a release, in row order.
    fn email_column(path: &Path) -> Vec<String> {
        let t = read_csv_auto(std::fs::File::open(path).unwrap()).unwrap();
        let c = t.schema().index_of("email").unwrap();
        let attr = &t.schema().attributes()[c];
        t.categorical_column(c)
            .unwrap()
            .iter()
            .map(|&code| attr.dictionary.label(code).unwrap().to_owned())
            .collect()
    }

    #[test]
    fn streamed_scrub_is_byte_identical_to_monolithic_at_any_worker_count() {
        let input = tmp("pii_inv_in.csv");
        write_pii_input(&input, 500);

        // Monolithic baseline: one shard holds the whole file.
        let mono_out = tmp("pii_inv_mono.csv");
        let mono = ShardedAnonymizer::new(3, 0.4)
            .shard_rows(10_000)
            .with_compliance(hipaa_engine())
            .anonymize_file(&input, &mono_out, &qi(), &conf())
            .unwrap();
        assert_eq!(mono.n_shards, 1);
        let mono_emails = email_column(&mono_out);

        for shard_rows in [120usize, 250] {
            // Worker-count invariance: the *whole release* is
            // byte-identical at a fixed shard size.
            let mut releases = Vec::new();
            for workers in [1usize, 4] {
                let out = tmp(&format!("pii_inv_{shard_rows}_{workers}.csv"));
                let report = ShardedAnonymizer::new(3, 0.4)
                    .shard_rows(shard_rows)
                    .with_parallelism(Parallelism::workers(workers))
                    .with_compliance(hipaa_engine())
                    .anonymize_file(&input, &out, &qi(), &conf())
                    .unwrap();
                // Shard-size invariance of the *scrub*: chunk boundaries
                // never change what a cell becomes.
                assert_eq!(
                    email_column(&out),
                    mono_emails,
                    "shard_rows={shard_rows} workers={workers}"
                );
                assert_eq!(report.scrubbed_cells, mono.scrubbed_cells);
                releases.push(std::fs::read(&out).unwrap());
            }
            assert_eq!(
                releases[0], releases[1],
                "1 vs 4 workers at shard_rows={shard_rows}"
            );
        }
    }

    #[test]
    fn compliance_drop_columns_leave_the_release() {
        let input = tmp("pii_drop_in.csv");
        let output = tmp("pii_drop_out.csv");
        write_pii_input(&input, 150);
        let cfg = tclose_compliance::ComplianceConfig {
            drop_columns: vec!["email".into()],
            ..tclose_compliance::ComplianceConfig::default()
        };
        let engine = tclose_compliance::ComplianceEngine::new(cfg).unwrap();
        ShardedAnonymizer::new(3, 0.4)
            .shard_rows(60)
            .with_compliance(engine)
            .anonymize_file(&input, &output, &qi(), &conf())
            .unwrap();
        let released = read_csv_auto(std::fs::File::open(&output).unwrap()).unwrap();
        assert_eq!(released.n_cols(), 3, "email column dropped");
        assert!(released.schema().index_of("email").is_err());
    }

    #[test]
    fn explicit_schema_path_supports_identifier_drop() {
        let input = tmp("schema_in.csv");
        let output = tmp("schema_out.csv");
        write_input(&input, 120);
        // fit in memory under a schema that declares dept an identifier,
        // then stream the file through that fit
        let mut table = read_csv_auto(std::fs::File::open(&input).unwrap()).unwrap();
        table
            .schema_mut()
            .set_roles(&[
                ("age", AttributeRole::QuasiIdentifier),
                ("zip", AttributeRole::QuasiIdentifier),
                ("wage", AttributeRole::Confidential),
                ("dept", AttributeRole::Identifier),
            ])
            .unwrap();
        let fitted = Anonymizer::new(3, 0.4)
            .with_parallelism(Parallelism::sequential())
            .fit(&table)
            .unwrap();
        let report = ShardedAnonymizer::new(3, 0.4)
            .shard_rows(50)
            .apply_file_with(&fitted, &input, &output)
            .unwrap();
        assert!(report.satisfies_request());
        let released = read_csv_auto(std::fs::File::open(&output).unwrap()).unwrap();
        assert_eq!(released.n_cols(), 3, "identifier column dropped");
        assert!(released.schema().index_of("dept").is_err());
    }
}
