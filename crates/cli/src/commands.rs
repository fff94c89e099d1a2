//! The `tclose` CLI subcommands, separated from `main` for testability.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::args::Parsed;
use tclose_compliance::{ComplianceConfig, ComplianceEngine};
use tclose_core::{
    Algorithm, Anonymizer, FittedAnonymizer, ModelArtifact, NeighborBackend, TClosenessParams,
};
use tclose_datasets::{
    census_hcd, census_mcd, patient_discharge, pii_patients, CENSUS_N, PATIENT_N, PII_N,
};
use tclose_microdata::csv::write_csv;
use tclose_microdata::{NormalizeMethod, PartialFile, Table};
use tclose_parallel::Parallelism;
use tclose_serve::AuditReport;
use tclose_stream::{
    read_with_roles, release_shard, Roles, ShardedAnonymizer, StreamReport, DEFAULT_SHARD_ROWS,
};

/// Reads a CSV into memory with inferred types and `roles` assigned.
fn load(path: &Path, roles: Roles) -> Result<Table, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    read_with_roles(BufReader::new(file), roles).map_err(|e| e.to_string())
}

/// Writes a table as CSV to `path`, through a [`PartialFile`]: the file
/// appears at `path` only once it is complete.
pub fn save(table: &Table, path: &Path) -> Result<(), String> {
    let file = PartialFile::create(path);
    let mut file =
        BufWriter::new(file.map_err(|e| format!("cannot create {}: {e}", path.display()))?);
    write_csv(table, &mut file).map_err(|e| e.to_string())?;
    let written = |e| format!("cannot write {}: {e}", path.display());
    let file = file.into_inner().map_err(|e| written(e.into_error()))?;
    file.commit().map_err(written)
}

/// Parses the `--workers` option: `None` leaves the default (one worker
/// per core), `Some(n)` pins the thread count end-to-end.
pub fn parse_workers(p: &Parsed) -> Result<Option<Parallelism>, String> {
    match p.get("workers") {
        None => Ok(None),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|e| format!("--workers: {e}"))
                .and_then(|n| {
                    if n == 0 {
                        Err("--workers must be at least 1".into())
                    } else {
                        Ok(n)
                    }
                })?;
            Ok(Some(Parallelism::workers(n)))
        }
    }
}

/// Parses the `--backend` option: the neighbor-search backend of the
/// clustering hot path. `auto`/`flat`/`kdtree` are exact — the release
/// is identical for any of them; only wall-clock time changes.
/// `hybrid` opts into approximate MDAV-family partitioning for
/// million-row speed: still deterministic and audited, but a different
/// clustering. Anything else is an error naming `auto|flat|kdtree|hybrid`.
pub fn parse_backend(p: &Parsed) -> Result<NeighborBackend, String> {
    match p.get("backend") {
        None => Ok(NeighborBackend::Auto),
        Some(v) => v.parse().map_err(|e| format!("--backend: {e}")),
    }
}

/// Loads the `--compliance` policy, applying `TCLOSE_COMPLIANCE_*`
/// environment overrides and the `--dry-run` flag on top of the file.
pub fn parse_compliance(p: &Parsed) -> Result<Option<ComplianceEngine>, String> {
    let Some(path) = p.get("compliance") else {
        if p.flag("dry-run") {
            return Err("--dry-run requires --compliance".into());
        }
        return Ok(None);
    };
    let mut config = ComplianceConfig::from_path(Path::new(path)).map_err(|e| e.to_string())?;
    config.apply_env_overrides().map_err(|e| e.to_string())?;
    if p.flag("dry-run") {
        config.dry_run = true;
    }
    ComplianceEngine::new(config)
        .map(Some)
        .map_err(|e| e.to_string())
}

/// The summary lines a release report ends with under a policy.
fn compliance_summary(engine: &ComplianceEngine, r: &StreamReport) -> String {
    let cfg = engine.config();
    let mut msg = format!(
        "\ncompliance          profile {} / strategy {} ({} cells scrubbed, {} audit records)\n\
         compliance fp       {}",
        cfg.profile.name(),
        cfg.strategy.name(),
        r.scrubbed_cells,
        r.compliance_audits,
        engine.fingerprint(),
    );
    if let Some(path) = cfg.audit_log_path() {
        msg.push_str(&format!("\naudit log           {}", path.display()));
    }
    msg
}

/// `tclose scan`: report what a compliance policy would transform,
/// without writing anything. The text form ends with the exact counts
/// `scripts/compliance_gate.sh` asserts; `--json` emits the same report
/// machine-readably.
pub fn cmd_scan(p: &Parsed) -> Result<String, String> {
    let input = Path::new(p.require("input")?);
    let engine = match parse_compliance(p)? {
        Some(e) => e,
        // Scanning without a policy file uses the default HIPAA profile.
        None => ComplianceEngine::new(ComplianceConfig::default()).map_err(|e| e.to_string())?,
    };
    let no_roles = Roles::Named {
        qi: &[],
        confidential: &[],
    };
    let report = engine
        .scan_table(&load(input, no_roles)?)
        .map_err(|e| e.to_string())?;
    if p.flag("json") {
        Ok(report.to_json().to_string_pretty())
    } else {
        Ok(report.render())
    }
}

/// Parses the `--algorithm` option.
pub fn algorithm_by_name(name: &str) -> Result<Algorithm, String> {
    match name.to_ascii_lowercase().as_str() {
        "alg1" | "merge" => Ok(Algorithm::Merge),
        "alg2" | "kfirst" | "k-anonymity-first" => Ok(Algorithm::KAnonymityFirst),
        "alg3" | "tfirst" | "t-closeness-first" => Ok(Algorithm::TClosenessFirst),
        other => Err(format!(
            "unknown algorithm {other:?} (expected alg1|alg2|alg3)"
        )),
    }
}

/// `tclose generate`: writes a synthetic evaluation data set as CSV.
pub fn cmd_generate(p: &Parsed) -> Result<String, String> {
    let dataset = p.require("dataset")?;
    let seed: u64 = p.get_parsed("seed", 42)?;
    let output = Path::new(p.require("output")?);
    let table = match dataset {
        "census-mcd" | "census-hcd" if p.get("n").is_some() => {
            return Err(format!(
                "--n applies only to patient|pii; {dataset} has a fixed size of {CENSUS_N} records"
            ))
        }
        "census-mcd" => census_mcd(seed),
        "census-hcd" => census_hcd(seed),
        "patient" => {
            let n: usize = p.get_parsed("n", PATIENT_N)?;
            patient_discharge(seed, n)
        }
        "pii" => {
            let n: usize = p.get_parsed("n", PII_N)?;
            pii_patients(seed, n)
        }
        other => {
            return Err(format!(
                "unknown dataset {other:?} (expected census-mcd|census-hcd|patient|pii)"
            ))
        }
    };
    save(&table, output)?;
    Ok(format!(
        "wrote {} records × {} attributes to {}",
        table.n_rows(),
        table.n_cols(),
        output.display()
    ))
}

/// The fit options `anonymize` and `fit` share, validated before any
/// input is opened.
struct FitFlags {
    qi: Vec<String>,
    confidential: Vec<String>,
    params: TClosenessParams,
    algorithm: Algorithm,
    normalize: NormalizeMethod,
}

impl FitFlags {
    /// Validates `--qi`, `--confidential`, `--k`, `--t`, `--algorithm`
    /// and `--normalize` (which only `fit` accepts).
    fn parse(p: &Parsed) -> Result<FitFlags, String> {
        let qi = p.get_list("qi");
        let confidential = p.get_list("confidential");
        if qi.is_empty() {
            return Err("--qi must list at least one quasi-identifier column".into());
        }
        if confidential.is_empty() {
            return Err("--confidential must list at least one column".into());
        }
        p.require("k")?;
        p.require("t")?;
        let params = TClosenessParams::new(p.get_parsed("k", 0)?, p.get_parsed("t", 0.0)?)
            .map_err(|e| e.to_string())?;
        let normalize = match p.get("normalize") {
            None => NormalizeMethod::ZScore,
            Some(v) => NormalizeMethod::parse(v).ok_or_else(|| {
                format!("--normalize: unknown method {v:?} (expected zscore|minmax|none)")
            })?,
        };
        Ok(FitFlags {
            qi,
            confidential,
            params,
            algorithm: algorithm_by_name(p.get("algorithm").unwrap_or("alg3"))?,
            normalize,
        })
    }

    fn roles(&self) -> Roles<'_> {
        Roles::Named {
            qi: &self.qi,
            confidential: &self.confidential,
        }
    }

    /// Fits in memory on `table`, or with the bounded-memory streaming
    /// fit pass over `input` when there is no table. Either way the
    /// statistics match the fused `anonymize` run of the same mode.
    fn fit(
        &self,
        input: &Path,
        table: Option<&Table>,
        shard_rows: usize,
    ) -> Result<FittedAnonymizer, String> {
        let TClosenessParams { k, t } = self.params;
        let anonymizer = Anonymizer::new(k, t)
            .algorithm(self.algorithm)
            .normalization(self.normalize);
        let fitted = match table {
            Some(table) => anonymizer.fit(table),
            None => {
                let fit = ShardedAnonymizer::new(k, t)
                    .normalization(self.normalize)
                    .shard_rows(shard_rows)
                    .fit_file(input, &self.qi, &self.confidential)
                    .map_err(|e| e.to_string())?;
                anonymizer.with_fit(fit)
            }
        };
        fitted.map_err(|e| e.to_string())
    }
}

/// Where a release's fit comes from.
enum Fit {
    /// Fitted on the input itself, from the fit flags.
    Flags(FitFlags),
    /// A saved model artifact and the path it was loaded from.
    Model(PathBuf, Box<ModelArtifact>),
}

/// `tclose anonymize`: k-anonymous t-close release of a CSV file.
pub fn cmd_anonymize(p: &Parsed) -> Result<String, String> {
    release(p, Fit::Flags(FitFlags::parse(p)?))
}

/// `tclose apply`: anonymize with a saved model, skipping the fit pass.
pub fn cmd_apply(p: &Parsed) -> Result<String, String> {
    let path = PathBuf::from(p.require("model")?);
    let artifact = ModelArtifact::load(&path).map_err(|e| e.to_string())?;
    release(p, Fit::Model(path, Box::new(artifact)))
}

/// Runs `anonymize` and `apply`, with or without `--stream`: fit (or
/// load a fit), then release through `release_shard` — once on the
/// whole table in memory, or once per shard in the streaming engine.
fn release(p: &Parsed, fit: Fit) -> Result<String, String> {
    let input = Path::new(p.require("input")?);
    let output = Path::new(p.require("output")?);
    let workers = parse_workers(p)?;
    let backend = parse_backend(p)?;
    let shard_rows: usize = p.get_parsed("shard-size", DEFAULT_SHARD_ROWS)?;
    let compliance = parse_compliance(p)?;
    let (roles, model) = match &fit {
        Fit::Flags(flags) => (flags.roles(), None),
        Fit::Model(path, artifact) => {
            check_policy_binding(path, artifact, compliance.as_ref())?;
            (
                Roles::Model(artifact.global_fit().schema()),
                Some(path.as_path()),
            )
        }
    };

    // Dry run: report what the policy would do, write nothing.
    if let Some(engine) = compliance.as_ref().filter(|e| e.config().dry_run) {
        let scan = engine
            .scan_table(&load(input, roles)?)
            .map_err(|e| e.to_string())?;
        return Ok(format!(
            "{}\ndry run: no release or audit log written",
            scan.render()
        ));
    }

    // In memory, the input is read once for both the fit and the release.
    let streamed = p.flag("stream");
    let table = if streamed {
        None
    } else {
        Some(load(input, roles)?)
    };
    let started = Instant::now();
    let (fitted, fit_time) = match &fit {
        Fit::Flags(flags) => (
            flags.fit(input, table.as_ref(), shard_rows)?,
            started.elapsed(),
        ),
        Fit::Model(_, artifact) => (FittedAnonymizer::from_artifact(artifact), Duration::ZERO),
    };
    let fitted = fitted.with_backend(backend);

    let started = Instant::now();
    let mut report = match &table {
        // Workers go across shards and the kernels inside each shard run
        // sequentially, as in `ShardedAnonymizer::anonymize_file`.
        None => {
            let TClosenessParams { k, t } = fitted.params();
            let mut engine = ShardedAnonymizer::new(k, t).shard_rows(shard_rows);
            if let Some(par) = workers {
                engine = engine.with_parallelism(par);
            }
            if let Some(ce) = &compliance {
                engine = engine.with_compliance(ce.clone());
            }
            let fitted = fitted.with_parallelism(Parallelism::sequential());
            engine
                .apply_file_with(&fitted, input, output)
                .map_err(|e| e.to_string())?
        }
        // One shard, written as the stream writes each of its shards:
        // the audit log opens before the release and is renamed into
        // place once both are written.
        Some(table) => {
            let log = match &compliance {
                Some(engine) => engine.open_audit_log().map_err(|e| e.to_string())?,
                None => None,
            };
            let fitted = fitted.with_parallelism(workers.unwrap_or_else(Parallelism::auto));
            let shard =
                release_shard(&fitted, compliance.as_ref(), table, 0).map_err(|e| e.to_string())?;
            save(&shard.table, output)?;
            if let Some(mut log) = log {
                log.append(&shard.audit_log)
                    .and_then(|()| log.commit())
                    .map_err(|e| e.to_string())?;
            }
            let mut r = StreamReport::merge(
                vec![shard.report],
                table.n_rows(),
                Duration::ZERO,
                started.elapsed(),
            );
            r.scrubbed_cells = shard.scrubbed_cells;
            r.compliance_audits = shard.audit_records;
            r
        }
    };
    report.fit_time = fit_time;
    Ok(render(
        &report,
        output,
        model,
        streamed,
        compliance.as_ref(),
    ))
}

/// Policy binding: a model fitted under a compliance policy may only be
/// applied under the *same* policy — otherwise a release could silently
/// skip the scrub (or scrub with different rules/keys) that the model's
/// provenance promises.
fn check_policy_binding(
    path: &Path,
    artifact: &ModelArtifact,
    compliance: Option<&ComplianceEngine>,
) -> Result<(), String> {
    match (artifact.compliance_fingerprint(), compliance) {
        (None, None) => Ok(()),
        (Some(fp), Some(engine)) => {
            let got = engine.fingerprint();
            if got == fp {
                return Ok(());
            }
            Err(format!(
                "compliance policy mismatch: model {} was fitted under policy {fp} but \
                 --compliance resolves to {got}; pass the policy the model was fitted with",
                path.display()
            ))
        }
        (Some(fp), None) => Err(format!(
            "model {} is bound to compliance policy {fp}; pass --compliance with the \
             same policy file",
            path.display()
        )),
        (None, Some(_)) => Err(format!(
            "model {} was fitted without a compliance policy; refit with \
             `tclose fit --compliance` to bind one",
            path.display()
        )),
    }
}

/// Renders a release report (one shard for an in-memory run). `model`
/// is the artifact of a pre-fitted run.
fn render(
    r: &StreamReport,
    output: &Path,
    model: Option<&Path>,
    streamed: bool,
    compliance: Option<&ComplianceEngine>,
) -> String {
    let source = if model.is_some() {
        "pre-fitted model"
    } else {
        "streaming"
    };
    let mode = match (model, streamed) {
        (_, true) => format!(
            " ({source}, {} shards × ≤{} rows)",
            r.n_shards, r.shard_rows
        ),
        (Some(_), false) => format!(" ({source})"),
        (None, false) => String::new(),
    };
    let mut msg = format!(
        "released {} records to {}{mode}",
        r.n_records,
        output.display()
    );
    if let Some(path) = model {
        msg.push_str(&format!("\nmodel               {}", path.display()));
    }
    let (worst_k, worst_t) = match streamed {
        true => (" (worst shard)", " (worst shard, vs global distribution)"),
        false => ("", ""),
    };
    let fit_pass = match model {
        Some(_) => "skipped (pre-fitted model)".to_string(),
        None => format!("{:?}", r.fit_time),
    };
    msg.push_str(&format!(
        "\nalgorithm           {}\n\
         requested (k, t)    ({}, {})\n\
         achieved k          {}{worst_k}\n\
         achieved t (EMD)    {:.5}{worst_t}\n\
         t budget spent      {:.1}% (worst EMD / requested t)\n\
         equivalence classes {} (sizes min {} / mean {:.1} / max {})\n\
         normalized SSE      {:.6}\n\
         fit pass            {fit_pass}\n\
         anonymize pass      {:?}",
        r.algorithm,
        r.k_requested,
        r.t_requested,
        r.min_cluster_size,
        r.max_emd,
        r.achieved_t_deviation * 100.0,
        r.n_clusters,
        r.min_cluster_size,
        r.mean_cluster_size,
        r.max_cluster_size,
        r.sse,
        r.apply_time,
    ));
    if let Some(engine) = compliance {
        msg.push_str(&compliance_summary(engine, r));
    }
    if !r.satisfies_request() {
        msg.push_str("\nwarning: the release does NOT meet the requested levels");
    }
    msg
}

/// `tclose fit`: freeze the global state into a versioned model artifact.
pub fn cmd_fit(p: &Parsed) -> Result<String, String> {
    let input = Path::new(p.require("input")?);
    let out_path = Path::new(p.require("out")?);
    let flags = FitFlags::parse(p)?;
    let shard_rows: usize = p.get_parsed("shard-size", DEFAULT_SHARD_ROWS)?;
    // A fit under a compliance policy binds the model to it: `apply`
    // refuses to run under a different policy (or none). The fit itself
    // only reads QI / confidential columns, which the scrub never
    // touches, so the statistics are identical either way.
    let compliance = parse_compliance(p)?;
    let table = if p.flag("stream") {
        None
    } else {
        Some(load(input, flags.roles())?)
    };
    let fitted = flags.fit(input, table.as_ref(), shard_rows)?;

    let mut artifact = ModelArtifact::from_fitted(&fitted);
    if let Some(engine) = &compliance {
        artifact = artifact.with_compliance_fingerprint(engine.fingerprint());
    }
    artifact.save(out_path).map_err(|e| e.to_string())?;
    let fit = artifact.global_fit();
    let mut msg = format!(
        "fitted model on {} records → {}\n\
         schema_version      {}\n\
         algorithm           {}\n\
         params (k, t)       ({}, {})\n\
         quasi-identifiers   {}\n\
         emd domains         {}",
        fit.n_records(),
        out_path.display(),
        artifact.schema_version(),
        artifact.params().algorithm.name(),
        artifact.params().k,
        artifact.params().t,
        flags.qi.join(","),
        flags.confidential.join(","),
    );
    if let Some(fp) = artifact.compliance_fingerprint() {
        msg.push_str(&format!("\ncompliance fp       {fp}"));
    }
    Ok(msg)
}

/// `tclose model <subcommand>`: model-artifact utilities.
pub fn cmd_model(p: &Parsed) -> Result<String, String> {
    match p.subcommand.as_str() {
        "inspect" => cmd_model_inspect(p),
        "" => Err("missing model subcommand (expected: tclose model inspect MODEL.json)".into()),
        other => Err(format!(
            "unknown model subcommand {other:?} (expected inspect)"
        )),
    }
}

/// `tclose model inspect`: print a saved artifact's provenance and parts.
fn cmd_model_inspect(p: &Parsed) -> Result<String, String> {
    let path = Path::new(p.require("model")?);
    let artifact = ModelArtifact::load(path).map_err(|e| e.to_string())?;
    let fit = artifact.global_fit();
    let schema = fit.schema();
    let qi_parts: Vec<String> = fit
        .qi()
        .iter()
        .zip(fit.embedding().params())
        .map(|(&a, &(shift, scale))| {
            format!(
                "{} (shift {shift}, scale {scale})",
                schema.attributes()[a].name
            )
        })
        .collect();
    let domain_parts: Vec<String> = schema
        .confidential()
        .iter()
        .zip(fit.confidential().emds())
        .map(|(&a, emd)| {
            let (values, _) = emd.to_global_parts();
            format!(
                "{}: {} distinct values in [{}, {}]",
                schema.attributes()[a].name,
                emd.m(),
                values.first().unwrap(),
                values.last().unwrap()
            )
        })
        .collect();
    let fp = artifact.env_fingerprint();
    let compliance_line = match artifact.compliance_fingerprint() {
        Some(cfp) => format!("\ncompliance fp       {cfp}"),
        None => String::new(),
    };
    Ok(format!(
        "model artifact {}\n\
         schema_version      {}\n\
         algorithm           {}\n\
         params (k, t)       ({}, {})\n\
         normalization       {}\n\
         fitted records      {}\n\
         quasi-identifiers   {}\n\
         emd domains         {}\n\
         fingerprint         {}; {}/{}; profile {}; commit {}{}",
        path.display(),
        artifact.schema_version(),
        artifact.params().algorithm.name(),
        artifact.params().k,
        artifact.params().t,
        fit.embedding().method().name(),
        fit.n_records(),
        qi_parts.join(", "),
        domain_parts.join("; "),
        fp.rustc,
        fp.os,
        fp.arch,
        fp.profile,
        fp.commit,
        compliance_line,
    ))
}

/// `tclose audit`: verify the k-anonymity / t-closeness of a released CSV.
pub fn cmd_audit(p: &Parsed) -> Result<String, String> {
    let input = Path::new(p.require("input")?);
    let qi = p.get_list("qi");
    let confidential = p.get_list("confidential");
    if qi.is_empty() || confidential.is_empty() {
        return Err("--qi and --confidential are both required".into());
    }
    let par = parse_workers(p)?.unwrap_or_else(Parallelism::auto);
    // With `--t` the audit also grades the release against a requested
    // level, on the worst class's exact EMD from the same audit pass; the
    // deviation it prints is the rounded EMD over t. This is the check to
    // run after an approximate-backend (`hybrid`) release.
    let requested_t = p.get("t").map(str::parse::<f64>).transpose();
    let requested_t = match requested_t.map_err(|e| format!("--t: {e}"))? {
        Some(t) if !(t.is_finite() && t > 0.0) => {
            return Err("--t must be a finite value > 0".into())
        }
        t => t,
    };
    let table = load(
        input,
        Roles::Named {
            qi: &qi,
            confidential: &confidential,
        },
    )?;
    let (report, max_emd) = AuditReport::measure(&table, par)?;
    let mut msg = report.render(&input.display().to_string());
    if let Some(t) = requested_t {
        let within = !max_emd.exceeds(t);
        msg.push_str(&format!(
            "\nachieved t deviation        {:.4} (achieved / requested {t}{})",
            report.achieved_t / t,
            if within {
                ", within budget"
            } else {
                ", OVER budget"
            }
        ));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> crate::args::Parsed {
        parse(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tclose_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(algorithm_by_name("alg1").unwrap(), Algorithm::Merge);
        assert_eq!(
            algorithm_by_name("ALG3").unwrap(),
            Algorithm::TClosenessFirst
        );
        assert!(algorithm_by_name("mystery").is_err());
    }

    #[test]
    fn audit_grades_a_class_whose_emd_is_exactly_t_within_budget() {
        // Class q = 1 of a three-value column holds one record: its EMD is
        // 1/2 exactly, and so is the f64 it is reported as.
        let released = tmp("exact_t.csv");
        std::fs::write(&released, "q,c\n1,0\n2,1\n2,2\n").unwrap();
        let audit = |t: &str| {
            cmd_audit(&argv(&format!(
                "audit --input {} --qi q --confidential c --t {t}",
                released.display()
            )))
            .unwrap()
        };
        let msg = audit("0.5");
        assert!(msg.contains("achieved t (max class EMD)  0.50000"), "{msg}");
        assert!(msg.contains("within budget"), "{msg}");
        let msg = audit("0.49999999999999994");
        assert!(msg.contains("OVER budget"), "{msg}");
    }

    #[test]
    fn generate_anonymize_audit_round_trip() {
        let data = tmp("census.csv");
        let released = tmp("census_anon.csv");

        let msg = cmd_generate(&argv(&format!(
            "generate --dataset census-mcd --seed 5 --output {}",
            data.display()
        )))
        .unwrap();
        assert!(msg.contains("1080 records"));

        let msg = cmd_anonymize(&argv(&format!(
            "anonymize --input {} --output {} --qi TAXINC,POTHVAL --confidential FEDTAX --k 5 --t 0.25 --algorithm alg3",
            data.display(),
            released.display()
        )))
        .unwrap();
        assert!(msg.contains("achieved k"), "{msg}");
        assert!(!msg.contains("warning"), "{msg}");

        let msg = cmd_audit(&argv(&format!(
            "audit --input {} --qi TAXINC,POTHVAL --confidential FEDTAX",
            released.display()
        )))
        .unwrap();
        // k ≥ 5 must be visible in the audit line
        let k_line = msg.lines().find(|l| l.contains("achieved k")).unwrap();
        let k: usize = k_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!(k >= 5, "audited k = {k}");
    }

    #[test]
    fn anonymize_validates_options() {
        let e = cmd_anonymize(&argv(
            "anonymize --input x.csv --output y.csv --qi a --confidential c --t 0.1",
        ))
        .unwrap_err();
        assert!(e.contains("--k"));
        let e = cmd_anonymize(&argv(
            "anonymize --input x.csv --output y.csv --qi a --confidential c --k 2",
        ))
        .unwrap_err();
        assert!(e.contains("--t"));
        let e = cmd_anonymize(&argv(
            "anonymize --input x.csv --output y.csv --confidential c --k 2 --t 0.1",
        ))
        .unwrap_err();
        assert!(e.contains("--qi"));
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let e = cmd_generate(&argv("generate --dataset nope --output /tmp/x.csv")).unwrap_err();
        assert!(e.contains("unknown dataset"));
        // The census sets have a fixed size: `--n` is an error, not ignored.
        for dataset in ["census-mcd", "census-hcd"] {
            let cmd = format!("generate --dataset {dataset} --n 6000 --output /tmp/x.csv");
            let e = cmd_generate(&argv(&cmd)).unwrap_err();
            assert!(e.contains("--n") && e.contains(dataset), "{e}");
        }
    }

    #[test]
    fn workers_option_parses_and_validates() {
        assert!(parse_workers(&argv("audit")).unwrap().is_none());
        assert_eq!(
            parse_workers(&argv("audit --workers 4")).unwrap(),
            Some(Parallelism::workers(4))
        );
        assert!(parse_workers(&argv("audit --workers 0")).is_err());
        assert!(parse_workers(&argv("audit --workers nope")).is_err());
    }

    #[test]
    fn backend_option_parses_and_validates() {
        assert_eq!(
            parse_backend(&argv("anonymize")).unwrap(),
            NeighborBackend::Auto
        );
        assert_eq!(
            parse_backend(&argv("anonymize --backend flat")).unwrap(),
            NeighborBackend::FlatScan
        );
        assert_eq!(
            parse_backend(&argv("anonymize --backend kdtree")).unwrap(),
            NeighborBackend::KdTree
        );
        assert_eq!(
            parse_backend(&argv("anonymize --backend hybrid")).unwrap(),
            NeighborBackend::Hybrid
        );
        assert!(parse_backend(&argv("anonymize --backend ball-tree")).is_err());
        let e = parse_backend(&argv("anonymize --backend grid")).unwrap_err();
        assert!(e.contains("auto|flat|kdtree|hybrid"), "{e}");
    }

    #[test]
    fn approximate_backends_release_valid_audited_tables() {
        let data = tmp("census_approx.csv");
        cmd_generate(&argv(&format!(
            "generate --dataset census-mcd --seed 17 --output {}",
            data.display()
        )))
        .unwrap();

        let released = tmp("census_anon_approx_hybrid.csv");
        let msg = cmd_anonymize(&argv(&format!(
            "anonymize --input {} --output {} --qi TAXINC,POTHVAL --confidential FEDTAX \
             --k 4 --t 0.3 --backend hybrid",
            data.display(),
            released.display()
        )))
        .unwrap();
        assert!(!msg.contains("warning"), "{msg}");

        let msg = cmd_audit(&argv(&format!(
            "audit --input {} --qi TAXINC,POTHVAL --confidential FEDTAX --t 0.3",
            released.display()
        )))
        .unwrap();
        let k_line = msg.lines().find(|l| l.contains("achieved k")).unwrap();
        let k: usize = k_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!(k >= 4, "audited k = {k}");
        let dev_line = msg.lines().find(|l| l.contains("deviation")).unwrap();
        assert!(dev_line.contains("within budget"), "{dev_line}");
    }

    #[test]
    fn audit_rejects_an_invalid_t() {
        let data = tmp("census_audit_t.csv");
        cmd_generate(&argv(&format!(
            "generate --dataset census-mcd --seed 3 --output {}",
            data.display()
        )))
        .unwrap();
        let e = cmd_audit(&argv(&format!(
            "audit --input {} --qi TAXINC,POTHVAL --confidential FEDTAX --t 0",
            data.display()
        )))
        .unwrap_err();
        assert!(e.contains("--t"), "{e}");
    }

    #[test]
    fn explicit_backends_produce_identical_releases() {
        let data = tmp("census_backend.csv");
        cmd_generate(&argv(&format!(
            "generate --dataset census-mcd --seed 13 --output {}",
            data.display()
        )))
        .unwrap();

        let mut outputs = Vec::new();
        for backend in ["flat", "kdtree"] {
            let released = tmp(&format!("census_anon_{backend}.csv"));
            cmd_anonymize(&argv(&format!(
                "anonymize --input {} --output {} --qi TAXINC,POTHVAL --confidential FEDTAX \
                 --k 4 --t 0.3 --backend {backend}",
                data.display(),
                released.display()
            )))
            .unwrap();
            outputs.push(std::fs::read(&released).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "release differs across --backend");
    }

    #[test]
    fn pinned_workers_do_not_change_the_release() {
        let data = tmp("census_workers.csv");
        cmd_generate(&argv(&format!(
            "generate --dataset census-mcd --seed 7 --output {}",
            data.display()
        )))
        .unwrap();

        let mut outputs = Vec::new();
        for workers in [1usize, 4] {
            let released = tmp(&format!("census_anon_w{workers}.csv"));
            cmd_anonymize(&argv(&format!(
                "anonymize --input {} --output {} --qi TAXINC,POTHVAL --confidential FEDTAX \
                 --k 4 --t 0.3 --workers {workers}",
                data.display(),
                released.display()
            )))
            .unwrap();
            outputs.push(std::fs::read(&released).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "release differs across --workers");
    }

    #[test]
    fn streaming_anonymize_round_trips_and_audits() {
        let data = tmp("census_stream.csv");
        let released = tmp("census_stream_anon.csv");
        cmd_generate(&argv(&format!(
            "generate --dataset census-mcd --seed 11 --output {}",
            data.display()
        )))
        .unwrap();

        let msg = cmd_anonymize(&argv(&format!(
            "anonymize --input {} --output {} --qi TAXINC,POTHVAL --confidential FEDTAX \
             --k 5 --t 0.25 --stream --shard-size 300 --workers 2",
            data.display(),
            released.display()
        )))
        .unwrap();
        assert!(msg.contains("streaming"), "{msg}");
        assert!(msg.contains("shards"), "{msg}");
        assert!(!msg.contains("warning"), "{msg}");

        let msg = cmd_audit(&argv(&format!(
            "audit --input {} --qi TAXINC,POTHVAL --confidential FEDTAX --workers 2",
            released.display()
        )))
        .unwrap();
        let k_line = msg.lines().find(|l| l.contains("achieved k")).unwrap();
        let k: usize = k_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!(k >= 5, "audited k = {k}");
    }
}
