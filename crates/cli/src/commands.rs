//! The `tclose` CLI subcommands, separated from `main` for testability.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use crate::args::Parsed;
use tclose_compliance::{write_audit_log, AuditRecord, ComplianceConfig, ComplianceEngine};
use tclose_core::{
    Algorithm, Anonymizer, Confidential, FittedAnonymizer, ModelArtifact, NeighborBackend,
};
use tclose_datasets::{census_hcd, census_mcd, patient_discharge, pii_patients, PATIENT_N, PII_N};
use tclose_microdata::csv::{read_csv_auto, write_csv};
use tclose_microdata::{AttributeRole, NormalizeMethod, Schema, Table};
use tclose_parallel::Parallelism;
use tclose_stream::{ShardedAnonymizer, DEFAULT_SHARD_ROWS};

/// Loads a CSV with inferred types and applies role assignments.
pub fn load_with_roles(
    path: &Path,
    qi: &[String],
    confidential: &[String],
) -> Result<Table, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut table = read_csv_auto(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut roles: Vec<(&str, AttributeRole)> = Vec::new();
    for name in qi {
        roles.push((name.as_str(), AttributeRole::QuasiIdentifier));
    }
    for name in confidential {
        roles.push((name.as_str(), AttributeRole::Confidential));
    }
    table
        .schema_mut()
        .set_roles(&roles)
        .map_err(|e| e.to_string())?;
    Ok(table)
}

/// Writes a table as CSV to `path`.
pub fn save(table: &Table, path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    write_csv(table, BufWriter::new(file)).map_err(|e| e.to_string())
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

/// Writes the policy's audit log (when enabled and given a path) and
/// returns the summary lines appended to a command's report.
fn compliance_summary(
    engine: &ComplianceEngine,
    cells: usize,
    audits: &[AuditRecord],
) -> Result<String, String> {
    let cfg = engine.config();
    let mut msg = format!(
        "\ncompliance          profile {} / strategy {} ({} cells scrubbed, {} audit records)\n\
         compliance fp       {}",
        cfg.profile.name(),
        cfg.strategy.name(),
        cells,
        audits.len(),
        engine.fingerprint(),
    );
    if cfg.audit_enabled {
        if let Some(path) = &cfg.audit_path {
            write_audit_log(Path::new(path), audits).map_err(|e| e.to_string())?;
            msg.push_str(&format!("\naudit log           {path}"));
        }
    }
    Ok(msg)
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
    let file = File::open(input).map_err(|e| format!("cannot open {}: {e}", input.display()))?;
    let table = read_csv_auto(BufReader::new(file)).map_err(|e| e.to_string())?;
    let report = engine.scan_table(&table).map_err(|e| e.to_string())?;
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

/// `tclose anonymize`: k-anonymous t-close release of a CSV file.
pub fn cmd_anonymize(p: &Parsed) -> Result<String, String> {
    let input = Path::new(p.require("input")?);
    let output = Path::new(p.require("output")?);
    let qi = p.get_list("qi");
    let confidential = p.get_list("confidential");
    if qi.is_empty() {
        return Err("--qi must list at least one quasi-identifier column".into());
    }
    if confidential.is_empty() {
        return Err("--confidential must list at least one column".into());
    }
    let k: usize = p.get_parsed("k", 0)?;
    if k == 0 {
        return Err("missing or invalid --k (must be ≥ 1)".into());
    }
    let t: f64 = p.get_parsed("t", f64::NAN)?;
    if !t.is_finite() {
        return Err("missing or invalid --t (must be in (0, 1])".into());
    }
    let algorithm = algorithm_by_name(p.get("algorithm").unwrap_or("alg3"))?;
    let workers = parse_workers(p)?;
    let backend = parse_backend(p)?;
    let compliance = parse_compliance(p)?;

    // Dry run: report what the policy would do, write nothing.
    if let Some(engine) = &compliance {
        if engine.config().dry_run {
            let table = load_with_roles(input, &qi, &confidential)?;
            let report = engine.scan_table(&table).map_err(|e| e.to_string())?;
            return Ok(format!(
                "{}\ndry run: no release or audit log written",
                report.render()
            ));
        }
    }

    if p.flag("stream") {
        return cmd_anonymize_stream(
            p,
            input,
            output,
            &qi,
            &confidential,
            k,
            t,
            algorithm,
            workers,
            backend,
            compliance,
        );
    }

    let table = load_with_roles(input, &qi, &confidential)?;
    // Compliance pre-pass: scrub direct identifiers before clustering —
    // same order as the streaming engine, so the two paths agree.
    let (table, scrub) = match &compliance {
        Some(engine) => {
            let s = engine.scrub_table(&table, 0).map_err(|e| e.to_string())?;
            (s.table, Some((s.cells, s.audits)))
        }
        None => (table, None),
    };
    let mut anonymizer = Anonymizer::new(k, t)
        .algorithm(algorithm)
        .with_backend(backend);
    if let Some(par) = workers {
        anonymizer = anonymizer.with_parallelism(par);
    }
    let out = anonymizer.anonymize(&table).map_err(|e| e.to_string())?;
    let mut released = out.table.drop_identifiers().map_err(|e| e.to_string())?;
    if let Some(engine) = &compliance {
        released = engine
            .drop_release_columns(&released)
            .map_err(|e| e.to_string())?;
    }
    save(&released, output)?;

    let r = &out.report;
    let mut msg = format!(
        "released {} records to {}\n\
         algorithm           {}\n\
         requested (k, t)    ({}, {})\n\
         achieved k          {}\n\
         achieved t (EMD)    {:.5}\n\
         equivalence classes {} (sizes min {} / mean {:.1} / max {})\n\
         normalized SSE      {:.6}\n\
         clustering time     {:?}",
        r.n_records,
        output.display(),
        r.algorithm,
        r.k_requested,
        r.t_requested,
        r.min_cluster_size,
        r.max_emd,
        r.n_clusters,
        r.min_cluster_size,
        r.mean_cluster_size,
        r.max_cluster_size,
        r.sse,
        r.clustering_time,
    );
    if let (Some(engine), Some((cells, audits))) = (&compliance, &scrub) {
        msg.push_str(&compliance_summary(engine, *cells, audits)?);
    }
    if !r.satisfies_request() {
        msg.push_str("\nwarning: the release does NOT meet the requested levels");
    }
    Ok(msg)
}

/// `tclose anonymize --stream`: the two-pass sharded out-of-core engine.
#[allow(clippy::too_many_arguments)]
fn cmd_anonymize_stream(
    p: &Parsed,
    input: &Path,
    output: &Path,
    qi: &[String],
    confidential: &[String],
    k: usize,
    t: f64,
    algorithm: Algorithm,
    workers: Option<Parallelism>,
    backend: NeighborBackend,
    compliance: Option<ComplianceEngine>,
) -> Result<String, String> {
    let shard_rows: usize = p.get_parsed("shard-size", DEFAULT_SHARD_ROWS)?;
    let mut engine = ShardedAnonymizer::new(k, t)
        .algorithm(algorithm)
        .shard_rows(shard_rows)
        .with_backend(backend);
    if let Some(par) = workers {
        engine = engine.with_parallelism(par);
    }
    if let Some(ce) = &compliance {
        engine = engine.with_compliance(ce.clone());
    }
    let r = engine
        .anonymize_file(input, output, qi, confidential)
        .map_err(|e| e.to_string())?;

    let mut msg = format!(
        "released {} records to {} (streaming, {} shards × ≤{} rows)\n\
         algorithm           {}\n\
         requested (k, t)    ({}, {})\n\
         achieved k          {} (worst shard)\n\
         achieved t (EMD)    {:.5} (worst shard, vs global distribution)\n\
         t budget spent      {:.1}% (worst EMD / requested t)\n\
         equivalence classes {} (sizes min {} / mean {:.1} / max {})\n\
         normalized SSE      {:.6}\n\
         fit pass            {:?}\n\
         anonymize pass      {:?}",
        r.n_records,
        output.display(),
        r.n_shards,
        r.shard_rows,
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
        r.fit_time,
        r.apply_time,
    );
    if let Some(ce) = &compliance {
        msg.push_str(&compliance_summary(
            ce,
            r.scrubbed_cells,
            &r.compliance_audits,
        )?);
    }
    if !r.satisfies_request() {
        msg.push_str("\nwarning: the release does NOT meet the requested levels");
    }
    Ok(msg)
}

/// Loads a CSV with inferred types and applies every role a fitted
/// model's schema declares — the `apply` path, where roles come from the
/// artifact instead of `--qi`/`--confidential` flags.
fn load_with_schema_roles(path: &Path, schema: &Schema) -> Result<Table, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut table = read_csv_auto(BufReader::new(file)).map_err(|e| e.to_string())?;
    let roles: Vec<(&str, AttributeRole)> = schema
        .attributes()
        .iter()
        .map(|a| (a.name.as_str(), a.role))
        .collect();
    table
        .schema_mut()
        .set_roles(&roles)
        .map_err(|e| format!("input does not match the model's schema: {e}"))?;
    Ok(table)
}

/// Parses the `--normalize` option (fit-time only; apply reads the
/// method back from the artifact).
fn parse_normalize(p: &Parsed) -> Result<NormalizeMethod, String> {
    match p.get("normalize") {
        None => Ok(NormalizeMethod::ZScore),
        Some(v) => NormalizeMethod::parse(v).ok_or_else(|| {
            format!("--normalize: unknown method {v:?} (expected zscore|minmax|none)")
        }),
    }
}

/// `tclose fit`: freeze the global state into a versioned model artifact.
pub fn cmd_fit(p: &Parsed) -> Result<String, String> {
    let input = Path::new(p.require("input")?);
    let out_path = Path::new(p.require("out")?);
    let qi = p.get_list("qi");
    let confidential = p.get_list("confidential");
    if qi.is_empty() {
        return Err("--qi must list at least one quasi-identifier column".into());
    }
    if confidential.is_empty() {
        return Err("--confidential must list at least one column".into());
    }
    let k: usize = p.get_parsed("k", 0)?;
    if k == 0 {
        return Err("missing or invalid --k (must be ≥ 1)".into());
    }
    let t: f64 = p.get_parsed("t", f64::NAN)?;
    if !t.is_finite() {
        return Err("missing or invalid --t (must be in (0, 1])".into());
    }
    let algorithm = algorithm_by_name(p.get("algorithm").unwrap_or("alg3"))?;
    let normalize = parse_normalize(p)?;

    let fitted = if p.flag("stream") {
        // Streaming fit: bounded memory, same accumulators as
        // `anonymize --stream`'s pass 1 — apply --stream of this model is
        // byte-identical to the fused streaming run.
        let shard_rows: usize = p.get_parsed("shard-size", DEFAULT_SHARD_ROWS)?;
        let fit = ShardedAnonymizer::new(k, t)
            .algorithm(algorithm)
            .normalization(normalize)
            .shard_rows(shard_rows)
            .fit_file(input, &qi, &confidential)
            .map_err(|e| e.to_string())?;
        Anonymizer::new(k, t)
            .algorithm(algorithm)
            .normalization(normalize)
            .with_fit(fit)
            .map_err(|e| e.to_string())?
    } else {
        // In-memory fit: identical statistics to the fused `anonymize`
        // path, so apply of this model is byte-identical to it.
        let table = load_with_roles(input, &qi, &confidential)?;
        Anonymizer::new(k, t)
            .algorithm(algorithm)
            .normalization(normalize)
            .fit(&table)
            .map_err(|e| e.to_string())?
    };

    // A fit under a compliance policy binds the model to it: `apply`
    // refuses to run under a different policy (or none). The fit itself
    // only reads QI / confidential columns, which the scrub never
    // touches, so the statistics are identical either way.
    let compliance = parse_compliance(p)?;
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
        qi.join(","),
        confidential.join(","),
    );
    if let Some(fp) = artifact.compliance_fingerprint() {
        msg.push_str(&format!("\ncompliance fp       {fp}"));
    }
    Ok(msg)
}

/// `tclose apply`: anonymize with a saved model, skipping the fit pass.
pub fn cmd_apply(p: &Parsed) -> Result<String, String> {
    let model_path = Path::new(p.require("model")?);
    let input = Path::new(p.require("input")?);
    let output = Path::new(p.require("output")?);
    let workers = parse_workers(p)?;
    let backend = parse_backend(p)?;
    let artifact = ModelArtifact::load(model_path).map_err(|e| e.to_string())?;
    let mp = artifact.params();

    // Policy binding: a model fitted under a compliance policy may only
    // be applied under the *same* policy — otherwise a release could
    // silently skip the scrub (or scrub with different rules/keys) that
    // the model's provenance promises.
    let compliance = parse_compliance(p)?;
    match (artifact.compliance_fingerprint(), &compliance) {
        (None, None) => {}
        (Some(fp), Some(engine)) => {
            let got = engine.fingerprint();
            if got != fp {
                return Err(format!(
                    "compliance policy mismatch: model {} was fitted under policy {fp} but \
                     --compliance resolves to {got}; pass the policy the model was fitted with",
                    model_path.display()
                ));
            }
        }
        (Some(fp), None) => {
            return Err(format!(
                "model {} is bound to compliance policy {fp}; pass --compliance with the \
                 same policy file",
                model_path.display()
            ));
        }
        (None, Some(_)) => {
            return Err(format!(
                "model {} was fitted without a compliance policy; refit with \
                 `tclose fit --compliance` to bind one",
                model_path.display()
            ));
        }
    }

    if p.flag("stream") {
        let shard_rows: usize = p.get_parsed("shard-size", DEFAULT_SHARD_ROWS)?;
        // Mirror the fused streaming engine's parallelism split: workers
        // across shards, sequential kernels inside each shard.
        let fitted = FittedAnonymizer::from_artifact(&artifact)
            .with_backend(backend)
            .with_parallelism(Parallelism::sequential());
        let mut engine = ShardedAnonymizer::new(mp.k, mp.t).shard_rows(shard_rows);
        if let Some(par) = workers {
            engine = engine.with_parallelism(par);
        }
        if let Some(ce) = &compliance {
            engine = engine.with_compliance(ce.clone());
        }
        let r = engine
            .apply_file_with(&fitted, input, output)
            .map_err(|e| e.to_string())?;
        let mut msg = format!(
            "released {} records to {} (pre-fitted model, {} shards × ≤{} rows)\n\
             model               {}\n\
             algorithm           {}\n\
             requested (k, t)    ({}, {})\n\
             achieved k          {} (worst shard)\n\
             achieved t (EMD)    {:.5} (worst shard, vs global distribution)\n\
             fit pass            skipped (pre-fitted model)\n\
             anonymize pass      {:?}",
            r.n_records,
            output.display(),
            r.n_shards,
            r.shard_rows,
            model_path.display(),
            r.algorithm,
            r.k_requested,
            r.t_requested,
            r.min_cluster_size,
            r.max_emd,
            r.apply_time,
        );
        if let Some(ce) = &compliance {
            msg.push_str(&compliance_summary(
                ce,
                r.scrubbed_cells,
                &r.compliance_audits,
            )?);
        }
        if !r.satisfies_request() {
            msg.push_str("\nwarning: the release does NOT meet the requested levels");
        }
        return Ok(msg);
    }

    let mut fitted = FittedAnonymizer::from_artifact(&artifact).with_backend(backend);
    if let Some(par) = workers {
        fitted = fitted.with_parallelism(par);
    }
    let table = load_with_schema_roles(input, artifact.global_fit().schema())?;
    let (table, scrub) = match &compliance {
        Some(engine) => {
            let s = engine.scrub_table(&table, 0).map_err(|e| e.to_string())?;
            (s.table, Some((s.cells, s.audits)))
        }
        None => (table, None),
    };
    let out = fitted.apply_shard(&table).map_err(|e| e.to_string())?;
    let mut released = out.table.drop_identifiers().map_err(|e| e.to_string())?;
    if let Some(engine) = &compliance {
        released = engine
            .drop_release_columns(&released)
            .map_err(|e| e.to_string())?;
    }
    save(&released, output)?;
    let r = &out.report;
    let mut msg = format!(
        "released {} records to {} (pre-fitted model)\n\
         model               {}\n\
         algorithm           {}\n\
         requested (k, t)    ({}, {})\n\
         achieved k          {}\n\
         achieved t (EMD)    {:.5}\n\
         equivalence classes {} (sizes min {} / mean {:.1} / max {})\n\
         normalized SSE      {:.6}\n\
         clustering time     {:?}",
        r.n_records,
        output.display(),
        model_path.display(),
        r.algorithm,
        r.k_requested,
        r.t_requested,
        r.min_cluster_size,
        r.max_emd,
        r.n_clusters,
        r.min_cluster_size,
        r.mean_cluster_size,
        r.max_cluster_size,
        r.sse,
        r.clustering_time,
    );
    if let (Some(engine), Some((cells, audits))) = (&compliance, &scrub) {
        msg.push_str(&compliance_summary(engine, *cells, audits)?);
    }
    if !r.satisfies_request() {
        msg.push_str("\nwarning: the release does NOT meet the requested levels");
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
    let table = load_with_roles(input, &qi, &confidential)?;
    let achieved_k = tclose_core::verify_k_anonymity(&table).map_err(|e| e.to_string())?;
    let conf = Confidential::from_table(&table).map_err(|e| e.to_string())?;
    let achieved_t =
        tclose_core::verify_t_closeness_with(&table, &conf, par).map_err(|e| e.to_string())?;
    let achieved_l = tclose_core::verify_l_diversity(&table).map_err(|e| e.to_string())?;
    let mut msg = format!(
        "audited {} records from {}\nachieved k (min class size) {}\nachieved t (max class EMD)  {:.5}\nachieved l (min distinct)   {}",
        table.n_rows(),
        input.display(),
        achieved_k,
        achieved_t,
        achieved_l,
    );
    // With `--t` the audit also grades the release against a requested
    // level: deviation ≤ 1.0 means the t-budget holds. This is the check
    // to run after an approximate-backend (`hybrid`) release.
    if let Some(v) = p.get("t") {
        let t: f64 = v
            .parse()
            .map_err(|e| format!("--t: {e}"))
            .and_then(|t: f64| {
                if t.is_finite() && t > 0.0 {
                    Ok(t)
                } else {
                    Err("--t must be a finite value > 0".into())
                }
            })?;
        let deviation = achieved_t / t;
        msg.push_str(&format!(
            "\nachieved t deviation        {deviation:.4} (achieved / requested {t}{})",
            if deviation <= 1.0 {
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
