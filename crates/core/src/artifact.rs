//! Versioned on-disk model artifacts: the fit/apply split made durable.
//!
//! A [`ModelArtifact`] freezes everything [`Anonymizer::fit`] computes —
//! the schema with column roles, the per-QI affine embedding, the ordered
//! EMD domains with their global distributions, and the privacy
//! parameters — into a schema-versioned JSON document that can be saved,
//! inspected, and loaded by a later process (or a different host). A
//! loaded artifact reconstructs a [`FittedAnonymizer`] whose releases are
//! **byte-identical** to fitting in memory: the serializer
//! ([`tclose_ser::Json`]) uses Rust's shortest round-trip `f64`
//! formatting, so every shift/scale pair and every domain value survives
//! the disk round trip exactly, and per-record bin assignments are
//! recomputed deterministically by rebinding.
//!
//! ## Document layout (schema_version 1)
//!
//! | field | contents |
//! |---|---|
//! | `kind` | the literal `"tclose-model-artifact"` |
//! | `schema_version` | format version of this document (see [`ARTIFACT_SCHEMA_VERSION`]) |
//! | `params` | `k`, `t`, algorithm name (one of the paper's three, see [`Algorithm::name`]) |
//! | `qi_schema` | every attribute's name/kind/role (+ dictionary labels), in column order |
//! | `embedding` | normalization method + per-QI `(shift, scale)` pairs |
//! | `emd_domains` | per confidential attribute: sorted distinct values + global bin counts |
//! | `n_records` | record count of the fitting data |
//! | `env_fingerprint` | toolchain/host/commit provenance, shared verbatim with `BENCH_*.json` |
//! | `compliance_fingerprint` | *(optional)* digest of the compliance scrub policy the model was fitted under |
//!
//! ## Versioning policy
//!
//! `schema_version` is bumped on any change that an older reader would
//! misinterpret. Loading is strict: a version other than
//! [`ARTIFACT_SCHEMA_VERSION`] is rejected with
//! [`ArtifactError::WrongVersion`] rather than best-effort parsed — a
//! silently mis-read model would corrupt releases, not crash them.
//!
//! [`Anonymizer::fit`]: crate::Anonymizer::fit

use std::fmt;
use std::path::Path;

use crate::confidential::Confidential;
use crate::fit::{FittedAnonymizer, GlobalFit, QiEmbedding};
use crate::params::TClosenessParams;
use crate::pipeline::Algorithm;
use tclose_metrics::emd::OrderedEmd;
use tclose_microdata::{AttributeDef, AttributeRole, NormalizeMethod, Schema};
use tclose_ser::{fingerprint, Fingerprint, Json};

/// Format version written by this build; loading any other version fails
/// with [`ArtifactError::WrongVersion`].
pub const ARTIFACT_SCHEMA_VERSION: u64 = 1;

/// The `kind` marker distinguishing model artifacts from the workspace's
/// other JSON documents (perf reports share the same serializer).
const ARTIFACT_KIND: &str = "tclose-model-artifact";

/// Why a model artifact could not be loaded (or saved).
///
/// Every variant renders as a one-line actionable message — the CLI
/// prints it verbatim and exits nonzero.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The file could not be read or written.
    Io {
        /// Path of the artifact file.
        path: String,
        /// Operating-system error detail.
        detail: String,
    },
    /// The payload is not a well-formed artifact document (invalid JSON,
    /// missing or ill-typed fields, internally inconsistent counts).
    Corrupted {
        /// Path of the artifact file, when the payload came from disk.
        path: Option<String>,
        /// What was malformed.
        detail: String,
    },
    /// The document declares a format version this build does not read.
    WrongVersion {
        /// Path of the artifact file, when the payload came from disk.
        path: Option<String>,
        /// Version found in the document.
        found: u64,
        /// Version this build reads.
        supported: u64,
    },
    /// The document is well-formed but its parts disagree — e.g. the
    /// embedding covers a different number of quasi-identifiers than the
    /// schema declares, or an EMD domain names an unknown attribute.
    SchemaMismatch {
        /// Path of the artifact file, when the payload came from disk.
        path: Option<String>,
        /// Which parts disagree.
        detail: String,
    },
    /// A field is well-formed but semantically invalid (out-of-range
    /// privacy parameters, unknown algorithm, zero records).
    InvalidModel {
        /// Path of the artifact file, when the payload came from disk.
        path: Option<String>,
        /// Which field is invalid.
        detail: String,
    },
}

impl ArtifactError {
    /// Attaches the on-disk path the document came from, so every variant
    /// names the offending file. [`ModelArtifact::load`] does this for
    /// its callers; directory scanners (the serve model registry) rely on
    /// it to say *which* artifact in a directory was rejected.
    pub fn with_path(mut self, p: &Path) -> Self {
        let located = p.display().to_string();
        match &mut self {
            ArtifactError::Io { path, .. } => *path = located,
            ArtifactError::Corrupted { path, .. }
            | ArtifactError::WrongVersion { path, .. }
            | ArtifactError::SchemaMismatch { path, .. }
            | ArtifactError::InvalidModel { path, .. } => *path = Some(located),
        }
        self
    }

    /// The artifact path the error refers to, when known.
    pub fn path(&self) -> Option<&str> {
        match self {
            ArtifactError::Io { path, .. } => Some(path),
            ArtifactError::Corrupted { path, .. }
            | ArtifactError::WrongVersion { path, .. }
            | ArtifactError::SchemaMismatch { path, .. }
            | ArtifactError::InvalidModel { path, .. } => path.as_deref(),
        }
    }
}

/// A [`ArtifactError::Corrupted`] with no path attached yet.
fn corrupted(detail: impl Into<String>) -> ArtifactError {
    ArtifactError::Corrupted {
        path: None,
        detail: detail.into(),
    }
}

/// A [`ArtifactError::SchemaMismatch`] with no path attached yet.
fn mismatched(detail: impl Into<String>) -> ArtifactError {
    ArtifactError::SchemaMismatch {
        path: None,
        detail: detail.into(),
    }
}

/// An [`ArtifactError::InvalidModel`] with no path attached yet.
fn invalid(detail: impl Into<String>) -> ArtifactError {
    ArtifactError::InvalidModel {
        path: None,
        detail: detail.into(),
    }
}

/// Renders `Some(path)` as ` <path>` and `None` as nothing, keeping every
/// message one line whether or not the document came from disk.
fn at(path: &Option<String>) -> String {
    match path {
        Some(p) => format!(" {p}"),
        None => String::new(),
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, detail } => {
                write!(f, "cannot access model {path}: {detail}")
            }
            ArtifactError::Corrupted { path, detail } => {
                write!(
                    f,
                    "model file{} is corrupted ({detail}); re-run `tclose fit` to regenerate it",
                    at(path)
                )
            }
            ArtifactError::WrongVersion {
                path,
                found,
                supported,
            } => {
                write!(
                    f,
                    "model{} has schema_version {found} but this build reads version \
                     {supported}; re-fit the model with this version",
                    at(path)
                )
            }
            ArtifactError::SchemaMismatch { path, detail } => {
                write!(f, "model{} schema mismatch: {detail}", at(path))
            }
            ArtifactError::InvalidModel { path, detail } => {
                write!(f, "model{} is invalid: {detail}", at(path))
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// The privacy parameters and algorithm a model was fitted for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Minimum equivalence-class size.
    pub k: usize,
    /// t-closeness threshold.
    pub t: f64,
    /// Clustering algorithm.
    pub algorithm: Algorithm,
}

/// A serializable, schema-versioned snapshot of one fitted model: the
/// [`GlobalFit`] plus the parameters it was fitted for and the
/// environment it was produced in.
///
/// Produced by [`ModelArtifact::from_fitted`]; consumed by
/// [`FittedAnonymizer::from_artifact`] and the streaming engine's
/// pre-fitted mode. See the module docs for the document layout and
/// versioning policy.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    schema_version: u64,
    params: ModelParams,
    fit: GlobalFit,
    env_fingerprint: Fingerprint,
    compliance_fingerprint: Option<String>,
}

impl ModelArtifact {
    /// Snapshots a fitted anonymizer, capturing the current environment
    /// fingerprint (the same capture `BENCH_*.json` reports embed).
    pub fn from_fitted(fitted: &FittedAnonymizer) -> Self {
        ModelArtifact {
            schema_version: ARTIFACT_SCHEMA_VERSION,
            params: ModelParams {
                k: fitted.params().k,
                t: fitted.params().t,
                algorithm: fitted.algorithm(),
            },
            fit: fitted.global_fit().clone(),
            env_fingerprint: fingerprint::capture(),
            compliance_fingerprint: None,
        }
    }

    /// Records the fingerprint of the compliance scrub policy the
    /// training data was scrubbed under (see
    /// `tclose_compliance::ComplianceConfig::fingerprint`). `apply`
    /// refuses to pair this model with a different policy — or with no
    /// policy at all — so a model fitted on scrubbed data can never
    /// silently produce an unscrubbed release.
    pub fn with_compliance_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.compliance_fingerprint = Some(fingerprint.into());
        self
    }

    /// The compliance policy fingerprint recorded at fit time, if any.
    pub fn compliance_fingerprint(&self) -> Option<&str> {
        self.compliance_fingerprint.as_deref()
    }

    /// Format version of the document this artifact was loaded from
    /// (always [`ARTIFACT_SCHEMA_VERSION`] for freshly fitted ones).
    pub fn schema_version(&self) -> u64 {
        self.schema_version
    }

    /// The privacy parameters and algorithm the model was fitted for.
    pub fn params(&self) -> ModelParams {
        self.params
    }

    /// The frozen global fit.
    pub fn global_fit(&self) -> &GlobalFit {
        &self.fit
    }

    /// Provenance of the fit: toolchain, host shape, build profile and
    /// source revision at fitting time.
    pub fn env_fingerprint(&self) -> &Fingerprint {
        &self.env_fingerprint
    }

    /// The artifact as a JSON document (see the module docs for the
    /// layout). Serialization is byte-stable: serializing an unchanged
    /// artifact twice yields identical bytes.
    pub fn to_json(&self) -> Json {
        let params = vec![
            ("k".into(), Json::Num(self.params.k as f64)),
            ("t".into(), Json::Num(self.params.t)),
            (
                "algorithm".into(),
                Json::Str(self.params.algorithm.name().to_owned()),
            ),
        ];
        let embedding = self.fit.embedding();
        let emd_domains = self
            .fit
            .schema()
            .confidential()
            .iter()
            .zip(self.fit.confidential().emds())
            .map(|(&a, emd)| {
                let name = self.fit.schema().attributes()[a].name.clone();
                let (values, counts) = emd.to_global_parts();
                Json::Obj(vec![
                    ("attribute".into(), Json::Str(name)),
                    (
                        "values".into(),
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                    (
                        "global_counts".into(),
                        Json::Arr(counts.iter().map(|&c| Json::Num(c as f64)).collect()),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("kind".into(), Json::Str(ARTIFACT_KIND.to_owned())),
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("params".into(), Json::Obj(params)),
            ("qi_schema".into(), schema_to_json(self.fit.schema())),
            (
                "embedding".into(),
                Json::Obj(vec![
                    (
                        "method".into(),
                        Json::Str(embedding.method().name().to_owned()),
                    ),
                    (
                        "shifts".into(),
                        Json::Arr(
                            embedding
                                .params()
                                .iter()
                                .map(|&(s, _)| Json::Num(s))
                                .collect(),
                        ),
                    ),
                    (
                        "scales".into(),
                        Json::Arr(
                            embedding
                                .params()
                                .iter()
                                .map(|&(_, s)| Json::Num(s))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("emd_domains".into(), Json::Arr(emd_domains)),
            ("n_records".into(), Json::Num(self.fit.n_records() as f64)),
            ("env_fingerprint".into(), self.env_fingerprint.to_json()),
        ];
        // Optional trailing field: artifacts fitted without a compliance
        // policy serialize byte-identically to pre-compliance builds.
        if let Some(fp) = &self.compliance_fingerprint {
            fields.push(("compliance_fingerprint".into(), Json::Str(fp.clone())));
        }
        Json::Obj(fields)
    }

    /// The serialized document (two-space indented JSON with a trailing
    /// newline).
    pub fn to_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses and validates a serialized artifact. See [`ArtifactError`]
    /// for the failure taxonomy; validation is strict — every reconstructed
    /// part is re-checked against the schema it claims to cover.
    pub fn from_json_str(s: &str) -> Result<Self, ArtifactError> {
        let doc = Json::parse(s).map_err(|e| corrupted(format!("invalid JSON: {e}")))?;
        Self::from_json(&doc)
    }

    /// Validates and reconstructs an artifact from a parsed document.
    pub fn from_json(doc: &Json) -> Result<Self, ArtifactError> {
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("");
        if kind != ARTIFACT_KIND {
            return Err(corrupted(format!(
                "not a model artifact (kind {kind:?}, expected {ARTIFACT_KIND:?})"
            )));
        }
        let version = num_field(doc, "schema_version")? as u64;
        if version != ARTIFACT_SCHEMA_VERSION {
            return Err(ArtifactError::WrongVersion {
                path: None,
                found: version,
                supported: ARTIFACT_SCHEMA_VERSION,
            });
        }

        // params
        let params = doc.get("params").ok_or_else(|| missing("params"))?;
        let k = num_field(params, "k")?;
        if k < 1.0 || k.fract() != 0.0 {
            return Err(invalid(format!("k must be a positive integer, got {k}")));
        }
        let t = num_field(params, "t")?;
        let tparams = TClosenessParams::new(k as usize, t).map_err(|e| invalid(e.to_string()))?;
        let algorithm = algorithm_from_name(str_field(params, "algorithm")?)?;

        // schema
        let schema = schema_from_json(doc.get("qi_schema").ok_or_else(|| missing("qi_schema"))?)?;

        // embedding
        let emb = doc.get("embedding").ok_or_else(|| missing("embedding"))?;
        let method = NormalizeMethod::parse(str_field(emb, "method")?).ok_or_else(|| {
            invalid(format!(
                "unknown normalization method {:?}",
                emb.get("method").and_then(Json::as_str).unwrap_or("")
            ))
        })?;
        let shifts = f64_array(emb, "shifts")?;
        let scales = f64_array(emb, "scales")?;
        if shifts.len() != scales.len() {
            return Err(corrupted(format!(
                "embedding has {} shifts but {} scales",
                shifts.len(),
                scales.len()
            )));
        }
        let embedding = QiEmbedding::from_params(method, shifts.into_iter().zip(scales).collect());

        // EMD domains
        let domains = doc
            .get("emd_domains")
            .and_then(Json::as_arr)
            .ok_or_else(|| missing("emd_domains"))?;
        let conf_attrs = schema.confidential();
        if domains.len() != conf_attrs.len() {
            return Err(mismatched(format!(
                "document has {} EMD domains but the schema declares {} confidential \
                 attributes",
                domains.len(),
                conf_attrs.len()
            )));
        }
        let mut emds = Vec::with_capacity(domains.len());
        for (domain, &a) in domains.iter().zip(&conf_attrs) {
            let expected = &schema.attributes()[a].name;
            let named = str_field(domain, "attribute")?;
            if named != expected {
                return Err(mismatched(format!(
                    "EMD domain is for attribute {named:?} but the schema's confidential \
                     attribute in that position is {expected:?}"
                )));
            }
            let values = f64_array(domain, "values")?;
            let counts = u32_array(domain, "global_counts")?;
            emds.push(
                OrderedEmd::try_from_global(values, counts)
                    .map_err(|e| corrupted(format!("EMD domain for {named:?}: {e}")))?,
            );
        }
        let conf = Confidential::from_emds(emds).map_err(|e| corrupted(e.to_string()))?;

        let n_records = num_field(doc, "n_records")? as usize;
        if conf.n() != n_records {
            return Err(corrupted(format!(
                "n_records is {n_records} but the EMD global counts sum to {}",
                conf.n()
            )));
        }

        let env_fingerprint = Fingerprint::from_json(
            doc.get("env_fingerprint")
                .ok_or_else(|| missing("env_fingerprint"))?,
        )
        .map_err(corrupted)?;

        let fit = GlobalFit::from_parts(schema, embedding, conf, n_records)
            .map_err(|e| mismatched(e.to_string()))?;

        let compliance_fingerprint = match doc.get("compliance_fingerprint") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| corrupted("compliance_fingerprint is not a string"))?
                    .to_owned(),
            ),
        };

        Ok(ModelArtifact {
            schema_version: version,
            params: ModelParams {
                k: tparams.k,
                t: tparams.t,
                algorithm,
            },
            fit,
            env_fingerprint,
            compliance_fingerprint,
        })
    }

    /// Writes the artifact to `path`.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        std::fs::write(path, self.to_string_pretty()).map_err(|e| ArtifactError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }

    /// Reads and validates the artifact at `path`.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let s = std::fs::read_to_string(path).map_err(|e| ArtifactError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::from_json_str(&s).map_err(|e| e.with_path(path))
    }
}

/// The algorithm a model file names: one of the paper's three, by
/// [`Algorithm::name`]. Any other name is an invalid model.
fn algorithm_from_name(name: &str) -> Result<Algorithm, ArtifactError> {
    match name {
        "Alg1-merge" => Ok(Algorithm::Merge),
        "Alg2-kfirst" => Ok(Algorithm::KAnonymityFirst),
        "Alg3-tfirst" => Ok(Algorithm::TClosenessFirst),
        other => Err(invalid(format!("unknown algorithm {other:?}"))),
    }
}

/// Serializes every attribute (name, kind, role, dictionary labels for
/// categorical kinds), in column order. The whole schema is stored — not
/// just the QIs — because apply needs kinds and roles for every column to
/// parse input shards identically to the fit.
fn schema_to_json(schema: &Schema) -> Json {
    Json::Arr(
        schema
            .attributes()
            .iter()
            .map(|a| {
                let mut fields = vec![
                    ("name".into(), Json::Str(a.name.clone())),
                    ("kind".into(), Json::Str(a.kind.name().to_owned())),
                    ("role".into(), Json::Str(a.role.name().to_owned())),
                ];
                if a.kind.is_categorical() {
                    fields.push((
                        "labels".into(),
                        Json::Arr(
                            a.dictionary
                                .labels()
                                .map(|l| Json::Str(l.to_owned()))
                                .collect(),
                        ),
                    ));
                }
                Json::Obj(fields)
            })
            .collect(),
    )
}

fn schema_from_json(v: &Json) -> Result<Schema, ArtifactError> {
    let items = v
        .as_arr()
        .ok_or_else(|| corrupted("qi_schema is not an array"))?;
    let mut attrs = Vec::with_capacity(items.len());
    for item in items {
        let name = str_field(item, "name")?;
        let role = str_field(item, "role")?;
        let role = AttributeRole::parse(role)
            .ok_or_else(|| corrupted(format!("unknown attribute role {role:?}")))?;
        let kind = str_field(item, "kind")?;
        let labels = || -> Result<Vec<String>, ArtifactError> {
            item.get("labels")
                .and_then(Json::as_arr)
                .ok_or_else(|| {
                    corrupted(format!(
                        "categorical attribute {name:?} has no labels array"
                    ))
                })?
                .iter()
                .map(|l| {
                    l.as_str().map(str::to_owned).ok_or_else(|| {
                        corrupted(format!("attribute {name:?} has a non-string label"))
                    })
                })
                .collect::<Result<_, _>>()
        };
        attrs.push(match kind {
            "numeric" => AttributeDef::numeric(name, role),
            "ordinal" => AttributeDef::ordinal(name, role, labels()?),
            "nominal" => AttributeDef::nominal(name, role, labels()?),
            other => return Err(corrupted(format!("unknown attribute kind {other:?}"))),
        });
    }
    Schema::new(attrs).map_err(|e| corrupted(e.to_string()))
}

fn missing(field: &str) -> ArtifactError {
    corrupted(format!("missing field {field:?}"))
}

fn num_field(v: &Json, field: &str) -> Result<f64, ArtifactError> {
    v.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| corrupted(format!("missing numeric field {field:?}")))
}

fn str_field<'a>(v: &'a Json, field: &str) -> Result<&'a str, ArtifactError> {
    v.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| corrupted(format!("missing string field {field:?}")))
}

fn f64_array(v: &Json, field: &str) -> Result<Vec<f64>, ArtifactError> {
    v.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| corrupted(format!("missing array field {field:?}")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| corrupted(format!("non-numeric entry in {field:?}")))
        })
        .collect()
}

fn u32_array(v: &Json, field: &str) -> Result<Vec<u32>, ArtifactError> {
    f64_array(v, field)?
        .into_iter()
        .map(|x| {
            if x.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&x) {
                Ok(x as u32)
            } else {
                Err(corrupted(format!(
                    "entry {x} in {field:?} is not a u32 count"
                )))
            }
        })
        .collect()
}

/// The achieved k/t guarantee transfers across the disk round trip: a
/// loaded artifact reconstructs the exact global state, so the paper's
/// per-algorithm guarantees hold unchanged for any shard it is applied to.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Anonymizer;
    use tclose_microdata::{Table, Value};

    fn demo_table(n: usize) -> Table {
        let schema = Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::ordinal("edu", AttributeRole::QuasiIdentifier, ["lo", "mid", "hi"]),
            AttributeDef::numeric("wage", AttributeRole::Confidential),
            AttributeDef::nominal("note", AttributeRole::NonConfidential, ["x", "y"]),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(&[
                Value::Number(20.0 + (i % 40) as f64 + 0.1),
                Value::Category((i % 3) as u32),
                Value::Number(((i * 13) % 7) as f64 * 97.3),
                Value::Category((i % 2) as u32),
            ])
            .unwrap();
        }
        t
    }

    fn demo_artifact() -> ModelArtifact {
        let table = demo_table(40);
        let fitted = Anonymizer::new(3, 0.3).fit(&table).unwrap();
        ModelArtifact::from_fitted(&fitted)
    }

    #[test]
    fn round_trip_preserves_every_part_exactly() {
        let art = demo_artifact();
        let s = art.to_string_pretty();
        let back = ModelArtifact::from_json_str(&s).unwrap();

        assert_eq!(back.schema_version(), ARTIFACT_SCHEMA_VERSION);
        assert_eq!(back.params(), art.params());
        assert_eq!(back.env_fingerprint(), art.env_fingerprint());
        let (a, b) = (art.global_fit(), back.global_fit());
        assert_eq!(a.schema().attributes(), b.schema().attributes());
        assert_eq!(a.qi(), b.qi());
        assert_eq!(a.n_records(), b.n_records());
        assert_eq!(a.embedding(), b.embedding(), "shifts/scales bit-exact");
        for (x, y) in a.confidential().emds().iter().zip(b.confidential().emds()) {
            let (xv, xc) = x.to_global_parts();
            let (yv, yc) = y.to_global_parts();
            assert_eq!(xc, yc);
            assert!(xv.iter().zip(yv).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
        // Serialization is byte-stable across the round trip.
        assert_eq!(back.to_string_pretty(), s);
    }

    #[test]
    fn loaded_artifact_applies_byte_identically() {
        let table = demo_table(60);
        let anon = Anonymizer::new(3, 0.25);
        let fused = anon.anonymize(&table).unwrap();

        let art = ModelArtifact::from_fitted(&anon.fit(&table).unwrap());
        let back = ModelArtifact::from_json_str(&art.to_string_pretty()).unwrap();
        let out = FittedAnonymizer::from_artifact(&back)
            .apply_shard(&table)
            .unwrap();
        assert_eq!(out.table, fused.table);
        assert_eq!(out.report.max_emd.to_bits(), fused.report.max_emd.to_bits());
        assert_eq!(out.report.sse.to_bits(), fused.report.sse.to_bits());
    }

    #[test]
    fn compliance_fingerprint_round_trips_and_defaults_to_none() {
        let art = demo_artifact();
        assert_eq!(art.compliance_fingerprint(), None);
        let plain = art.to_string_pretty();
        assert!(!plain.contains("compliance_fingerprint"));
        assert_eq!(
            ModelArtifact::from_json_str(&plain)
                .unwrap()
                .compliance_fingerprint(),
            None
        );

        let stamped = demo_artifact().with_compliance_fingerprint("ab12cd34");
        let s = stamped.to_string_pretty();
        assert!(s.contains("\"compliance_fingerprint\": \"ab12cd34\""));
        let back = ModelArtifact::from_json_str(&s).unwrap();
        assert_eq!(back.compliance_fingerprint(), Some("ab12cd34"));
        assert_eq!(back.to_string_pretty(), s, "byte-stable with the field");

        let tampered = s.replace("\"ab12cd34\"", "42");
        assert!(matches!(
            ModelArtifact::from_json_str(&tampered),
            Err(ArtifactError::Corrupted { .. })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let art = demo_artifact();
        let bumped = art
            .to_string_pretty()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        match ModelArtifact::from_json_str(&bumped) {
            Err(ArtifactError::WrongVersion {
                found, supported, ..
            }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, ARTIFACT_SCHEMA_VERSION);
            }
            other => panic!("expected WrongVersion, got {other:?}"),
        }
    }

    #[test]
    fn rejects_foreign_and_corrupted_payloads() {
        // not JSON at all
        assert!(matches!(
            ModelArtifact::from_json_str("not json"),
            Err(ArtifactError::Corrupted { .. })
        ));
        // valid JSON, wrong kind
        assert!(matches!(
            ModelArtifact::from_json_str("{\"kind\": \"something-else\"}"),
            Err(ArtifactError::Corrupted { .. })
        ));
        // truncated document
        let s = demo_artifact().to_string_pretty();
        assert!(matches!(
            ModelArtifact::from_json_str(&s[..s.len() / 2]),
            Err(ArtifactError::Corrupted { .. })
        ));
        // tampered counts: n_records no longer matches the global counts
        let tampered = s.replace("\"n_records\": 40", "\"n_records\": 41");
        assert!(matches!(
            ModelArtifact::from_json_str(&tampered),
            Err(ArtifactError::Corrupted { .. })
        ));
    }

    #[test]
    fn rejects_internally_mismatched_schema() {
        let art = demo_artifact();
        // Rename the confidential attribute in the schema only: the EMD
        // domain then names an attribute the schema doesn't declare there.
        let s = art.to_string_pretty().replacen("\"wage\"", "\"salary\"", 1);
        assert!(matches!(
            ModelArtifact::from_json_str(&s),
            Err(ArtifactError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn rejects_invalid_params_and_algorithm() {
        let s = demo_artifact().to_string_pretty();
        let bad_t = s.replace("\"t\": 0.3", "\"t\": 1.7");
        assert!(matches!(
            ModelArtifact::from_json_str(&bad_t),
            Err(ArtifactError::InvalidModel { .. })
        ));
        // Only the paper's three algorithms load: an unknown name, and
        // every ablation variant the experiments build, is rejected.
        let mut cases: Vec<(&str, String)> = [
            "Alg9-imaginary",
            "Alg2-kfirst(no-fallback)",
            "Alg1-merge(V-MDAV)",
            "Alg1-merge(EMD-partner)",
            "Alg2-kfirst(add)",
            "Alg3-tfirst(tail)",
        ]
        .into_iter()
        .map(|name| (name, s.replace("\"Alg3-tfirst\"", &format!("{name:?}"))))
        .collect();
        let vmdav = s.replace(
            "\"Alg3-tfirst\"",
            "\"Alg1-merge(V-MDAV)\",\n    \"gamma\": 0.2",
        );
        cases.push(("Alg1-merge(V-MDAV)", vmdav));
        for (name, doc) in cases {
            match ModelArtifact::from_json_str(&doc) {
                Err(e @ ArtifactError::InvalidModel { .. }) => {
                    assert!(e.to_string().contains(name), "{e}")
                }
                other => panic!("{name}: expected InvalidModel, got {other:?}"),
            }
        }
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("tclose_artifact_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let art = demo_artifact();
        art.save(&path).unwrap();
        let back = ModelArtifact::load(&path).unwrap();
        assert_eq!(back.to_string_pretty(), art.to_string_pretty());

        // missing file is an Io error naming the path
        let missing = dir.join("nope.json");
        match ModelArtifact::load(&missing) {
            Err(ArtifactError::Io { path, .. }) => assert!(path.contains("nope.json")),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn every_load_error_variant_names_the_offending_path() {
        let dir = std::env::temp_dir().join("tclose_artifact_path_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let good = demo_artifact().to_string_pretty();
        // (file name, tampered payload) pairs covering every disk-borne
        // load-failure variant; each loaded error must carry the path
        // both in the typed field and in the rendered message.
        let cases: [(&str, String); 4] = [
            ("corrupt.json", good[..good.len() / 2].to_string()),
            (
                "future.json",
                good.replace("\"schema_version\": 1", "\"schema_version\": 99"),
            ),
            ("mismatch.json", good.replacen("\"wage\"", "\"salary\"", 1)),
            ("invalid.json", good.replace("\"t\": 0.3", "\"t\": 1.7")),
        ];
        for (name, payload) in cases {
            let path = dir.join(name);
            std::fs::write(&path, payload).unwrap();
            let err = ModelArtifact::load(&path).unwrap_err();
            let p = err.path().unwrap_or_default().to_owned();
            assert!(p.contains(name), "{name}: path() = {p:?}");
            let msg = err.to_string();
            assert!(msg.contains(name), "{name}: message omits path: {msg}");
            assert!(!msg.contains('\n'), "{name}: multi-line: {msg}");
        }
        // In-memory parses keep path() = None (nothing to name).
        let err = ModelArtifact::from_json_str("not json").unwrap_err();
        assert_eq!(err.path(), None);
    }
}
