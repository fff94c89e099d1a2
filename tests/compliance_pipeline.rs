//! Cross-crate guarantees of the compliance layer.
//!
//! Pins the acceptance properties of the identifier-column scrub as one
//! pipeline, through the public umbrella API:
//!
//! 1. A compliant streamed release of the planted-PII fixture carries
//!    **zero** planted identifiers while still auditing k-anonymous and
//!    t-close — the scrub closes the direct-identifier gap without
//!    touching the paper's guarantee.
//! 2. The audit log is exactly one JSONL line per transformed cell
//!    (equal to the scan's "cells pending transform"), parses with the
//!    shared JSON reader, and never contains plaintext. A policy without
//!    a log only counts those records, and writes no file.
//! 3. Scrubbing is a pure per-cell function: chunked scrubs concatenate
//!    to the monolithic scrub for any chunk size, and the log of an
//!    in-memory release is the log of a streamed one at any shard size
//!    and worker count.
//! 4. The policy fingerprint survives the model-artifact JSON round trip
//!    and separates policies, so `apply` can refuse a mismatch.
//! 5. The scrubbed bytes and audit log of every strategy are pinned by
//!    digest, on the fixture and on a table of repeated labels.

use std::path::{Path, PathBuf};

use tclose::compliance::sha256::sha256_hex;
use tclose::compliance::{ComplianceConfig, ComplianceEngine, Strategy};
use tclose::core::{verify_k_anonymity, verify_t_closeness, Confidential};
use tclose::datasets::{pii_patients, PII_N};
use tclose::microdata::csv::{read_csv_auto, write_csv};
use tclose::microdata::{AttributeDef, AttributeRole, Column, Schema, Table};
use tclose::prelude::*;
use tclose::ser::Json;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tclose_compliance_pipeline_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn hipaa() -> ComplianceEngine {
    ComplianceEngine::new(ComplianceConfig::default()).unwrap()
}

/// `config`, writing its audit log to `log`.
fn logged(config: ComplianceConfig, log: &Path) -> ComplianceEngine {
    ComplianceEngine::new(ComplianceConfig {
        audit_path: Some(log.display().to_string()),
        ..config
    })
    .unwrap()
}

/// Writes `lines` through the engine's audit log and returns the file.
fn write_log(engine: &ComplianceEngine, lines: &str) -> Vec<u8> {
    let mut log = engine.open_audit_log().unwrap().expect("a logged policy");
    log.append(lines).unwrap();
    log.commit().unwrap();
    std::fs::read(engine.config().audit_log_path().unwrap()).unwrap()
}

const QI: [&str; 3] = ["AGE", "ZIP", "STAY_DAYS"];

#[test]
fn compliant_streamed_release_is_tclose_with_zero_planted_identifiers() {
    let table = pii_patients(5, PII_N);
    let input = tmp("pii_pipeline.csv");
    write_csv(&table, std::fs::File::create(&input).unwrap()).unwrap();

    let output = tmp("pii_pipeline_anon.csv");
    let qi: Vec<String> = QI.iter().map(|s| (*s).to_owned()).collect();
    let report = ShardedAnonymizer::new(4, 0.35)
        .shard_rows(100)
        .with_compliance(hipaa())
        .anonymize_file(&input, &output, &qi, &["CHARGE".to_owned()])
        .unwrap();
    assert_eq!(report.n_records, PII_N);
    // 5 planted hits per row: NAME, SSN, EMAIL, PHONE, NOTES-embedded email.
    assert_eq!(report.scrubbed_cells, 5 * PII_N);
    assert_eq!(report.compliance_audits, 5 * PII_N);

    // No planted identifier survives, in any column, in any form.
    let text = std::fs::read_to_string(&output).unwrap();
    assert!(!text.contains("@example.com"), "EMAIL column leaked");
    assert!(!text.contains("@mail.example.org"), "NOTES email leaked");
    assert!(text.contains("TOK_"), "no tokens — was anything scrubbed?");

    // Re-scanning the release finds nothing left to transform.
    let released = read_csv_auto(std::io::Cursor::new(text.as_bytes())).unwrap();
    let rescan = hipaa().scan_table(&released).unwrap();
    assert_eq!(
        rescan.pending_transform(),
        0,
        "release still has pending PII:\n{}",
        rescan.render()
    );

    // And the release still audits k-anonymous and t-close.
    let mut released = released;
    released
        .schema_mut()
        .set_roles(&[
            ("AGE", AttributeRole::QuasiIdentifier),
            ("ZIP", AttributeRole::QuasiIdentifier),
            ("STAY_DAYS", AttributeRole::QuasiIdentifier),
            ("CHARGE", AttributeRole::Confidential),
        ])
        .unwrap();
    let k = verify_k_anonymity(&released).unwrap();
    assert!(k >= 4, "audited k = {k}");
    let conf = Confidential::from_table(&table).unwrap();
    let t = verify_t_closeness(&released, &conf).unwrap();
    assert!(t <= 0.35 + 1e-9, "audited t = {t}");
}

#[test]
fn audit_log_matches_the_scan_and_never_leaks_plaintext() {
    let table = pii_patients(6, 200);
    let engine = logged(ComplianceConfig::default(), &tmp("pipeline_audit.jsonl"));

    // Scan and scrub share one detection pass, so the scan's pending
    // count *is* the audit-record count.
    let scan = engine.scan_table(&table).unwrap();
    let scrub = engine.scrub_table(&table, 0).unwrap();
    assert_eq!(scan.pending_transform(), scrub.records);
    assert_eq!(scrub.cells, scrub.records);

    let text = String::from_utf8(write_log(&engine, &scrub.log)).unwrap();
    assert_eq!(text.lines().count(), scrub.records);

    let mut last_row = 0usize;
    for line in text.lines() {
        let json = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL {line:?}: {e}"));
        let row = json.get("row").unwrap().as_f64().unwrap() as usize;
        assert!(row >= last_row, "audit rows out of order");
        last_row = row;
        let hash = json.get("hash").unwrap().as_str().unwrap();
        assert_eq!(hash.len(), 64);
        assert!(hash.chars().all(|c| c.is_ascii_hexdigit()));
    }
    // The log names columns and rules, never cell contents.
    assert!(
        !text.contains("@example.com"),
        "plaintext email in audit log"
    );
    assert!(!text.contains("(555)"), "plaintext phone in audit log");
    for needle in [
        "\"column\":\"EMAIL\"",
        "\"rule\":\"ssn\"",
        "\"strategy\":\"tokenize\"",
    ] {
        assert!(text.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn chunked_scrub_concatenates_to_the_monolithic_scrub() {
    // The streaming engine relies on the scrub being a pure per-cell
    // function: scrubbing chunk [offset..offset+len) must agree with the
    // same rows of a whole-table scrub, for any chunking.
    let table = pii_patients(8, 120);
    let engine = logged(ComplianceConfig::default(), &tmp("chunked_audit.jsonl"));
    let whole = engine.scrub_table(&table, 0).unwrap();
    assert_eq!(whole.log.lines().count(), whole.records);

    for chunk_rows in [1usize, 3, 7, 50, 119, 120] {
        let mut log = String::new();
        let mut cells = 0;
        let mut offset = 0;
        while offset < table.n_rows() {
            let rows: Vec<usize> = (offset..(offset + chunk_rows).min(table.n_rows())).collect();
            let chunk = table.take_rows(&rows).unwrap();
            let scrub = engine.scrub_table(&chunk, offset).unwrap();
            // Cell-for-cell identical to the same slice of the whole scrub.
            for c in 0..chunk.n_cols() {
                let attr = &scrub.table.schema().attributes()[c];
                if !attr.kind.is_categorical() {
                    continue;
                }
                for (i, &code) in scrub
                    .table
                    .categorical_column(c)
                    .unwrap()
                    .iter()
                    .enumerate()
                {
                    let got = attr.dictionary.label(code).unwrap();
                    let whole_attr = &whole.table.schema().attributes()[c];
                    let want = whole_attr
                        .dictionary
                        .label(whole.table.categorical_column(c).unwrap()[offset + i])
                        .unwrap();
                    assert_eq!(got, want, "chunk {chunk_rows}, col {c}, row {}", offset + i);
                }
            }
            log.push_str(&scrub.log);
            cells += scrub.cells;
            offset += chunk_rows;
        }
        assert_eq!(log, whole.log, "chunk size {chunk_rows}");
        assert_eq!(cells, whole.cells, "chunk size {chunk_rows}");
    }
}

/// The pii fixture of `seed` and `n` rows, written as CSV to `name`.
fn pii_csv(name: &str, seed: u64, n: usize) -> PathBuf {
    let input = tmp(name);
    write_csv(
        &pii_patients(seed, n),
        std::fs::File::create(&input).unwrap(),
    )
    .unwrap();
    input
}

fn qi_owned() -> Vec<String> {
    QI.iter().map(|s| (*s).to_owned()).collect()
}

/// Reads `input` in memory with the fixture's QIs and CHARGE
/// confidential.
fn read_pii(input: &Path) -> Table {
    tclose::stream::read_with_roles(
        std::fs::File::open(input).unwrap(),
        tclose::stream::Roles::Named {
            qi: &qi_owned(),
            confidential: &["CHARGE".to_owned()],
        },
    )
    .unwrap()
}

/// A directory of its own, emptied.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = tmp(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dir_entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn an_unlogged_policy_counts_its_records_and_writes_no_file() {
    let input = pii_csv("unlogged_in.csv", 12, 300);
    let table = read_pii(&input);
    let pending = hipaa().scan_table(&table).unwrap().pending_transform();
    assert_eq!(pending, 5 * 300);

    let dir = fresh_dir("unlogged");
    let report = ShardedAnonymizer::new(4, 0.35)
        .shard_rows(120)
        .with_parallelism(Parallelism::workers(2))
        .with_compliance(hipaa())
        .anonymize_file(
            &input,
            &dir.join("release.csv"),
            &qi_owned(),
            &["CHARGE".to_owned()],
        )
        .unwrap();
    assert_eq!(report.compliance_audits, pending);
    assert_eq!(dir_entries(&dir), ["release.csv"]);

    let fitted = Anonymizer::new(4, 0.35).fit(&table).unwrap();
    let shard = tclose::stream::release_shard(&fitted, Some(&hipaa()), &table, 0).unwrap();
    assert_eq!(shard.audit_records, pending);
    assert!(shard.audit_log.is_empty());
}

#[test]
fn the_audit_log_does_not_depend_on_sharding() {
    let input = pii_csv("sharding_in.csv", 13, 500);
    let conf = ["CHARGE".to_owned()];
    let dir = fresh_dir("sharding");

    // In memory: one shard, its lines written through the same log.
    let table = read_pii(&input);
    let engine = logged(ComplianceConfig::default(), &dir.join("memory.jsonl"));
    let fitted = Anonymizer::new(4, 0.35).fit(&table).unwrap();
    let shard = tclose::stream::release_shard(&fitted, Some(&engine), &table, 0).unwrap();
    let memory = write_log(&engine, &shard.audit_log);
    assert_eq!(memory.iter().filter(|&&b| b == b'\n').count(), 5 * 500);

    for shard_rows in [120usize, 250, 10_000] {
        for workers in [1usize, 4] {
            let log = dir.join(format!("stream_{shard_rows}_{workers}.jsonl"));
            let report = ShardedAnonymizer::new(4, 0.35)
                .shard_rows(shard_rows)
                .with_parallelism(Parallelism::workers(workers))
                .with_compliance(logged(ComplianceConfig::default(), &log))
                .anonymize_file(&input, &dir.join("release.csv"), &qi_owned(), &conf)
                .unwrap();
            assert_eq!(report.compliance_audits, shard.audit_records);
            assert!(
                std::fs::read(&log).unwrap() == memory,
                "shard_rows={shard_rows} workers={workers}"
            );
        }
    }
    // Nothing but the logs and the release is left behind.
    assert_eq!(dir_entries(&dir).len(), 1 + 1 + 3 * 2);
}

#[test]
fn policy_fingerprint_round_trips_through_the_model_artifact() {
    let table = pii_patients(9, 150);
    let qi: Vec<(&str, AttributeRole)> = QI
        .iter()
        .map(|s| (*s, AttributeRole::QuasiIdentifier))
        .chain(std::iter::once(("CHARGE", AttributeRole::Confidential)))
        .collect();
    let mut table = table;
    table.schema_mut().set_roles(&qi).unwrap();

    let fitted = Anonymizer::new(4, 0.4).fit(&table).unwrap();
    let engine = hipaa();
    let artifact =
        ModelArtifact::from_fitted(&fitted).with_compliance_fingerprint(engine.fingerprint());

    let path = tmp("pipeline_bound_model.json");
    artifact.save(&path).unwrap();
    let loaded = ModelArtifact::load(&path).unwrap();
    assert_eq!(
        loaded.compliance_fingerprint(),
        Some(engine.fingerprint().as_str()),
        "fingerprint lost in the JSON round trip"
    );

    // A different policy yields a different fingerprint — the mismatch
    // `apply` refuses on — while an unbound artifact stays unbound.
    let gdpr_cfg = ComplianceConfig {
        profile: tclose::compliance::Profile::Gdpr,
        ..Default::default()
    };
    let gdpr = ComplianceEngine::new(gdpr_cfg).unwrap();
    assert_ne!(gdpr.fingerprint(), engine.fingerprint());

    let unbound = ModelArtifact::from_fitted(&fitted);
    let path = tmp("pipeline_unbound_model.json");
    unbound.save(&path).unwrap();
    assert_eq!(
        ModelArtifact::load(&path).unwrap().compliance_fingerprint(),
        None
    );
}

/// SHA-256 of (scrubbed CSV ‖ audit JSONL) for one scrub, the log read
/// back from the file the engine's policy names.
fn scrub_digest(engine: &ComplianceEngine, table: &Table, row_offset: usize) -> String {
    let out = engine.scrub_table(table, row_offset).unwrap();
    let mut bytes = Vec::new();
    write_csv(&out.table, &mut bytes).unwrap();
    bytes.extend(write_log(engine, &out.log));
    sha256_hex(&bytes)
}

/// 2,000 rows over a 30-label identifier dictionary of which rows use
/// 20, out of dictionary order — a scrub meets each label many times.
fn repeated_labels_table() -> Table {
    let contacts: Vec<String> = (0..30)
        .map(|j| match j {
            0..=14 => {
                format!("ref {j}: {j:03}-45-67{j:02} or (555) 210-44{j:02}, u{j}@example.com")
            }
            _ => format!("no contact on file ({j})"),
        })
        .collect();
    let names: Vec<String> = (0..20).map(|j| format!("Patient Number {j}")).collect();
    let attrs = vec![
        AttributeDef::nominal("CONTACT", AttributeRole::Identifier, contacts),
        AttributeDef::nominal("PATIENT_NAME", AttributeRole::NonConfidential, names),
        AttributeDef::numeric("AGE", AttributeRole::QuasiIdentifier),
    ];
    let n = 2_000u32;
    let columns = vec![
        Column::Cat((0..n).map(|i| (i * 7 + 3) % 20).collect()),
        Column::Cat((0..n).map(|i| (i * 13) % 20).collect()),
        Column::F64((0..n).map(|i| f64::from(20 + i % 60)).collect()),
    ];
    Table::from_columns(Schema::new(attrs).unwrap(), columns).unwrap()
}

/// Digests of the scrub of `pii_patients(5, 3_000)` and of the
/// repeated-label table, measured before the scrub was memoized per
/// distinct label and the matcher and HMAC were precompiled.
#[test]
fn scrub_bytes_and_audit_log_are_pinned() {
    let pii = pii_patients(5, 3_000);
    let repeated = repeated_labels_table();
    for (strategy, want_pii, want_repeated) in [
        (
            Strategy::Tokenize,
            "d0f43dd3a5a918e21c1bb4de4a8c64c6e48f6ae85f0f211f5581acc6ca338b60",
            "4585c36ba3fc8ebcf7852667e50cca5090aeb0c4aee80156182173f14e37f005",
        ),
        (
            Strategy::Redact,
            "385e455b839d8db9dbfdd9116bfc4e83f0352061dc6beeee48ae23de1960fd85",
            "81673e0b6dec91d7ce1c1f780fdb4e7a4c9a333d70851e0e832dd127e0b0ebb7",
        ),
        (
            Strategy::Hash,
            "d6233f73eb21faa5e1a97ffb493b749d55dc9313ce214e3bbc1896910b5ce6ac",
            "6b022ada84517cee7159f9724a513b03bc4ae7633bd1445776cb35e0b12f792d",
        ),
    ] {
        let engine = logged(
            ComplianceConfig {
                strategy,
                ..ComplianceConfig::default()
            },
            &tmp(&format!("pinned_{}.jsonl", strategy.name())),
        );
        assert_eq!(scrub_digest(&engine, &pii, 0), want_pii, "{strategy:?}");
        assert_eq!(
            scrub_digest(&engine, &repeated, 1_000),
            want_repeated,
            "{strategy:?}"
        );
    }
    // The repeated table is not vacuous: 15 of its 20 labels carry PII.
    let out = ComplianceEngine::new(ComplianceConfig::default())
        .unwrap()
        .scrub_table(&repeated, 0)
        .unwrap();
    let contacts = out.table.schema().attributes()[0].dictionary.len();
    assert_eq!(contacts, 20);
    assert!(out.cells > 2_000 + 1_000, "{} cells", out.cells);
}
