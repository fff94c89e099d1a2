//! End-to-end tests spawning the real `tclose` binary, driving the CSV
//! round-trip in `tclose_microdata::csv` on the tiny fixture checked into
//! the repository's `tests/fixtures/` directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tclose(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tclose"))
        .args(args)
        .output()
        .expect("failed to spawn the tclose binary")
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/tiny.csv")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tclose_cli_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_flag_prints_usage_and_exits_zero() {
    let out = tclose(&["--help"]);
    assert!(out.status.success(), "--help exited {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["usage:", "generate", "anonymize", "audit", "alg3"] {
        assert!(
            stdout.contains(needle),
            "help output missing {needle:?}:\n{stdout}"
        );
    }
}

#[test]
fn no_arguments_also_prints_usage() {
    let out = tclose(&[]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("usage:"));
}

#[test]
fn unknown_command_fails_with_usage_on_stderr() {
    // `bench` too: the perf harness is a binary of its own, not a subcommand.
    for command in ["frobnicate", "bench"] {
        let out = tclose(&[command]);
        assert!(!out.status.success(), "{command}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("unknown command"), "{command}: {stderr}");
        assert!(stderr.contains("usage:"), "{command}: {stderr}");
    }
}

#[test]
fn anonymize_then_audit_round_trips_the_fixture() {
    let released = tmp("tiny_anon.csv");
    let fixture = fixture();
    assert!(fixture.exists(), "fixture missing at {}", fixture.display());

    let out = tclose(&[
        "anonymize",
        "--input",
        fixture.to_str().unwrap(),
        "--output",
        released.to_str().unwrap(),
        "--qi",
        "age,zip",
        "--confidential",
        "income",
        "--k",
        "3",
        "--t",
        "0.45",
    ]);
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(
        out.status.success(),
        "anonymize failed:\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains("released 12 records"), "{stdout}");
    assert!(!stdout.contains("warning"), "{stdout}");

    // The released file is a well-formed CSV with the same header and row
    // count (the microdata::csv round-trip, through the real binary).
    let text = std::fs::read_to_string(&released).unwrap();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("age,zip,income"));
    assert_eq!(lines.count(), 12);

    let out = tclose(&[
        "audit",
        "--input",
        released.to_str().unwrap(),
        "--qi",
        "age,zip",
        "--confidential",
        "income",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "audit failed:\n{stdout}");
    let k_line = stdout.lines().find(|l| l.contains("achieved k")).unwrap();
    let k: usize = k_line.split_whitespace().last().unwrap().parse().unwrap();
    assert!(k >= 3, "audited k = {k}\n{stdout}");
}

#[test]
fn streaming_anonymize_is_worker_invariant_end_to_end() {
    // generate a dataset big enough for several shards, stream it with
    // different worker counts and require byte-identical releases.
    let data = tmp("patient_stream.csv");
    let out = tclose(&[
        "generate",
        "--dataset",
        "patient",
        "--n",
        "2500",
        "--seed",
        "3",
        "--output",
        data.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let mut releases = Vec::new();
    for workers in ["1", "4"] {
        let released = tmp(&format!("patient_stream_anon_w{workers}.csv"));
        let out = tclose(&[
            "anonymize",
            "--input",
            data.to_str().unwrap(),
            "--output",
            released.to_str().unwrap(),
            "--qi",
            "AGE,STAY_DAYS",
            "--confidential",
            "CHARGE",
            "--k",
            "4",
            "--t",
            "0.3",
            "--stream",
            "--shard-size",
            "600",
            "--workers",
            workers,
        ]);
        let stdout = String::from_utf8(out.stdout.clone()).unwrap();
        let stderr = String::from_utf8(out.stderr.clone()).unwrap();
        assert!(out.status.success(), "stream failed:\n{stdout}\n{stderr}");
        assert!(stdout.contains("streaming"), "{stdout}");
        releases.push(std::fs::read(&released).unwrap());
    }
    assert_eq!(releases[0], releases[1], "--workers changed the release");

    // and the streamed release audits clean through the real binary
    let released = tmp("patient_stream_anon_w1.csv");
    let out = tclose(&[
        "audit",
        "--input",
        released.to_str().unwrap(),
        "--qi",
        "AGE,STAY_DAYS",
        "--confidential",
        "CHARGE",
        "--workers",
        "2",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "audit failed:\n{stdout}");
    let k_line = stdout.lines().find(|l| l.contains("achieved k")).unwrap();
    let k: usize = k_line.split_whitespace().last().unwrap().parse().unwrap();
    assert!(k >= 4, "audited k = {k}\n{stdout}");
}

#[test]
fn anonymize_rejects_missing_input_file() {
    let out = tclose(&[
        "anonymize",
        "--input",
        "/nonexistent/nope.csv",
        "--output",
        tmp("never.csv").to_str().unwrap(),
        "--qi",
        "age",
        "--confidential",
        "income",
        "--k",
        "2",
        "--t",
        "0.3",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("cannot open"));
}

#[test]
fn overflowing_quasi_identifiers_fail_cleanly_under_every_algorithm() {
    // Finite values whose z-score mean overflows f64: the embedding would
    // be NaN and the clustering kernels used to panic on it.
    let input = tmp("overflow_qi.csv");
    let mut csv = String::from("A,B,C\n");
    for i in 0..40 {
        let a = if i % 2 == 0 { "1.7e308" } else { "1.0e308" };
        csv.push_str(&format!("{a},{},{}\n", i % 7, (i * 13) % 11));
    }
    std::fs::write(&input, csv).unwrap();
    for alg in ["alg1", "alg2", "alg3"] {
        let output = tmp(&format!("overflow_qi_{alg}.csv"));
        let out = tclose(&[
            "anonymize",
            "--input",
            input.to_str().unwrap(),
            "--output",
            output.to_str().unwrap(),
            "--qi",
            "A,B",
            "--confidential",
            "C",
            "--k",
            "3",
            "--t",
            "0.1",
            "--algorithm",
            alg,
        ]);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{alg}: {stderr}");
        assert!(!stderr.contains("panicked"), "{alg}: {stderr}");
        assert_eq!(stderr.trim().lines().count(), 1, "{alg}: {stderr}");
        assert!(
            stderr.contains("\"A\"") && stderr.contains("row 0"),
            "{alg}: {stderr}"
        );
    }
}

/// Fits a model on the fixture and returns the artifact path.
fn fit_fixture_model(name: &str) -> PathBuf {
    let model = tmp(name);
    let fixture = fixture();
    let out = tclose(&[
        "fit",
        "--input",
        fixture.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
        "--qi",
        "age,zip",
        "--confidential",
        "income",
        "--k",
        "3",
        "--t",
        "0.45",
    ]);
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(out.status.success(), "fit failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("fitted model on 12 records"), "{stdout}");
    model
}

#[test]
fn fit_apply_matches_fused_anonymize_byte_for_byte() {
    let model = fit_fixture_model("tiny_model.json");
    let fixture = fixture();

    let applied = tmp("tiny_applied.csv");
    let out = tclose(&[
        "apply",
        "--model",
        model.to_str().unwrap(),
        "--input",
        fixture.to_str().unwrap(),
        "--output",
        applied.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(out.status.success(), "apply failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("pre-fitted model"), "{stdout}");

    let fused = tmp("tiny_fused.csv");
    let out = tclose(&[
        "anonymize",
        "--input",
        fixture.to_str().unwrap(),
        "--output",
        fused.to_str().unwrap(),
        "--qi",
        "age,zip",
        "--confidential",
        "income",
        "--k",
        "3",
        "--t",
        "0.45",
    ]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&applied).unwrap(),
        std::fs::read(&fused).unwrap(),
        "apply of a saved model diverged from the fused anonymize run"
    );

    // And the artifact is inspectable without touching any data.
    let out = tclose(&["model", "inspect", model.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(out.status.success(), "inspect failed:\n{stdout}");
    for needle in [
        "schema_version      1",
        "params (k, t)       (3, 0.45)",
        "fitted records      12",
        "age",
        "zip",
        "income",
        "fingerprint",
    ] {
        assert!(
            stdout.contains(needle),
            "inspect missing {needle:?}:\n{stdout}"
        );
    }
}

#[test]
fn apply_fails_with_one_line_error_on_missing_model() {
    let out = tclose(&[
        "apply",
        "--model",
        "/nonexistent/model.json",
        "--input",
        fixture().to_str().unwrap(),
        "--output",
        tmp("never_applied.csv").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot access model"), "{stderr}");
    // actionable one-liner, not a usage dump
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
}

#[test]
fn apply_rejects_a_future_schema_version() {
    let model = fit_fixture_model("tiny_model_future.json");
    let text = std::fs::read_to_string(&model).unwrap();
    assert!(text.contains("\"schema_version\": 1"), "{text}");
    std::fs::write(
        &model,
        text.replace("\"schema_version\": 1", "\"schema_version\": 999"),
    )
    .unwrap();

    let out = tclose(&[
        "apply",
        "--model",
        model.to_str().unwrap(),
        "--input",
        fixture().to_str().unwrap(),
        "--output",
        tmp("never_future.csv").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("schema_version 999"), "{stderr}");
    assert!(stderr.contains("re-fit"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn apply_rejects_input_that_does_not_match_the_model_schema() {
    let model = fit_fixture_model("tiny_model_mismatch.json");
    // A file with entirely different columns than the fitted schema.
    let other = tmp("patient_for_mismatch.csv");
    let out = tclose(&[
        "generate",
        "--dataset",
        "patient",
        "--n",
        "100",
        "--seed",
        "1",
        "--output",
        other.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let out = tclose(&[
        "apply",
        "--model",
        model.to_str().unwrap(),
        "--input",
        other.to_str().unwrap(),
        "--output",
        tmp("never_mismatch.csv").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("does not match the model's schema"),
        "{stderr}"
    );
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn model_inspect_rejects_a_truncated_artifact() {
    let model = fit_fixture_model("tiny_model_truncated.json");
    let text = std::fs::read_to_string(&model).unwrap();
    std::fs::write(&model, &text[..text.len() / 2]).unwrap();

    let out = tclose(&["model", "inspect", model.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("corrupted"), "{stderr}");
    assert!(stderr.contains("re-run `tclose fit`"), "{stderr}");
}

#[test]
fn typoed_options_fail_with_a_did_you_mean_one_liner() {
    // A misspelled option must never be silently ignored: on real intake
    // data, a dropped `--compliance` would ship plaintext identifiers.
    let out = tclose(&[
        "anonymize",
        "--input",
        fixture().to_str().unwrap(),
        "--output",
        tmp("never_typo.csv").to_str().unwrap(),
        "--qi",
        "age,zip",
        "--confidential",
        "income",
        "--k",
        "3",
        "--t",
        "0.45",
        "--comppliance",
        "policy.toml",
    ]);
    assert!(!out.status.success(), "typoed option exited zero");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("did you mean --compliance?"),
        "no suggestion:\n{stderr}"
    );
    // one actionable line, not a usage dump
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");

    // and nothing was written
    assert!(!tmp("never_typo.csv").exists());
}

#[test]
fn typo_suggestions_are_per_command() {
    // `--out` belongs to fit; on scan the nearest valid option differs.
    let out = tclose(&["scan", "--inptu", "x.csv"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("did you mean --input?"), "{stderr}");
}

/// Writes a compliance policy TOML and returns its path.
fn write_policy(name: &str, body: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, body).unwrap();
    path
}

/// Generates the planted-PII fixture and returns its path.
fn pii_fixture(name: &str, n: usize) -> PathBuf {
    let data = tmp(name);
    let out = tclose(&[
        "generate",
        "--dataset",
        "pii",
        "--n",
        &n.to_string(),
        "--seed",
        "11",
        "--output",
        data.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    data
}

#[test]
fn scan_reports_exact_planted_counts() {
    let data = pii_fixture("pii_scan.csv", 150);
    // No --compliance: scanning defaults to the HIPAA profile.
    let out = tclose(&["scan", "--input", data.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(out.status.success(), "scan failed:\n{stdout}");
    for needle in [
        "compliance scan: profile=hipaa",
        "  name: 150",
        "  ssn: 150",
        "  email: 300", // EMAIL column + one embedded per NOTES cell
        "  phone: 150",
        "total matched cells 750",
        "cells pending transform 750",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?}:\n{stdout}");
    }

    // --json mirrors the same totals machine-readably.
    let out = tclose(&["scan", "--input", data.to_str().unwrap(), "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"pending_transform\": 750"), "{stdout}");
}

#[test]
fn anonymize_with_compliance_scrubs_the_streamed_release() {
    let data = pii_fixture("pii_anon.csv", 400);
    let audit = tmp("pii_anon_audit.jsonl");
    let _ = std::fs::remove_file(&audit);
    let policy = write_policy(
        "pii_anon_policy.toml",
        &format!(
            "[compliance]\nprofile = \"hipaa\"\nstrategy = \"tokenize\"\nkey = \"e2e-key\"\n\
             drop_columns = [\"RECORD_ID\"]\n\n\
             [compliance.audit]\nenabled = true\npath = \"{}\"\nsalt = \"e2e-salt\"\n",
            audit.display()
        ),
    );

    let released = tmp("pii_anon_out.csv");
    let out = tclose(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--output",
        released.to_str().unwrap(),
        "--qi",
        "AGE,ZIP,STAY_DAYS",
        "--confidential",
        "CHARGE",
        "--k",
        "4",
        "--t",
        "0.35",
        "--stream",
        "--shard-size",
        "100",
        "--compliance",
        policy.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(
        out.status.success(),
        "anonymize failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("profile hipaa / strategy tokenize"),
        "{stdout}"
    );
    assert!(stdout.contains("audit log"), "{stdout}");

    let text = std::fs::read_to_string(&released).unwrap();
    // Planted identifiers are gone, tokens are present, RECORD_ID dropped.
    assert!(!text.contains("@example.com"), "plaintext email leaked");
    assert!(!text.contains("@mail.example.org"), "embedded email leaked");
    assert!(text.contains("TOK_EMAIL_"), "no email tokens in release");
    assert!(text.contains("TOK_SSN_"), "no ssn tokens in release");
    let header = text.lines().next().unwrap();
    assert!(
        !header.contains("RECORD_ID"),
        "dropped column kept: {header}"
    );

    // One audit line per scrubbed cell (5 hits per row), no plaintext.
    let log = std::fs::read_to_string(&audit).unwrap();
    assert_eq!(log.lines().count(), 5 * 400, "audit line count");
    assert!(!log.contains("@example.com"), "audit log leaks plaintext");
}

#[test]
fn dry_run_previews_without_writing_anything() {
    let data = pii_fixture("pii_dry.csv", 80);
    let audit = tmp("pii_dry_audit.jsonl");
    let _ = std::fs::remove_file(&audit);
    let policy = write_policy(
        "pii_dry_policy.toml",
        &format!(
            "[compliance]\nprofile = \"hipaa\"\n\n\
             [compliance.audit]\nenabled = true\npath = \"{}\"\n",
            audit.display()
        ),
    );
    let released = tmp("pii_dry_out.csv");
    let _ = std::fs::remove_file(&released);

    let out = tclose(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--output",
        released.to_str().unwrap(),
        "--qi",
        "AGE,ZIP,STAY_DAYS",
        "--confidential",
        "CHARGE",
        "--k",
        "3",
        "--t",
        "0.4",
        "--compliance",
        policy.to_str().unwrap(),
        "--dry-run",
    ]);
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(out.status.success(), "dry run failed:\n{stdout}");
    assert!(stdout.contains("cells pending transform 400"), "{stdout}");
    assert!(
        stdout.contains("dry run: no release or audit log written"),
        "{stdout}"
    );
    assert!(!released.exists(), "dry run wrote the release");
    assert!(!audit.exists(), "dry run wrote the audit log");

    // --dry-run without a policy is a contradiction, not a no-op.
    let out = tclose(&["scan", "--input", data.to_str().unwrap(), "--dry-run"]);
    assert!(!out.status.success());
}

#[test]
fn apply_refuses_a_model_under_the_wrong_policy() {
    let data = pii_fixture("pii_bind.csv", 120);
    let policy = write_policy(
        "pii_bind_policy.toml",
        "[compliance]\nprofile = \"hipaa\"\nkey = \"bind-key\"\n\n\
         [compliance.audit]\nenabled = false\n",
    );
    let model = tmp("pii_bound_model.json");
    let out = tclose(&[
        "fit",
        "--input",
        data.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
        "--qi",
        "AGE,ZIP,STAY_DAYS",
        "--confidential",
        "CHARGE",
        "--k",
        "4",
        "--t",
        "0.4",
        "--compliance",
        policy.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(out.status.success(), "fit failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("compliance fp"), "{stdout}");

    // The binding is part of the artifact's provenance.
    let out = tclose(&["model", "inspect", model.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("compliance fp"), "{stdout}");

    // apply without --compliance: refused with the remedy in one line.
    let out = tclose(&[
        "apply",
        "--model",
        model.to_str().unwrap(),
        "--input",
        data.to_str().unwrap(),
        "--output",
        tmp("never_bound.csv").to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "unbound apply of a bound model passed"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("bound to compliance policy"), "{stderr}");
    assert!(stderr.contains("--compliance"), "{stderr}");

    // apply under a *different* policy: also refused.
    let other = write_policy(
        "pii_bind_other.toml",
        "[compliance]\nprofile = \"gdpr\"\nkey = \"bind-key\"\n",
    );
    let out = tclose(&[
        "apply",
        "--model",
        model.to_str().unwrap(),
        "--input",
        data.to_str().unwrap(),
        "--output",
        tmp("never_bound2.csv").to_str().unwrap(),
        "--compliance",
        other.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("compliance policy mismatch"), "{stderr}");

    // apply under the fitted policy: succeeds and scrubs.
    let released = tmp("pii_bound_out.csv");
    let out = tclose(&[
        "apply",
        "--model",
        model.to_str().unwrap(),
        "--input",
        data.to_str().unwrap(),
        "--output",
        released.to_str().unwrap(),
        "--compliance",
        policy.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(
        out.status.success(),
        "bound apply failed:\n{stdout}\n{stderr}"
    );
    let text = std::fs::read_to_string(&released).unwrap();
    assert!(!text.contains("@example.com"), "plaintext email leaked");
    assert!(text.contains("TOK_EMAIL_"), "no tokens in bound release");
}

/// Runs the binary and returns its stdout, failing the test with both
/// streams on a nonzero exit.
fn tclose_ok(args: &[&str]) -> String {
    let out = tclose(args);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        out.status.success(),
        "tclose {args:?} failed:\n{stdout}\n{stderr}"
    );
    stdout
}

/// The planted-PII fixture at `--seed 2` (the cross-mode tests' input).
fn pii_seed2(name: &str) -> PathBuf {
    let data = tmp(name);
    tclose_ok(&[
        "generate",
        "--dataset",
        "pii",
        "--n",
        "400",
        "--seed",
        "2",
        "--output",
        data.to_str().unwrap(),
    ]);
    data
}

/// A tokenize policy dropping RECORD_ID, auditing to `audit`, with
/// `extra` appended to its `[compliance]` table.
fn tokenize_policy(name: &str, audit: &Path, extra: &str) -> PathBuf {
    write_policy(
        name,
        &format!(
            "[compliance]\nprofile = \"hipaa\"\nstrategy = \"tokenize\"\nkey = \"mode-key\"\n\
             drop_columns = [\"RECORD_ID\"]\n{extra}\n\
             [compliance.audit]\nenabled = true\npath = \"{}\"\nsalt = \"mode-salt\"\n",
            audit.display()
        ),
    )
}

const PII_ROLES: [&str; 8] = [
    "--qi",
    "AGE,ZIP,STAY_DAYS",
    "--confidential",
    "CHARGE",
    "--k",
    "4",
    "--t",
    "0.35",
];

/// Reads a file and removes it, so the next run must write it afresh.
fn take(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    std::fs::remove_file(path).unwrap();
    bytes
}

#[test]
fn fused_and_fit_apply_releases_agree_under_a_policy() {
    let data = pii_seed2("pii_modes.csv");
    let input = data.to_str().unwrap();
    let audit = tmp("pii_modes_audit.jsonl");
    let _ = std::fs::remove_file(&audit);
    let policy = tokenize_policy("pii_modes_policy.toml", &audit, "");
    let policy = policy.to_str().unwrap();
    let model = tmp("pii_modes_model.json");
    let model = model.to_str().unwrap();

    for stream in [&[][..], &["--stream", "--shard-size", "150"][..]] {
        let fused = tmp("pii_modes_fused.csv");
        let fused = fused.to_str().unwrap();
        let mut args = vec!["anonymize", "--input", input, "--output", fused];
        args.extend(PII_ROLES);
        args.extend(stream);
        args.extend(["--compliance", policy]);
        tclose_ok(&args);
        let (fused_release, fused_audit) = (take(Path::new(fused)), take(&audit));

        let mut args = vec!["fit", "--input", input, "--out", model];
        args.extend(PII_ROLES);
        args.extend(stream);
        args.extend(["--compliance", policy]);
        tclose_ok(&args);
        assert!(!audit.exists(), "fit wrote an audit log");

        let applied = tmp("pii_modes_applied.csv");
        let applied = applied.to_str().unwrap();
        let mut args = vec![
            "apply", "--model", model, "--input", input, "--output", applied,
        ];
        args.extend(stream);
        args.extend(["--compliance", policy]);
        tclose_ok(&args);

        assert!(
            take(Path::new(applied)) == fused_release,
            "{stream:?}: fit + apply release differs from anonymize"
        );
        assert!(
            take(&audit) == fused_audit,
            "{stream:?}: fit + apply audit log differs from anonymize"
        );
    }
}

#[test]
fn apply_honours_a_dry_run_policy_in_both_modes() {
    let data = pii_seed2("pii_apply_dry.csv");
    let input = data.to_str().unwrap();
    let audit = tmp("pii_apply_dry_audit.jsonl");
    let dry = tokenize_policy("pii_apply_dry.toml", &audit, "dry_run = true");
    let wet = tokenize_policy("pii_apply_wet.toml", &audit, "");
    let model = tmp("pii_apply_dry_model.json");
    let model = model.to_str().unwrap();
    let released = tmp("pii_apply_dry_out.csv");
    let _ = std::fs::remove_file(&released);
    let _ = std::fs::remove_file(&audit);

    let mut args = vec!["fit", "--input", input, "--out", model];
    args.extend(PII_ROLES);
    args.extend(["--compliance", dry.to_str().unwrap()]);
    tclose_ok(&args);

    // `dry_run = true` in the file, and the environment override on a
    // policy without it: both preview, neither writes.
    for (policy, env_dry_run) in [(&dry, false), (&wet, true)] {
        for stream in [&[][..], &["--stream", "--shard-size", "150"][..]] {
            let mut args = vec![
                "apply",
                "--model",
                model,
                "--input",
                input,
                "--output",
                released.to_str().unwrap(),
                "--compliance",
                policy.to_str().unwrap(),
            ];
            args.extend(stream);
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_tclose"));
            if env_dry_run {
                cmd.env("TCLOSE_COMPLIANCE_DRY_RUN", "1");
            }
            let out = cmd.args(&args).output().unwrap();
            let stdout = String::from_utf8(out.stdout).unwrap();
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(out.status.success(), "{args:?}:\n{stdout}\n{stderr}");
            assert!(
                stdout.contains("dry run: no release or audit log written"),
                "{args:?}:\n{stdout}"
            );
            assert!(stdout.contains("cells pending transform 2000"), "{stdout}");
            assert!(!released.exists(), "{args:?} wrote the release");
            assert!(!audit.exists(), "{args:?} wrote the audit log");
        }
    }
}

#[test]
fn bad_parameters_and_policies_fail_before_the_input_is_opened() {
    let policy = write_policy("bad_profile.toml", "[compliance]\nprofile = \"nope\"\n");
    let policy = policy.to_str().unwrap();
    let missing = ["--input", "/nonexistent/nope.csv"];
    let roles = ["--qi", "age", "--confidential", "income", "--k", "2"];
    let cases: [(&[&str], &str); 4] = [
        (
            &["anonymize", "--output", "/nonexistent/o.csv", "--t", "1.5"],
            "t must lie in (0, 1]",
        ),
        (
            &[
                "anonymize",
                "--output",
                "/nonexistent/o.csv",
                "--t",
                "1.5",
                "--stream",
            ],
            "t must lie in (0, 1]",
        ),
        (
            &[
                "fit",
                "--out",
                "/nonexistent/m.json",
                "--t",
                "1.5",
                "--stream",
            ],
            "t must lie in (0, 1]",
        ),
        (
            &[
                "fit",
                "--out",
                "/nonexistent/m.json",
                "--t",
                "0.3",
                "--compliance",
                policy,
            ],
            "unknown compliance profile",
        ),
    ];
    for (args, expected) in cases {
        let args: Vec<&str> = args.iter().chain(&missing).chain(&roles).copied().collect();
        let out = tclose(&args);
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(!stderr.contains("cannot open"), "{args:?}: {stderr}");
    }
}

#[test]
fn an_unwritable_audit_log_fails_before_the_release_is_written() {
    let data = pii_seed2("pii_unwritable.csv");
    let policy = tokenize_policy("pii_unwritable.toml", Path::new("unused.jsonl"), "");
    let released = tmp("pii_unwritable_out.csv");
    let audit = "/nonexistent/tclose-audit/audit.jsonl";
    for stream in [&[][..], &["--stream", "--shard-size", "150"][..]] {
        let _ = std::fs::remove_file(&released);
        let mut args = vec![
            "anonymize",
            "--input",
            data.to_str().unwrap(),
            "--output",
            released.to_str().unwrap(),
            "--compliance",
            policy.to_str().unwrap(),
        ];
        args.extend(PII_ROLES);
        args.extend(stream);
        let out = Command::new(env!("CARGO_BIN_EXE_tclose"))
            .env("TCLOSE_COMPLIANCE_AUDIT_PATH", audit)
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr.contains("compliance io") && stderr.contains(audit),
            "{args:?}: {stderr}"
        );
        assert!(!released.exists(), "{args:?} wrote the release");
    }
}
