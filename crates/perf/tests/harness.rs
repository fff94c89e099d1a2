//! Integration coverage for the perf harness itself, through the public
//! API only: the JSON schema round-trips byte-exactly, the gate fires on
//! an injected 2× slowdown (and only then), `bless` is idempotent, the
//! environment fingerprint is stable under re-run, and the self-test
//! cleans up after itself.

use std::process::Command;

use tclose_perf::selftest::synthetic_report;
use tclose_perf::{gate, DeltaStatus, Fingerprint, GateConfig, Report, ScratchDir};

fn scratch() -> ScratchDir {
    ScratchDir::new("tclose_perf_harness").unwrap()
}

#[test]
fn schema_round_trip_through_disk_is_byte_exact() {
    let report = synthetic_report(1.0);
    let dir = scratch();
    let path = dir.path().join("roundtrip.json");
    report.save(&path).unwrap();
    let loaded = Report::load(&path).unwrap();
    assert_eq!(loaded, report, "all fields survive the disk round trip");

    // Serializing the loaded report reproduces the file byte for byte —
    // the property that keeps committed baselines diff-stable.
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(loaded.to_pretty_string(), on_disk);
}

#[test]
fn gate_fires_on_injected_2x_slowdown_and_passes_unchanged() {
    let baseline = synthetic_report(1.0);

    let unchanged = gate(&baseline, &synthetic_report(1.0), &GateConfig::default()).unwrap();
    assert!(unchanged.passed(), "unchanged synthetic run must pass");

    let outcome = gate(&baseline, &synthetic_report(2.0), &GateConfig::default()).unwrap();
    assert!(!outcome.passed(), "2x slowdown must fail");
    assert!(
        outcome
            .deltas
            .iter()
            .all(|d| d.status == DeltaStatus::Regressed),
        "every case doubled, so every case must be flagged: {:?}",
        outcome.deltas
    );
    // The delta rows carry the evidence a CI log needs.
    for d in &outcome.deltas {
        let ratio = d.ratio.expect("both sides present");
        assert!((ratio - 2.0).abs() < 0.1, "ratio ≈ 2, got {ratio}");
    }
}

#[test]
fn gate_threshold_is_respected_at_the_margin() {
    let baseline = synthetic_report(1.0);
    // 20% slower: inside the default 1.25x envelope.
    let near = gate(&baseline, &synthetic_report(1.2), &GateConfig::default()).unwrap();
    assert!(near.passed(), "a 1.2x drift must stay inside the envelope");
    // 40% slower: outside it.
    let over = gate(&baseline, &synthetic_report(1.4), &GateConfig::default()).unwrap();
    assert!(!over.passed());
    // …but a looser explicit threshold accepts it.
    let loose = GateConfig {
        threshold: 1.5,
        ..GateConfig::default()
    };
    assert!(gate(&baseline, &synthetic_report(1.4), &loose)
        .unwrap()
        .passed());
}

#[test]
fn bless_is_idempotent() {
    let report = synthetic_report(1.0);
    let dir = scratch();
    let path = dir.path().join("baseline_bless.json");

    report.save(&path).unwrap();
    let first = std::fs::read(&path).unwrap();

    // Re-bless from the file itself (the `bless --from` path): load,
    // save again, bytes must not move.
    Report::load(&path).unwrap().save(&path).unwrap();
    let second = std::fs::read(&path).unwrap();
    assert_eq!(first, second, "re-blessing the same report changed bytes");

    // And a blessed baseline gates its own source run cleanly.
    let outcome = gate(
        &Report::load(&path).unwrap(),
        &report,
        &GateConfig::default(),
    )
    .unwrap();
    assert!(outcome.passed());
}

#[test]
fn fingerprint_is_stable_under_rerun() {
    let a = tclose_perf::fingerprint::capture();
    let b = tclose_perf::fingerprint::capture();
    assert_eq!(a, b, "fingerprint must not vary between consecutive runs");

    // And it round-trips through the report JSON unchanged.
    let back = Fingerprint::from_json(&a.to_json()).unwrap();
    assert_eq!(back, a);
    assert!(matches!(a.profile.as_str(), "debug" | "release"));
    assert!(a.cpus >= 1);
}

#[test]
fn selftest_binary_contract() {
    // The CI step runs `tclose-perf selftest` and relies on its exit
    // code; pin the library-level contract here.
    let transcript = tclose_perf::selftest::run().unwrap();
    assert!(transcript.contains("gate passes"));
    assert!(transcript.contains("gate fails"));
    assert!(transcript.contains("self-test passed"));
}

#[test]
fn selftest_leaves_no_directory_behind() {
    // Point the binary's temp dir at an empty directory of our own; the
    // self-test writes its files there and must remove them on exit.
    let tmp = scratch();
    let out = Command::new(env!("CARGO_BIN_EXE_tclose-perf"))
        .arg("selftest")
        .env("TMPDIR", tmp.path())
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let left: Vec<_> = std::fs::read_dir(tmp.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(left.is_empty(), "selftest left {left:?}");
}
