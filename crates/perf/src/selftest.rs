//! End-to-end self-test of the measurement/gate machinery on synthetic
//! data: proves (without running any real benchmark) that an injected
//! 2× slowdown fails the gate, an unchanged run passes it, the JSON
//! schema round-trips through real files, and `bless` is idempotent.
//!
//! CI runs this on every push (`tclose-perf selftest`), so the gate
//! itself is regression-tested by the same pipeline it guards.

use crate::fingerprint;
use crate::gate::{gate, GateConfig};
use crate::report::{CaseResult, Report, SCHEMA_VERSION};
use crate::scratch::ScratchDir;
use crate::stats::summarize;

/// Builds a deterministic synthetic report whose case times are
/// `scale`× a fixed set of base costs (with a ±3% sample spread, so the
/// summaries look like real measurements).
pub fn synthetic_report(scale: f64) -> Report {
    let case = |name: &str, base_ns: f64| {
        let samples: Vec<f64> = [1.0, 1.03, 0.97, 1.01, 0.99]
            .iter()
            .map(|jitter| base_ns * scale * jitter)
            .collect();
        CaseResult {
            name: name.to_owned(),
            warmup: 1,
            iters: samples.len(),
            summary: summarize(&samples),
            samples_ns: samples,
        }
    };
    Report {
        schema_version: SCHEMA_VERSION,
        suite: "smoke".to_owned(),
        fingerprint: fingerprint::capture(),
        calibration_ns: 50_000_000.0,
        cases: vec![
            case("partition/mdav/flat/synthetic", 12_000_000.0),
            case("e2e/alg3/synthetic", 30_000_000.0),
            case("verify/ordered-emd/synthetic", 4_000_000.0),
        ],
    }
}

/// Runs the self-test; returns a human-readable transcript on success
/// and the first failed check on error.
pub fn run() -> Result<String, String> {
    let mut log = String::new();
    let cfg = GateConfig::default();
    let baseline = synthetic_report(1.0);

    // 1. Unchanged performance passes the gate.
    let unchanged = gate(&baseline, &synthetic_report(1.0), &cfg)?;
    if !unchanged.passed() {
        return Err("self-test failed: an unchanged synthetic run did not pass the gate".into());
    }
    log.push_str("unchanged run        -> gate passes\n");

    // 2. An injected 2x slowdown fails it.
    let regressed = gate(&baseline, &synthetic_report(2.0), &cfg)?;
    if regressed.passed() {
        return Err("self-test failed: a 2x synthetic slowdown passed the gate".into());
    }
    log.push_str("injected 2x slowdown -> gate fails\n");

    // 3. The schema round-trips through a real file.
    let scratch = ScratchDir::new("tclose_perf_selftest")?;
    let path = scratch.path().join("selftest_report.json");
    baseline.save(&path)?;
    let loaded = Report::load(&path)?;
    if loaded != baseline {
        return Err("self-test failed: report changed across a save/load round trip".into());
    }
    log.push_str("schema round trip    -> byte-exact\n");

    // 4. Bless is idempotent: writing the same report twice produces
    //    identical bytes.
    let bless_path = scratch.path().join("selftest_baseline.json");
    baseline.save(&bless_path)?;
    let first = std::fs::read(&bless_path).map_err(|e| e.to_string())?;
    Report::load(&bless_path)?.save(&bless_path)?;
    let second = std::fs::read(&bless_path).map_err(|e| e.to_string())?;
    if first != second {
        return Err("self-test failed: re-blessing the same report changed the baseline".into());
    }
    log.push_str("bless idempotence    -> byte-exact\n");

    log.push_str("perf harness self-test passed");
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftest_passes() {
        let transcript = run().unwrap();
        assert!(transcript.contains("self-test passed"), "{transcript}");
    }

    #[test]
    fn synthetic_report_scales_linearly() {
        let a = synthetic_report(1.0);
        let b = synthetic_report(2.0);
        for (ca, cb) in a.cases.iter().zip(&b.cases) {
            assert!((cb.summary.median_ns / ca.summary.median_ns - 2.0).abs() < 1e-9);
        }
    }
}
