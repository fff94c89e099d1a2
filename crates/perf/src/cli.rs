//! The `tclose-perf` command line.
//!
//! ```text
//! tclose-perf [run]   --suite smoke|full [--out DIR] [--iters N] [--warmup N]
//! tclose-perf gate    --suite smoke|full [--baseline FILE] [--current FILE]
//!                     [--threshold F] [--no-calibration] [--out DIR]
//! tclose-perf bless   --suite smoke|full [--baseline FILE] [--from FILE]
//! tclose-perf selftest
//! ```
//!
//! * `run` measures the suite and writes `BENCH_<suite>.json` to
//!   `--out` (default: the current directory — the repo root in the
//!   documented invocation).
//! * `gate` loads the committed baseline, obtains a current report
//!   (`--current FILE`, or a fresh run), prints the per-case delta
//!   table, writes it to `PERF_GATE_<suite>.txt` under `--out`, and
//!   exits nonzero on any regression or missing case.
//! * `bless` rewrites the baseline from a fresh run (or `--from FILE`).
//! * `selftest` proves the gate machinery on synthetic data.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::gate::{gate, GateConfig};
use crate::report::{bench_file_name, Report};
use crate::selftest;
use crate::stats::format_ns;
use crate::suite::{run_suite, RunConfig, Suite};

/// Usage text.
pub const HELP: &str = "tclose-perf — machine-readable benchmark suite and perf regression gate

usage:
  tclose-perf [run]   --suite smoke|full [--out DIR] [--iters N] [--warmup N]
  tclose-perf gate    --suite smoke|full [--baseline FILE] [--current FILE] \\
                      [--threshold F] [--no-calibration] [--out DIR]
  tclose-perf bless   --suite smoke|full [--baseline FILE] [--from FILE]
  tclose-perf selftest

modes:
  run       measure the suite, write BENCH_<suite>.json (default mode)
  gate      compare a current report against the committed baseline;
            exit nonzero when any case regresses past the threshold
            (default 1.25x on median, confirmed on min-of-runs) or disappears
  bless     rewrite the baseline (benchmarks/baseline_<suite>.json) from a
            fresh run or --from FILE
  selftest  prove the gate on synthetic data: an injected 2x slowdown must
            fail, an unchanged run must pass

options:
  --suite S          smoke (CI tier, < 2 min) or full (paper-scale)
  --out DIR          where BENCH_<suite>.json and the gate delta table go (default .)
  --baseline FILE    baseline path (default benchmarks/baseline_<suite>.json)
  --current FILE     gate an existing report instead of measuring
  --from FILE        bless an existing report instead of measuring
  --iters N          timed iterations per case (default: 5 smoke / 7 full)
  --warmup N         warmup iterations per case (default: 1 smoke / 2 full)
  --threshold F      regression factor (default 1.25)
  --no-calibration   compare raw nanoseconds (same-machine gating only)";

/// Options that are flags (no value follows them).
const FLAGS: &[&str] = &["help", "no-calibration"];

/// Options that take a value. Anything not listed here or in [`FLAGS`]
/// is rejected at parse time — a typoed `--treshold` must fail loudly,
/// not silently run the gate with defaults.
const VALUED: &[&str] = &[
    "suite",
    "out",
    "baseline",
    "current",
    "from",
    "iters",
    "warmup",
    "threshold",
];

#[derive(Debug)]
struct Parsed {
    command: String,
    options: HashMap<String, String>,
}

fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut command = String::new();
    let mut options = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if FLAGS.contains(&key) {
                options.insert(key.to_owned(), String::new());
            } else if VALUED.contains(&key) {
                i += 1;
                let v = args
                    .get(i)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                options.insert(key.to_owned(), v.clone());
            } else {
                return Err(format!("unknown option --{key}"));
            }
        } else if command.is_empty() {
            command = a.clone();
        } else {
            return Err(format!("unexpected positional argument {a:?}"));
        }
        i += 1;
    }
    if command.is_empty() {
        command = "run".to_owned();
    }
    Ok(Parsed { command, options })
}

impl Parsed {
    fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    fn suite(&self) -> Result<Suite, String> {
        self.get("suite").unwrap_or("smoke").parse()
    }

    fn run_config(&self, suite: Suite) -> Result<RunConfig, String> {
        let mut cfg = RunConfig::for_suite(suite);
        if let Some(v) = self.get("iters") {
            cfg.iters = v
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("--iters: expected a positive integer, got {v:?}"))?;
        }
        if let Some(v) = self.get("warmup") {
            cfg.warmup = v.parse().map_err(|e| format!("--warmup: {e}"))?;
        }
        Ok(cfg)
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or("."))
    }

    fn baseline_path(&self, suite: Suite) -> PathBuf {
        self.get("baseline").map(PathBuf::from).unwrap_or_else(|| {
            Path::new("benchmarks").join(format!("baseline_{}.json", suite.name()))
        })
    }
}

/// Runs a suite with progress lines on stderr and returns the report.
fn measure_suite(suite: Suite, cfg: RunConfig) -> Result<Report, String> {
    eprintln!(
        "measuring suite {:?} (warmup {}, iters {})…",
        suite.name(),
        cfg.warmup,
        cfg.iters
    );
    run_suite(suite, cfg, &mut |case| eprintln!("  {case}"))
}

/// Per-case summary table for a run.
fn render_run(report: &Report) -> String {
    let name_width = report
        .cases
        .iter()
        .map(|c| c.name.len())
        .chain(std::iter::once("case".len()))
        .max()
        .unwrap_or(4);
    let mut out = format!(
        "suite {} on {} ({}, {} cpus), calibration {}\n\n",
        report.suite,
        report.fingerprint.rustc,
        report.fingerprint.arch,
        report.fingerprint.cpus,
        format_ns(report.calibration_ns),
    );
    out.push_str(&format!(
        "{:<name_width$}  {:>12}  {:>12}  {:>12}\n",
        "case", "median", "min", "iqr"
    ));
    for c in &report.cases {
        out.push_str(&format!(
            "{:<name_width$}  {:>12}  {:>12}  {:>12}\n",
            c.name,
            format_ns(c.summary.median_ns),
            format_ns(c.summary.min_ns),
            format_ns(c.summary.iqr_ns),
        ));
    }
    out
}

fn cmd_run(p: &Parsed) -> Result<String, String> {
    let suite = p.suite()?;
    let report = measure_suite(suite, p.run_config(suite)?)?;
    let path = p.out_dir().join(bench_file_name(suite.name()));
    report.save(&path)?;
    Ok(format!("{}\nwrote {}", render_run(&report), path.display()))
}

fn cmd_gate(p: &Parsed) -> Result<(String, bool), String> {
    let suite = p.suite()?;
    let baseline = Report::load(&p.baseline_path(suite))?;
    let current = match p.get("current") {
        Some(file) => Report::load(Path::new(file))?,
        None => {
            let report = measure_suite(suite, p.run_config(suite)?)?;
            report.save(&p.out_dir().join(bench_file_name(suite.name())))?;
            report
        }
    };
    let cfg = GateConfig {
        threshold: match p.get("threshold") {
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t > 1.0)
                .ok_or_else(|| format!("--threshold: expected a factor > 1, got {v:?}"))?,
            None => GateConfig::default().threshold,
        },
        calibrated: !p.flag("no-calibration"),
    };
    let outcome = gate(&baseline, &current, &cfg)?;
    let table = crate::gate::render_table(&outcome);
    let out_dir = p.out_dir();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let delta_path = out_dir.join(format!("PERF_GATE_{}.txt", suite.name()));
    std::fs::write(&delta_path, &table)
        .map_err(|e| format!("cannot write {}: {e}", delta_path.display()))?;
    Ok((
        format!("{table}\ndelta table written to {}", delta_path.display()),
        outcome.passed(),
    ))
}

fn cmd_bless(p: &Parsed) -> Result<String, String> {
    let suite = p.suite()?;
    let report = match p.get("from") {
        Some(file) => {
            let r = Report::load(Path::new(file))?;
            if r.suite != suite.name() {
                return Err(format!(
                    "--from report is for suite {:?}, not {:?}",
                    r.suite,
                    suite.name()
                ));
            }
            r
        }
        None => measure_suite(suite, p.run_config(suite)?)?,
    };
    let path = p.baseline_path(suite);
    report.save(&path)?;
    Ok(format!(
        "{}\nblessed baseline {}",
        render_run(&report),
        path.display()
    ))
}

/// Entry point of the `tclose-perf` binary. Returns the process exit
/// code.
pub fn run(args: &[String]) -> i32 {
    let parsed = match parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return 2;
        }
    };
    if parsed.flag("help") || parsed.command == "help" {
        println!("{HELP}");
        return 0;
    }
    let result: Result<(String, bool), String> = match parsed.command.as_str() {
        "run" => cmd_run(&parsed).map(|msg| (msg, true)),
        "gate" => cmd_gate(&parsed),
        "bless" => cmd_bless(&parsed).map(|msg| (msg, true)),
        "selftest" => selftest::run().map(|msg| (msg, true)),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok((msg, passed)) => {
            println!("{msg}");
            i32::from(!passed)
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_defaults_to_run_smoke() {
        let p = parse(&argv("")).unwrap();
        assert_eq!(p.command, "run");
        assert_eq!(p.suite().unwrap(), Suite::Smoke);
        assert_eq!(
            p.run_config(Suite::Smoke).unwrap(),
            RunConfig {
                warmup: 1,
                iters: 5
            }
        );
    }

    #[test]
    fn parse_overrides() {
        let p = parse(&argv(
            "gate --suite full --iters 3 --warmup 0 --threshold 1.5 --no-calibration",
        ))
        .unwrap();
        assert_eq!(p.command, "gate");
        assert_eq!(p.suite().unwrap(), Suite::Full);
        let cfg = p.run_config(Suite::Full).unwrap();
        assert_eq!((cfg.warmup, cfg.iters), (0, 3));
        assert!(p.flag("no-calibration"));
        assert_eq!(p.get("threshold"), Some("1.5"));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&argv("run extra-positional")).is_err());
        assert!(parse(&argv("run --iters")).is_err());
        // Typoed options must fail loudly, not silently fall back to
        // defaults (a typoed --threshold would weaken the gate).
        let err = parse(&argv("gate --treshold 1.05")).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        assert!(parse(&argv("run --iterations 20")).is_err());
        // A valued option must not swallow a following flag as its
        // value (--out would otherwise eat --no-calibration).
        let err = parse(&argv("gate --out --no-calibration")).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let p = parse(&argv("run --iters 0")).unwrap();
        assert!(p.run_config(Suite::Smoke).is_err());
        let p = parse(&argv("run --suite nightly")).unwrap();
        assert!(p.suite().is_err());
    }

    #[test]
    fn default_baseline_path_is_per_suite() {
        let p = parse(&argv("gate")).unwrap();
        assert_eq!(
            p.baseline_path(Suite::Smoke),
            Path::new("benchmarks").join("baseline_smoke.json")
        );
        let p = parse(&argv("gate --baseline custom.json")).unwrap();
        assert_eq!(p.baseline_path(Suite::Smoke), Path::new("custom.json"));
    }

    #[test]
    fn selftest_command_exits_zero() {
        assert_eq!(run(&argv("selftest")), 0);
    }

    #[test]
    fn unknown_command_exits_nonzero() {
        assert_eq!(run(&argv("frobnicate")), 2);
    }

    #[test]
    fn help_exits_zero() {
        assert_eq!(run(&argv("--help")), 0);
        assert_eq!(run(&argv("help")), 0);
        for needle in ["tclose-perf", "gate", "bless", "selftest", "BENCH_"] {
            assert!(HELP.contains(needle), "help missing {needle:?}:\n{HELP}");
        }
    }

    #[test]
    fn gate_with_synthetic_files_end_to_end() {
        let scratch = crate::ScratchDir::new("tclose_perf_cli").unwrap();
        let dir = scratch.path();
        let baseline_path = dir.join("baseline_smoke.json");
        let current_path = dir.join("current_smoke.json");
        let out_dir = dir.join("out");

        crate::selftest::synthetic_report(1.0)
            .save(&baseline_path)
            .unwrap();
        crate::selftest::synthetic_report(2.0)
            .save(&current_path)
            .unwrap();

        // Unchanged current -> exit 0.
        let code = run(&argv(&format!(
            "gate --baseline {} --current {} --out {}",
            baseline_path.display(),
            baseline_path.display(),
            out_dir.display()
        )));
        assert_eq!(code, 0, "unchanged run must pass the gate");

        // 2x slower current -> exit 1, delta table written.
        let code = run(&argv(&format!(
            "gate --baseline {} --current {} --out {}",
            baseline_path.display(),
            current_path.display(),
            out_dir.display()
        )));
        assert_eq!(code, 1, "2x regression must fail the gate");
        let table = std::fs::read_to_string(out_dir.join("PERF_GATE_smoke.txt")).unwrap();
        assert!(table.contains("REGRESSED"), "{table}");
    }
}
