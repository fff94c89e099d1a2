//! `tcbench`: the repository benchmark.
//!
//! ```text
//! tcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tcbench --list
//! ```
//!
//! A run generates its inputs from the seed (in a child process), sets up
//! the workload, runs operations for `--seconds`, checks every output and
//! prints one line per metric followed, as the last line of standard
//! output, by a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! re-composes each operation from the public calls of every crate, times
//! them as spans and reports the per-layer metrics (spans are written to
//! `.bench_build/tcbench-traces/`). `--list` prints every workload and
//! metric with its unit, direction and the end-to-end metric each layer
//! should move.

mod batch;
mod catalog;
mod common;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use catalog::{Metric, END_TO_END, KFIRST, PER_LAYER, STREAM, WORKLOADS};
use common::{Outcome, WorkDir};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if catalog::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload:?} (see --list)"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn print_list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {}\n    operation: {}\n    why: {}", w.name, w.op, w.why);
    }
    let show = |title: &str, metrics: &[Metric]| {
        println!("{title}:");
        for m in metrics {
            println!(
                "  {} [{}, {} is better]\n    {}",
                m.name,
                m.unit,
                m.better.name(),
                m.what
            );
            if !m.moves.is_empty() {
                println!("    moves: {}", m.moves);
            }
        }
    };
    show("end-to-end metrics (--trace 0)", END_TO_END);
    show(
        "per-layer metrics (--trace 1; 0 where a workload never enters the layer)",
        PER_LAYER,
    );
    use catalog::serve_load as s;
    println!(
        "frozen serve-layer probe load: {} rows per request, low {} req/s, high {} req/s, \
         max_rate_rps ladder {:?} req/s, p99 limit {} ms",
        s::REQUEST_ROWS,
        s::RATE_LOW,
        s::RATE_HIGH,
        s::LADDER,
        s::P99_LIMIT_MS
    );
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload.as_str();
    let work = WorkDir::create()?;
    common::generate_in_child(w, args.seed, &work.dir)?;
    let budget = Duration::from_secs(args.seconds);
    if !args.trace {
        return match w {
            KFIRST => batch::run_kfirst(&work, budget),
            STREAM => batch::run_stream(&work, budget),
            _ => unreachable!("workload validated"),
        };
    }
    let rec = trace::Recorder::new();
    let out = match w {
        KFIRST => batch::run_kfirst_traced(args.seed, &work, budget, &rec),
        STREAM => batch::run_stream_traced(args.seed, &work, budget, &rec),
        _ => unreachable!("workload validated"),
    }?;
    let path = Path::new(".bench_build")
        .join("tcbench-traces")
        .join(format!("{w}-seed{}.jsonl", args.seed));
    let header = format!(
        "{{\"workload\":\"{w}\",\"seed\":{},\"nproc\":{}}}",
        args.seed,
        sys::nproc()
    );
    rec.write_jsonl(&path, &header)
        .map_err(|e| format!("write trace {}: {e}", path.display()))?;
    Ok(out)
}

/// Prints the human-readable lines, then the result JSON as the last line.
fn report(args: &Args, out: &Outcome) -> Result<(), String> {
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let mut fields = Vec::new();
    for m in catalog {
        let v = match out.metrics.get(m.name) {
            Some(&v) => v,
            // A layer the workload never enters.
            None if args.trace => 0.0,
            None => return Err(format!("internal: metric {} was not measured", m.name)),
        };
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", m.name));
        }
        println!(
            "  {:<30} {:>16.6} {:<7} ({} is better)",
            m.name,
            v,
            m.unit,
            m.better.name()
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!("  attempted {} failed {}", out.attempted, out.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    Ok(())
}

/// Exit status of a run: 0 on success, 1 (with the error on stderr)
/// otherwise.
fn exit(r: Result<(), String>) -> ExitCode {
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.as_slice() {
        [flag] if flag == "--list" => {
            print_list();
            ExitCode::SUCCESS
        }
        // Internal: the input generator child (see common::generate_in_child).
        [cmd, _, w, _, seed, _, dir] if cmd == "gen" => exit(
            seed.parse()
                .map_err(|e| format!("gen --seed: {e}"))
                .and_then(|seed| common::generate(w, seed, Path::new(dir))),
        ),
        _ => match parse_args(&argv) {
            Ok(args) => exit(run(&args).and_then(|out| report(&args, &out))),
            Err(e) => {
                eprintln!(
                    "tcbench: {e}\nusage: tcbench --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> | --list"
                );
                ExitCode::from(2)
            }
        },
    }
}
