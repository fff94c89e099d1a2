//! `tclose-perf` — machine-readable benchmark suite and regression
//! gate. See [`tclose_perf::cli`] for the command grammar.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(tclose_perf::cli::run(&args).clamp(0, u8::MAX as i32) as u8)
}
