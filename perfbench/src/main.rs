//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload join-inmem --seed 1 --seconds 30 --trace 0 [--out DIR]
//! ```
//!
//! Three workloads, each driven through the crates' public functions from
//! outside (see `BENCHMARK.json` for why each was chosen):
//!
//! * `join-inmem` — Table 2's Q2 over a panel of seeded triples of uniform
//!   relations of 20,000 rectangles, `Query::parse` → `Cluster::plan` →
//!   `Cluster::submit` in a closed loop;
//! * `join-stored` — `A ov B` over two ingested road-like stores, opened
//!   cold per operation, `plan_stored` → `submit_stored`;
//! * `serve-mixed` — an in-process `Server` on loopback under an open-loop
//!   mix of cache hits (auto-planned) and never-repeated stored misses.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics, a traced
//! run (`--trace 1`) the per-module ones and writes its spans. Every run
//! checks its answers; the last line of standard output is the result
//! object, and the full results (with sample counts, percentiles, `nproc`,
//! thread counts, git revision and seed) go to `DIR` (default
//! `.bench_out`).

#![forbid(unsafe_code)]

mod inmem;
mod report;
mod serve;
mod stats;
mod stored;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, RunInfo};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload join-inmem|join-stored|serve-mixed \
                     --seed N --seconds S --trace 0|1 [--out DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The run's data directory (ingested stores), removed when the run ends,
/// also when it panics.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let info = RunInfo {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let scratch = Scratch(
        args.out
            .join(format!("{}-{}-data", args.workload, std::process::id())),
    );
    let report: Report = match args.workload.as_str() {
        "join-inmem" => inmem::run(&info),
        "join-stored" => stored::run(&info, &scratch.0),
        "serve-mixed" => serve::run(&info, &scratch.0),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    drop(scratch);
    report::print_listing(&info, &report);
    match report::write_outputs(&args.out, &info, &report) {
        Ok(path) => println!("  results written to {}", path.display()),
        Err(e) => {
            eprintln!(
                "perfbench: writing results under {}: {e}",
                args.out.display()
            );
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report::result_line(&report, args.trace));
    ExitCode::SUCCESS
}
