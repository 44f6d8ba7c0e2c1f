//! Steady end-to-end and per-layer benchmark of GCWC serving and the
//! live ingest → refresh loop.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hit --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Workloads (`BENCHMARK.json` lists the gated ones and why each was
//! chosen; `README.md` says why `serve_miss` is not among them):
//! - `serve_miss`: open-loop requests over the binary wire whose keys
//!   never hit the completion cache, so every request runs a forward;
//! - `serve_hit`: open-loop requests over 32 repeating keys, so every
//!   request is a cache hit and the front end does all the work;
//! - `live_refresh`: records stream through the ingest pipeline, each
//!   cycle refreshes a K=2 sharded GCWC, and reads must come from the
//!   new generation.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced phase and the layer replays and prints the per-layer metrics.
//! The last line of standard output is the result object. The run fails
//! (exit 1) when any output differs from its in-process reference.

mod layers;
mod live;
mod openloop;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use report::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        traced: traced.unwrap_or(false),
    })
}

/// Scratch files of one run, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: perfbench --workload <serve_miss|serve_hit|live_refresh> --seed <n> \
                       --seconds <s> --trace <0|1>\n{e}"
            );
            std::process::exit(2);
        }
    };
    let work =
        WorkDir(Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id())));
    std::fs::create_dir_all(&work.0).expect("create work dir");
    let mut report = Report::new(args.traced);
    match args.workload.as_str() {
        "serve_miss" => {
            serve::run(&serve::MISS, args.seed, args.seconds, args.traced, &work.0, &mut report)
        }
        "serve_hit" => {
            serve::run(&serve::HIT, args.seed, args.seconds, args.traced, &work.0, &mut report)
        }
        "live_refresh" => live::run(args.seed, args.seconds, args.traced, &work.0, &mut report),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    }
    report.print(Path::new("."));
    drop(work);
    if !report.correct() {
        std::process::exit(1);
    }
}
