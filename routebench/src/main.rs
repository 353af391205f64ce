//! `routebench`: the router benchmark, from device in to device out.
//!
//! ```text
//! routebench --workload NAME --seed N --seconds S --trace 0|1
//! routebench --workload all --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload from the seed, sets the router up from
//! configuration text, checks its output against the unoptimized
//! reference, and measures it: a saturation phase for the end-to-end
//! metrics (`--trace 0`), or, for the per-layer split (`--trace 1`),
//! saturation and paced phases with spans. The last line of standard
//! output is one JSON result. A run that fails an output check exits with
//! code 1 and prints no result. See `README.md`.

mod alloc;
mod bench;
mod check;
mod device;
mod engine;
mod trace;
mod workload;

use bench::{Fault, Opts, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Kind;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where runs keep their scratch files and traced runs their spans,
/// relative to the working directory.
const OUT_DIR: &str = ".routebench";

const WORKLOADS: [&str; 3] = ["fig1-pcap", "acl-bgp", "fig1-sharded-churn"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: routebench --workload {{{}|all}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fault: Option<Fault>,
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fault: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            // Self-test only: break the run on purpose.
            "--inject-fault" => {
                args.fault = Some(match value.as_str() {
                    "digest" => Fault::Digest,
                    "ledger" => Fault::Ledger,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    (!args.workload.is_empty()).then_some(args)
}

/// The commit the checkout came from, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Host, build and input facts every record carries.
fn provenance(workload: &str, seed: u64, trace: bool) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"host_cpus\":{cpus},\
         \"git_rev\":\"{}\",\"profile\":\"{profile}\",\"features\":\"default\",\"rustc\":\"{}\"}}",
        git_rev(),
        env!("ROUTEBENCH_RUSTC")
    )
}

fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(args: &Args, kind: Kind) -> Result<Report, String> {
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("scratch directory: {e}"))?;
    let opts = Opts {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        fault: args.fault,
    };
    let prov = provenance(kind.name(), args.seed, args.trace);
    println!("{{\"provenance\":{prov}}}");
    let report = bench::run(&opts, &scratch.0).map_err(|e| e.to_string())?;
    if let Some(spans) = &report.spans {
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", kind.name(), args.seed));
        std::fs::write(&path, format!("{{\"provenance\":{prov}}}\n{spans}"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(report)
}

/// Runs every workload, each in a child process of its own so that peak
/// memory and thread state do not leak between them.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("routebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(kind) = Kind::from_name(&args.workload) else {
        return usage();
    };
    match run_one(&args, kind) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            let summary: Vec<String> = report
                .metrics
                .iter()
                .map(|(name, (value, unit))| format!("{name}={value:.4} {unit}"))
                .collect();
            println!(
                "{} seed {}: {}; loss_frac={} ({} of {} frames)",
                kind.name(),
                args.seed,
                summary.join(" "),
                report.failed as f64 / report.attempted.max(1) as f64,
                report.failed,
                report.attempted
            );
            println!("{}", result_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("routebench {}: run failed: {e}", kind.name());
            ExitCode::FAILURE
        }
    }
}
