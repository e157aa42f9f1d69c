//! `icvbe-campaign-bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric and then the JSON result object, per
//! workload; for a single workload the JSON object is the last line of
//! standard output. `all` runs every workload in turn (`peak_rss_mb` is
//! then the process peak so far). Exits 1 on bad arguments or when any
//! output fails its correctness check. `--print-digests` prints the pinned
//! digest table for the default and held-out seeds instead.

use std::path::PathBuf;
use std::process::ExitCode;

use icvbe_campaign_bench::digest::{self, Gate, DEFAULT_SEED};
use icvbe_campaign_bench::measure::{calib_ns, peak_rss_mb};
use icvbe_campaign_bench::workloads::Workload;
use icvbe_campaign_bench::{serve, traced, wafer};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workloads = Vec::new();
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(Some(Args {
        workloads,
        seed,
        seconds,
        trace,
    }))
}

/// Run outputs (spans, checkpoints) live next to the benchmark's sources.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", digest::table());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut passed = true;
    for &w in &args.workloads {
        passed &= run(w, &args);
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs and prints one workload; returns whether its outputs were correct.
fn run(workload: Workload, args: &Args) -> bool {
    let out = out_dir();
    let checkpoints = out.join(format!("checkpoints-{}", std::process::id()));
    let calib_start = calib_ns();
    let mut gate = Gate::default();
    let mut report = match (workload, args.trace) {
        (Workload::ServeSmallJobs, false) => {
            serve::run_timed(args.seed, args.seconds, &checkpoints, &mut gate)
        }
        (w, false) => wafer::run_timed(w, args.seed, args.seconds, &mut gate),
        (w, true) => traced::run(w, args.seed, args.seconds, &out, &checkpoints, &mut gate),
    };
    let calib_end = calib_ns();
    report.note(format!(
        "host.calib_ns start {calib_start:.0} end {calib_end:.0} (fixed kernel; compare across sessions)"
    ));
    if args.trace {
        report.push("host.calib_ns", (calib_start + calib_end) / 2.0, "ns", 2);
    } else {
        report.push("peak_rss_mb", peak_rss_mb(), "MB", 1);
    }
    for f in gate.failures() {
        eprintln!("correctness: {f}");
    }
    if !gate.passed() {
        report.failed = report.failed.max(1);
    }
    report.print(workload.name(), gate.passed());
    gate.passed()
}
