//! The wafer workloads' timed run: whole-wafer campaigns back to back at
//! the workload's thread count, each one a job.

use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use icvbe_campaign::report::metrics_json;
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::{run_campaign_streaming, run_campaign_with, RunOptions, StreamOptions};

use crate::digest::{run_digests, Gate};
use crate::ledger::Counters;
use crate::measure::{median, process_cpu_s, quantile, secs};
use crate::report::Report;
use crate::workloads::{wafer_spec, Workload, WAFER_THREADS};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Dies of the warm-up campaign: four claim chunks per worker thread, so
/// every worker builds its scratch and the run's symbolic plan exists,
/// and long enough that where the scheduler first places the fresh
/// worker threads does not decide the figure. A complete small campaign
/// rather than a cut-off large one: a cut-off run waits for whatever
/// groups its workers had claimed when it stopped, which makes the set-up
/// time depend on a race.
const WARMUP_DIES: usize = 128;

/// Dies folded before a wafer job counts its first results: two claim
/// chunks from each worker. A single die would make the figure the cost
/// of die 0 alone, which differs from seed to seed.
const FIRST_RESULT_DIES: usize = 64;

/// Fewest wafer jobs a run times, however short `--seconds` is.
const MIN_JOBS: usize = 3;

/// Builds the spec and warms the pipeline up with a campaign over the
/// first [`WARMUP_DIES`] dies of the same seed (a die depends only on the
/// seed and its index). Returns the spec and the set-up seconds.
pub fn setup(workload: Workload, seed: u64) -> (CampaignSpec, f64) {
    let t0 = Instant::now();
    let spec = wafer_spec(workload, seed);
    let warmup = CampaignSpec {
        wafer: WaferMap::full(1, WARMUP_DIES),
        ..spec.clone()
    };
    black_box(run_campaign_with(&warmup, WAFER_THREADS, &RunOptions::default()).is_ok());
    (spec, secs(t0))
}

/// One wafer job.
struct Job {
    latency_s: f64,
    first_die_s: f64,
    cpu_s: f64,
}

/// Runs wafer jobs for `seconds`, checks every pass's artifacts against
/// the first pass, a 1-thread run and the pinned digests, and reports the
/// end-to-end metrics.
pub fn run_timed(workload: Workload, seed: u64, seconds: u64, gate: &mut Gate) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut spec = None;
    for _ in 0..SETUP_REPS {
        let (s, t) = setup(workload, seed);
        setups.push(t);
        spec = Some(s);
    }
    let spec = spec.expect("SETUP_REPS is nonzero");
    let dies = spec.wafer.die_count();
    let corners = spec.corners.len() as u64;

    let mut report = Report::default();
    let mut jobs: Vec<Job> = Vec::new();
    let mut digests: Option<(String, String)> = None;
    let mut quarantined = 0u64;
    let loop_t0 = Instant::now();
    let deadline = loop_t0 + Duration::from_secs(seconds);
    while jobs.len() < MIN_JOBS || Instant::now() < deadline {
        report.attempted += 1;
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let mut first_die = None;
        let first_index = FIRST_RESULT_DIES.min(dies) - 1;
        let run =
            run_campaign_streaming(&spec, WAFER_THREADS, &StreamOptions::default(), |d, _| {
                if d.index == first_index {
                    first_die = Some(Instant::now());
                }
                ControlFlow::Continue(())
            });
        let t1 = Instant::now();
        let cpu1 = process_cpu_s();
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                report.failed += 1;
                gate.check(false, || format!("campaign failed: {e}"));
                continue;
            }
        };
        jobs.push(Job {
            latency_s: (t1 - t0).as_secs_f64(),
            first_die_s: first_die.map_or(f64::NAN, |t| (t - t0).as_secs_f64()),
            cpu_s: cpu1 - cpu0,
        });
        let d = run_digests(&run);
        match &digests {
            None => digests = Some(d),
            Some(first) => {
                let same = *first == d;
                gate.check(same, || {
                    format!("pass {} artifacts differ from pass 1", jobs.len())
                });
                report.failed += u64::from(!same);
            }
        }
        quarantined += Counters::from_metrics_json(&metrics_json(&run))
            .value("recovery.corners_quarantined") as u64;
    }
    let loop_s = secs(loop_t0);

    // Outside the timed region: the same wafer on one thread must give the
    // same bytes, and pinned seeds must reproduce their digests.
    if let Some((agg, quar)) = &digests {
        match run_campaign_with(&spec, 1, &RunOptions::default()) {
            Ok(one) => {
                let (agg1, quar1) = run_digests(&one);
                gate.check(*agg == agg1 && *quar == quar1, || {
                    format!("1-thread artifacts differ from {WAFER_THREADS}-thread ones")
                });
            }
            Err(e) => gate.check(false, || format!("1-thread campaign failed: {e}")),
        }
        gate.check_pinned(workload.name(), seed, "aggregate_json", agg);
        gate.check_pinned(workload.name(), seed, "quarantine_json", quar);
        report.note(format!(
            "{} seed {seed}: {dies} dies x {corners} corners, aggregate {agg}, quarantine {quar}",
            workload.name()
        ));
    }

    let n = jobs.len();
    let lat_ms: Vec<f64> = jobs.iter().map(|j| j.latency_s * 1e3).collect();
    let rates: Vec<f64> = jobs.iter().map(|j| dies as f64 / j.latency_s).collect();
    let first_ms: Vec<f64> = jobs.iter().map(|j| j.first_die_s * 1e3).collect();
    let cpu_s: f64 = jobs.iter().map(|j| j.cpu_s).sum();
    let corner_ops = (n as u64) * dies as u64 * corners;
    report.push("setup_s", median(&setups), "s", setups.len());
    report.push("dies_per_s", median(&rates), "1/s", n);
    report.push(
        "cpu_ms_per_die",
        cpu_s * 1e3 / (n * dies) as f64,
        "ms",
        n * dies,
    );
    report.push("job_latency_ms_p50", median(&lat_ms), "ms", n);
    report.push("job_latency_ms_p95", quantile(&lat_ms, 0.95), "ms", n);
    report.push("first_die_ms_p50", median(&first_ms), "ms", n);
    report.push("jobs_per_s", n as f64 / loop_s, "1/s", n);
    report.push(
        "op_ok_frac",
        1.0 - quarantined as f64 / corner_ops.max(1) as f64,
        "frac",
        corner_ops as usize,
    );
    report
}
