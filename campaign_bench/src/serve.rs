//! The service workload: an in-process daemon on loopback, driven by
//! closed-loop tenants that open one fresh connection per job, as
//! `repro submit` does.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use icvbe_campaign::json::Json;
use icvbe_campaign::report::{aggregate_csv, aggregate_json, quarantine_csv, quarantine_json};
use icvbe_campaign::spec::CampaignSpec;
use icvbe_campaign::{run_campaign_with, RunOptions};
use icvbe_serve::{Client, ClientError, Daemon, JobEvent, ServiceConfig};

use crate::digest::{fnv1a, Gate};
use crate::ledger::Counters;
use crate::measure::{median, process_cpu_s, quantile, secs};
use crate::report::Report;
use crate::workloads::{
    job_spec, warmup_spec, Workload, SERVE_SPECS, SERVE_TENANTS, SERVE_THREADS, WAFER_THREADS,
};

/// Daemon set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The artifacts a served job must reproduce byte for byte.
pub const DETERMINISTIC_ARTIFACTS: [&str; 4] = [
    "campaign_aggregate.json",
    "campaign_aggregate.csv",
    "campaign_quarantine.json",
    "campaign_quarantine.csv",
];

/// A running daemon and its checkpoint directory, removed on stop.
pub struct Served {
    daemon: Daemon,
    addr: String,
    checkpoints: PathBuf,
}

impl Served {
    /// Loopback address of the daemon.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The service status document.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn status(&self) -> Result<Json, ClientError> {
        Client::connect(&self.addr)?.status()
    }

    /// Stops the daemon, joins its threads and removes its checkpoints.
    pub fn stop(self) {
        self.daemon.stop();
        let _ = std::fs::remove_dir_all(&self.checkpoints);
    }
}

/// Starts a daemon with checkpointing into `checkpoints` and runs one
/// warm-up job through it. Returns the daemon and the set-up seconds.
///
/// # Errors
///
/// Socket, checkpoint-directory or warm-up job failures.
pub fn start(seed: u64, checkpoints: &Path) -> Result<(Served, f64), String> {
    let t0 = Instant::now();
    let _ = std::fs::remove_dir_all(checkpoints);
    std::fs::create_dir_all(checkpoints).map_err(|e| format!("checkpoint dir: {e}"))?;
    let config = ServiceConfig {
        threads: SERVE_THREADS,
        checkpoint_dir: Some(checkpoints.to_path_buf()),
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(config, "127.0.0.1:0").map_err(|e| format!("daemon: {e}"))?;
    let served = Served {
        addr: daemon.local_addr().to_string(),
        daemon,
        checkpoints: checkpoints.to_path_buf(),
    };
    let warm = Client::connect(&served.addr).and_then(|mut c| {
        c.submit("warmup", "warmup", &warmup_spec(seed), true)?;
        c.wait_done(|_, _| {})
    });
    match warm {
        Ok(_) => Ok((served, secs(t0))),
        Err(e) => {
            served.stop();
            Err(format!("warm-up job: {e}"))
        }
    }
}

/// One job as its tenant saw it. Times are seconds since the tenant
/// started connecting.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index into the spec cycle.
    pub spec: usize,
    /// Job number, unique across tenants.
    pub job: u64,
    /// When the tenant started connecting.
    pub started: Instant,
    /// `Client::connect` returned (handshake done).
    pub connected_s: f64,
    /// `Client::submit` returned (job admitted).
    pub admitted_s: f64,
    /// First streamed die arrived.
    pub first_die_s: f64,
    /// Terminal `done` arrived.
    pub done_s: f64,
    /// Dies streamed.
    pub dies: u64,
    /// `(artifact, digest)` of the deterministic artifacts.
    pub digests: Vec<(String, String)>,
    /// The job's metrics document, as served.
    pub metrics: String,
    /// Error, if the job was refused, failed or dropped.
    pub error: Option<String>,
}

/// Runs one job on a fresh connection, as `repro submit` does.
fn run_job(addr: &str, tenant: &str, job: u64, spec_idx: usize, spec: &CampaignSpec) -> JobRecord {
    let mut rec = JobRecord {
        spec: spec_idx,
        job,
        started: Instant::now(),
        connected_s: f64::NAN,
        admitted_s: f64::NAN,
        first_die_s: f64::NAN,
        done_s: f64::NAN,
        dies: 0,
        digests: Vec::new(),
        metrics: String::new(),
        error: None,
    };
    if let Err(e) = exchange(addr, tenant, spec, &mut rec) {
        rec.error = Some(e.to_string());
    }
    rec
}

/// Connect, submit with streaming, and read events until the terminal
/// one, timestamping each step into `rec`.
fn exchange(
    addr: &str,
    tenant: &str,
    spec: &CampaignSpec,
    rec: &mut JobRecord,
) -> Result<(), ClientError> {
    let t0 = rec.started;
    let mut client = Client::connect(addr)?;
    rec.connected_s = secs(t0);
    client.submit(tenant, &format!("job{}", rec.job), spec, true)?;
    rec.admitted_s = secs(t0);
    loop {
        match client.next_event()? {
            JobEvent::Die { .. } => {
                if rec.dies == 0 {
                    rec.first_die_s = secs(t0);
                }
                rec.dies += 1;
            }
            JobEvent::Done { artifacts } => {
                rec.done_s = secs(t0);
                for (name, text) in artifacts {
                    if name == "campaign_metrics.json" {
                        rec.metrics = text;
                    } else {
                        rec.digests.push((name, fnv1a(text.as_bytes())));
                    }
                }
                return Ok(());
            }
            JobEvent::Cancelled => return Err(ClientError::Protocol("cancelled".into())),
            JobEvent::Failed { detail } => return Err(ClientError::Protocol(detail)),
        }
    }
}

/// Runs the tenants' closed loops until `seconds` have passed; at least
/// `min_jobs` jobs complete in total. Returns the jobs in completion order
/// per tenant and the loop's wall seconds.
pub fn drive(
    addr: &str,
    specs: &[CampaignSpec],
    seconds: f64,
    min_jobs: usize,
) -> (Vec<JobRecord>, f64) {
    let barrier = Barrier::new(SERVE_TENANTS);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let per_tenant = min_jobs.div_ceil(SERVE_TENANTS);
    let mut jobs: Vec<JobRecord> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_TENANTS)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let tenant = format!("tenant{t}");
                    let mut out = Vec::new();
                    barrier.wait();
                    let mut k = t;
                    while out.len() < per_tenant || Instant::now() < deadline {
                        let spec = k % specs.len();
                        out.push(run_job(addr, &tenant, k as u64, spec, &specs[spec]));
                        k += SERVE_TENANTS;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    jobs.sort_by_key(|j| j.job);
    (jobs, secs(t0))
}

/// Reference artifacts of each spec, run in-process at the wafer
/// workloads' thread count: served jobs run on one worker thread, so the
/// comparison also checks thread-count identity.
#[must_use]
pub fn references(specs: &[CampaignSpec]) -> Vec<Option<Vec<(String, String)>>> {
    specs
        .iter()
        .map(|spec| {
            run_campaign_with(spec, WAFER_THREADS, &RunOptions::default())
                .ok()
                .map(|run| {
                    let texts = [
                        aggregate_json(&run),
                        aggregate_csv(&run),
                        quarantine_json(&run),
                        quarantine_csv(&run),
                    ];
                    DETERMINISTIC_ARTIFACTS
                        .iter()
                        .zip(texts)
                        .map(|(n, t)| ((*n).to_string(), fnv1a(t.as_bytes())))
                        .collect()
                })
        })
        .collect()
}

/// One digest over the whole spec cycle's reference artifacts, `None`
/// if any in-process run failed. This is what `pinned_digests.txt` pins
/// for the service workload.
#[must_use]
pub fn set_digest(refs: &[Option<Vec<(String, String)>>]) -> Option<String> {
    let mut joined = String::new();
    for r in refs {
        for (_, d) in r.as_ref()? {
            joined.push_str(d);
        }
    }
    Some(fnv1a(joined.as_bytes()))
}

/// Checks every served job against the in-process reference of its spec
/// and the pinned digest of the reference set. Returns the number of
/// jobs that failed or returned wrong artifacts.
pub fn check_jobs(jobs: &[JobRecord], specs: &[CampaignSpec], seed: u64, gate: &mut Gate) -> u64 {
    let refs = references(specs);
    let mut bad = 0u64;
    for j in jobs {
        let ok = match (&j.error, &refs[j.spec]) {
            (Some(e), _) => {
                gate.check(false, || format!("job {} failed: {e}", j.job));
                false
            }
            (None, None) => {
                gate.check(false, || {
                    format!("in-process run of spec {} failed", j.spec)
                });
                false
            }
            (None, Some(want)) => {
                let mut got: Vec<(String, String)> = j
                    .digests
                    .iter()
                    .filter(|(n, _)| DETERMINISTIC_ARTIFACTS.contains(&n.as_str()))
                    .cloned()
                    .collect();
                got.sort();
                let mut want = want.clone();
                want.sort();
                let same = got == want && j.dies == specs[j.spec].wafer.die_count() as u64;
                gate.check(same, || {
                    format!(
                        "job {} (spec {}) differs from its in-process run",
                        j.job, j.spec
                    )
                });
                same
            }
        };
        bad += u64::from(!ok);
    }
    if let Some(digest) = set_digest(&refs) {
        gate.check_pinned(
            Workload::ServeSmallJobs.name(),
            seed,
            "aggregate_json",
            &digest,
        );
    }
    bad
}

/// The spec cycle of the service workload.
#[must_use]
pub fn specs(seed: u64) -> Vec<CampaignSpec> {
    (0..SERVE_SPECS).map(|k| job_spec(seed, k)).collect()
}

/// Starts [`SETUP_REPS`] daemons in turn, keeping the last. Returns it
/// and the median set-up seconds.
///
/// # Errors
///
/// The first start failure.
pub fn setup(seed: u64, checkpoints: &Path) -> Result<(Served, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            Served::stop(prev);
        }
        let (served, t) = start(seed, checkpoints)?;
        times.push(t);
        last = Some(served);
    }
    Ok((last.expect("SETUP_REPS is nonzero"), times))
}

/// Fewest jobs a run completes, so that ten lie beyond the p95.
pub const MIN_JOBS: usize = 200;

/// The timed run of the service workload.
pub fn run_timed(seed: u64, seconds: u64, checkpoints: &Path, gate: &mut Gate) -> Report {
    let mut report = Report::default();
    let specs = specs(seed);
    let (served, setups) = match setup(seed, checkpoints) {
        Ok(s) => s,
        Err(e) => {
            gate.check(false, || e);
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    let cpu0 = process_cpu_s();
    let (jobs, wall_s) = drive(served.addr(), &specs, seconds as f64, MIN_JOBS);
    let cpu_s = process_cpu_s() - cpu0;
    let status = served.status();
    served.stop();

    let bad = check_jobs(&jobs, &specs, seed, gate);
    report.attempted = jobs.len() as u64;
    report.failed = bad;
    if let Ok(st) = &status {
        let rejected = st
            .get("counters")
            .and_then(|c| c.get("rejected"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        report.note(format!(
            "serve_small_jobs seed {seed}: {} jobs, {rejected} refused",
            jobs.len()
        ));
    }

    let done: Vec<&JobRecord> = jobs.iter().filter(|j| j.error.is_none()).collect();
    let dies: u64 = done.iter().map(|j| j.dies).sum();
    let lat_ms: Vec<f64> = done.iter().map(|j| j.done_s * 1e3).collect();
    let first_ms: Vec<f64> = done
        .iter()
        .map(|j| (j.first_die_s - j.connected_s) * 1e3)
        .collect();
    let corners: u64 = specs[0].corners.len() as u64;
    let corner_ops: u64 = jobs
        .iter()
        .map(|j| specs[j.spec].wafer.die_count() as u64 * corners)
        .sum();
    let quarantined: f64 = done
        .iter()
        .map(|j| Counters::from_metrics_json(&j.metrics).value("recovery.corners_quarantined"))
        .sum();
    let failed_ops: f64 = jobs
        .iter()
        .filter(|j| j.error.is_some())
        .map(|j| (specs[j.spec].wafer.die_count() as u64 * corners) as f64)
        .sum();
    report.push("setup_s", median(&setups), "s", setups.len());
    report.push("dies_per_s", dies as f64 / wall_s, "1/s", dies as usize);
    report.push(
        "cpu_ms_per_die",
        cpu_s * 1e3 / dies.max(1) as f64,
        "ms",
        dies as usize,
    );
    report.push("job_latency_ms_p50", median(&lat_ms), "ms", lat_ms.len());
    report.push(
        "job_latency_ms_p95",
        quantile(&lat_ms, 0.95),
        "ms",
        lat_ms.len(),
    );
    report.push("first_die_ms_p50", median(&first_ms), "ms", first_ms.len());
    report.push("jobs_per_s", done.len() as f64 / wall_s, "1/s", done.len());
    report.push(
        "op_ok_frac",
        1.0 - (quarantined + failed_ops) / corner_ops.max(1) as f64,
        "frac",
        corner_ops as usize,
    );
    report
}
