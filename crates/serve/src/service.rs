//! The multi-tenant campaign engine behind the daemon.
//!
//! Work runs in bounded **slices**: one slice folds up to
//! [`ServiceConfig::slice_dies`] dies of one job through
//! [`run_campaign_streaming`] on [`ServiceConfig::threads`] worker
//! threads. The service runs `slots = max(1, cores / threads)` slices at
//! once, each on its own long-lived executor thread, and always from
//! different jobs. An executor picks its next slice by round-robin across
//! tenants, taking the tenant's oldest live job whose slice is not
//! already executing — so a long wafer from one tenant can never starve
//! another tenant's submission, and with idle cores each tenant's job
//! runs on its own. Between slices the job's aggregate state rests in the
//! job table; because at most one slice per job is in flight and the
//! campaign fold is strictly die-index-ordered, slicing and parallel
//! executors are invisible in the results: the final artifacts are
//! byte-identical to a one-shot run of the same spec.
//!
//! Cross-cutting state:
//!
//! - **Shared symbolic-LU cache** ([`SymbolicCache`]): every job's
//!   workers consult one service-wide cache, so concurrent tenants whose
//!   netlists share a sparsity pattern pay for one analysis total.
//! - **Bounded queue**: admissions beyond
//!   [`ServiceConfig::queue_capacity`] live jobs are rejected with the
//!   typed `queue_full` error carrying `retry_after_ms` — explicit
//!   backpressure instead of unbounded memory.
//! - **Checkpoints**: with a checkpoint directory configured, every job
//!   writes its exact fold state (die cursor + aggregate, `f64`s as bit
//!   patterns) at admission, every
//!   [`ServiceConfig::checkpoint_every`] folded dies, and at shutdown; a
//!   restarted service re-admits the jobs it finds and resumes them
//!   byte-identically.
//! - **Streaming**: each folded die is published to every subscriber of
//!   the job, with full history replay on late attach, so a client killed
//!   mid-stream can reconnect and still see an in-order, gap-free stream.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use icvbe_campaign::aggregate::CampaignAggregate;
use icvbe_campaign::checkpoint::{checkpoint_from_json, checkpoint_to_json};
use icvbe_campaign::die::DieBudget;
use icvbe_campaign::json::{escape, parse, Json};
use icvbe_campaign::metrics::CampaignCounters;
use icvbe_campaign::report;
use icvbe_campaign::wire::{spec_fingerprint, spec_from_json, spec_to_json};
use icvbe_campaign::worker::{run_campaign_streaming, CampaignRun, StreamOptions};
use icvbe_campaign::CampaignSpec;
use icvbe_instrument::chaos::{ChaosPlan, ChaosSpec, SocketFault};
use icvbe_spice::cache::SymbolicCache;
use icvbe_trace::{SpanKind, SpanPhase, Trace, TraceEvent, NO_DIE};

use crate::protocol::{cancelled_line, die_line, done_line, PROTOCOL_VERSION};

/// Schema tag of the service-level checkpoint files (one per live job in
/// the checkpoint directory; the campaign state itself uses the
/// `icvbe-campaign-checkpoint-v1` codec nested inside).
pub const SERVE_CHECKPOINT_SCHEMA: &str = "icvbe-serve-checkpoint-v1";

/// Finished (done, cancelled or failed) jobs the service keeps for
/// `status` listings and `results` replays. Past this many, the oldest
/// finished job ids are dropped from the job table, so a long-running
/// daemon's memory is bounded by this constant plus the live queue, not
/// by every job it ever served. An evicted job answers `unknown_job`;
/// the service counters still count it.
pub const FINISHED_JOBS_RETAINED: usize = 64;

/// Poison-safe lock: the service must keep serving even if some thread
/// panicked while holding the mutex (the state is a job table of plain
/// data — there is no invariant a panic can half-apply).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads used by each execution slice. The service runs
    /// `max(1, cores / threads)` slices of different jobs at once.
    pub threads: usize,
    /// Maximum live (queued + running) jobs; submissions beyond this are
    /// rejected with `queue_full`.
    pub queue_capacity: usize,
    /// Dies folded per slice before the job goes back to the table and
    /// its executor picks the next tenant's work.
    pub slice_dies: usize,
    /// Write a checkpoint every this many folded dies (0 disables the
    /// cadence; admission/shutdown checkpoints still happen when a
    /// checkpoint directory is configured).
    pub checkpoint_every: usize,
    /// Directory for per-job checkpoint files; `None` disables
    /// checkpointing entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// The **base** `retry_after_ms` hint carried by `queue_full`
    /// rejections; the emitted hint is this scaled by `1 +` the number
    /// of admitted-but-not-yet-dispatched jobs at rejection time, so
    /// callers back off longer the deeper the waiting backlog is.
    pub retry_after_ms: u64,
    /// Start with the executors paused (jobs queue but never run) — used
    /// by tests to fill the queue deterministically.
    pub paused: bool,
    /// Record service-level `job`/`queue` spans into a [`Trace`].
    pub trace: bool,
    /// Read/write timeout applied to every accepted client socket, in
    /// milliseconds (`0` disables). A stalled or half-dead client then
    /// times out instead of pinning its connection thread forever.
    pub io_timeout_ms: u64,
    /// Maximum bytes of a single request line. A client sending more gets
    /// the typed `request_too_large` error and is disconnected — the
    /// daemon never buffers a request unboundedly.
    pub max_request_bytes: usize,
    /// Environment-fault injection for service I/O: checkpoint writes and
    /// client sockets, plus die panics inside served campaigns. The
    /// default ([`ChaosSpec::none`]) is a structural no-op.
    pub chaos: ChaosSpec,
    /// Seed of the chaos plan; fault verdicts are byte-reproducible per
    /// `(chaos, chaos_seed)` and keyed per operation.
    pub chaos_seed: u64,
    /// Per-die solve containment budget applied to every served campaign
    /// (see [`DieBudget`]; the default disables enforcement).
    pub budget: DieBudget,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 2,
            queue_capacity: 8,
            slice_dies: 16,
            checkpoint_every: 32,
            checkpoint_dir: None,
            retry_after_ms: 250,
            paused: false,
            trace: false,
            io_timeout_ms: 30_000,
            max_request_bytes: 1 << 20,
            chaos: ChaosSpec::none(),
            chaos_seed: 0,
            budget: DieBudget::default(),
        }
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl JobState {
    fn live(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }

    fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

struct Job {
    tenant: String,
    label: String,
    spec: CampaignSpec,
    spec_wire: String,
    fingerprint: u64,
    total_dies: usize,
    state: JobState,
    next_die: usize,
    aggregate: CampaignAggregate,
    counters: Arc<CampaignCounters>,
    cancel: Arc<AtomicBool>,
    /// Checkpoint generation counter: incremented on every write, persisted
    /// in the checkpoint itself, restored on resume — so the dual-slot
    /// retention always knows which file is newer.
    generation: Arc<AtomicU64>,
    elapsed_ns: u64,
    max_buffer: usize,
    /// A slice of this job is on an executor. At most one is, so the fold
    /// stays die-ordered; executors skip the job until the slice ends.
    executing: bool,
    /// Rendered event lines, in order, replayed to late subscribers.
    history: Vec<String>,
    subscribers: Vec<mpsc::Sender<String>>,
}

struct State {
    jobs: BTreeMap<u64, Job>,
    /// Tenants in first-seen order; the round-robin universe.
    tenants: Vec<String>,
    /// Next tenant index to favour.
    rr: usize,
    next_id: u64,
    /// Executor threads still running; the last one to exit runs the
    /// shutdown checkpoint sweep.
    executors: usize,
}

/// A snapshot of the service's own counters (the campaign-level metrics
/// live per job; these are the queue/cache/tenancy ones the tentpole adds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Jobs accepted into the queue (including resumed ones).
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Submissions rejected with `queue_full`.
    pub rejected: u64,
    /// Execution slices run.
    pub slices: u64,
    /// Jobs re-admitted from checkpoint files at startup.
    pub resumed: u64,
    /// Live (queued + running) jobs right now.
    pub queue_depth: usize,
    /// Started, unfinished jobs (the running state), whether or not a
    /// slice of theirs is executing right now.
    pub active_jobs: usize,
    /// Slices the service runs at once: `max(1, cores / threads)`, fixed
    /// at start.
    pub slots: usize,
    /// Jobs with a slice executing right now (at most `slots`).
    pub executing: usize,
    /// Shared symbolic-LU cache hits across all jobs.
    pub cache_hits: u64,
    /// Shared symbolic-LU cache misses (first analysis of a pattern).
    pub cache_misses: u64,
    /// Distinct sparsity patterns cached.
    pub cache_patterns: usize,
    /// Jobs whose latest checkpoint was corrupt but whose previous
    /// generation loaded (the recovery ladder's middle rung).
    pub resumed_fallback: u64,
    /// Checkpoints dropped at startup: both generations unreadable, job
    /// started clean (the ladder's last rung, counted and logged).
    pub dropped_corrupt: u64,
    /// Stale `*.tmp` checkpoint files swept at startup (a crash mid-write
    /// leaves one behind; it is junk by construction).
    pub tmp_swept: u64,
    /// Request lines rejected with `request_too_large`.
    pub oversized: u64,
    /// Client connections dropped by the socket read/write timeout.
    pub io_timeouts: u64,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The live-job queue is at capacity; retry after the hinted delay.
    QueueFull {
        /// Backpressure hint for the client: the configured base hint
        /// scaled by the waiting backlog depth at rejection.
        retry_after_ms: u64,
    },
}

/// A successful admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitTicket {
    /// The job id (unique for the service lifetime, stable across
    /// checkpoint/restart).
    pub job: u64,
    /// Live jobs that were ahead of this one at admission.
    pub queued: usize,
}

struct Inner {
    config: ServiceConfig,
    /// Executor threads, each running one slice at a time.
    slots: usize,
    state: Mutex<State>,
    wake: Condvar,
    cache: Arc<SymbolicCache>,
    paused: AtomicBool,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    slices: AtomicU64,
    resumed: AtomicU64,
    resumed_fallback: AtomicU64,
    dropped_corrupt: AtomicU64,
    tmp_swept: AtomicU64,
    oversized: AtomicU64,
    io_timeouts: AtomicU64,
    /// The chaos plan, present iff the config armed any fault knob.
    chaos: Option<ChaosPlan>,
    trace: Option<Mutex<Trace>>,
    epoch: Instant,
}

/// The campaign service: job table, executor threads, shared caches.
///
/// The daemon wraps this in a TCP front end; tests drive it directly.
pub struct Service {
    inner: Arc<Inner>,
    executors: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Service").field("stats", &stats).finish()
    }
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn trace_event(&self, phase: SpanPhase, kind: SpanKind, n0: u64, n1: u64) {
        if let Some(trace) = &self.trace {
            let mut t = lock(trace);
            let seq = t.events.len() as u32;
            t.events.push(TraceEvent {
                phase,
                kind,
                die: NO_DIE,
                corner: -1,
                attempt: -1,
                label: "",
                seq,
                ts_ns: self.now_ns(),
                worker: 0,
                n0,
                n1,
            });
        }
    }

    fn checkpoint_path(&self, job: u64) -> Option<PathBuf> {
        self.config
            .checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("job-{job}.json")))
    }

    /// The `.prev` slot: the last good checkpoint, rotated aside before
    /// each new write so a torn or failed primary never erases the only
    /// recoverable state.
    fn prev_checkpoint_path(&self, job: u64) -> Option<PathBuf> {
        self.config
            .checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("job-{job}.prev.json")))
    }

    /// Writes a job's checkpoint crash-safely: tmp + rename, with the
    /// previous good file rotated into the `.prev` slot first. A kill —
    /// or an injected write fault — at any instant leaves at least one
    /// loadable generation behind: the new primary, the old primary, or
    /// the rotated previous one. Each write stamps a fresh generation
    /// number (persisted inside the checkpoint) and a content checksum,
    /// so the recovery ladder can tell good files from torn ones.
    ///
    /// Only a primary that passes the recovery ladder's own check is
    /// rotated: a torn primary (a write that reported success but left a
    /// truncated file) would otherwise displace the last good generation,
    /// so it is left for the new write to replace and `.prev` is kept.
    fn write_checkpoint(
        &self,
        meta: &CheckpointMeta<'_>,
        next_die: usize,
        aggregate: &CampaignAggregate,
    ) {
        let job = meta.job;
        let (Some(path), Some(prev)) = (self.checkpoint_path(job), self.prev_checkpoint_path(job))
        else {
            return;
        };
        let generation = meta.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let campaign = checkpoint_to_json(meta.fingerprint, next_die, generation, aggregate);
        let doc = format!(
            "{{\"schema\":\"{SERVE_CHECKPOINT_SCHEMA}\",\"job\":{job},\"tenant\":\"{}\",\"label\":\"{}\",\"spec\":\"{}\",\"campaign\":\"{}\"}}\n",
            escape(meta.tenant),
            escape(meta.label),
            escape(meta.spec_wire),
            escape(&campaign),
        );
        let loadable = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| load_checkpoint_file(&text))
            .is_some();
        if loadable {
            let _ = std::fs::rename(&path, &prev);
        }
        let tmp = path.with_extension("json.tmp");
        // The chaos plan's write path injects ENOSPC/EIO (write fails, no
        // file), short writes (write fails, partial tmp) and torn writes
        // (write "succeeds" with a truncated tmp — the lying-write case
        // the checksum exists to catch). Verdicts are keyed by
        // `(job, generation)`, so a chaos run is reproducible per seed.
        let written = match &self.chaos {
            Some(plan) => {
                plan.write_file((job << 24) | (generation & 0xff_ffff), &tmp, doc.as_bytes())
            }
            None => std::fs::write(&tmp, doc),
        };
        match written {
            Ok(()) => {
                let _ = std::fs::rename(&tmp, &path);
            }
            Err(_) => {
                // Failed write: count it (degradation must be visible in
                // campaign_metrics.json) and discard the junk tmp. The
                // `.prev` rotation above already preserved the last good
                // state.
                meta.counters
                    .checkpoint_write_errors
                    .fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    fn remove_checkpoint(&self, job: u64) {
        if let Some(path) = self.checkpoint_path(job) {
            let _ = std::fs::remove_file(path);
        }
        if let Some(prev) = self.prev_checkpoint_path(job) {
            let _ = std::fs::remove_file(prev);
        }
    }

    /// Appends an event line to a job's history and fans it out to the
    /// live subscribers (dead ones are dropped).
    fn publish_locked(job: &mut Job, line: String) {
        job.subscribers.retain(|tx| tx.send(line.clone()).is_ok());
        job.history.push(line);
    }

    fn publish_die(&self, job_id: u64, die_index: usize, total: usize) {
        let mut state = lock(&self.state);
        if let Some(job) = state.jobs.get_mut(&job_id) {
            let line = die_line(job_id, die_index, die_index as u64 + 1, total);
            Inner::publish_locked(job, line);
        }
    }

    /// Terminalizes a finished job: renders the artifacts and ends the
    /// job with the `done` event.
    fn finalize_done(&self, job_id: u64, job: &mut Job) {
        let metrics =
            job.counters
                .snapshot(self.config.threads.max(1), job.elapsed_ns, job.max_buffer);
        let run = CampaignRun {
            spec: job.spec.clone(),
            aggregate: std::mem::take(&mut job.aggregate),
            metrics,
            trace: None,
        };
        let artifacts = [
            ("campaign_aggregate.json", report::aggregate_json(&run)),
            ("campaign_aggregate.csv", report::aggregate_csv(&run)),
            ("campaign_quarantine.json", report::quarantine_json(&run)),
            ("campaign_quarantine.csv", report::quarantine_csv(&run)),
            ("campaign_metrics.json", report::metrics_json(&run)),
        ];
        let borrowed: Vec<(&str, &str)> = artifacts.iter().map(|(n, t)| (*n, t.as_str())).collect();
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.finish(job_id, job, done_line(job_id, &borrowed), JobState::Done);
    }

    fn finalize_cancelled(&self, job_id: u64, job: &mut Job) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
        self.finish(job_id, job, cancelled_line(job_id), JobState::Cancelled);
    }

    fn finalize_failed(&self, job_id: u64, job: &mut Job, detail: &str) {
        let line = format!(
            "{{\"ok\":false,\"type\":\"failed\",\"job\":{job_id},\"detail\":\"{}\"}}",
            escape(detail)
        );
        self.finish(job_id, job, line, JobState::Failed);
    }

    /// Ends a job in `state`: publishes its terminal `line`, releases the
    /// subscribers and deletes the checkpoint. The fold state goes too: a
    /// finished job stays in the table only for `status` and replays, and
    /// the aggregates (exact accumulators, ~16 KB per corner) of the
    /// retained finished jobs would otherwise be most of the daemon's
    /// memory.
    fn finish(&self, job_id: u64, job: &mut Job, line: String, state: JobState) {
        Inner::publish_locked(job, line);
        job.subscribers.clear();
        job.state = state;
        job.aggregate = CampaignAggregate::default();
        self.remove_checkpoint(job_id);
        self.trace_event(SpanPhase::End, SpanKind::Job, job_id, 0);
    }

    /// Picks the next `(job id, slice task)` fairly: tenants are visited
    /// round-robin; within a tenant the oldest live job whose slice is not
    /// executing runs first, and the picked job is marked executing. Live
    /// jobs flagged for cancellation between slices are terminalized
    /// first, so they never take a turn; a job whose slice is executing is
    /// left to that slice, which finalizes it when it sees the flag. Runs
    /// under the caller's state guard: the executor waits on that same
    /// guard when this returns `None`, so a notify between the check and
    /// the wait cannot be lost.
    fn pick_next(&self, state: &mut State) -> Option<SliceTask> {
        if self.paused.load(Ordering::Relaxed) {
            return None;
        }
        let mut retired = false;
        for (&id, job) in &mut state.jobs {
            if job.state.live() && !job.executing && job.cancel.load(Ordering::Relaxed) {
                self.finalize_cancelled(id, job);
                retired = true;
            }
        }
        if retired {
            evict_finished(state);
        }
        let n = state.tenants.len();
        for i in 0..n {
            let ti = (state.rr + i) % n;
            let tenant = &state.tenants[ti];
            let id = state
                .jobs
                .iter()
                .find(|(_, j)| j.tenant == *tenant && j.state.live() && !j.executing)
                .map(|(id, _)| *id);
            let Some(id) = id else { continue };
            state.rr = (ti + 1) % n;
            let queue_depth = state.jobs.values().filter(|j| j.state.live()).count();
            let Some(job) = state.jobs.get_mut(&id) else {
                continue;
            };
            job.executing = true;
            if job.state == JobState::Queued {
                job.state = JobState::Running;
                // End of the job's queued phase: n1 records the live-job
                // depth observed at first dispatch.
                self.trace_event(SpanPhase::End, SpanKind::Queue, id, queue_depth as u64);
            }
            return Some(SliceTask {
                job: id,
                tenant: job.tenant.clone(),
                label: job.label.clone(),
                spec: job.spec.clone(),
                spec_wire: job.spec_wire.clone(),
                fingerprint: job.fingerprint,
                start_die: job.next_die,
                total: job.total_dies,
                aggregate: job.aggregate.clone(),
                counters: Arc::clone(&job.counters),
                cancel: Arc::clone(&job.cancel),
                generation: Arc::clone(&job.generation),
            });
        }
        None
    }

    /// Runs one bounded slice of a job on the worker pool.
    fn run_slice(self: &Arc<Inner>, task: SliceTask) {
        let slice_started = Instant::now();
        let limit = self.config.slice_dies.max(1);
        let every = self.config.checkpoint_every;
        let mut folded = 0usize;
        let options = StreamOptions {
            trace: false,
            start_die: task.start_die,
            resume: Some(task.aggregate),
            symbolic_cache: Some(Arc::clone(&self.cache)),
            counters: Some(Arc::clone(&task.counters)),
            chaos: self.config.chaos,
            chaos_seed: self.config.chaos_seed,
            budget: self.config.budget,
        };
        let inner = Arc::clone(self);
        let result = run_campaign_streaming(
            &task.spec,
            self.config.threads,
            &options,
            |die, aggregate| {
                folded += 1;
                inner.publish_die(task.job, die.index, task.total);
                if every > 0 && (die.index + 1) % every == 0 {
                    inner.write_checkpoint(
                        &CheckpointMeta {
                            job: task.job,
                            tenant: &task.tenant,
                            label: &task.label,
                            spec_wire: &task.spec_wire,
                            fingerprint: task.fingerprint,
                            generation: &task.generation,
                            counters: &task.counters,
                        },
                        die.index + 1,
                        aggregate,
                    );
                }
                if task.cancel.load(Ordering::Relaxed)
                    || inner.shutdown.load(Ordering::Relaxed)
                    || folded >= limit
                {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        self.slices.fetch_add(1, Ordering::Relaxed);
        let mut state = lock(&self.state);
        if let Some(job) = state.jobs.get_mut(&task.job) {
            job.executing = false;
            match result {
                Ok(run) => {
                    job.elapsed_ns += slice_started.elapsed().as_nanos() as u64;
                    job.max_buffer = job.max_buffer.max(run.metrics.max_reorder_buffer);
                    job.aggregate = run.aggregate;
                    job.next_die = task.start_die + folded;
                    if job.cancel.load(Ordering::Relaxed) {
                        self.finalize_cancelled(task.job, job);
                    } else if job.next_die >= job.total_dies {
                        self.finalize_done(task.job, job);
                    }
                }
                Err(e) => self.finalize_failed(task.job, job, &format!("{e:?}")),
            }
        }
        evict_finished(&mut state);
        // The job is free again: an idle executor can take its next slice
        // (or the tenant's next job) at once rather than at its timeout.
        self.wake.notify_all();
    }

    /// One executor thread: runs slices until shutdown. Stops after its
    /// current slice; the last executor to exit checkpoints every live
    /// job and releases the subscribers, exactly once.
    fn run_executor(self: &Arc<Inner>) {
        let mut state = lock(&self.state);
        while !self.shutdown.load(Ordering::Relaxed) {
            match self.pick_next(&mut state) {
                Some(task) => {
                    drop(state);
                    self.run_slice(task);
                    state = lock(&self.state);
                }
                None => {
                    // Nothing runnable, checked under this same guard:
                    // submit/cancel/pause/shutdown and slice ends all
                    // notify while holding the lock, so none of them can
                    // slip in between the check and the wait. The timeout
                    // is only a safety net.
                    state = self
                        .wake
                        .wait_timeout(state, Duration::from_millis(20))
                        .map_or_else(|e| e.into_inner().0, |(g, _)| g);
                }
            }
        }
        state.executors -= 1;
        let last = state.executors == 0;
        drop(state);
        if last {
            self.checkpoint_all_and_release();
        }
    }

    /// Shutdown path: checkpoint every live job and release all
    /// subscribers so streaming clients unblock.
    fn checkpoint_all_and_release(&self) {
        let mut state = lock(&self.state);
        let jobs: Vec<u64> = state.jobs.keys().copied().collect();
        for id in jobs {
            let Some(job) = state.jobs.get_mut(&id) else {
                continue;
            };
            if job.state.live() {
                self.write_checkpoint(
                    &CheckpointMeta {
                        job: id,
                        tenant: &job.tenant,
                        label: &job.label,
                        spec_wire: &job.spec_wire,
                        fingerprint: job.fingerprint,
                        generation: &job.generation,
                        counters: &job.counters,
                    },
                    job.next_die,
                    &job.aggregate,
                );
            }
            job.subscribers.clear();
        }
    }
}

/// Drops the oldest finished jobs (lowest ids first) until at most
/// [`FINISHED_JOBS_RETAINED`] remain. Live jobs are never touched, and a
/// finished job's checkpoint files were already removed when it finished.
fn evict_finished(state: &mut State) {
    let finished = state.jobs.values().filter(|j| !j.state.live()).count();
    let mut excess = finished.saturating_sub(FINISHED_JOBS_RETAINED);
    if excess == 0 {
        return;
    }
    // `BTreeMap::retain` visits keys in ascending order: oldest ids first.
    state.jobs.retain(|_, j| {
        if excess > 0 && !j.state.live() {
            excess -= 1;
            false
        } else {
            true
        }
    });
}

struct SliceTask {
    job: u64,
    tenant: String,
    label: String,
    spec: CampaignSpec,
    spec_wire: String,
    fingerprint: u64,
    start_die: usize,
    total: usize,
    aggregate: CampaignAggregate,
    counters: Arc<CampaignCounters>,
    cancel: Arc<AtomicBool>,
    generation: Arc<AtomicU64>,
}

/// The identity fields of a checkpoint file, borrowed from wherever the
/// caller holds them (a `Job` under the state lock, or a `SliceTask`
/// snapshot inside the fold callback).
struct CheckpointMeta<'a> {
    job: u64,
    tenant: &'a str,
    label: &'a str,
    spec_wire: &'a str,
    fingerprint: u64,
    generation: &'a AtomicU64,
    counters: &'a CampaignCounters,
}

/// A job re-admitted from a checkpoint file.
struct ResumedJob {
    id: u64,
    tenant: String,
    label: String,
    spec: CampaignSpec,
    next_die: usize,
    generation: u64,
    aggregate: CampaignAggregate,
}

fn load_checkpoint_file(text: &str) -> Option<ResumedJob> {
    let v = parse(text).ok()?;
    if v.get("schema").and_then(Json::as_str) != Some(SERVE_CHECKPOINT_SCHEMA) {
        return None;
    }
    let id = v.get("job").and_then(Json::as_u64)?;
    let tenant = v.get("tenant").and_then(Json::as_str)?.to_string();
    let label = v.get("label").and_then(Json::as_str)?.to_string();
    let spec = spec_from_json(v.get("spec").and_then(Json::as_str)?).ok()?;
    let cp = checkpoint_from_json(v.get("campaign").and_then(Json::as_str)?).ok()?;
    // The fingerprint binds the aggregate state to the spec: a mismatch
    // means the file pairs state with a spec that did not produce it, and
    // resuming would silently diverge from the uninterrupted run.
    if cp.fingerprint != spec_fingerprint(&spec) {
        return None;
    }
    Some(ResumedJob {
        id,
        tenant,
        label,
        spec,
        next_die: cp.next_die,
        generation: cp.generation,
        aggregate: cp.aggregate,
    })
}

impl Service {
    /// Starts the service: loads any checkpointed jobs from the
    /// configured directory (creating it if needed) and spawns the
    /// executor threads, `max(1, cores / threads)` of them.
    ///
    /// # Errors
    ///
    /// I/O errors creating the checkpoint directory.
    pub fn start(config: ServiceConfig) -> std::io::Result<Service> {
        if let Err(e) = config.chaos.validate() {
            return Err(std::io::Error::other(format!("chaos spec: {e}")));
        }
        if let Some(dir) = &config.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
        }
        let paused = config.paused;
        let tracing = config.trace;
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let slots = (cores / config.threads.max(1)).max(1);
        let chaos =
            (!config.chaos.is_none()).then(|| ChaosPlan::new(config.chaos, config.chaos_seed));
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                tenants: Vec::new(),
                rr: 0,
                next_id: 1,
                executors: slots,
            }),
            wake: Condvar::new(),
            cache: Arc::new(SymbolicCache::new()),
            paused: AtomicBool::new(paused),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            slices: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            resumed_fallback: AtomicU64::new(0),
            dropped_corrupt: AtomicU64::new(0),
            tmp_swept: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            io_timeouts: AtomicU64::new(0),
            chaos,
            trace: tracing.then(|| Mutex::new(Trace::default())),
            epoch: Instant::now(),
            slots,
            config,
        });
        let service = Service {
            inner: Arc::clone(&inner),
            executors: Mutex::new(Vec::new()),
        };
        service.resume_from_checkpoints();
        *lock(&service.executors) = (0..slots)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.run_executor())
            })
            .collect();
        Ok(service)
    }

    /// Re-admits checkpointed jobs, walking the recovery ladder per job:
    ///
    /// 1. the primary `job-N.json` (checksum-verified on decode);
    /// 2. on failure, the rotated `job-N.prev.json` — counted as a
    ///    generation fallback;
    /// 3. on failure again, a clean start — the corrupt files are dropped
    ///    with a counted warning rather than crashing the daemon.
    ///
    /// Stale `*.tmp` files (a crash mid-write) are swept and counted
    /// before the scan.
    fn resume_from_checkpoints(&self) {
        let Some(dir) = self.inner.config.checkpoint_dir.clone() else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return;
        };
        let mut primaries: BTreeMap<String, PathBuf> = BTreeMap::new();
        let mut prevs: BTreeMap<String, PathBuf> = BTreeMap::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if name.ends_with(".tmp") {
                if std::fs::remove_file(&path).is_ok() {
                    self.inner.tmp_swept.fetch_add(1, Ordering::Relaxed);
                    eprintln!("icvbe-serve: swept stale checkpoint tmp file {name}");
                }
            } else if let Some(stem) = name.strip_suffix(".prev.json") {
                prevs.insert(stem.to_string(), path);
            } else if let Some(stem) = name.strip_suffix(".json") {
                primaries.insert(stem.to_string(), path);
            }
        }
        let load = |path: &PathBuf| {
            std::fs::read_to_string(path)
                .ok()
                .and_then(|text| load_checkpoint_file(&text))
        };
        let mut resumed: Vec<(ResumedJob, bool)> = Vec::new();
        let keys: std::collections::BTreeSet<String> =
            primaries.keys().chain(prevs.keys()).cloned().collect();
        for key in keys {
            if let Some(job) = primaries.get(&key).and_then(&load) {
                resumed.push((job, false));
            } else if let Some(job) = prevs.get(&key).and_then(&load) {
                self.inner.resumed_fallback.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "icvbe-serve: checkpoint {key}: latest generation unreadable, \
                     resumed from previous generation"
                );
                resumed.push((job, true));
            } else {
                self.inner.dropped_corrupt.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "icvbe-serve: checkpoint {key}: no readable generation, \
                     dropping (job starts clean if resubmitted)"
                );
            }
        }
        resumed.sort_by_key(|(r, _)| r.id);
        let mut state = lock(&self.inner.state);
        for (r, fallback) in resumed {
            if !state.tenants.iter().any(|t| t == &r.tenant) {
                state.tenants.push(r.tenant.clone());
            }
            state.next_id = state.next_id.max(r.id + 1);
            let total = r.spec.wafer.die_count();
            // Re-synthesize the already-folded dies' stream history so a
            // re-attaching watcher sees the same gap-free event sequence
            // an uninterrupted stream would have carried.
            let history: Vec<String> = (0..r.next_die)
                .map(|i| die_line(r.id, i, i as u64 + 1, total))
                .collect();
            let counters = Arc::new(CampaignCounters::default());
            if fallback {
                // Degradation is visible in the job's own metrics too,
                // not just the service counters.
                counters
                    .checkpoint_generation_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
            }
            state.jobs.insert(
                r.id,
                Job {
                    tenant: r.tenant,
                    label: r.label,
                    spec_wire: spec_to_json(&r.spec),
                    fingerprint: spec_fingerprint(&r.spec),
                    total_dies: total,
                    spec: r.spec,
                    state: JobState::Queued,
                    next_die: r.next_die,
                    aggregate: r.aggregate,
                    counters,
                    cancel: Arc::new(AtomicBool::new(false)),
                    generation: Arc::new(AtomicU64::new(r.generation)),
                    elapsed_ns: 0,
                    max_buffer: 0,
                    executing: false,
                    history,
                    subscribers: Vec::new(),
                },
            );
            self.inner.submitted.fetch_add(1, Ordering::Relaxed);
            self.inner.resumed.fetch_add(1, Ordering::Relaxed);
            self.inner
                .trace_event(SpanPhase::Begin, SpanKind::Job, r.id, 0);
        }
        self.inner.wake.notify_all();
    }

    /// Submits a campaign under a tenant.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the live-job queue is at capacity.
    /// The spec is assumed already validated (the protocol layer decodes
    /// and validates it before calling in).
    pub fn submit(
        &self,
        tenant: &str,
        label: &str,
        spec: CampaignSpec,
    ) -> Result<SubmitTicket, SubmitError> {
        let inner = &self.inner;
        let mut state = lock(&inner.state);
        let queued = state.jobs.values().filter(|j| j.state.live()).count();
        if queued >= inner.config.queue_capacity {
            // Back-off hint proportional to the backlog the caller is
            // actually behind: jobs admitted but not yet dispatched. A
            // constant hint herds every rejected client back at the same
            // instant regardless of how deep the queue is.
            let waiting = state
                .jobs
                .values()
                .filter(|j| j.state == JobState::Queued)
                .count();
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                retry_after_ms: inner
                    .config
                    .retry_after_ms
                    .saturating_mul(1 + waiting as u64),
            });
        }
        if !state.tenants.iter().any(|t| t == tenant) {
            state.tenants.push(tenant.to_string());
        }
        let id = state.next_id;
        state.next_id += 1;
        let spec_wire = spec_to_json(&spec);
        let fingerprint = spec_fingerprint(&spec);
        let total = spec.wafer.die_count();
        let job = Job {
            tenant: tenant.to_string(),
            label: label.to_string(),
            spec_wire: spec_wire.clone(),
            fingerprint,
            total_dies: total,
            aggregate: CampaignAggregate::new(&spec),
            spec,
            state: JobState::Queued,
            next_die: 0,
            counters: Arc::new(CampaignCounters::default()),
            cancel: Arc::new(AtomicBool::new(false)),
            generation: Arc::new(AtomicU64::new(0)),
            elapsed_ns: 0,
            max_buffer: 0,
            executing: false,
            history: Vec::new(),
            subscribers: Vec::new(),
        };
        // Admission checkpoint: a daemon killed before the first cadence
        // checkpoint still knows about the job after restart.
        inner.write_checkpoint(
            &CheckpointMeta {
                job: id,
                tenant,
                label,
                spec_wire: &spec_wire,
                fingerprint,
                generation: &job.generation,
                counters: &job.counters,
            },
            0,
            &job.aggregate,
        );
        state.jobs.insert(id, job);
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        inner.trace_event(SpanPhase::Begin, SpanKind::Job, id, 0);
        inner.trace_event(SpanPhase::Begin, SpanKind::Queue, id, 0);
        inner.wake.notify_all();
        Ok(SubmitTicket { job: id, queued })
    }

    /// Attaches to a job's event stream: the receiver first yields the
    /// job's full history (in order), then live events as they happen,
    /// ending with the terminal `done`/`cancelled`/`failed` line. Returns
    /// `None` for an unknown job id.
    #[must_use]
    pub fn subscribe(&self, job_id: u64) -> Option<mpsc::Receiver<String>> {
        let mut state = lock(&self.inner.state);
        let job = state.jobs.get_mut(&job_id)?;
        let (tx, rx) = mpsc::channel();
        for line in &job.history {
            // Receiver is unbounded and in-hand; failure is impossible
            // here, but stay silent rather than panic in a service.
            let _ = tx.send(line.clone());
        }
        if job.state.live() {
            job.subscribers.push(tx);
        }
        Some(rx)
    }

    /// Finds the newest job with `label` (optionally restricted to one
    /// tenant).
    #[must_use]
    pub fn find_job(&self, tenant: Option<&str>, label: &str) -> Option<u64> {
        let state = lock(&self.inner.state);
        state
            .jobs
            .iter()
            .rev()
            .find(|(_, j)| j.label == label && tenant.is_none_or(|t| j.tenant == t))
            .map(|(id, _)| *id)
    }

    /// Requests cancellation. Queued jobs terminalize immediately;
    /// running jobs stop at the next die boundary. Returns `false` for an
    /// unknown or already-terminal job.
    pub fn cancel(&self, job_id: u64) -> bool {
        let inner = &self.inner;
        let mut state = lock(&inner.state);
        let Some(job) = state.jobs.get_mut(&job_id) else {
            return false;
        };
        if !job.state.live() {
            return false;
        }
        job.cancel.store(true, Ordering::Relaxed);
        if job.state == JobState::Queued {
            inner.finalize_cancelled(job_id, job);
            evict_finished(&mut state);
        }
        inner.wake.notify_all();
        true
    }

    /// Pauses or resumes the executors (jobs still queue while paused;
    /// slices already executing run to their end).
    pub fn set_paused(&self, paused: bool) {
        let _state = lock(&self.inner.state);
        self.inner.paused.store(paused, Ordering::Relaxed);
        self.inner.wake.notify_all();
    }

    /// Current service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        let state = lock(&inner.state);
        ServiceStats {
            submitted: inner.submitted.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            cancelled: inner.cancelled.load(Ordering::Relaxed),
            rejected: inner.rejected.load(Ordering::Relaxed),
            slices: inner.slices.load(Ordering::Relaxed),
            resumed: inner.resumed.load(Ordering::Relaxed),
            queue_depth: state.jobs.values().filter(|j| j.state.live()).count(),
            active_jobs: state
                .jobs
                .values()
                .filter(|j| j.state == JobState::Running)
                .count(),
            slots: inner.slots,
            executing: state.jobs.values().filter(|j| j.executing).count(),
            cache_hits: inner.cache.hits(),
            cache_misses: inner.cache.misses(),
            cache_patterns: inner.cache.patterns(),
            resumed_fallback: inner.resumed_fallback.load(Ordering::Relaxed),
            dropped_corrupt: inner.dropped_corrupt.load(Ordering::Relaxed),
            tmp_swept: inner.tmp_swept.load(Ordering::Relaxed),
            oversized: inner.oversized.load(Ordering::Relaxed),
            io_timeouts: inner.io_timeouts.load(Ordering::Relaxed),
        }
    }

    /// The configured client-socket read/write timeout, if any.
    #[must_use]
    pub fn io_timeout(&self) -> Option<Duration> {
        let ms = self.inner.config.io_timeout_ms;
        (ms > 0).then(|| Duration::from_millis(ms))
    }

    /// Maximum accepted request-line length in bytes.
    #[must_use]
    pub fn max_request_bytes(&self) -> usize {
        self.inner.config.max_request_bytes.max(1)
    }

    /// Records a connection dropped by the socket timeout (load shedding,
    /// surfaced in `status`).
    pub fn note_io_timeout(&self) {
        self.inner.io_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request line rejected as `request_too_large`.
    pub fn note_oversized(&self) {
        self.inner.oversized.fetch_add(1, Ordering::Relaxed);
    }

    /// The chaos verdict for client connection `op` ([`SocketFault::None`]
    /// when no chaos plan is armed).
    #[must_use]
    pub fn chaos_socket_fault(&self, op: u64) -> SocketFault {
        self.inner
            .chaos
            .as_ref()
            .map_or(SocketFault::None, |plan| plan.socket_fault(op))
    }

    /// Renders the `status` response line.
    #[must_use]
    pub fn status_json(&self) -> String {
        let s = self.stats();
        let state = lock(&self.inner.state);
        let jobs: Vec<String> = state
            .jobs
            .iter()
            .map(|(id, j)| {
                format!(
                    "{{\"job\":{id},\"tenant\":\"{}\",\"label\":\"{}\",\"state\":\"{}\",\"folded\":{},\"total\":{}}}",
                    escape(&j.tenant),
                    escape(&j.label),
                    j.state.label(),
                    j.next_die,
                    j.total_dies
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"ok\":true,\"type\":\"status\",\"version\":{version},",
                "\"paused\":{paused},\"queue_depth\":{depth},\"active_jobs\":{active},",
                "\"slots\":{slots},\"executing\":{executing},",
                "\"counters\":{{\"submitted\":{sub},\"completed\":{comp},",
                "\"cancelled\":{canc},\"rejected\":{rej},\"slices\":{slices},",
                "\"resumed\":{res},\"resumed_fallback\":{resfb},",
                "\"dropped_corrupt\":{dropc},\"tmp_swept\":{tmps},",
                "\"oversized\":{over},\"io_timeouts\":{tmo}}},",
                "\"cache\":{{\"hits\":{hits},\"misses\":{misses},\"patterns\":{pat}}},",
                "\"jobs\":[{jobs}]}}"
            ),
            version = PROTOCOL_VERSION,
            paused = self.inner.paused.load(Ordering::Relaxed),
            depth = s.queue_depth,
            active = s.active_jobs,
            slots = s.slots,
            executing = s.executing,
            sub = s.submitted,
            comp = s.completed,
            canc = s.cancelled,
            rej = s.rejected,
            slices = s.slices,
            res = s.resumed,
            resfb = s.resumed_fallback,
            dropc = s.dropped_corrupt,
            tmps = s.tmp_swept,
            over = s.oversized,
            tmo = s.io_timeouts,
            hits = s.cache_hits,
            misses = s.cache_misses,
            pat = s.cache_patterns,
            jobs = jobs.join(","),
        )
    }

    /// True once [`Service::request_shutdown`] has been called.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::Relaxed)
    }

    /// Asks every executor to stop after its current slice. Once the last
    /// one exits, live jobs are checkpointed and streaming clients are
    /// released.
    pub fn request_shutdown(&self) {
        let _state = lock(&self.inner.state);
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.wake.notify_all();
    }

    /// Blocks until every executor thread has exited (checkpoints
    /// written).
    pub fn join(&self) {
        let handles = std::mem::take(&mut *lock(&self.executors));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Takes the service-level trace (job/queue spans), if tracing was
    /// enabled. The trace is drained: a second call returns an empty one.
    #[must_use]
    pub fn take_trace(&self) -> Option<Trace> {
        self.inner
            .trace
            .as_ref()
            .map(|t| std::mem::take(&mut *lock(t)))
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.request_shutdown();
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icvbe_campaign::spec::WaferMap;

    fn tiny_spec(seed: u64) -> CampaignSpec {
        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), seed);
        s.corners.truncate(1);
        s
    }

    fn drain_until_done(rx: &mpsc::Receiver<String>) -> Vec<String> {
        let mut lines = Vec::new();
        while let Ok(line) = rx.recv_timeout(Duration::from_secs(60)) {
            let terminal = !line.contains("\"type\":\"die\"");
            lines.push(line);
            if terminal {
                break;
            }
        }
        lines
    }

    #[test]
    fn an_old_checkpoint_decodes_but_fails_its_old_fingerprint_binding() {
        use crate::old_lines::{SPEC_WITH_BYPASS, SPEC_WITH_BYPASS_FINGERPRINT};
        let spec = spec_from_json(SPEC_WITH_BYPASS).unwrap();
        let aggregate = CampaignAggregate::new(&spec);
        let file = |fingerprint: u64| {
            format!(
                "{{\"schema\":\"{SERVE_CHECKPOINT_SCHEMA}\",\"job\":3,\"tenant\":\"acme\",\"label\":\"old\",\"spec\":\"{}\",\"campaign\":\"{}\"}}\n",
                escape(SPEC_WITH_BYPASS),
                escape(&checkpoint_to_json(fingerprint, 0, 1, &aggregate)),
            )
        };
        // The spec line decodes, but the state was bound to the old bytes.
        assert!(load_checkpoint_file(&file(SPEC_WITH_BYPASS_FINGERPRINT)).is_none());
        let resumed = load_checkpoint_file(&file(spec_fingerprint(&spec))).unwrap();
        assert_eq!(resumed.spec, spec);
    }

    #[test]
    fn runs_a_job_to_completion_with_streamed_dies() {
        let service = Service::start(ServiceConfig {
            threads: 1,
            slice_dies: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let ticket = service.submit("t", "lot", tiny_spec(3)).unwrap();
        let rx = service.subscribe(ticket.job).unwrap();
        let lines = drain_until_done(&rx);
        // 4 dies + done, in order.
        assert_eq!(lines.len(), 5);
        for (i, line) in lines[..4].iter().enumerate() {
            assert!(line.contains(&format!("\"die\":{i},")), "{line}");
        }
        assert!(lines[4].contains("\"type\":\"done\""));
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert!(stats.cache_hits > 0, "shared cache saw no hits");
    }

    #[test]
    fn queue_full_is_deterministic_when_paused() {
        let service = Service::start(ServiceConfig {
            queue_capacity: 2,
            paused: true,
            ..ServiceConfig::default()
        })
        .unwrap();
        assert!(service.submit("a", "1", tiny_spec(1)).is_ok());
        assert!(service.submit("a", "2", tiny_spec(2)).is_ok());
        // Paused daemon: both live jobs are still waiting (never
        // dispatched), so the hint is base × (1 + 2 waiting) = 750 —
        // deterministically, since nothing can start running.
        match service.submit("a", "3", tiny_spec(3)) {
            Err(SubmitError::QueueFull { retry_after_ms }) => assert_eq!(retry_after_ms, 750),
            other => panic!("expected queue_full, got {other:?}"),
        }
        assert_eq!(service.stats().rejected, 1);
    }

    #[test]
    fn queue_full_hint_scales_with_backlog_depth() {
        // The hint must reflect load, not a constant: a deeper waiting
        // backlog yields a proportionally longer back-off.
        for (capacity, expect) in [(1usize, 500u64), (3, 1000), (5, 1500)] {
            let service = Service::start(ServiceConfig {
                queue_capacity: capacity,
                paused: true,
                ..ServiceConfig::default()
            })
            .unwrap();
            for i in 0..capacity {
                assert!(service.submit("t", "fill", tiny_spec(i as u64)).is_ok());
            }
            match service.submit("t", "overflow", tiny_spec(99)) {
                Err(SubmitError::QueueFull { retry_after_ms }) => {
                    assert_eq!(retry_after_ms, expect, "capacity {capacity}");
                }
                other => panic!("expected queue_full, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancel_before_dispatch_terminalizes_immediately() {
        let service = Service::start(ServiceConfig {
            paused: true,
            ..ServiceConfig::default()
        })
        .unwrap();
        let ticket = service.submit("t", "x", tiny_spec(9)).unwrap();
        assert!(service.cancel(ticket.job));
        assert!(!service.cancel(ticket.job), "already terminal");
        let rx = service.subscribe(ticket.job).unwrap();
        let lines = drain_until_done(&rx);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"type\":\"cancelled\""));
    }

    #[test]
    fn finished_jobs_release_their_fold_state() {
        let service = Service::start(ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let done = service.submit("t", "done", tiny_spec(4)).unwrap().job;
        drain_until_done(&service.subscribe(done).unwrap());
        service.set_paused(true);
        let cancelled = service.submit("t", "cancelled", tiny_spec(5)).unwrap().job;
        assert!(service.cancel(cancelled));
        let state = lock(&service.inner.state);
        for id in [done, cancelled] {
            let job = &state.jobs[&id];
            assert!(!job.state.live(), "job {id} still live");
            assert_eq!(job.aggregate, CampaignAggregate::default(), "job {id}");
        }
    }

    #[test]
    fn cancelled_jobs_count_toward_retention_and_live_jobs_stay() {
        let service = Service::start(ServiceConfig {
            queue_capacity: 2,
            paused: true,
            ..ServiceConfig::default()
        })
        .unwrap();
        // A queued job admitted first: the oldest id, but live throughout.
        let live = service.submit("t", "live", tiny_spec(0)).unwrap().job;
        let cancelled: Vec<u64> = (0..FINISHED_JOBS_RETAINED + 3)
            .map(|k| {
                let job = service.submit("t", "c", tiny_spec(k as u64)).unwrap().job;
                assert!(service.cancel(job));
                job
            })
            .collect();
        // The three oldest finished jobs are gone; the rest, and the live
        // job older than all of them, are still there.
        for &job in &cancelled[..3] {
            assert!(service.subscribe(job).is_none(), "job {job} retained");
        }
        for &job in &cancelled[3..] {
            assert!(service.subscribe(job).is_some(), "job {job} evicted");
        }
        assert!(service.subscribe(live).is_some(), "live job evicted");
        let stats = service.stats();
        assert_eq!(stats.cancelled, cancelled.len() as u64);
        assert_eq!(stats.queue_depth, 1);
    }
}
