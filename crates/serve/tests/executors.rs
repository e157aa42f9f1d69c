//! Tests of the service's parallel executors: slices of different jobs
//! run side by side (at most `slots` at once, never two of one job), a
//! job cancelled mid-slice finalizes exactly once, and a shutdown while
//! several slices execute checkpoints every live job exactly once and
//! resumes byte-identically.
//!
//! The slot count is `max(1, cores / threads)`; at `threads: 1` a 2-core
//! host runs two slices at once. On a 1-core host the service has one
//! slot, and the tests check that instead of parallel execution.

use std::path::{Path, PathBuf};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use icvbe_campaign::checkpoint::checkpoint_from_json;
use icvbe_campaign::json::{parse, Json};
use icvbe_campaign::report::{aggregate_csv, aggregate_json, quarantine_csv, quarantine_json};
use icvbe_campaign::spec::{BiasCorner, CampaignSpec, WaferMap};
use icvbe_campaign::{run_campaign_with, RunOptions};
use icvbe_serve::service::{Service, ServiceConfig};

/// A single-corner campaign on a `rows`×`rows` wafer.
fn spec(rows: usize, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::paper_default(WaferMap::full(rows, rows), seed);
    spec.corners.truncate(1);
    spec
}

/// A campaign whose dies cost twelve corner extractions each, so one of
/// its slices outlasts several single-corner slices of another job.
fn slow_spec(rows: usize, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::paper_default(WaferMap::full(rows, rows), seed);
    spec.corners = (0..4)
        .flat_map(|k| {
            spec.corners.iter().map(move |c| BiasCorner {
                name: format!("{}{k}", c.name),
                ic: c.ic,
            })
        })
        .collect();
    spec
}

/// The four deterministic report artifacts of a one-shot run.
fn golden(spec: &CampaignSpec) -> Vec<(String, String)> {
    let run = run_campaign_with(spec, 1, &RunOptions::default()).expect("one-shot run");
    vec![
        ("campaign_aggregate.json".to_string(), aggregate_json(&run)),
        ("campaign_aggregate.csv".to_string(), aggregate_csv(&run)),
        (
            "campaign_quarantine.json".to_string(),
            quarantine_json(&run),
        ),
        ("campaign_quarantine.csv".to_string(), quarantine_csv(&run)),
    ]
}

/// One slice per executor, two dies per slice: many slices per job.
fn config(checkpoint_dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        threads: 1,
        slice_dies: 2,
        checkpoint_every: 0,
        checkpoint_dir,
        paused: true, // queue every job before the first slice runs
        ..ServiceConfig::default()
    }
}

/// Every line of a job's stream up to and including its terminal one.
fn drain(rx: &Receiver<String>) -> Vec<String> {
    let mut lines = Vec::new();
    while let Ok(line) = rx.recv_timeout(Duration::from_secs(300)) {
        let terminal = !line.contains("\"type\":\"die\"");
        lines.push(line);
        if terminal {
            break;
        }
    }
    lines
}

/// The frozen artifacts carried by a `done` line, in golden order.
fn frozen_artifacts(done: &str) -> Vec<(String, String)> {
    let v = parse(done).expect("done line parses");
    let artifacts = v.get("artifacts").expect("done line carries artifacts");
    [
        "campaign_aggregate.json",
        "campaign_aggregate.csv",
        "campaign_quarantine.json",
        "campaign_quarantine.csv",
    ]
    .iter()
    .map(|name| {
        let text = artifacts
            .get(name)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("artifact {name} missing"));
        ((*name).to_string(), text.to_string())
    })
    .collect()
}

/// Reads `executing` from the `status` document, asserting it does not
/// exceed `slots`.
fn executing(service: &Service) -> u64 {
    let status = parse(&service.status_json()).expect("status parses");
    let field = |name: &str| {
        status
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("status lacks {name}"))
    };
    let (slots, executing) = (field("slots"), field("executing"));
    assert!(
        executing <= slots,
        "{executing} slices executing, {slots} slots"
    );
    executing
}

/// Polls `status` until `executing` reaches `want`.
fn wait_for_executing(service: &Service, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while executing(service) < want {
        assert!(Instant::now() < deadline, "executing never reached {want}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Slices the test can see executing at once: two where the host has
/// two slots, one on a 1-core host (whose status must say `slots == 1`).
fn parallel_target(service: &Service) -> u64 {
    let slots = service.stats().slots;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 2 {
        assert_eq!(slots, 1, "a 1-core host runs one slice at a time");
    } else {
        assert_eq!(slots, cores, "threads: 1 gives one slot per core");
    }
    slots.min(2) as u64
}

#[test]
fn two_tenants_execute_side_by_side_and_match_the_one_shot_bytes() {
    let spec_a = spec(6, 0xA11CE);
    let spec_b = spec(6, 0xB0B);
    let service = Service::start(config(None)).expect("service");
    let target = parallel_target(&service);

    let a = service.submit("alice", "a", spec_a.clone()).expect("a").job;
    let b = service.submit("bob", "b", spec_b.clone()).expect("b").job;
    let rx_a = service.subscribe(a).expect("subscribe a");
    let rx_b = service.subscribe(b).expect("subscribe b");
    service.set_paused(false);
    wait_for_executing(&service, target);

    // Keep checking the slot bound until both jobs end.
    let watcher = std::thread::spawn(move || (drain(&rx_a), drain(&rx_b)));
    while !watcher.is_finished() {
        executing(&service);
        std::thread::sleep(Duration::from_millis(1));
    }
    let (lines_a, lines_b) = watcher.join().expect("watcher");
    let done_a = lines_a.last().expect("job a terminal");
    let done_b = lines_b.last().expect("job b terminal");
    assert!(done_a.contains("\"type\":\"done\""), "{done_a}");
    assert!(done_b.contains("\"type\":\"done\""), "{done_b}");
    assert_eq!(frozen_artifacts(done_a), golden(&spec_a));
    assert_eq!(frozen_artifacts(done_b), golden(&spec_b));
    assert_eq!(service.stats().completed, 2);
}

#[test]
fn cancelling_an_executing_job_finalizes_it_exactly_once() {
    let spec_a = slow_spec(8, 0xCA9CE1);
    let spec_b = spec(5, 0xB0B);
    let service = Service::start(config(None)).expect("service");
    let target = parallel_target(&service);

    let a = service.submit("alice", "a", spec_a).expect("a").job;
    let b = service.submit("bob", "b", spec_b.clone()).expect("b").job;
    let rx_a = service.subscribe(a).expect("subscribe a");
    let rx_b = service.subscribe(b).expect("subscribe b");
    service.set_paused(false);
    // Both jobs hold a slice (one on a 1-core host): job a's slow slice
    // is executing when the flag lands, and the executor of job b's short
    // slices runs the cancellation sweep several times before it ends.
    wait_for_executing(&service, target);
    assert!(service.cancel(a));

    let lines_a = drain(&rx_a);
    assert!(
        lines_a
            .last()
            .is_some_and(|l| l.contains("\"type\":\"cancelled\"")),
        "job a: {lines_a:?}"
    );
    let lines_b = drain(&rx_b);
    let done_b = lines_b.last().expect("job b terminal");
    assert_eq!(frozen_artifacts(done_b), golden(&spec_b));

    // Once every slice has ended, a's replayed history holds exactly one
    // `cancelled` line and the counter rose by exactly one.
    let deadline = Instant::now() + Duration::from_secs(60);
    while service.stats().executing > 0 {
        assert!(Instant::now() < deadline, "a slice never ended");
        std::thread::sleep(Duration::from_millis(1));
    }
    let replay: Vec<String> = service.subscribe(a).expect("replay a").iter().collect();
    let cancelled = replay
        .iter()
        .filter(|l| l.contains("\"type\":\"cancelled\""))
        .count();
    assert_eq!(cancelled, 1, "job a history: {replay:?}");
    let stats = service.stats();
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.completed, 1, "{stats:?}");
}

/// `(job id, generation)` of every primary checkpoint file in `dir`.
fn primary_checkpoints(dir: &Path) -> Vec<(u64, u64)> {
    let mut found: Vec<(u64, u64)> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let id = name.strip_prefix("job-")?.strip_suffix(".json")?;
            let id: u64 = id.parse().ok()?; // skips `job-N.prev.json`
            let text = std::fs::read_to_string(entry.path()).expect("read checkpoint");
            let doc = parse(&text).expect("checkpoint parses");
            let campaign = doc
                .get("campaign")
                .and_then(Json::as_str)
                .expect("campaign state");
            let cp = checkpoint_from_json(campaign).expect("campaign checkpoint");
            Some((id, cp.generation))
        })
        .collect();
    found.sort_unstable();
    found
}

#[test]
fn shutdown_while_slices_execute_checkpoints_each_job_once_and_resumes() {
    let spec_a = spec(8, 0x5B07);
    let spec_b = spec(8, 0x5B08);
    let ckdir = std::env::temp_dir().join(format!(
        "icvbe_serve_executors_shutdown_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&ckdir);

    let first = Service::start(config(Some(ckdir.clone()))).expect("service 1");
    let target = parallel_target(&first);
    let a = first.submit("alice", "a", spec_a.clone()).expect("a").job;
    let b = first.submit("bob", "b", spec_b.clone()).expect("b").job;
    first.set_paused(false);
    wait_for_executing(&first, target);
    first.request_shutdown();
    first.join();
    let stats = first.stats();
    assert_eq!(stats.executing, 0, "{stats:?}");
    assert_eq!(
        stats.completed, 0,
        "both jobs must still be live: {stats:?}"
    );
    drop(first);

    // Admission wrote generation 1; the shutdown sweep ran once, so each
    // live job's primary checkpoint is generation 2 — not 3 or more, which
    // one sweep per executor would leave.
    assert_eq!(primary_checkpoints(&ckdir), vec![(a, 2), (b, 2)]);

    let second = Service::start(ServiceConfig {
        paused: false,
        ..config(Some(ckdir.clone()))
    })
    .expect("service 2");
    assert_eq!(second.stats().resumed, 2);
    for (job, spec) in [(a, &spec_a), (b, &spec_b)] {
        let lines = drain(&second.subscribe(job).expect("resumed job"));
        let done = lines.last().expect("terminal");
        assert!(done.contains("\"type\":\"done\""), "job {job}: {done}");
        assert_eq!(frozen_artifacts(done), golden(spec), "job {job}");
    }
    drop(second);
    let _ = std::fs::remove_dir_all(&ckdir);
}
