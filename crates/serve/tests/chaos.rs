//! Environment-fault drills over real sockets and real checkpoint files:
//! the adversarial protocol sweep (garbage, truncation, oversized lines),
//! chaos-injected checkpoint write faults, and the crash matrix — a
//! daemon interrupted mid-job with its newest checkpoint torn, restarted
//! at several thread counts, must either resume byte-identically from the
//! rotated last-good slot or count the loss explicitly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use icvbe_campaign::json::Json;
use icvbe_campaign::report::{aggregate_csv, aggregate_json, quarantine_csv, quarantine_json};
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::{run_campaign, CampaignRun};
use icvbe_instrument::chaos::ChaosSpec;
use icvbe_serve::client::Client;
use icvbe_serve::daemon::Daemon;
use icvbe_serve::service::ServiceConfig;

/// A small single-corner campaign (same shape as the e2e suite).
fn spec(rows: usize, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::paper_default(WaferMap::full(rows, rows), seed);
    spec.corners.truncate(1);
    spec
}

/// The four deterministic report artifacts of a one-shot run.
fn golden(spec: &CampaignSpec) -> [(String, String); 4] {
    let run: CampaignRun = run_campaign(spec, 2).expect("one-shot run");
    [
        ("campaign_aggregate.json".to_string(), aggregate_json(&run)),
        ("campaign_aggregate.csv".to_string(), aggregate_csv(&run)),
        (
            "campaign_quarantine.json".to_string(),
            quarantine_json(&run),
        ),
        ("campaign_quarantine.csv".to_string(), quarantine_csv(&run)),
    ]
}

fn assert_matches_golden(artifacts: &[(String, String)], golden: &[(String, String); 4]) {
    for (name, want) in golden {
        let got = artifacts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
            .unwrap_or_else(|| panic!("artifact {name} missing from the stream"));
        assert_eq!(got, want, "{name} differs from the one-shot run");
    }
}

/// Sends one raw line and reads one reply line.
fn raw_round_trip(addr: std::net::SocketAddr, line: &[u8]) -> String {
    let mut socket = TcpStream::connect(addr).expect("connect");
    socket.write_all(line).expect("send");
    let mut reply = String::new();
    BufReader::new(socket.try_clone().expect("clone"))
        .read_line(&mut reply)
        .expect("reply");
    reply
}

#[test]
fn adversarial_lines_earn_typed_errors_and_never_kill_the_daemon() {
    let config = ServiceConfig {
        max_request_bytes: 256,
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(config, "127.0.0.1:0").expect("daemon");
    let addr = daemon.local_addr();

    // An endless line (no newline anywhere) must be cut at the cap with a
    // typed rejection, not buffered until the daemon falls over.
    let oversized = vec![b'x'; 4096];
    let reply = raw_round_trip(addr, &oversized);
    assert!(
        reply.contains("\"error\":\"request_too_large\""),
        "reply: {reply}"
    );

    // Binary garbage decodes lossily into a typed bad_request.
    let mut garbage: Vec<u8> = vec![0xFF, 0xFE, 0x00, 0x80, 0xC3, 0x28];
    garbage.push(b'\n');
    let reply = raw_round_trip(addr, &garbage);
    assert!(
        reply.contains("\"error\":\"bad_request\""),
        "reply: {reply}"
    );

    // A request truncated mid-token (client died mid-send).
    let reply = raw_round_trip(addr, b"{\"cmd\":\"hel\n");
    assert!(
        reply.contains("\"error\":\"bad_request\""),
        "reply: {reply}"
    );

    // Right shape, wrong types.
    let reply = raw_round_trip(addr, b"{\"cmd\":\"hello\",\"version\":\"one\"}\n");
    assert!(
        reply.contains("\"error\":\"bad_request\""),
        "reply: {reply}"
    );

    // A client that connects and immediately disconnects without a byte.
    drop(TcpStream::connect(addr).expect("connect"));

    // Oversized line *after* a valid handshake closes with the same typed
    // error instead of poisoning the parsed stream.
    {
        let mut socket = TcpStream::connect(addr).expect("connect");
        socket
            .write_all(b"{\"cmd\":\"hello\",\"version\":1}\n")
            .expect("send hello");
        let mut reader = BufReader::new(socket.try_clone().expect("clone"));
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("hello reply");
        assert!(hello.contains("\"type\":\"hello\""), "reply: {hello}");
        socket.write_all(&vec![b'y'; 4096]).expect("send flood");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(
            reply.contains("\"error\":\"request_too_large\""),
            "reply: {reply}"
        );
    }

    // After the whole sweep the daemon still answers a real client (a
    // submit line would exceed this test's tiny cap, so poll status), and
    // the adversity was counted.
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    let stats = daemon.service().stats();
    assert!(stats.oversized >= 2, "oversized not counted: {stats:?}");

    daemon.stop();
}

#[test]
fn chaos_socket_reset_drops_the_connection_before_a_byte() {
    let config = ServiceConfig {
        chaos: ChaosSpec {
            reset_probability: 1.0,
            ..ChaosSpec::none()
        },
        chaos_seed: 3,
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(config, "127.0.0.1:0").expect("daemon");
    let addr = daemon.local_addr();

    // Every connection is reset up front: the client sees a clean close
    // (or a reset error), never a partial protocol reply.
    let mut socket = TcpStream::connect(addr).expect("connect");
    socket
        .write_all(b"{\"cmd\":\"hello\",\"version\":1}\n")
        .expect("send");
    let mut buf = Vec::new();
    let got = socket.read_to_end(&mut buf).map(|_| buf.len());
    assert!(
        matches!(got, Ok(0) | Err(_)),
        "expected an abrupt close, got {got:?} ({buf:?})"
    );

    // The daemon can still be stopped from the host side.
    daemon.stop();
}

#[test]
fn stale_tmp_checkpoints_are_swept_and_counted_at_startup() {
    let ckdir = std::env::temp_dir().join("icvbe_serve_chaos_tmp_sweep");
    let _ = std::fs::remove_dir_all(&ckdir);
    std::fs::create_dir_all(&ckdir).expect("mkdir");
    std::fs::write(ckdir.join("job-3.json.tmp"), b"{\"torn\":").expect("tmp");

    let config = ServiceConfig {
        checkpoint_dir: Some(ckdir.clone()),
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(config, "127.0.0.1:0").expect("daemon");
    let stats = daemon.service().stats();
    assert_eq!(stats.tmp_swept, 1, "stale tmp must be counted: {stats:?}");
    assert_eq!(stats.resumed, 0);
    assert!(
        !ckdir.join("job-3.json.tmp").exists(),
        "stale tmp must be deleted"
    );

    daemon.stop();
    let _ = std::fs::remove_dir_all(&ckdir);
}

#[test]
fn unreadable_checkpoints_are_dropped_and_counted_not_fatal() {
    let ckdir = std::env::temp_dir().join("icvbe_serve_chaos_both_corrupt");
    let _ = std::fs::remove_dir_all(&ckdir);
    std::fs::create_dir_all(&ckdir).expect("mkdir");
    // Both slots corrupt: garbage primary, torn prev.
    std::fs::write(ckdir.join("job-9.json"), b"not json at all").expect("primary");
    std::fs::write(ckdir.join("job-9.prev.json"), b"{\"schema\":").expect("prev");

    let config = ServiceConfig {
        checkpoint_dir: Some(ckdir.clone()),
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(config, "127.0.0.1:0").expect("daemon");
    let stats = daemon.service().stats();
    assert_eq!(stats.resumed, 0);
    assert_eq!(
        stats.dropped_corrupt, 1,
        "the lost job must be counted: {stats:?}"
    );

    // The daemon is healthy: a fresh submit runs to completion.
    let spec = spec(2, 11);
    let want = golden(&spec);
    let mut client = Client::connect(&daemon.local_addr().to_string()).expect("connect");
    client.submit("acme", "fresh", &spec, true).expect("submit");
    let artifacts = client.wait_done(|_, _| {}).expect("job");
    assert_matches_golden(&artifacts, &want);

    daemon.stop();
    let _ = std::fs::remove_dir_all(&ckdir);
}

#[test]
fn checkpoint_write_faults_degrade_gracefully_and_are_counted() {
    // Every checkpoint write fails (EIO/ENOSPC territory): the job must
    // still complete with byte-identical artifacts, and every failed
    // write must be counted in the job's metrics artifact.
    let spec = spec(3, 0xD1E5);
    let want = golden(&spec);
    let ckdir = std::env::temp_dir().join("icvbe_serve_chaos_write_faults");
    let _ = std::fs::remove_dir_all(&ckdir);

    let config = ServiceConfig {
        threads: 2,
        slice_dies: 2,
        checkpoint_every: 1,
        checkpoint_dir: Some(ckdir.clone()),
        chaos: ChaosSpec {
            write_error_probability: 1.0,
            ..ChaosSpec::none()
        },
        chaos_seed: 77,
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(config, "127.0.0.1:0").expect("daemon");

    let mut client = Client::connect(&daemon.local_addr().to_string()).expect("connect");
    client.submit("acme", "lossy", &spec, true).expect("submit");
    let artifacts = client.wait_done(|_, _| {}).expect("job");
    assert_matches_golden(&artifacts, &want);

    let metrics = artifacts
        .iter()
        .find(|(n, _)| n == "campaign_metrics.json")
        .map(|(_, t)| t)
        .expect("metrics artifact");
    let v = icvbe_campaign::json::parse(metrics).expect("metrics json");
    let write_errors = v
        .get("containment")
        .and_then(|c| c.get("checkpoint_write_errors"))
        .and_then(Json::as_u64)
        .expect("containment section");
    assert!(
        write_errors > 0,
        "failed checkpoint writes must be counted:\n{metrics}"
    );

    daemon.stop();
    let _ = std::fs::remove_dir_all(&ckdir);
}

/// The crash matrix: interrupt a checkpointed job mid-flight, tear the
/// tail off its newest checkpoint (exactly what a crash mid-`write(2)`
/// leaves after the rename), and restart at `threads` workers. The
/// daemon must fall back to the rotated `.prev.json` slot, count the
/// fallback, and still deliver artifacts byte-identical to an
/// uninterrupted one-shot run.
fn torn_checkpoint_resume_at(threads: usize, seed: u64) {
    let spec = spec(5, seed);
    let want = golden(&spec);
    let ckdir = std::env::temp_dir().join(format!("icvbe_serve_chaos_torn_t{threads}"));
    let _ = std::fs::remove_dir_all(&ckdir);

    let config = ServiceConfig {
        threads,
        slice_dies: 2,
        checkpoint_every: 1,
        checkpoint_dir: Some(ckdir.clone()),
        ..ServiceConfig::default()
    };
    let first = Daemon::start(config.clone(), "127.0.0.1:0").expect("daemon 1");
    let addr = first.local_addr().to_string();

    let submit_addr = addr.clone();
    let submit_spec = spec.clone();
    let streamer = std::thread::spawn(move || {
        let mut c = Client::connect(&submit_addr).expect("connect");
        c.submit("acme", "torn", &submit_spec, true)
            .expect("submit");
        c.wait_done(|_, _| {})
    });

    // Wait until at least two checkpoint generations exist (folded >= two
    // slices), so the `.prev.json` slot is populated, then stop.
    let mut monitor = Client::connect(&addr).expect("monitor");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "job never made progress");
        let status = monitor.status().expect("status");
        let folded = status
            .get("jobs")
            .and_then(Json::as_arr)
            .and_then(|jobs| jobs.first())
            .and_then(|j| j.get("folded"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if folded >= 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    first.stop();
    if streamer.join().expect("streamer thread").is_ok() {
        // The job finished before the stop landed; nothing to resume.
        let _ = std::fs::remove_dir_all(&ckdir);
        return;
    }

    // Tear the tail off the newest checkpoint: the checksum no longer
    // verifies, so the primary slot must be rejected on load.
    let primary = ckdir.join("job-1.json");
    let bytes = std::fs::read(&primary).expect("primary checkpoint");
    assert!(
        ckdir.join("job-1.prev.json").exists(),
        "two generations must leave a rotated slot"
    );
    std::fs::write(&primary, &bytes[..bytes.len() - 17]).expect("tear tail");

    let second = Daemon::start(config, "127.0.0.1:0").expect("daemon 2");
    let stats = second.service().stats();
    assert_eq!(stats.resumed, 1, "job must resume from .prev: {stats:?}");
    assert_eq!(
        stats.resumed_fallback, 1,
        "the fallback must be counted: {stats:?}"
    );
    assert_eq!(stats.dropped_corrupt, 0);

    let mut watcher = Client::connect(&second.local_addr().to_string()).expect("connect");
    watcher
        .results(None, Some("torn"), Some("acme"))
        .expect("results");
    let artifacts = watcher.wait_done(|_, _| {}).expect("resumed job");
    assert_matches_golden(&artifacts, &want);

    // The degradation is also visible in the job's own metrics artifact.
    let metrics = artifacts
        .iter()
        .find(|(n, _)| n == "campaign_metrics.json")
        .map(|(_, t)| t)
        .expect("metrics artifact");
    let v = icvbe_campaign::json::parse(metrics).expect("metrics json");
    let fallbacks = v
        .get("containment")
        .and_then(|c| c.get("checkpoint_generation_fallbacks"))
        .and_then(Json::as_u64)
        .expect("containment section");
    assert_eq!(fallbacks, 1, "metrics:\n{metrics}");

    second.stop();
    let _ = std::fs::remove_dir_all(&ckdir);
}

#[test]
fn torn_checkpoint_resumes_from_prev_slot_single_thread() {
    torn_checkpoint_resume_at(1, 0x7EA1);
}

#[test]
fn torn_checkpoint_resumes_from_prev_slot_two_threads() {
    torn_checkpoint_resume_at(2, 0x7EA2);
}

#[test]
fn torn_checkpoint_resumes_from_prev_slot_eight_threads() {
    torn_checkpoint_resume_at(8, 0x7EA8);
}

/// Two torn checkpoint writes in a row must not cost the job: the second
/// write finds a torn primary and has to leave the last good generation
/// in `.prev` instead of rotating the torn file over it. Paused daemons
/// make every write deterministic: the admission write and one shutdown
/// write per stop, with no slice running in between.
#[test]
fn a_torn_primary_is_never_rotated_over_the_last_good_generation() {
    let spec = spec(3, 0x7EA3);
    let want = golden(&spec);
    let ckdir = std::env::temp_dir().join("icvbe_serve_chaos_torn_rotation");
    let _ = std::fs::remove_dir_all(&ckdir);
    let paused = ServiceConfig {
        paused: true,
        checkpoint_dir: Some(ckdir.clone()),
        ..ServiceConfig::default()
    };

    // Two good generations: the admission write, then the shutdown one.
    let first = Daemon::start(paused.clone(), "127.0.0.1:0").expect("daemon 1");
    let mut client = Client::connect(&first.local_addr().to_string()).expect("connect");
    client
        .submit("acme", "rotation", &spec, false)
        .expect("submit");
    first.stop();

    // The newest generation is torn.
    let primary = ckdir.join("job-1.json");
    let bytes = std::fs::read(&primary).expect("primary checkpoint");
    std::fs::write(&primary, &bytes[..bytes.len() - 17]).expect("tear tail");

    // A restart resumes from `.prev`, and its shutdown write is torn too.
    let torn_writes = ServiceConfig {
        chaos: ChaosSpec {
            torn_file_probability: 1.0,
            ..ChaosSpec::none()
        },
        chaos_seed: 0x7EA3,
        ..paused.clone()
    };
    let second = Daemon::start(torn_writes, "127.0.0.1:0").expect("daemon 2");
    let stats = second.service().stats();
    assert_eq!((stats.resumed, stats.resumed_fallback), (1, 1), "{stats:?}");
    second.stop();

    // The last good generation survived both torn writes.
    let third = Daemon::start(
        ServiceConfig {
            paused: false,
            ..paused
        },
        "127.0.0.1:0",
    )
    .expect("daemon 3");
    let stats = third.service().stats();
    assert_eq!(stats.dropped_corrupt, 0, "{stats:?}");
    assert_eq!((stats.resumed, stats.resumed_fallback), (1, 1), "{stats:?}");
    let mut watcher = Client::connect(&third.local_addr().to_string()).expect("connect");
    watcher
        .results(None, Some("rotation"), Some("acme"))
        .expect("results");
    let artifacts = watcher.wait_done(|_, _| {}).expect("resumed job");
    assert_matches_golden(&artifacts, &want);

    third.stop();
    let _ = std::fs::remove_dir_all(&ckdir);
}
