//! Campaign worker-pool scaling: identical wafer, 1 thread vs N threads,
//! plus the solver ablations — warm vs cold starts, device bypass on vs
//! off, frozen sparse plan vs dense LU fallback, and the in-tree `vexp`
//! exp kernel vs libm's `f64::exp` (`libm-exp`).
//!
//! The aggregate is asserted bit-identical across thread counts *and*
//! across every ablation before timing anything, so the speedup measured
//! here is for *the same answer* — the determinism guarantee is not
//! traded for throughput.
//!
//! Besides the criterion-style timing group, the bench reports wafer
//! throughput (dies/second) per configuration and, when the
//! `ICVBE_BENCH_JSON` environment variable names a path, writes the
//! measurements there as JSON (the campaign regression ledger
//! `BENCH_campaign.json` is assembled from those snapshots).

use std::time::Instant;

use icvbe_bench::harness::Criterion;
use icvbe_bench::{criterion_group, criterion_main};
use icvbe_campaign::spec::WaferMap;
use icvbe_campaign::{run_campaign, CampaignRun, CampaignSpec};

fn scaling_spec() -> CampaignSpec {
    // ~120 dies: big enough to amortize pool startup, small enough for a
    // bench iteration.
    CampaignSpec::paper_default(WaferMap::circular(13), 0xC0FF_EE00)
}

fn cold_spec() -> CampaignSpec {
    let mut spec = scaling_spec();
    spec.warm_start = false;
    spec
}

fn no_bypass_spec() -> CampaignSpec {
    let mut spec = scaling_spec();
    spec.bypass = false;
    spec
}

fn dense_spec() -> CampaignSpec {
    let mut spec = scaling_spec();
    spec.sparse = false;
    spec
}

/// The adaptive corner scheduler: probe the first corner per die, run
/// the remaining corners only when the probe flags escalation. On the
/// clean bench wafer this skips every trailing corner, so the row
/// measures the scheduler's best case; the executed probe corner is
/// asserted bit-identical to the exhaustive plan before timing.
fn adaptive_spec() -> CampaignSpec {
    let mut spec = scaling_spec();
    spec.adaptive = true;
    spec
}

fn bench_campaign_scaling(c: &mut Criterion) {
    let ids: Vec<String> = [1usize, 2, 4, 8]
        .iter()
        .map(|t| format!("campaign_scaling/threads/{t}"))
        .chain(
            [1usize, 8]
                .iter()
                .map(|t| format!("campaign_scaling/cold/threads/{t}")),
        )
        .collect();
    // Pay for the determinism guards only when something in the group
    // will actually be timed.
    if ids.iter().any(|id| c.is_selected(id)) && !c.is_list_only() {
        run_guards();
    }

    let spec = scaling_spec();
    let mut group = c.benchmark_group("campaign_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let spec = spec.clone();
        group.bench_function(&format!("threads/{threads}"), move |b| {
            b.iter(|| run_campaign(&spec, threads).expect("campaign run"));
        });
    }
    for threads in [1usize, 8] {
        let spec = cold_spec();
        group.bench_function(&format!("cold/threads/{threads}"), move |b| {
            b.iter(|| run_campaign(&spec, threads).expect("campaign run"));
        });
    }
    group.finish();
}

/// Guards run before any timing: the parallel run and the cold-start
/// ablation must both produce the identical aggregate, so the speedups
/// measured are for the same answer.
fn run_guards() {
    let spec = scaling_spec();
    let one = run_campaign(&spec, 1).expect("1-thread run");
    let par = run_campaign(&spec, 8).expect("8-thread run");
    assert_eq!(
        one.aggregate, par.aggregate,
        "aggregate must be thread-count invariant"
    );
    let cold = run_campaign(&cold_spec(), 8).expect("cold run");
    assert_eq!(
        one.aggregate, cold.aggregate,
        "aggregate must be warm-start invariant"
    );
    let no_bypass = run_campaign(&no_bypass_spec(), 8).expect("no-bypass run");
    assert_eq!(
        one.aggregate, no_bypass.aggregate,
        "aggregate must be device-bypass invariant"
    );
    let dense = run_campaign(&dense_spec(), 8).expect("dense-fallback run");
    assert_eq!(
        one.aggregate, dense.aggregate,
        "aggregate must be solve-path invariant"
    );
    // The libm-exp ablation swaps the exp kernel, so its accepted bits
    // legitimately differ from the vexp default — but it must still be
    // thread-count invariant within itself, and flipping the backend off
    // again must restore the vexp bits exactly.
    icvbe_numerics::vexp::set_libm_backend(true);
    let libm_one = run_campaign(&spec, 1).expect("libm 1-thread run");
    let libm_par = run_campaign(&spec, 8).expect("libm 8-thread run");
    icvbe_numerics::vexp::set_libm_backend(false);
    assert_eq!(
        libm_one.aggregate, libm_par.aggregate,
        "libm-exp ablation must stay thread-count invariant"
    );
    let restored = run_campaign(&spec, 1).expect("post-ablation run");
    assert_eq!(
        one.aggregate, restored.aggregate,
        "switching the exp backend back must restore the vexp bits"
    );
    // Adaptive skips trailing corners, so the full aggregates differ by
    // design — but the probe corner it *does* run must be bit-identical
    // to the exhaustive plan, and on this clean wafer it must do
    // strictly less corner work.
    let adaptive = run_campaign(&adaptive_spec(), 8).expect("adaptive run");
    assert_eq!(
        one.aggregate.corners[0], adaptive.aggregate.corners[0],
        "adaptive probe corner must match the exhaustive plan bit-for-bit"
    );
    assert!(
        adaptive.metrics.solver.solves < one.metrics.solver.solves,
        "adaptive must reduce corner work on a clean wafer"
    );
}

/// One throughput measurement: median wall time over `reps` runs.
struct Throughput {
    mode: &'static str,
    threads: usize,
    median_ms: f64,
    dies_per_second: f64,
}

fn measure(spec: &CampaignSpec, threads: usize, reps: usize) -> (f64, CampaignRun) {
    let mut last = None;
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let run = run_campaign(spec, threads).expect("campaign run");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            last = Some(run);
            ms
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], last.expect("at least one rep"))
}

fn bench_campaign_throughput(c: &mut Criterion) {
    if !c.is_selected("campaign_throughput") {
        return;
    }
    if c.is_list_only() {
        println!("campaign_throughput: benchmark");
        return;
    }
    let warm = scaling_spec();
    let cold = cold_spec();
    let no_bypass = no_bypass_spec();
    let dense = dense_spec();
    let adaptive = adaptive_spec();
    let dies = warm.wafer.die_count();
    let reps = 7;
    // Warm the CPU clocks so the medians compare across configurations.
    run_campaign(&warm, 8).expect("warm-up run");

    let mut rows = Vec::new();
    let modes = [
        ("warm", &warm, false),
        ("libm-exp", &warm, true),
        ("no-bypass", &no_bypass, false),
        ("dense", &dense, false),
        ("cold", &cold, false),
        ("adaptive", &adaptive, false),
    ];
    let mut solves_by_mode: Vec<(&str, u64)> = Vec::new();
    for (mode, spec, libm) in modes {
        icvbe_numerics::vexp::set_libm_backend(libm);
        for threads in [1usize, 8] {
            let (median_ms, run) = measure(spec, threads, reps);
            let dies_per_second = dies as f64 / (median_ms / 1e3);
            println!(
                "campaign_throughput/{mode}/threads/{threads:<2} median {median_ms:7.2} ms -> \
                 {dies_per_second:7.1} dies/s ({dies} dies, {} solves, {} Newton iters, \
                 {} bypasses, {} evals)",
                run.metrics.solver.solves,
                run.metrics.solver.newton_iterations,
                run.metrics.solver.bypass_hits,
                run.metrics.solver.device_evals,
            );
            rows.push(Throughput {
                mode,
                threads,
                median_ms,
                dies_per_second,
            });
            if threads == 1 {
                solves_by_mode.push((mode, run.metrics.solver.solves));
            }
        }
    }
    icvbe_numerics::vexp::set_libm_backend(false);

    let solves = |mode: &str| {
        solves_by_mode
            .iter()
            .find(|(m, _)| *m == mode)
            .map_or(0, |(_, s)| *s)
    };
    let (warm_solves, adaptive_solves) = (solves("warm"), solves("adaptive"));
    if warm_solves > 0 {
        println!(
            "campaign_throughput/adaptive corner-work: {adaptive_solves} solves vs \
             {warm_solves} exhaustive ({:.1}% reduction)",
            100.0 * (1.0 - adaptive_solves as f64 / warm_solves as f64)
        );
    }

    if let Ok(path) = std::env::var("ICVBE_BENCH_JSON") {
        let mut json = String::from("{\n  \"benchmark\": \"campaign_scaling\",\n");
        json.push_str(&format!(
            "  \"wafer\": {{\"diameter\": {}, \"dies\": {}}},\n  \"results\": [\n",
            warm.wafer.rows(),
            dies
        ));
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            json.push_str(&format!(
                "    {{\"mode\": \"{}\", \"threads\": {}, \"median_ms\": {:.2}, \
                 \"dies_per_second\": {:.1}}}{sep}\n",
                r.mode, r.threads, r.median_ms, r.dies_per_second
            ));
        }
        json.push_str("  ],\n");
        json.push_str(&format!(
            "  \"adaptive_corner_work\": {{\"solves\": {adaptive_solves}, \
             \"exhaustive_solves\": {warm_solves}, \"reduction\": {:.3}}}\n",
            1.0 - adaptive_solves as f64 / warm_solves.max(1) as f64
        ));
        json.push_str("}\n");
        std::fs::write(&path, json).expect("write ICVBE_BENCH_JSON");
        println!("campaign_throughput: wrote {path}");
    }
}

criterion_group!(benches, bench_campaign_scaling, bench_campaign_throughput);
criterion_main!(benches);
