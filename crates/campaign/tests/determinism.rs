//! The campaign engine's headline guarantee, tested end to end: the
//! aggregate artifacts are **byte-identical** for any worker thread
//! count, and independent runs of the same spec reproduce them.

use icvbe_campaign::report::{aggregate_csv, aggregate_json, quarantine_csv, quarantine_json};
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::{run_campaign, CampaignRun};
use icvbe_instrument::faults::FaultSpec;

fn spec() -> CampaignSpec {
    CampaignSpec::paper_default(WaferMap::circular(8), 0xD1E5_EED5)
}

fn run(threads: usize) -> CampaignRun {
    run_campaign(&spec(), threads).expect("campaign run")
}

#[test]
fn aggregate_artifacts_are_identical_at_1_2_and_8_threads() {
    let runs = [run(1), run(2), run(8)];
    let json: Vec<String> = runs.iter().map(aggregate_json).collect();
    let csv: Vec<String> = runs.iter().map(aggregate_csv).collect();
    assert_eq!(json[0], json[1], "1 vs 2 threads (JSON)");
    assert_eq!(json[0], json[2], "1 vs 8 threads (JSON)");
    assert_eq!(csv[0], csv[1], "1 vs 2 threads (CSV)");
    assert_eq!(csv[0], csv[2], "1 vs 8 threads (CSV)");
    // The in-memory aggregates match too (stronger than string equality).
    assert_eq!(runs[0].aggregate, runs[1].aggregate);
    assert_eq!(runs[0].aggregate, runs[2].aggregate);
}

#[test]
fn cold_start_reproduces_warm_start_artifacts() {
    // Warm starts change only iteration counts, never results: the
    // deterministic aggregate artifacts must be byte-identical with warm
    // starting disabled.
    let warm = run(2);
    let mut cold_spec = spec();
    cold_spec.warm_start = false;
    let cold = run_campaign(&cold_spec, 2).expect("cold run");
    assert_eq!(aggregate_json(&warm), aggregate_json(&cold));
    assert_eq!(aggregate_csv(&warm), aggregate_csv(&cold));
    assert_eq!(warm.aggregate, cold.aggregate);
    // The observability side must show the difference instead: the warm
    // run seeds (almost) every solve, the cold run seeds none, and the
    // warm run does strictly less Newton work.
    assert_eq!(cold.metrics.solver.warm_start_hits, 0);
    assert!(warm.metrics.solver.warm_start_hits > 0);
    assert!(warm.metrics.solver.warm_hit_rate() > 0.9);
    assert!(
        warm.metrics.solver.newton_iterations < cold.metrics.solver.newton_iterations,
        "warm {} vs cold {} Newton iterations",
        warm.metrics.solver.newton_iterations,
        cold.metrics.solver.newton_iterations
    );
    assert_eq!(
        warm.metrics.solver.selfheat_iterations, cold.metrics.solver.selfheat_iterations,
        "thermal trajectories must be identical in both modes"
    );
}

/// The four frozen artifacts of a run, in file order.
fn artifacts(run: &CampaignRun) -> [String; 4] {
    [
        aggregate_json(run),
        aggregate_csv(run),
        quarantine_json(run),
        quarantine_csv(run),
    ]
}

#[test]
fn warm_and_cold_artifacts_agree_across_seeds_shapes_and_faults() {
    // Warm starts extrapolate from the last two converged solutions, so
    // every seed starts each solve somewhere else than a cold start does;
    // the polish must erase that on every wafer, fault mix and seed.
    let shapes = [WaferMap::circular(4), WaferMap::full(2, 3)];
    let mut faulted_corners = 0;
    for seed in [1_u64, 7, 11, 2002, 0xBEEF, 0xD1E5_EED5] {
        for wafer in shapes {
            for faults in [FaultSpec::none(), FaultSpec::heavy()] {
                let mut warm = CampaignSpec::paper_default(wafer, seed);
                warm.faults = faults;
                let mut cold = warm.clone();
                cold.warm_start = false;
                let warm_run = run_campaign(&warm, 2).expect("warm run");
                let cold_run = run_campaign(&cold, 2).expect("cold run");
                let label = format!("seed {seed}, {wafer:?}, faults {faults:?}");
                assert_eq!(artifacts(&warm_run), artifacts(&cold_run), "{label}");
                assert!(warm_run.metrics.solver.warm_start_hits > 0, "{label}");
                assert_eq!(cold_run.metrics.solver.warm_start_hits, 0, "{label}");
                faulted_corners += warm_run.metrics.recovery.corners_retried;
            }
        }
    }
    // The heavy mix actually exercised the retry path somewhere.
    assert!(faulted_corners > 0);
}

#[test]
fn polish_counters_are_identical_at_1_2_and_8_threads() {
    let runs = [run(1), run(2), run(8)];
    let counts: Vec<(u64, u64)> = runs
        .iter()
        .map(|r| {
            (
                r.metrics.solver.polish_iterations,
                r.metrics.solver.cluster_maps,
            )
        })
        .collect();
    assert!(counts[0].0 > 0 && counts[0].1 > 0, "{counts:?}");
    assert_eq!(counts[0], counts[1], "1 vs 2 threads");
    assert_eq!(counts[0], counts[2], "1 vs 8 threads");
}

#[test]
fn repeated_runs_reproduce_the_artifact_bytes() {
    let a = aggregate_json(&run(2));
    let b = aggregate_json(&run(2));
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_aggregates() {
    let mut other = spec();
    other.seed ^= 1;
    let base = run_campaign(&spec(), 2).expect("base run");
    let moved = run_campaign(&other, 2).expect("reseeded run");
    assert_ne!(aggregate_json(&base), aggregate_json(&moved));
}
