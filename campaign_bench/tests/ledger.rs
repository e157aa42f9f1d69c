//! The counter ledger repeats exactly: two campaigns of one spec at the
//! same thread count agree on every deterministic counter read by key
//! from `metrics_json`. Counters that differ between 1 and 2 threads are
//! printed, not pinned. A counter the program no longer emits reads as
//! absent in both runs and still compares equal.

use icvbe_campaign::report::metrics_json;
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::{run_campaign_with, RunOptions};
use icvbe_campaign_bench::ledger::Counters;
use icvbe_instrument::faults::FaultSpec;

fn ledger(spec: &CampaignSpec, threads: usize) -> Counters {
    let run = run_campaign_with(spec, threads, &RunOptions::default()).expect("campaign runs");
    Counters::from_metrics_json(&metrics_json(&run))
}

fn specs() -> [CampaignSpec; 2] {
    let clean = CampaignSpec::paper_default(WaferMap::circular(9), 2002);
    let mut faulted = clean.clone();
    faulted.faults = FaultSpec::heavy();
    faulted.adaptive = true;
    [clean, faulted]
}

#[test]
fn counters_repeat_exactly_at_the_same_thread_count() {
    for spec in specs() {
        for threads in [1, 2] {
            let a = ledger(&spec, threads);
            let b = ledger(&spec, threads);
            assert!(
                a.get("solver.solves").is_some_and(|s| s > 0.0),
                "no solves counted"
            );
            assert_eq!(
                a.diff(&b),
                vec![],
                "counters moved between two {threads}-thread runs"
            );
        }
        let by_threads = ledger(&spec, 2).diff(&ledger(&spec, 1));
        for (key, two, one) in by_threads {
            println!("{key}: {two} at 2 threads, {one} at 1 thread");
        }
    }
}
