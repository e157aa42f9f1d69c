//! The counter ledger: program counters read **by key** from the
//! campaign's metrics document (`report::metrics_json`), never from
//! struct fields. A counter a later change deletes reads as absent here
//! instead of breaking the benchmark's build.

use std::collections::BTreeMap;

use icvbe_campaign::json::{parse, Json};

/// Counters that are a pure function of the spec and the worker-thread
/// count: solver, stamping, batching and recovery work. Two runs at the
/// same thread count must agree on every one exactly.
pub const DETERMINISTIC: &[&str] = &[
    "dies_completed",
    "dies_failed",
    "solver.solves",
    "solver.newton_iterations",
    "solver.selfheat_iterations",
    "solver.warm_start_hits",
    "solver.warm_start_misses",
    "solver.device_evals",
    "solver.lane_evals",
    "solver.device_reuses",
    "solver.bypass_hits",
    "solver.restamp_incremental",
    "solver.restamp_full",
    "batching.batched_solves",
    "batching.lane_retires",
    "batching.batch_refills",
    "batching.lockstep_rounds",
    "recovery.corners_retried",
    "recovery.corners_recovered",
    "recovery.robust_recoveries",
    "recovery.corners_quarantined",
];

/// Numeric leaves of one metrics document, keyed by dotted path
/// (`solver.solves`, `recovery.corners_retried`, ...). Arrays are skipped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Parses a `metrics_json` document. An unparseable document yields
    /// an empty ledger, in which every counter reads as absent.
    #[must_use]
    pub fn from_metrics_json(doc: &str) -> Counters {
        let mut out = BTreeMap::new();
        if let Ok(json) = parse(doc) {
            flatten("", &json, &mut out);
        }
        Counters(out)
    }

    /// The counter at `key`, `None` when the document has no such key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0.get(key).copied()
    }

    /// The counter at `key`, reading an absent one as 0.
    #[must_use]
    pub fn value(&self, key: &str) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Adds every counter of `other` into this ledger.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Deterministic counters whose values differ between the two
    /// ledgers, as `(key, self, other)`; absent reads as NaN.
    #[must_use]
    pub fn diff(&self, other: &Counters) -> Vec<(&'static str, f64, f64)> {
        DETERMINISTIC
            .iter()
            .filter_map(|&k| {
                let (a, b) = (self.get(k), other.get(k));
                (a != b).then(|| (k, a.unwrap_or(f64::NAN), b.unwrap_or(f64::NAN)))
            })
            .collect()
    }
}

fn flatten(prefix: &str, json: &Json, out: &mut BTreeMap<String, f64>) {
    match json {
        Json::Num(v) => {
            out.insert(prefix.to_string(), *v);
        }
        Json::Obj(members) => {
            for (k, v) in members {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&key, v, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_counters_by_key() {
        let c = Counters::from_metrics_json(
            r#"{"threads":2,"solver":{"solves":12,"device_evals":30},"stages":[{"count":1}]}"#,
        );
        assert_eq!(c.get("solver.solves"), Some(12.0));
        assert_eq!(c.get("threads"), Some(2.0));
        assert_eq!(c.get("solver.lane_evals"), None);
        assert_eq!(c.value("solver.lane_evals"), 0.0);
        let mut d = c.clone();
        d.add(&c);
        assert_eq!(d.value("solver.device_evals"), 60.0);
        assert_eq!(c.diff(&d).len(), 2);
    }
}
