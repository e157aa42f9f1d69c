//! Output-correctness gate: digests of the deterministic artifacts and
//! the table of digests pinned for fixed seeds.

use std::fmt::Write as _;

use icvbe_campaign::report::{aggregate_json, quarantine_json};
use icvbe_campaign::{run_campaign_with, CampaignRun, RunOptions};

use crate::serve;
use crate::workloads::{wafer_spec, Workload, WAFER_THREADS};

/// Seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2002;

/// Seed whose digests are pinned but which no workload was tuned on.
pub const HELD_OUT_SEED: u64 = 11;

/// The pinned table: `workload seed artifact digest` per line.
const PINNED: &str = include_str!("../pinned_digests.txt");

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digests of one run's deterministic artifacts, `(aggregate, quarantine)`.
#[must_use]
pub fn run_digests(run: &CampaignRun) -> (String, String) {
    (
        fnv1a(aggregate_json(run).as_bytes()),
        fnv1a(quarantine_json(run).as_bytes()),
    )
}

/// The pinned digest of `artifact` for `(workload, seed)`, if any.
#[must_use]
pub fn pinned(workload: &str, seed: u64, artifact: &str) -> Option<&'static str> {
    PINNED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, a, d] if *w == workload && s.parse() == Ok(seed) && *a == artifact => Some(*d),
            _ => None,
        }
    })
}

/// The pinned table for [`DEFAULT_SEED`] and [`HELD_OUT_SEED`], in the
/// format of `pinned_digests.txt`.
#[must_use]
pub fn table() -> String {
    let mut out = String::from("# workload seed artifact fnv1a64\n");
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for w in [Workload::WaferClean, Workload::WaferFaultedAdaptive] {
            let spec = wafer_spec(w, seed);
            if let Ok(run) = run_campaign_with(&spec, WAFER_THREADS, &RunOptions::default()) {
                let (agg, quar) = run_digests(&run);
                let _ = writeln!(out, "{} {seed} aggregate_json {agg}", w.name());
                let _ = writeln!(out, "{} {seed} quarantine_json {quar}", w.name());
            }
        }
        let refs = serve::references(&serve::specs(seed));
        if let Some(d) = serve::set_digest(&refs) {
            let _ = writeln!(
                out,
                "{} {seed} aggregate_json {d}",
                Workload::ServeSmallJobs.name()
            );
        }
    }
    out
}

/// Collects correctness failures of one run.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks `digest` against the pinned one for `(workload, seed,
    /// artifact)`; seeds without a pin pass.
    pub fn check_pinned(&mut self, workload: &str, seed: u64, artifact: &str, digest: &str) {
        if let Some(want) = pinned(workload, seed, artifact) {
            self.check(want == digest, || {
                format!("{workload} seed {seed}: {artifact} digest {digest}, pinned {want}")
            });
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The recorded failures.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), "cbf29ce484222325");
        assert_eq!(fnv1a(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn pins_cover_default_and_held_out_seeds() {
        for w in crate::workloads::Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(
                    pinned(w.name(), seed, "aggregate_json").is_some(),
                    "{} seed {seed} has no pinned digest",
                    w.name()
                );
            }
        }
    }
}
