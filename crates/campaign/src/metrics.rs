//! Campaign observability: atomic progress counters and per-stage
//! wall-clock histograms.
//!
//! Everything here is updated lock-free from the worker threads and
//! snapshotted once at the end of the run. Timing data is inherently
//! non-deterministic, so none of it flows into the aggregate report — the
//! [`CampaignMetrics`] snapshot is its own artifact.

use std::sync::atomic::{AtomicU64, Ordering};

use icvbe_spice::workspace::SolveStats;

use crate::taxonomy::FailureKind;

/// The pipeline stages timed per die.
pub const STAGE_NAMES: [&str; 3] = ["sample", "measure", "extract"];

/// Index of the process-sampling stage.
pub const STAGE_SAMPLE: usize = 0;
/// Index of the bench-measurement stage (all corners, all setpoints).
pub const STAGE_MEASURE: usize = 1;
/// Index of the thermometry + Meijer extraction stage.
pub const STAGE_EXTRACT: usize = 2;

/// Number of log₂ buckets in a [`LogHistogram`] (fixed by the u64 range).
pub const BUCKETS: usize = 64;

/// A lock-free log₂ histogram of nanosecond durations.
///
/// Bucket `b` counts samples in `(2^(b-1), 2^b]` ns (bucket 0 counts 0 and
/// 1 ns), so an exact power of two lands in the bucket whose reported
/// upper edge *equals* it; recording is one `fetch_add` on the owning
/// bucket.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    total_ns: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Records one duration.
    pub fn record_ns(&self, ns: u64) {
        // ceil(log2(ns)) via `ns - 1`: 2^k must land in bucket k (upper
        // edge 2^k), not one bucket higher — `64 - ns.leading_zeros()`
        // reported a 2x-too-high edge at every power-of-two boundary.
        let b = (64 - ns.saturating_sub(1).leading_zeros()) as usize;
        self.buckets[b.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Raw bucket counts and running total, for the shard partial codec.
    #[must_use]
    pub fn raw(&self) -> ([u64; BUCKETS], u64) {
        (
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            self.total_ns.load(Ordering::Relaxed),
        )
    }

    /// Adds raw bucket counts and a running total (a shard's serialized
    /// histogram) into this one.
    pub fn absorb_raw(&self, buckets: &[u64; BUCKETS], total_ns: u64) {
        for (slot, &n) in self.buckets.iter().zip(buckets) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
        self.total_ns.fetch_add(total_ns, Ordering::Relaxed);
    }

    /// Pairwise merge for shard fan-in: bucket-wise and total addition —
    /// exactly associative and commutative (all integers).
    pub fn merge(&self, other: &LogHistogram) {
        let (buckets, total_ns) = other.raw();
        self.absorb_raw(&buckets, total_ns);
    }

    /// Immutable snapshot of the bucket counts.
    #[must_use]
    pub fn snapshot(&self, name: &str) -> StageSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let total_ns = self.total_ns.load(Ordering::Relaxed);
        // Nearest-rank quantile: the p-quantile is the value at rank
        // max(1, ceil(p * count)) in the sorted sample (1-based). The rank
        // is computed exactly in integer arithmetic — `p * count as f64`
        // rounds for counts above 2^53 and can land one bucket low.
        let q = |num: u128, den: u128| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (u128::from(count) * num).div_ceil(den).max(1);
            let mut seen: u128 = 0;
            for (b, &c) in counts.iter().enumerate() {
                seen += u128::from(c);
                if seen >= rank {
                    // Upper edge of the bucket: 2^b ns.
                    return 1u64.checked_shl(b as u32).unwrap_or(u64::MAX);
                }
            }
            u64::MAX
        };
        StageSnapshot {
            name: name.to_string(),
            count,
            total_ns,
            p50_ns: q(1, 2),
            p90_ns: q(9, 10),
            p99_ns: q(99, 100),
        }
    }
}

/// One stage's timing summary (log₂-bucket upper-bound quantiles).
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    /// Stage name (see [`STAGE_NAMES`]).
    pub name: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of all recorded durations.
    pub total_ns: u64,
    /// Median bucket upper bound.
    pub p50_ns: u64,
    /// 90th-percentile bucket upper bound.
    pub p90_ns: u64,
    /// 99th-percentile bucket upper bound.
    pub p99_ns: u64,
}

impl StageSnapshot {
    /// Mean nanoseconds per recorded duration.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Live counters shared by the worker pool.
#[derive(Debug, Default)]
pub struct CampaignCounters {
    /// Dies whose pipeline has started.
    pub started: AtomicU64,
    /// Dies whose pipeline finished (pass or binned fail).
    pub completed: AtomicU64,
    /// Dies with at least one corner that failed to solve/extract.
    pub failed: AtomicU64,
    /// Per-stage histograms, indexed by the `STAGE_*` constants.
    pub stages: [LogHistogram; 3],
    /// Circuit solves issued (every Newton entry of every die).
    pub solves: AtomicU64,
    /// Damped Newton iterations, summed over all solves.
    pub newton_total: AtomicU64,
    /// Fixed-point polish iterations, summed over all solves.
    pub polish_total: AtomicU64,
    /// Newton-map applications by the polish's cluster walk.
    pub cluster_maps: AtomicU64,
    /// Electro-thermal fixed-point iterations, summed over all setpoints.
    pub selfheat_total: AtomicU64,
    /// Solves seeded from a previous converged solution.
    pub warm_hits: AtomicU64,
    /// Solves started from the flat initial guess.
    pub warm_misses: AtomicU64,
    /// Full nonlinear device evaluations performed.
    pub device_evals: AtomicU64,
    /// Device evaluations skipped by an exact-bit cache hit.
    pub device_reuses: AtomicU64,
    /// Jacobian passes that restamped only operating-point-dependent slots.
    pub restamp_incremental: AtomicU64,
    /// Jacobian passes that stamped every element.
    pub restamp_full: AtomicU64,
    /// Per-die Newton iteration totals (histogram of counts, not ns).
    pub newton_per_die: LogHistogram,
    /// Per-die self-heating iteration totals (histogram of counts).
    pub selfheat_per_die: LogHistogram,
    /// Corners that needed more than one extraction attempt.
    pub corners_retried: AtomicU64,
    /// Corners that produced values after at least one failed attempt.
    pub corners_recovered: AtomicU64,
    /// Corners whose values came from the pooled robust IRLS fit.
    pub robust_recoveries: AtomicU64,
    /// Corners quarantined after exhausting every recovery stage.
    pub corners_quarantined: AtomicU64,
    /// Recovered corners by the taxonomy kind they recovered from,
    /// indexed by [`FailureKind::index`](crate::taxonomy::FailureKind).
    pub recovered_by_kind: [AtomicU64; FailureKind::COUNT],
    /// Dies whose pipeline panicked and was contained by the worker's
    /// unwind guard.
    pub die_panics: AtomicU64,
    /// Dies that blew through the per-die solve budget and had their
    /// remaining corners retired.
    pub budgets_exhausted: AtomicU64,
    /// Checkpoint writes that failed (`ENOSPC`/`EIO`/short write) and
    /// were skipped — the previous checkpoint stays authoritative.
    pub checkpoint_write_errors: AtomicU64,
    /// Resumes that fell back to the previous checkpoint generation
    /// because the latest slot was corrupt or truncated.
    pub checkpoint_generation_fallbacks: AtomicU64,
}

impl CampaignCounters {
    /// Canonical `(name, counter)` listing of every scalar counter, in a
    /// fixed order shared by [`CampaignCounters::merge`] and the shard
    /// partial-aggregate codec. Arrays and histograms are not listed —
    /// they carry their own encodings.
    #[must_use]
    pub fn scalars(&self) -> [(&'static str, &AtomicU64); 22] {
        [
            ("started", &self.started),
            ("completed", &self.completed),
            ("failed", &self.failed),
            ("solves", &self.solves),
            ("newton_total", &self.newton_total),
            ("polish_total", &self.polish_total),
            ("cluster_maps", &self.cluster_maps),
            ("selfheat_total", &self.selfheat_total),
            ("warm_hits", &self.warm_hits),
            ("warm_misses", &self.warm_misses),
            ("device_evals", &self.device_evals),
            ("device_reuses", &self.device_reuses),
            ("restamp_incremental", &self.restamp_incremental),
            ("restamp_full", &self.restamp_full),
            ("corners_retried", &self.corners_retried),
            ("corners_recovered", &self.corners_recovered),
            ("robust_recoveries", &self.robust_recoveries),
            ("corners_quarantined", &self.corners_quarantined),
            ("die_panics", &self.die_panics),
            ("budgets_exhausted", &self.budgets_exhausted),
            ("checkpoint_write_errors", &self.checkpoint_write_errors),
            (
                "checkpoint_generation_fallbacks",
                &self.checkpoint_generation_fallbacks,
            ),
        ]
    }

    /// Pairwise merge for shard fan-in: every scalar, by-kind array and
    /// histogram of `other` is added into `self`. All integer
    /// addition — exactly associative and commutative, so any fold order
    /// yields the same counters.
    pub fn merge(&self, other: &CampaignCounters) {
        for ((_, a), (_, b)) in self.scalars().iter().zip(other.scalars().iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (a, b) in self.stages.iter().zip(&other.stages) {
            a.merge(b);
        }
        self.newton_per_die.merge(&other.newton_per_die);
        self.selfheat_per_die.merge(&other.selfheat_per_die);
        for (a, b) in self.recovered_by_kind.iter().zip(&other.recovered_by_kind) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Folds one die's solver counters in (lock-free; any worker thread).
    pub fn record_die_solver(&self, stats: &SolveStats, selfheat_iterations: u64) {
        self.solves.fetch_add(stats.solves, Ordering::Relaxed);
        self.newton_total
            .fetch_add(stats.newton_iterations, Ordering::Relaxed);
        self.polish_total
            .fetch_add(stats.polish_iterations, Ordering::Relaxed);
        self.cluster_maps
            .fetch_add(stats.cluster_maps, Ordering::Relaxed);
        self.selfheat_total
            .fetch_add(selfheat_iterations, Ordering::Relaxed);
        self.warm_hits
            .fetch_add(stats.warm_starts, Ordering::Relaxed);
        self.warm_misses
            .fetch_add(stats.cold_starts, Ordering::Relaxed);
        self.device_evals
            .fetch_add(stats.device_evals, Ordering::Relaxed);
        self.device_reuses
            .fetch_add(stats.device_reuses, Ordering::Relaxed);
        self.restamp_incremental
            .fetch_add(stats.restamp_incremental, Ordering::Relaxed);
        self.restamp_full
            .fetch_add(stats.restamp_full, Ordering::Relaxed);
        self.newton_per_die.record_ns(stats.newton_iterations);
        self.selfheat_per_die.record_ns(selfheat_iterations);
    }

    /// Folds one die's recovery bookkeeping in (lock-free; any worker
    /// thread). All zeros on a fault-free campaign.
    pub fn record_die_recovery(
        &self,
        retried: u64,
        recovered: u64,
        robust: u64,
        quarantined: u64,
        recovered_by_kind: &[u64; FailureKind::COUNT],
    ) {
        self.corners_retried.fetch_add(retried, Ordering::Relaxed);
        self.corners_recovered
            .fetch_add(recovered, Ordering::Relaxed);
        self.robust_recoveries.fetch_add(robust, Ordering::Relaxed);
        self.corners_quarantined
            .fetch_add(quarantined, Ordering::Relaxed);
        for (slot, &n) in self.recovered_by_kind.iter().zip(recovered_by_kind) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Recovery-level observability: how hard the graceful-degradation
/// machinery worked. All zeros on a fault-free campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryMetrics {
    /// Corners that needed more than one extraction attempt.
    pub corners_retried: u64,
    /// Corners that produced values after at least one failed attempt.
    pub corners_recovered: u64,
    /// Corners whose values came from the pooled robust IRLS fit.
    pub robust_recoveries: u64,
    /// Corners quarantined after exhausting every recovery stage.
    pub corners_quarantined: u64,
    /// Recovered corners by the taxonomy kind they recovered from,
    /// indexed by [`FailureKind::index`](crate::taxonomy::FailureKind).
    pub recovered_by_kind: [u64; FailureKind::COUNT],
}

/// Containment-level observability: how often the chaos-hardening
/// machinery fired. All zeros on a healthy, chaos-free campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContainmentMetrics {
    /// Dies whose pipeline panicked and was contained (all corners
    /// retired as `internal_panic`).
    pub die_panics: u64,
    /// Dies that exhausted the per-die solve budget (remaining corners
    /// retired as `budget_exhausted`).
    pub budgets_exhausted: u64,
    /// Checkpoint writes skipped because the write failed.
    pub checkpoint_write_errors: u64,
    /// Resumes served from the previous checkpoint generation after a
    /// corrupt or truncated latest slot.
    pub checkpoint_generation_fallbacks: u64,
}

/// Solver-level observability: how much numerical work the campaign did
/// and how often warm starts paid off. Like all metrics, never part of the
/// deterministic aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverMetrics {
    /// Circuit solves issued.
    pub solves: u64,
    /// Total damped Newton iterations.
    pub newton_iterations: u64,
    /// Total fixed-point polish iterations.
    pub polish_iterations: u64,
    /// Total Newton-map applications by the polish's cluster walk.
    pub cluster_maps: u64,
    /// Total electro-thermal fixed-point iterations.
    pub selfheat_iterations: u64,
    /// Solves seeded from a previous converged solution.
    pub warm_start_hits: u64,
    /// Solves started from the flat initial guess.
    pub warm_start_misses: u64,
    /// Full nonlinear device evaluations performed.
    pub device_evals: u64,
    /// Device evaluations skipped by an exact-bit cache hit.
    pub device_reuses: u64,
    /// Jacobian passes that restamped only operating-point-dependent slots.
    pub restamp_incremental: u64,
    /// Jacobian passes that stamped every element.
    pub restamp_full: u64,
    /// Median per-die Newton iteration count (log₂-bucket upper bound).
    pub newton_per_die_p50: u64,
    /// 99th-percentile per-die Newton iteration count (bucket upper bound).
    pub newton_per_die_p99: u64,
}

impl SolverMetrics {
    /// Mean Newton iterations per solve.
    #[must_use]
    pub fn newton_per_solve(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.newton_iterations as f64 / self.solves as f64
        }
    }

    /// Fraction of solves that were warm-started (0 when none ran).
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_start_hits + self.warm_start_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_start_hits as f64 / total as f64
        }
    }

    /// Fraction of device-evaluation requests answered by an exact-bit
    /// cache hit: reuses / (evals + reuses), 0 when none ran.
    #[must_use]
    pub fn device_cache_hit_rate(&self) -> f64 {
        let total = self.device_evals + self.device_reuses;
        if total == 0 {
            0.0
        } else {
            self.device_reuses as f64 / total as f64
        }
    }

    /// Fraction of Jacobian passes that only restamped
    /// operating-point-dependent slots (0 when none ran).
    #[must_use]
    pub fn restamp_savings(&self) -> f64 {
        let total = self.restamp_incremental + self.restamp_full;
        if total == 0 {
            0.0
        } else {
            self.restamp_incremental as f64 / total as f64
        }
    }
}

/// End-of-run observability snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignMetrics {
    /// Dies started.
    pub dies_started: u64,
    /// Dies completed.
    pub dies_completed: u64,
    /// Dies with a solve failure in some corner.
    pub dies_failed: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock of the whole run.
    pub elapsed_ns: u64,
    /// Completed dies per wall-clock second.
    pub dies_per_second: f64,
    /// Peak size of the in-order fold's reorder buffer (bounded by the
    /// out-of-order window of the pool, not by the die count).
    pub max_reorder_buffer: usize,
    /// Per-stage timing summaries.
    pub stages: Vec<StageSnapshot>,
    /// Solver iteration counts and warm-start accounting.
    pub solver: SolverMetrics,
    /// Retry / robust-recovery / quarantine accounting.
    pub recovery: RecoveryMetrics,
    /// Panic/budget containment and checkpoint-degradation accounting.
    pub containment: ContainmentMetrics,
}

impl CampaignCounters {
    /// Snapshots the counters after the pool has joined.
    #[must_use]
    pub fn snapshot(
        &self,
        threads: usize,
        elapsed_ns: u64,
        max_reorder_buffer: usize,
    ) -> CampaignMetrics {
        let completed = self.completed.load(Ordering::Relaxed);
        let secs = elapsed_ns as f64 / 1e9;
        CampaignMetrics {
            dies_started: self.started.load(Ordering::Relaxed),
            dies_completed: completed,
            dies_failed: self.failed.load(Ordering::Relaxed),
            threads,
            elapsed_ns,
            dies_per_second: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            max_reorder_buffer,
            stages: STAGE_NAMES
                .iter()
                .enumerate()
                .map(|(i, n)| self.stages[i].snapshot(n))
                .collect(),
            solver: {
                let newton = self.newton_per_die.snapshot("newton_per_die");
                SolverMetrics {
                    solves: self.solves.load(Ordering::Relaxed),
                    newton_iterations: self.newton_total.load(Ordering::Relaxed),
                    polish_iterations: self.polish_total.load(Ordering::Relaxed),
                    cluster_maps: self.cluster_maps.load(Ordering::Relaxed),
                    selfheat_iterations: self.selfheat_total.load(Ordering::Relaxed),
                    warm_start_hits: self.warm_hits.load(Ordering::Relaxed),
                    warm_start_misses: self.warm_misses.load(Ordering::Relaxed),
                    device_evals: self.device_evals.load(Ordering::Relaxed),
                    device_reuses: self.device_reuses.load(Ordering::Relaxed),
                    restamp_incremental: self.restamp_incremental.load(Ordering::Relaxed),
                    restamp_full: self.restamp_full.load(Ordering::Relaxed),
                    newton_per_die_p50: newton.p50_ns,
                    newton_per_die_p99: newton.p99_ns,
                }
            },
            recovery: RecoveryMetrics {
                corners_retried: self.corners_retried.load(Ordering::Relaxed),
                corners_recovered: self.corners_recovered.load(Ordering::Relaxed),
                robust_recoveries: self.robust_recoveries.load(Ordering::Relaxed),
                corners_quarantined: self.corners_quarantined.load(Ordering::Relaxed),
                recovered_by_kind: std::array::from_fn(|i| {
                    self.recovered_by_kind[i].load(Ordering::Relaxed)
                }),
            },
            containment: ContainmentMetrics {
                die_panics: self.die_panics.load(Ordering::Relaxed),
                budgets_exhausted: self.budgets_exhausted.load(Ordering::Relaxed),
                checkpoint_write_errors: self.checkpoint_write_errors.load(Ordering::Relaxed),
                checkpoint_generation_fallbacks: self
                    .checkpoint_generation_fallbacks
                    .load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LogHistogram::default();
        h.record_ns(0);
        h.record_ns(1);
        h.record_ns(1023);
        h.record_ns(1024);
        let s = h.snapshot("t");
        assert_eq!(s.count, 4);
        assert_eq!(s.total_ns, 2048);
        assert!(s.p50_ns >= 1, "{}", s.p50_ns);
        assert!(s.p99_ns >= 1024);
    }

    #[test]
    fn exact_powers_of_two_land_on_their_own_edge() {
        // Regression: `64 - ns.leading_zeros()` put every exact power of
        // two one bucket high, so the reported upper edge was 2x the true
        // value at every 2^k boundary (record_ns(1) reported 2 ns).
        let h = LogHistogram::default();
        h.record_ns(1);
        assert_eq!(h.snapshot("t").p50_ns, 1, "1 ns must report a 1 ns edge");
        for k in [1u32, 4, 10, 20, 40, 62] {
            let h = LogHistogram::default();
            h.record_ns(1u64 << k);
            let s = h.snapshot("t");
            assert_eq!(
                s.p50_ns,
                1u64 << k,
                "2^{k} must land in the bucket whose upper edge is 2^{k}"
            );
        }
    }

    #[test]
    fn bucket_edges_bound_recorded_values() {
        // Every recorded duration must be <= the edge its bucket reports,
        // and > half that edge (except the 0/1 ns bucket). The top bucket
        // saturates: anything above 2^62 ns reports the 2^63 edge.
        for ns in [0u64, 1, 2, 3, 5, 1023, 1024, 1025] {
            let h = LogHistogram::default();
            h.record_ns(ns);
            let edge = h.snapshot("t").p50_ns;
            assert!(ns <= edge, "ns {ns} above its edge {edge}");
            if ns > 1 {
                assert!(edge / 2 < ns, "ns {ns} below half its edge {edge}");
            }
        }
        let h = LogHistogram::default();
        h.record_ns(u64::MAX);
        assert_eq!(h.snapshot("t").p50_ns, 1u64 << 63);
    }

    #[test]
    fn quantile_rank_is_nearest_rank_for_small_counts() {
        // Nearest-rank definition, rank = max(1, ceil(p * count)), checked
        // for count in {0, 1, 2, odd, even} with values in distinct buckets.
        let empty = LogHistogram::default();
        let s = empty.snapshot("t");
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns), (0, 0, 0));

        let one = LogHistogram::default();
        one.record_ns(8);
        let s = one.snapshot("t");
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns), (8, 8, 8));

        // count = 2: ceil(0.5 * 2) = 1 -> the lower value is the median.
        let two = LogHistogram::default();
        two.record_ns(8);
        two.record_ns(64);
        let s = two.snapshot("t");
        assert_eq!(s.p50_ns, 8);
        assert_eq!(s.p90_ns, 64);

        // count = 3 (odd): ceil(1.5) = 2 -> the middle value.
        let odd = LogHistogram::default();
        for ns in [8, 64, 512] {
            odd.record_ns(ns);
        }
        let s = odd.snapshot("t");
        assert_eq!(s.p50_ns, 64);
        assert_eq!(s.p99_ns, 512);

        // count = 4 (even): ceil(2.0) = 2 -> the lower middle value.
        let even = LogHistogram::default();
        for ns in [8, 64, 512, 4096] {
            even.record_ns(ns);
        }
        let s = even.snapshot("t");
        assert_eq!(s.p50_ns, 64);
        assert_eq!(s.p90_ns, 4096);
    }

    #[test]
    fn quantile_rank_is_exact_for_large_counts() {
        // The rank must be computed in integer arithmetic: with a count
        // above 2^53 the old `(p * count as f64).ceil()` rounds the rank
        // and can skip the true quantile bucket. Simulate with raw bucket
        // counts (recording 2^54 samples is not practical).
        let h = LogHistogram::default();
        h.buckets[3].store(1u64 << 52, Ordering::Relaxed);
        h.buckets[10].store((1u64 << 52) + 1, Ordering::Relaxed);
        let s = h.snapshot("t");
        // count = 2^53 + 1, so the exact median rank is
        // ceil((2^53 + 1) / 2) = 2^52 + 1 — one past bucket 3's cumulative
        // count, i.e. bucket 10. In f64, `count as f64` rounds 2^53 + 1
        // down to 2^53 and the computed rank 2^52 lands in bucket 3.
        assert_eq!(s.p50_ns, 1024);
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = LogHistogram::default();
        for i in 0..1000u64 {
            h.record_ns(i * 100);
        }
        let s = h.snapshot("t");
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns);
        assert!(s.mean_ns() > 0.0);
    }

    #[test]
    fn histogram_merge_matches_recording_everything_in_one() {
        let all = LogHistogram::default();
        let a = LogHistogram::default();
        let b = LogHistogram::default();
        for i in 0..500u64 {
            let ns = i * 37 + 1;
            all.record_ns(ns);
            if i % 2 == 0 { &a } else { &b }.record_ns(ns);
        }
        a.merge(&b);
        assert_eq!(a.raw(), all.raw());
        assert_eq!(a.snapshot("t"), all.snapshot("t"));
    }

    #[test]
    fn counters_merge_adds_every_scalar_and_histogram() {
        let a = CampaignCounters::default();
        let b = CampaignCounters::default();
        for (i, (_, c)) in a.scalars().iter().enumerate() {
            c.store(i as u64 + 1, Ordering::Relaxed);
        }
        for (i, (_, c)) in b.scalars().iter().enumerate() {
            c.store(100 + i as u64, Ordering::Relaxed);
        }
        a.recovered_by_kind[2].store(5, Ordering::Relaxed);
        b.recovered_by_kind[2].store(7, Ordering::Relaxed);
        a.stages[STAGE_SAMPLE].record_ns(10);
        b.stages[STAGE_SAMPLE].record_ns(1000);
        a.merge(&b);
        for (i, (_, c)) in a.scalars().iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), i as u64 + 1 + 100 + i as u64);
        }
        assert_eq!(a.recovered_by_kind[2].load(Ordering::Relaxed), 12);
        let s = a.stages[STAGE_SAMPLE].snapshot("sample");
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 1010);
    }

    #[test]
    fn counters_snapshot_computes_rate() {
        let c = CampaignCounters::default();
        c.started.store(10, Ordering::Relaxed);
        c.completed.store(10, Ordering::Relaxed);
        let m = c.snapshot(4, 2_000_000_000, 3);
        assert_eq!(m.dies_completed, 10);
        assert!((m.dies_per_second - 5.0).abs() < 1e-9);
        assert_eq!(m.threads, 4);
        assert_eq!(m.max_reorder_buffer, 3);
        assert_eq!(m.stages.len(), 3);
    }
}
