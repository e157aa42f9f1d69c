//! Streaming aggregation: exact-sum statistics, yield bins and the
//! characteristic-straight scatter summary.
//!
//! The engine folds [`DieOutcome`](crate::die::DieOutcome)s **in die-index
//! order** (the worker pool's reorder buffer guarantees the order), so
//! aggregation is reproducible for any thread count while memory stays
//! O(corners), independent of the die count.
//!
//! # Merge semantics
//!
//! Every accumulator here supports a true pairwise `merge` in addition to
//! streaming `absorb`, and the two are **bit-for-bit interchangeable**:
//! absorbing values one at a time, or splitting them into contiguous
//! runs, accumulating each run separately and merging the partials — in
//! left-to-right order or any other tree shape — produces identical
//! state and identical report bytes. The statistics achieve this by
//! accumulating on [`ExactSum`] fixed-point superaccumulators (integer
//! addition is associative; rounding happens once, at report time); the
//! counters are plain integer adds; min/max use `f64::min`/`max`, which
//! are associative over the finite measurement values (the empty
//! accumulator's ±∞ sentinels are absorbing-identity elements). The one
//! order-*sensitive* field is the quarantine list, which is concatenated
//! in merge order — so campaign-level merges must fold partials covering
//! contiguous, ascending die ranges left to right (the shard supervisor's
//! contract, checked by a debug assertion in
//! [`CampaignAggregate::merge`]).

use icvbe_numerics::exact::{ExactSum, Wide, SCALE_EXP};

use crate::die::{CornerOutcome, DieOutcome};
use crate::spec::CampaignSpec;
use crate::taxonomy::FailureKind;

/// Bit shift aligning an accumulator integer with the square of one:
/// `Σx = I·2^s` and `Σx² = Q·2^s` share the scale `s = SCALE_EXP`, so the
/// exact numerator `n·Σx² − (Σx)²` at scale `2s` is `n·Q·2^-s − I²` —
/// and `-s` is this many bits.
const ALIGN_BITS: usize = (-SCALE_EXP) as usize;

/// Scale exponent of derived-statistic numerators (`2 · SCALE_EXP`).
const NUM_SCALE: i64 = 2 * SCALE_EXP as i64;

/// Exact `n·sumsq − sum²` — the non-negative variance/covariance
/// numerator pattern shared by [`Welford`] and [`Scatter`].
fn cross_numerator(n: u64, prod_sum: &ExactSum, a: &ExactSum, b: &ExactSum) -> Wide {
    prod_sum
        .to_wide()
        .mul_u64(n)
        .shl_bits(ALIGN_BITS)
        .sub(&a.to_wide().mul(&b.to_wide()))
}

/// The yield bin of one corner extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldBin {
    /// Extraction inside the spec window.
    Pass,
    /// `EG` below the window.
    EgLow,
    /// `EG` above the window.
    EgHigh,
    /// `XTI` below the window.
    XtiLow,
    /// `XTI` above the window.
    XtiHigh,
    /// The die pipeline failed (circuit, thermal or extraction error).
    SolveFail,
    /// The adaptive corner scheduler skipped this corner on a die whose
    /// probe corners showed no anomaly (never emitted on exhaustive
    /// runs; reports only mention the bin when its count is non-zero, so
    /// exhaustive artifacts keep their historical bytes).
    Skipped,
}

impl YieldBin {
    /// Number of bins (the width of a bin-count array).
    pub const COUNT: usize = 7;

    /// All bins, in report order.
    pub const ALL: [YieldBin; YieldBin::COUNT] = [
        YieldBin::Pass,
        YieldBin::EgLow,
        YieldBin::EgHigh,
        YieldBin::XtiLow,
        YieldBin::XtiHigh,
        YieldBin::SolveFail,
        YieldBin::Skipped,
    ];

    /// Stable label used in the JSON/CSV reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            YieldBin::Pass => "pass",
            YieldBin::EgLow => "eg_low",
            YieldBin::EgHigh => "eg_high",
            YieldBin::XtiLow => "xti_low",
            YieldBin::XtiHigh => "xti_high",
            YieldBin::SolveFail => "solve_fail",
            YieldBin::Skipped => "skipped",
        }
    }

    /// Dense index into a bin-count array.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            YieldBin::Pass => 0,
            YieldBin::EgLow => 1,
            YieldBin::EgHigh => 2,
            YieldBin::XtiLow => 3,
            YieldBin::XtiHigh => 4,
            YieldBin::SolveFail => 5,
            YieldBin::Skipped => 6,
        }
    }
}

/// Streaming mean/variance with min/max tracking, on exact sums.
///
/// Historically a Welford recurrence (whose running `mean`/`m2` are
/// order-sensitive and admit no bit-exact pairwise merge); now `Σx` and
/// `Σx²` on [`ExactSum`] superaccumulators, which makes
/// [`Welford::merge`] exactly equivalent to having absorbed the other
/// accumulator's observations in any order. The derived mean, variance
/// and standard deviation are pure functions of the exact state, each
/// rounded from the exactly computed value — so they too are identical
/// between a streamed and a merged accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Welford {
    count: u64,
    sum: ExactSum,
    sumsq: ExactSum,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Welford {
            count: 0,
            sum: ExactSum::zero(),
            sumsq: ExactSum::zero(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Welford {
    /// Folds one observation in.
    pub fn absorb(&mut self, x: f64) {
        self.count += 1;
        self.sum.add_f64(x);
        self.sumsq.add_prod(x, x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another accumulator in. Bit-for-bit equivalent to having
    /// absorbed `other`'s observations directly (in any order); see the
    /// module docs for why the empty accumulator's ±∞ min/max sentinels
    /// merge as identity elements.
    pub fn merge(&mut self, other: &Welford) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.sumsq.merge(&other.sumsq);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty): the exact sum rounded once, then
    /// one division.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum.to_f64() / self.count as f64
        }
    }

    /// Unbiased sample variance (0 below two observations), from the
    /// exact numerator `n·Σx² − (Σx)²` — which is non-negative by
    /// Cauchy–Schwarz and *exactly* zero for constant data, so the
    /// catastrophic cancellation of the naive two-sum formula cannot
    /// occur.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let t = cross_numerator(self.count, &self.sumsq, &self.sum, &self.sum);
        t.to_f64_scaled(NUM_SCALE) / (self.count * (self.count - 1)) as f64
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The raw accumulator state `(count, sum, sumsq, min, max)`, for
    /// the checkpoint codec. The empty accumulator's `±inf` min/max
    /// travel through here too — the codec must preserve them
    /// bit-exactly.
    #[must_use]
    pub fn raw(&self) -> (u64, &ExactSum, &ExactSum, f64, f64) {
        (self.count, &self.sum, &self.sumsq, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`Welford::raw`] state. Resuming from
    /// this state and folding the remaining observations produces exactly
    /// the accumulator an uninterrupted run would.
    #[must_use]
    pub fn from_raw(count: u64, sum: ExactSum, sumsq: ExactSum, min: f64, max: f64) -> Self {
        Welford {
            count,
            sum,
            sumsq,
            min,
            max,
        }
    }
}

/// Streaming bivariate moments of the `(XTI, EG)` cloud — the campaign
/// view of the paper's Fig.-6 characteristic straight.
///
/// Extracted pairs are *effective* parameters: each die's `(EG, XTI)`
/// lies on that die's characteristic straight, so across a lot the cloud
/// collapses onto a line whose slope/intercept this summarizes, along
/// with the correlation that tells how tight the collapse is.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scatter {
    n: u64,
    sx: ExactSum,
    sy: ExactSum,
    sxx: ExactSum,
    syy: ExactSum,
    sxy: ExactSum,
}

impl Scatter {
    /// Folds one `(xti, eg)` pair in.
    pub fn absorb(&mut self, xti: f64, eg: f64) {
        self.n += 1;
        self.sx.add_f64(xti);
        self.sy.add_f64(eg);
        self.sxx.add_prod(xti, xti);
        self.syy.add_prod(eg, eg);
        self.sxy.add_prod(xti, eg);
    }

    /// Folds another moment accumulator in — bit-for-bit equivalent to
    /// having absorbed `other`'s pairs directly, in any order.
    pub fn merge(&mut self, other: &Scatter) {
        self.n += other.n;
        self.sx.merge(&other.sx);
        self.sy.merge(&other.sy);
        self.sxx.merge(&other.sxx);
        self.syy.merge(&other.syy);
        self.sxy.merge(&other.sxy);
    }

    /// Number of pairs.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact regression numerators at scale `2^NUM_SCALE`:
    /// `(n·Σxy − ΣxΣy, n·Σx² − (Σx)², n·Σy² − (Σy)²)`. The last two are
    /// non-negative by Cauchy–Schwarz and exactly zero for a degenerate
    /// (constant) cloud — which is what lets the guards below test exact
    /// integer positivity instead of comparing rounded floats.
    fn numerators(&self) -> (Wide, Wide, Wide) {
        (
            cross_numerator(self.n, &self.sxy, &self.sx, &self.sy),
            cross_numerator(self.n, &self.sxx, &self.sx, &self.sx),
            cross_numerator(self.n, &self.syy, &self.sy, &self.sy),
        )
    }

    /// Slope of the regression of `EG` on `XTI` (eV per unit `XTI`).
    #[must_use]
    pub fn slope(&self) -> f64 {
        let (a, b, _) = self.numerators();
        if b.is_positive() {
            a.to_f64_scaled(NUM_SCALE) / b.to_f64_scaled(NUM_SCALE)
        } else {
            0.0
        }
    }

    /// Mean of the `XTI` coordinates (0 when empty).
    fn mean_x(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sx.to_f64() / self.n as f64
        }
    }

    /// Mean of the `EG` coordinates (0 when empty).
    fn mean_y(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sy.to_f64() / self.n as f64
        }
    }

    /// Intercept of the regression (eV at `XTI = 0`).
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.mean_y() - self.slope() * self.mean_x()
    }

    /// Pearson correlation of the cloud (0 for a degenerate cloud).
    #[must_use]
    pub fn correlation(&self) -> f64 {
        let (a, b, c) = self.numerators();
        if b.is_positive() && c.is_positive() {
            let bf = b.to_f64_scaled(NUM_SCALE);
            let cf = c.to_f64_scaled(NUM_SCALE);
            a.to_f64_scaled(NUM_SCALE) / (bf.sqrt() * cf.sqrt())
        } else {
            0.0
        }
    }

    /// Coefficient of determination of the straight.
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        let c = self.correlation();
        c * c
    }

    /// The raw moment state `(n, Σx, Σy, Σx², Σy², Σxy)`, for the
    /// checkpoint codec.
    #[must_use]
    #[allow(clippy::type_complexity)]
    pub fn raw(&self) -> (u64, [&ExactSum; 5]) {
        (
            self.n,
            [&self.sx, &self.sy, &self.sxx, &self.syy, &self.sxy],
        )
    }

    /// Rebuilds the moments from [`Scatter::raw`] state.
    #[must_use]
    pub fn from_raw(n: u64, [sx, sy, sxx, syy, sxy]: [ExactSum; 5]) -> Self {
        Scatter {
            n,
            sx,
            sy,
            sxx,
            syy,
            sxy,
        }
    }
}

/// Aggregate over one bias corner.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerAggregate {
    /// Corner label (from the spec).
    pub name: String,
    /// Extracted `EG` statistics, eV.
    pub eg_ev: Welford,
    /// Extracted `XTI` statistics.
    pub xti: Welford,
    /// Fit RMS residual statistics, volts.
    pub rms_residual_v: Welford,
    /// Error of the computed cold-point die temperature vs truth, kelvin.
    pub t_cold_err_k: Welford,
    /// Error of the computed hot-point die temperature vs truth, kelvin.
    pub t_hot_err_k: Welford,
    /// Characteristic-straight scatter of the `(XTI, EG)` cloud.
    pub straight: Scatter,
    /// Yield bin counts, indexed by [`YieldBin::index`].
    pub bins: [u64; YieldBin::COUNT],
    /// Quarantined corners by taxonomy kind, indexed by
    /// [`FailureKind::index`].
    pub failures: [u64; FailureKind::COUNT],
    /// Corners that produced values after at least one failed attempt, by
    /// the kind of the failure they recovered from.
    pub recovered: [u64; FailureKind::COUNT],
    /// Corners whose values came from the pooled robust IRLS fit.
    pub robust_recoveries: u64,
    /// Extra extraction attempts beyond the first, summed over corners.
    pub retries: u64,
    /// Samples the robust fits flagged as outliers, summed over corners.
    pub outliers_rejected: u64,
}

impl CornerAggregate {
    fn new(name: &str) -> Self {
        CornerAggregate {
            name: name.to_string(),
            eg_ev: Welford::default(),
            xti: Welford::default(),
            rms_residual_v: Welford::default(),
            t_cold_err_k: Welford::default(),
            t_hot_err_k: Welford::default(),
            straight: Scatter::default(),
            bins: [0; YieldBin::COUNT],
            failures: [0; FailureKind::COUNT],
            recovered: [0; FailureKind::COUNT],
            robust_recoveries: 0,
            retries: 0,
            outliers_rejected: 0,
        }
    }

    fn absorb(&mut self, c: &CornerOutcome) {
        self.bins[c.bin.index()] += 1;
        if let Some(kind) = c.failure {
            self.failures[kind.index()] += 1;
        }
        if let Some(kind) = c.recovered_from {
            self.recovered[kind.index()] += 1;
        }
        if c.robust_recovery {
            self.robust_recoveries += 1;
        }
        self.retries += u64::from(c.attempts.saturating_sub(1));
        self.outliers_rejected += u64::from(c.outliers_rejected);
        if let Some(v) = &c.values {
            // Robust-recovered corners can carry NaN temperature columns
            // (every cold or hot thermometry sample lost); keep those out
            // of the running moments. Clean-pipeline values are always
            // finite, so the guards are no-ops there.
            self.eg_ev.absorb(v.eg_ev);
            self.xti.absorb(v.xti);
            self.rms_residual_v.absorb(v.rms_residual_v);
            if v.t_cold_err_k.is_finite() {
                self.t_cold_err_k.absorb(v.t_cold_err_k);
            }
            if v.t_hot_err_k.is_finite() {
                self.t_hot_err_k.absorb(v.t_hot_err_k);
            }
            self.straight.absorb(v.xti, v.eg_ev);
        }
    }

    /// Folds another corner's aggregate in — bit-for-bit equivalent to
    /// having absorbed the other aggregate's corner outcomes directly.
    /// Both sides must describe the same spec corner.
    pub fn merge(&mut self, other: &CornerAggregate) {
        debug_assert_eq!(self.name, other.name, "merging different corners");
        self.eg_ev.merge(&other.eg_ev);
        self.xti.merge(&other.xti);
        self.rms_residual_v.merge(&other.rms_residual_v);
        self.t_cold_err_k.merge(&other.t_cold_err_k);
        self.t_hot_err_k.merge(&other.t_hot_err_k);
        self.straight.merge(&other.straight);
        for (a, b) in self.bins.iter_mut().zip(other.bins) {
            *a += b;
        }
        for (a, b) in self.failures.iter_mut().zip(other.failures) {
            *a += b;
        }
        for (a, b) in self.recovered.iter_mut().zip(other.recovered) {
            *a += b;
        }
        self.robust_recoveries += other.robust_recoveries;
        self.retries += other.retries;
        self.outliers_rejected += other.outliers_rejected;
    }

    /// Fraction of *measured* extractions landing in [`YieldBin::Pass`].
    /// Corners the adaptive scheduler skipped are not measurements and
    /// stay out of the denominator (on exhaustive runs the skipped bin is
    /// always zero, so the historical value is unchanged).
    #[must_use]
    pub fn yield_fraction(&self) -> f64 {
        let total: u64 = self.bins.iter().sum::<u64>() - self.bins[YieldBin::Skipped.index()];
        if total == 0 {
            0.0
        } else {
            self.bins[YieldBin::Pass.index()] as f64 / total as f64
        }
    }
}

/// One quarantined corner, pinned to its wafer site — the row format of
/// the quarantine report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Dense die index (campaign order).
    pub die: usize,
    /// Wafer row.
    pub row: usize,
    /// Wafer column.
    pub col: usize,
    /// Corner index into the spec's corner list.
    pub corner: usize,
    /// Why the corner was quarantined.
    pub kind: FailureKind,
    /// Attempts consumed before giving up.
    pub attempts: u32,
}

/// The whole campaign's streaming aggregate.
///
/// Memory is O(corners) plus one [`QuarantineRecord`] per *failed*
/// corner — zero on a healthy campaign, bounded by the fault rate
/// otherwise. The default is the aggregate of a campaign with no
/// corners, holding nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignAggregate {
    /// Dies folded in so far.
    pub dies: u64,
    /// Dies with at least one solve-failed corner.
    pub dies_failed: u64,
    /// Per-corner aggregates, in spec order.
    pub corners: Vec<CornerAggregate>,
    /// Every quarantined corner, in die-index order.
    pub quarantine: Vec<QuarantineRecord>,
}

impl CampaignAggregate {
    /// An empty aggregate shaped for `spec`'s corners.
    #[must_use]
    pub fn new(spec: &CampaignSpec) -> Self {
        CampaignAggregate {
            dies: 0,
            dies_failed: 0,
            corners: spec
                .corners
                .iter()
                .map(|c| CornerAggregate::new(&c.name))
                .collect(),
            quarantine: Vec::new(),
        }
    }

    /// Folds one die in. **Must** be called in die-index order to keep
    /// the aggregate deterministic across thread counts.
    pub fn absorb(&mut self, die: &DieOutcome) {
        self.dies += 1;
        if die.corners.iter().any(|c| c.bin == YieldBin::SolveFail) {
            self.dies_failed += 1;
        }
        for (k, (agg, out)) in self.corners.iter_mut().zip(&die.corners).enumerate() {
            agg.absorb(out);
            if let Some(kind) = out.failure {
                self.quarantine.push(QuarantineRecord {
                    die: die.index,
                    row: die.row,
                    col: die.col,
                    corner: k,
                    kind,
                    attempts: out.attempts,
                });
            }
        }
    }

    /// Folds a partial aggregate covering a *later* contiguous die range
    /// in — the shard supervisor's merge step.
    ///
    /// # Association order
    ///
    /// The statistics and counters are order-insensitive (exact sums and
    /// integer adds — see the module docs), but the quarantine list is
    /// concatenated, so partials must be folded **left to right over
    /// ascending die ranges** to reproduce the single-process report
    /// bytes. A debug assertion checks the ordering contract.
    pub fn merge(&mut self, other: &CampaignAggregate) {
        debug_assert_eq!(
            self.corners.len(),
            other.corners.len(),
            "merging aggregates of different specs"
        );
        debug_assert!(
            match (self.quarantine.last(), other.quarantine.first()) {
                (Some(a), Some(b)) => a.die <= b.die,
                _ => true,
            },
            "partials must merge in ascending die order"
        );
        self.dies += other.dies;
        self.dies_failed += other.dies_failed;
        for (a, b) in self.corners.iter_mut().zip(&other.corners) {
            a.merge(b);
        }
        self.quarantine.extend(other.quarantine.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_stats() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.5, -3.25];
        let mut w = Welford::default();
        for &x in &xs {
            w.absorb(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), -3.25);
        assert_eq!(w.max(), 16.5);
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn scatter_recovers_exact_line() {
        let mut s = Scatter::default();
        // EG = 1.2 - 0.025 * XTI, exactly.
        for i in 0..50 {
            let xti = 0.1 * i as f64;
            s.absorb(xti, 1.2 - 0.025 * xti);
        }
        assert!((s.slope() + 0.025).abs() < 1e-12);
        assert!((s.intercept() - 1.2).abs() < 1e-12);
        assert!((s.correlation() + 1.0).abs() < 1e-12);
        assert!((s.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_scatter_is_finite() {
        let mut s = Scatter::default();
        s.absorb(2.58, 1.13);
        s.absorb(2.58, 1.13);
        assert_eq!(s.slope(), 0.0);
        assert_eq!(s.correlation(), 0.0);
    }

    #[test]
    fn bin_labels_and_indices_are_dense() {
        for (i, b) in YieldBin::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
            assert!(!b.label().is_empty());
        }
    }

    #[test]
    fn welford_mean_and_variance_are_exact_for_representable_data() {
        let mut w = Welford::default();
        for x in [1.0, 2.0, 3.0] {
            w.absorb(x);
        }
        assert_eq!(w.mean(), 2.0);
        assert_eq!(w.variance(), 1.0);
        assert_eq!(w.std_dev(), 1.0);
    }

    /// A deterministic stream of measurement-like values (no rand crate).
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Mixed magnitudes around the EG/XTI/residual ranges.
                let m = (state >> 11) as f64 / (1u64 << 53) as f64;
                let e = [(1e0, 1.1), (1e-3, 0.0), (1e-6, 0.0), (1e3, -0.5)][(state % 4) as usize];
                m * e.0 + e.1
            })
            .collect()
    }

    #[test]
    fn welford_merge_of_shard_accumulators_matches_absorb_all_bit_for_bit() {
        let values = stream(2002, 137);
        let mut whole = Welford::default();
        for &x in &values {
            whole.absorb(x);
        }
        for shards in [1usize, 2, 3, 4, 8, 137, 200] {
            let chunk = values.len().div_ceil(shards);
            let parts: Vec<Welford> = values
                .chunks(chunk.max(1))
                .map(|c| {
                    let mut w = Welford::default();
                    for &x in c {
                        w.absorb(x);
                    }
                    w
                })
                .collect();
            // Left-to-right fold (the shard supervisor's order)...
            let mut folded = Welford::default();
            for p in &parts {
                folded.merge(p);
            }
            assert_eq!(folded, whole, "{shards} shards: state");
            // ...and every serialized field, down to the bits.
            assert_eq!(folded.count(), whole.count());
            assert_eq!(folded.mean().to_bits(), whole.mean().to_bits());
            assert_eq!(folded.variance().to_bits(), whole.variance().to_bits());
            assert_eq!(folded.std_dev().to_bits(), whole.std_dev().to_bits());
            assert_eq!(folded.min().to_bits(), whole.min().to_bits());
            assert_eq!(folded.max().to_bits(), whole.max().to_bits());
            // A balanced tree merge agrees too (associativity).
            let mut tree = parts.clone();
            while tree.len() > 1 {
                let mut next = Vec::new();
                for pair in tree.chunks(2) {
                    let mut m = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        m.merge(b);
                    }
                    next.push(m);
                }
                tree = next;
            }
            assert_eq!(tree[0], whole, "{shards} shards: tree merge");
        }
    }

    #[test]
    fn empty_welford_merges_as_identity_including_infinite_min_max() {
        let mut empty = Welford::default();
        empty.merge(&Welford::default());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.min(), f64::INFINITY);
        assert_eq!(empty.max(), f64::NEG_INFINITY);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.variance(), 0.0);

        let mut w = Welford::default();
        w.absorb(3.5);
        w.absorb(-1.25);
        let before = w.clone();
        w.merge(&Welford::default());
        assert_eq!(w, before, "right identity");
        let mut left = Welford::default();
        left.merge(&before);
        assert_eq!(left, before, "left identity");
        assert_eq!(left.min(), -1.25);
        assert_eq!(left.max(), 3.5);
    }

    #[test]
    fn scatter_merge_of_shard_accumulators_matches_absorb_all_bit_for_bit() {
        let xs = stream(7, 101);
        let ys = stream(13, 101);
        let mut whole = Scatter::default();
        for (&x, &y) in xs.iter().zip(&ys) {
            whole.absorb(x, y);
        }
        for shards in [2usize, 4, 8] {
            let chunk = xs.len().div_ceil(shards);
            let mut folded = Scatter::default();
            for (cx, cy) in xs.chunks(chunk).zip(ys.chunks(chunk)) {
                let mut part = Scatter::default();
                for (&x, &y) in cx.iter().zip(cy) {
                    part.absorb(x, y);
                }
                folded.merge(&part);
            }
            assert_eq!(folded, whole, "{shards} shards: state");
            assert_eq!(folded.slope().to_bits(), whole.slope().to_bits());
            assert_eq!(folded.intercept().to_bits(), whole.intercept().to_bits());
            assert_eq!(
                folded.correlation().to_bits(),
                whole.correlation().to_bits()
            );
            assert_eq!(folded.r_squared().to_bits(), whole.r_squared().to_bits());
        }
    }

    #[test]
    fn degenerate_scatter_stays_exactly_degenerate_under_merge() {
        // Constant clouds accumulated on two "shards": the merged exact
        // numerators must still be exactly zero, so the guards return 0.
        let mut a = Scatter::default();
        let mut b = Scatter::default();
        for _ in 0..3 {
            a.absorb(2.58, 1.13);
            b.absorb(2.58, 1.13);
        }
        a.merge(&b);
        assert_eq!(a.slope(), 0.0);
        assert_eq!(a.correlation(), 0.0);
        assert_eq!(a.r_squared(), 0.0);
    }

    #[test]
    fn yield_fraction_excludes_skipped_corners() {
        let mut c = CornerAggregate::new("nom");
        c.bins[YieldBin::Pass.index()] = 3;
        c.bins[YieldBin::EgLow.index()] = 1;
        c.bins[YieldBin::Skipped.index()] = 6;
        assert_eq!(c.yield_fraction(), 0.75);
        let mut all_skipped = CornerAggregate::new("nom");
        all_skipped.bins[YieldBin::Skipped.index()] = 4;
        assert_eq!(all_skipped.yield_fraction(), 0.0);
    }
}
