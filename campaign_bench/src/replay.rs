//! The 1-thread replay of a campaign's dies, traced.
//!
//! Every die is replayed three ways: through `run_die_with` untraced and
//! traced (interleaved die by die, alternating which goes first, so host
//! drift hits both alike), and decomposed into the public calls of each
//! layer. Both traced replays must reproduce the campaign's corner
//! outcomes bit for bit.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use icvbe_campaign::aggregate::YieldBin;
use icvbe_campaign::die::{run_die_with, CornerOutcome, CornerValues, DieScratch};
use icvbe_campaign::seeding::{stream_seed, Stream};
use icvbe_campaign::spec::{BenchProfile, CampaignSpec, DieSite, SpecWindow};
use icvbe_campaign::FailureKind;
use icvbe_core::meijer::extract;
use icvbe_core::nonlinear::Eq13PointModel;
use icvbe_core::tempcomp::{temperature_from_dvbe_corrected, PairCurrents};
use icvbe_instrument::bench::{BenchScratch, PairCampaignPoint, SolveMode, TestStructureBench};
use icvbe_instrument::faults::FaultPlan;
use icvbe_instrument::montecarlo::SampleFactory;
use icvbe_numerics::robust::{fit_robust_with, RobustLoss, RobustOptions, RobustWorkspace};
use icvbe_spice::cache::SymbolicCache;
use icvbe_units::{Celsius, Kelvin};

use crate::digest::Gate;
use crate::measure::secs;
use crate::spans::Tracer;

/// Timings and call counts of one replay.
#[derive(Debug, Default)]
pub struct ReplayFigures {
    /// Wall seconds of the untraced `run_die_with` dies.
    pub untraced_s: f64,
    /// Wall seconds of the traced `run_die_with` dies, span cost included.
    pub traced_s: f64,
    /// Wall seconds of the decomposed replay.
    pub decomposed_s: f64,
    /// Traced `run_die_with` durations, ns.
    pub die_ns: Vec<f64>,
    /// Analytic extraction attempts made by the decomposed replay.
    pub extract_calls: u64,
    /// Robust fits made by the decomposed replay.
    pub robust_calls: u64,
}

/// Replays every die of `spec` against the campaign's outcomes
/// `captured` (indexed by die), recording spans into `tr`.
pub fn replay(
    spec: &CampaignSpec,
    captured: &[Vec<CornerOutcome>],
    tr: &mut Tracer,
    gate: &mut Gate,
) -> ReplayFigures {
    let mut fig = ReplayFigures::default();
    let sites = spec.wafer.sites();
    let setpoints = spec.plan.setpoints();
    let matches = |corners: &[CornerOutcome], die: usize| {
        corners.len() == captured[die].len()
            && corners
                .iter()
                .zip(&captured[die])
                .all(|(a, b)| same_outcome(a, b))
    };
    // Each replay installs a symbolic-plan cache, as the campaign does.
    let fresh = || {
        let mut s = DieScratch::new();
        s.bench.symbolic_cache = Some(Arc::new(SymbolicCache::new()));
        s
    };

    let (mut plain, mut traced) = (fresh(), fresh());
    let mut mismatched = 0usize;
    for (i, &site) in sites.iter().enumerate() {
        let mut untraced = |fig: &mut ReplayFigures| {
            let t0 = Instant::now();
            black_box(run_die_with(spec, site, &setpoints, &mut plain));
            fig.untraced_s += secs(t0);
        };
        if i % 2 == 0 {
            untraced(&mut fig);
        }
        let t0 = Instant::now();
        let span = tr.begin("campaign", "die", site.index as u64);
        let out = run_die_with(spec, site, &setpoints, &mut traced);
        tr.end(span);
        fig.traced_s += secs(t0);
        if i % 2 == 1 {
            untraced(&mut fig);
        }
        mismatched += usize::from(!matches(&out.corners, site.index));
    }
    let die_spans = tr.durations_ns("campaign", "die");
    fig.die_ns = die_spans[die_spans.len() - sites.len()..].to_vec();
    gate.check(mismatched == 0, || {
        format!("{mismatched} dies of run_die_with differ from the campaign")
    });

    let mut d = Decomposed::new();
    let mut mismatched = 0usize;
    let t0 = Instant::now();
    for &site in &sites {
        let span = tr.begin("campaign", "die_decomposed", site.index as u64);
        let corners = d.die(spec, site, &setpoints, tr);
        tr.end(span);
        mismatched += usize::from(!matches(&corners, site.index));
    }
    fig.decomposed_s = secs(t0);
    fig.extract_calls = d.extract_calls;
    fig.robust_calls = d.robust_calls;
    gate.check(mismatched == 0, || {
        format!("{mismatched} dies of the decomposed replay differ from the campaign")
    });
    fig
}

/// Whether two corner outcomes agree: bins, attempts, recovery flags and
/// every value bit for bit. Failure kinds are not replayed.
fn same_outcome(a: &CornerOutcome, b: &CornerOutcome) -> bool {
    let bits = |v: &CornerValues| {
        [
            v.eg_ev,
            v.xti,
            v.rms_residual_v,
            v.t_cold_k,
            v.t_hot_k,
            v.t_cold_err_k,
            v.t_hot_err_k,
        ]
        .map(f64::to_bits)
    };
    a.bin == b.bin
        && a.attempts == b.attempts
        && a.robust_recovery == b.robust_recovery
        && a.outliers_rejected == b.outliers_rejected
        && a.failure.is_some() == b.failure.is_some()
        && a.recovered_from.is_some() == b.recovered_from.is_some()
        && a.values.as_ref().map(bits) == b.values.as_ref().map(bits)
}

/// Placeholder kind for replayed outcomes: kinds are not compared.
const ANY_KIND: FailureKind = FailureKind::Degenerate;

fn outcome(bin: YieldBin, values: CornerValues, attempts: u32, recovered: bool) -> CornerOutcome {
    CornerOutcome {
        bin,
        values: Some(values),
        failure: None,
        attempts,
        recovered_from: recovered.then_some(ANY_KIND),
        robust_recovery: false,
        outliers_rejected: 0,
    }
}

fn quarantined(attempts: u32) -> CornerOutcome {
    CornerOutcome {
        bin: YieldBin::SolveFail,
        values: None,
        failure: Some(ANY_KIND),
        attempts,
        recovered_from: None,
        robust_recovery: false,
        outliers_rejected: 0,
    }
}

fn classify(w: &SpecWindow, v: &CornerValues) -> YieldBin {
    if v.eg_ev < w.eg_min {
        YieldBin::EgLow
    } else if v.eg_ev > w.eg_max {
        YieldBin::EgHigh
    } else if v.xti < w.xti_min {
        YieldBin::XtiLow
    } else if v.xti > w.xti_max {
        YieldBin::XtiHigh
    } else {
        YieldBin::Pass
    }
}

/// Eq.-16/20 die temperature of `p` from its dVBE against `refp`.
fn dvbe_temperature(p: &PairCampaignPoint, refp: &PairCampaignPoint) -> Option<Kelvin> {
    let x = PairCurrents {
        ica_t: p.ic_a,
        icb_t: p.ic_b,
        ica_ref: refp.ic_a,
        icb_ref: refp.ic_b,
    }
    .x_factor()
    .ok()?;
    temperature_from_dvbe_corrected(p.dvbe, refp.dvbe, refp.sensor_temperature, x).ok()
}

/// One analytic extraction attempt (dVBE thermometry, then
/// `meijer::extract`); `None` on any detected failure.
fn extract_attempt(pts: &[PairCampaignPoint]) -> Option<CornerValues> {
    let dead = |p: &PairCampaignPoint| {
        !p.sensor_temperature.value().is_finite()
            && !p.vbe_a.value().is_finite()
            && !p.dvbe.value().is_finite()
    };
    let finite = |p: &PairCampaignPoint| {
        [
            p.sensor_temperature.value(),
            p.vbe_a.value(),
            p.vbe_b.value(),
            p.dvbe.value(),
            p.ic_a.value(),
            p.ic_b.value(),
        ]
        .iter()
        .all(|v| v.is_finite())
    };
    let latched = |p: &PairCampaignPoint, q: &PairCampaignPoint| {
        p.sensor_temperature.value() == q.sensor_temperature.value()
            && p.vbe_a.value() == q.vbe_a.value()
            && p.dvbe.value() == q.dvbe.value()
    };
    if pts.len() < 3
        || pts.iter().any(dead)
        || !pts.iter().all(finite)
        || pts.windows(2).any(|w| latched(&w[1], &w[0]))
    {
        return None;
    }
    let refp = &pts[1];
    let t_cold = dvbe_temperature(&pts[0], refp)?;
    let t_hot = dvbe_temperature(&pts[2], refp)?;
    let m = TestStructureBench::meijer_from_points(
        [&pts[0], &pts[1], &pts[2]],
        [t_cold, refp.sensor_temperature, t_hot],
    );
    let fit = extract(&m).ok()?;
    let v = CornerValues {
        eg_ev: fit.eg.value(),
        xti: fit.xti,
        rms_residual_v: fit.rms_residual_volts,
        t_cold_k: t_cold.value(),
        t_hot_k: t_hot.value(),
        t_cold_err_k: t_cold.value() - pts[0].die_temperature.value(),
        t_hot_err_k: t_hot.value() - pts[2].die_temperature.value(),
    };
    (v.eg_ev.is_finite() && v.xti.is_finite() && v.rms_residual_v.is_finite()).then_some(v)
}

/// `(T, VBE, IC)` samples pooled across a corner's attempts for the robust
/// fit, with the first usable reference point and the cold/hot means.
#[derive(Debug, Default)]
struct Pool {
    t: Vec<f64>,
    vbe: Vec<f64>,
    ic: Vec<f64>,
    reference: Option<(f64, f64, f64)>,
    cold: (f64, u32),
    hot: (f64, u32),
}

impl Pool {
    fn clear(&mut self) {
        self.t.clear();
        self.vbe.clear();
        self.ic.clear();
        self.reference = None;
        self.cold = (0.0, 0);
        self.hot = (0.0, 0);
    }

    /// Adds one attempt's points; temperatures come from the attempt's
    /// own thermometry, and only non-finite triples are screened out.
    fn add(&mut self, pts: &[PairCampaignPoint]) {
        let refp = &pts[1];
        let temps = [
            dvbe_temperature(&pts[0], refp).map_or(f64::NAN, |t| t.value()),
            refp.sensor_temperature.value(),
            dvbe_temperature(&pts[2], refp).map_or(f64::NAN, |t| t.value()),
        ];
        for (i, (&t, p)) in temps.iter().zip(pts).enumerate() {
            let (vbe, ic) = (p.vbe_a.value(), p.ic_a.value());
            if !(t.is_finite() && t > 0.0 && vbe.is_finite() && ic.is_finite() && ic > 0.0) {
                continue;
            }
            self.t.push(t);
            self.vbe.push(vbe);
            self.ic.push(ic);
            match i {
                0 => self.cold = (self.cold.0 + t, self.cold.1 + 1),
                2 => self.hot = (self.hot.0 + t, self.hot.1 + 1),
                _ => {
                    self.reference.get_or_insert((t, ic, vbe));
                }
            }
        }
    }

    fn mean((sum, n): (f64, u32)) -> f64 {
        if n > 0 {
            sum / f64::from(n)
        } else {
            f64::NAN
        }
    }
}

/// The die pipeline spelled out as its public layer calls: bench
/// measurement per corner, fault corruption and analytic extraction per
/// attempt, and the pooled robust fit, following the campaign's recovery
/// policy (retry budget, out-of-window fallback, adaptive probe).
struct Decomposed {
    bench: BenchScratch,
    pristine: Vec<PairCampaignPoint>,
    points: Vec<PairCampaignPoint>,
    pool: Pool,
    robust: RobustWorkspace,
    extract_calls: u64,
    robust_calls: u64,
}

impl Decomposed {
    fn new() -> Self {
        let mut bench = BenchScratch::new();
        bench.symbolic_cache = Some(Arc::new(SymbolicCache::new()));
        Decomposed {
            bench,
            pristine: Vec::new(),
            points: Vec::new(),
            pool: Pool::default(),
            robust: RobustWorkspace::new(),
            extract_calls: 0,
            robust_calls: 0,
        }
    }

    fn die(
        &mut self,
        spec: &CampaignSpec,
        site: DieSite,
        setpoints: &[Celsius],
        tr: &mut Tracer,
    ) -> Vec<CornerOutcome> {
        let id = site.index as u64;
        let sample = SampleFactory::seeded(stream_seed(spec.seed, id, Stream::Process))
            .with_spec(spec.variation)
            .draw(site.index + 1);
        let mut corners: Vec<CornerOutcome> = Vec::with_capacity(spec.corners.len());
        for (k, corner) in spec.corners.iter().enumerate() {
            if spec.adaptive && k > 0 && !corners[0].flags_escalation() {
                corners.push(CornerOutcome::skipped());
                continue;
            }
            let seed = stream_seed(spec.seed, id, Stream::Bench(k as u32));
            let mut bench = match spec.bench {
                BenchProfile::Paper => TestStructureBench::paper_bench(seed),
                BenchProfile::Ideal => TestStructureBench::ideal(seed),
            };
            let span = tr.begin("instrument", "measure", id);
            let measured = bench.run_pair_campaign_with(
                &sample,
                corner.ic,
                setpoints,
                &mut self.bench,
                &mut self.pristine,
                SolveMode::default(),
            );
            tr.end(span);
            corners.push(match measured {
                Ok(()) => self.recover(spec, id, k as u32, tr),
                Err(_) => quarantined(1),
            });
        }
        corners
    }

    /// Extraction attempts under the fault plan and retry budget, then the
    /// pooled robust fit, then the first out-of-window result.
    fn recover(
        &mut self,
        spec: &CampaignSpec,
        id: u64,
        corner: u32,
        tr: &mut Tracer,
    ) -> CornerOutcome {
        let inject = !spec.faults.is_none();
        let budget = if inject { 1 + spec.retry_budget } else { 1 };
        let pooling = inject && spec.robust;
        self.pool.clear();
        let mut had_error = false;
        let mut fallback: Option<(CornerValues, bool)> = None;
        let mut attempts = 0;
        for attempt in 0..budget {
            attempts = attempt + 1;
            self.points.clear();
            self.points.extend_from_slice(&self.pristine);
            if inject {
                let seed = stream_seed(spec.seed, id, Stream::Faults { corner, attempt });
                let points = &mut self.points;
                tr.time("instrument", "faults", id, || {
                    FaultPlan::new(spec.faults, seed).apply(points)
                });
            }
            self.extract_calls += 1;
            let points = &self.points;
            match tr.time("core", "extract", id, || extract_attempt(points)) {
                Some(v) => {
                    let bin = classify(&spec.window, &v);
                    if bin == YieldBin::Pass {
                        return outcome(bin, v, attempts, had_error);
                    }
                    fallback.get_or_insert((v, had_error));
                }
                None => had_error = true,
            }
            if pooling {
                self.pool.add(&self.points);
            }
        }
        if pooling {
            if let Some(out) = self.robust_fit(spec, id, attempts, tr) {
                return out;
            }
        }
        match fallback {
            Some((v, recovered)) => outcome(classify(&spec.window, &v), v, attempts, recovered),
            None => quarantined(attempts),
        }
    }

    /// The pooled Tukey IRLS eq.-13 fit; a passing outcome or `None`.
    fn robust_fit(
        &mut self,
        spec: &CampaignSpec,
        id: u64,
        attempts: u32,
        tr: &mut Tracer,
    ) -> Option<CornerOutcome> {
        let (t_ref, ic_ref, vbe_guess) = self.pool.reference?;
        // Three parameters need slack to reject outliers.
        if self.pool.t.len() < 4 {
            return None;
        }
        self.robust_calls += 1;
        let (pool, ws) = (&self.pool, &mut self.robust);
        let (p, fit) = tr.time("numerics", "robust_fit", id, || {
            let model = Eq13PointModel::new(&pool.t, &pool.vbe, &pool.ic, t_ref, ic_ref).ok()?;
            let options = RobustOptions {
                loss: RobustLoss::Tukey,
                ..RobustOptions::default()
            };
            let mut p = [1.16, 3.0, vbe_guess];
            let fit = fit_robust_with(&model, &mut p, &options, ws).ok()?;
            Some((p, fit))
        })?;
        let (eg, xti) = (p[0], p[1]);
        if !eg.is_finite() || !xti.is_finite() {
            return None;
        }
        // RMS over the inlier residuals, the robust analogue of the
        // analytic fit's residual figure.
        let (mut ss, mut n) = (0.0, 0u32);
        for (&r, &out) in ws.residuals().iter().zip(ws.outlier_flags()) {
            if !out && r.is_finite() {
                ss += r * r;
                n += 1;
            }
        }
        let (t_cold_k, t_hot_k) = (Pool::mean(pool.cold), Pool::mean(pool.hot));
        let v = CornerValues {
            eg_ev: eg,
            xti,
            rms_residual_v: if n > 0 {
                (ss / f64::from(n)).sqrt()
            } else {
                fit.scale
            },
            t_cold_k,
            t_hot_k,
            t_cold_err_k: t_cold_k - self.pristine[0].die_temperature.value(),
            t_hot_err_k: t_hot_k - self.pristine[2].die_temperature.value(),
        };
        let bin = classify(&spec.window, &v);
        (bin == YieldBin::Pass).then(|| CornerOutcome {
            robust_recovery: true,
            outliers_rejected: u32::try_from(fit.outliers).unwrap_or(u32::MAX),
            ..outcome(bin, v, attempts, true)
        })
    }
}
