//! The traced run: per-layer figures for one workload.
//!
//! Spans come from the benchmark's own code around calls into the public
//! layer functions. A traced campaign pass gives the program's counters
//! (read by key from `metrics_json`); a 1-thread replay of the same dies
//! through `run_die_with` and, decomposed, through
//! `TestStructureBench::run_pair_campaign_with`, `meijer::extract` and
//! `fit_robust_with` gives per-layer time; unit-cost loops give the cost
//! model. The replayed corner values must equal the campaign's bit for
//! bit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Duration, Instant};

use icvbe_campaign::die::CornerOutcome;
use icvbe_campaign::report::{aggregate_json, metrics_json, quarantine_json};
use icvbe_campaign::spec::CampaignSpec;
use icvbe_campaign::CampaignRun;
use icvbe_campaign::{run_campaign_streaming, run_campaign_with, RunOptions, StreamOptions};

use crate::digest::{run_digests, Gate};
use crate::ledger::Counters;
use crate::measure::{median, quantile, secs};
use crate::replay::replay;
use crate::report::Report;
use crate::serve;
use crate::spans::Tracer;
use crate::unit_cost::{self, UnitCosts};
use crate::workloads::{wafer_spec, Workload, WAFER_THREADS};

/// Traced run of `workload`: prints every per-layer metric.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    out: &Path,
    checkpoints: &Path,
    gate: &mut Gate,
) -> Report {
    let mut tr = Tracer::default();
    let mut report = Report::default();
    let mut layers = LayerFigures::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    match workload {
        Workload::ServeSmallJobs => {
            let specs = serve::specs(seed);
            serve_layers(
                seed,
                seconds,
                &specs,
                checkpoints,
                &mut tr,
                &mut layers,
                &mut report,
                gate,
            );
            campaign_layers(&specs, deadline, &mut tr, &mut layers, &mut report, gate);
        }
        w => {
            campaign_layers(
                &[wafer_spec(w, seed)],
                deadline,
                &mut tr,
                &mut layers,
                &mut report,
                gate,
            );
        }
    }
    let spans_path = out.join(format!("spans-{}-{seed}.csv", workload.name()));
    let written =
        std::fs::create_dir_all(out).and_then(|()| std::fs::write(&spans_path, tr.to_csv()));
    report.note(match written {
        Ok(()) => format!("{} spans written to {}", tr.len(), spans_path.display()),
        Err(e) => format!("spans not written: {e}"),
    });
    layers.push_into(&mut report, &tr);
    report
}

/// Per-layer figures gathered across the traced run.
#[derive(Debug, Default)]
struct LayerFigures {
    counters: Counters,
    render_ms: Vec<f64>,
    die_us: Vec<f64>,
    replay_traced_s: f64,
    replay_untraced_s: f64,
    decomposed_s: f64,
    extract_calls: u64,
    robust_calls: u64,
    units: Option<UnitCosts>,
    serve: BTreeMap<&'static str, f64>,
}

impl LayerFigures {
    fn push_into(&self, r: &mut Report, tr: &Tracer) {
        let c = &self.counters;
        let us = |v: &[f64], q: f64| quantile(v, q) / 1e3;
        let measure = tr.durations_ns("instrument", "measure");
        let extract = tr.durations_ns("core", "extract");
        let robust = tr.durations_ns("numerics", "robust_fit");
        r.push(
            "campaign.die_us_p50",
            quantile(&self.die_us, 0.5),
            "us",
            self.die_us.len(),
        );
        r.push(
            "campaign.die_us_p99",
            quantile(&self.die_us, 0.99),
            "us",
            self.die_us.len(),
        );
        r.push(
            "campaign.render_ms",
            median(&self.render_ms),
            "ms",
            self.render_ms.len(),
        );
        r.push(
            "instrument.measure_us_p50",
            us(&measure, 0.5),
            "us",
            measure.len(),
        );
        r.push(
            "instrument.measure_us_p99",
            us(&measure, 0.99),
            "us",
            measure.len(),
        );
        r.push(
            "thermal.selfheat_iters",
            c.value("solver.selfheat_iterations"),
            "count",
            1,
        );
        let solves = c.value("solver.solves");
        let evals = c.value("solver.device_evals");
        let reuses = c.value("solver.device_reuses");
        for (name, key) in [
            ("spice.solves", "solver.solves"),
            ("spice.device_evals", "solver.device_evals"),
            ("spice.device_reuses", "solver.device_reuses"),
            ("spice.bypass_hits", "solver.bypass_hits"),
            ("spice.lane_evals", "solver.lane_evals"),
            ("spice.batched_solves", "batching.batched_solves"),
            ("spice.lockstep_rounds", "batching.lockstep_rounds"),
            ("spice.restamp_incremental", "solver.restamp_incremental"),
            ("spice.restamp_full", "solver.restamp_full"),
            ("numerics.newton_iters", "solver.newton_iterations"),
            ("campaign.corners_retried", "recovery.corners_retried"),
            (
                "campaign.corners_quarantined",
                "recovery.corners_quarantined",
            ),
        ] {
            r.push(name, c.value(key), "count", 1);
        }
        r.push("spice.evals_per_solve", ratio(evals, solves), "count", 1);
        r.push(
            "spice.memo_hit_frac",
            ratio(reuses, evals + reuses),
            "frac",
            1,
        );
        r.push(
            "numerics.newton_per_solve",
            ratio(c.value("solver.newton_iterations"), solves),
            "count",
            1,
        );
        let units = self.units;
        r.push(
            "spice.solve_dc_us",
            units.map_or(0.0, |u| u.solve_dc_us),
            "us",
            15,
        );
        r.push(
            "numerics.lu_factor_solve_ns",
            units.map_or(0.0, |u| u.lu_factor_solve_ns),
            "ns",
            15,
        );
        r.push(
            "numerics.vexp_ns_per_elem",
            units.map_or(0.0, |u| u.vexp_ns_per_elem),
            "ns",
            15,
        );
        r.push(
            "numerics.robust_fit_us",
            us(&robust, 0.5),
            "us",
            robust.len(),
        );
        r.push("core.extract_us", us(&extract, 0.5), "us", extract.len());
        r.push("core.extract_calls", self.extract_calls as f64, "count", 1);
        for (name, unit) in [
            ("serve.connect_ms", "ms"),
            ("serve.admit_ms", "ms"),
            ("serve.queue_wait_ms", "ms"),
            ("serve.stream_ms", "ms"),
            ("serve.slices", "count"),
            ("serve.cache_hits", "count"),
            ("serve.cache_misses", "count"),
        ] {
            r.push(name, self.serve.get(name).copied().unwrap_or(0.0), unit, 1);
        }
        // Self time per layer over the decomposed replay and the service
        // loop, as a share of the traced wall time they cover.
        let self_ns =
            tr.self_ns_by_layer(&["die_decomposed", "connect", "admit", "queue_wait", "stream"]);
        let total: u64 = self_ns.values().sum();
        for layer in ["campaign", "instrument", "core", "numerics", "serve"] {
            let ns = self_ns.get(layer).copied().unwrap_or(0) as f64;
            r.push(
                &format!("{layer}.self_frac"),
                ratio(ns, total as f64),
                "frac",
                tr.len(),
            );
        }
        // Cost model over the decomposed replay: calls x median unit cost.
        let modelled = units.map_or(0.0, |u| solves * u.solve_dc_us * 1e3)
            + self.extract_calls as f64 * median_or_zero(&extract)
            + self.robust_calls as f64 * median_or_zero(&robust);
        r.push(
            "model.residual_frac",
            1.0 - ratio(modelled, self.decomposed_s * 1e9),
            "frac",
            1,
        );
        r.push(
            "trace.overhead_frac",
            ratio(self.replay_traced_s, self.replay_untraced_s) - 1.0,
            "frac",
            2,
        );
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Counter ledger, determinism check, replay and unit costs over `specs`.
/// Ledger re-runs repeat until `deadline`.
fn campaign_layers(
    specs: &[CampaignSpec],
    deadline: Instant,
    tr: &mut Tracer,
    layers: &mut LayerFigures,
    report: &mut Report,
    gate: &mut Gate,
) {
    for (k, spec) in specs.iter().enumerate() {
        let dies = spec.wafer.die_count();
        let mut captured: Vec<Vec<CornerOutcome>> = vec![Vec::new(); dies];
        let run = tr.time("campaign", "run", k as u64, || {
            run_campaign_streaming(spec, WAFER_THREADS, &StreamOptions::default(), |d, _| {
                captured[d.index] = d.corners.clone();
                ControlFlow::Continue(())
            })
        });
        report.attempted += 1;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                report.failed += 1;
                gate.check(false, || format!("traced campaign failed: {e}"));
                continue;
            }
        };
        let t0 = Instant::now();
        let metrics = tr.time("campaign", "render", k as u64, || {
            black_box((aggregate_json(&run), quarantine_json(&run)));
            metrics_json(&run)
        });
        layers.render_ms.push(secs(t0) * 1e3);
        let counters = Counters::from_metrics_json(&metrics);
        ledger_checks(spec, &run, &counters, deadline, report, gate);
        layers.counters.add(&counters);
        let fig = replay(spec, &captured, tr, gate);
        layers.replay_untraced_s += fig.untraced_s;
        layers.replay_traced_s += fig.traced_s;
        layers.decomposed_s += fig.decomposed_s;
        layers.die_us.extend(fig.die_ns.iter().map(|ns| ns / 1e3));
        layers.extract_calls += fig.extract_calls;
        layers.robust_calls += fig.robust_calls;
        if layers.units.is_none() {
            layers.units = tr.time("spice", "unit_costs", 0, || unit_cost::measure(spec));
        }
    }
}

/// The counters must repeat exactly at the same thread count, in every
/// re-run until `deadline` (at least one); counters that differ at 1
/// thread are reported, not pinned.
fn ledger_checks(
    spec: &CampaignSpec,
    run: &CampaignRun,
    counters: &Counters,
    deadline: Instant,
    report: &mut Report,
    gate: &mut Gate,
) {
    let digests = run_digests(run);
    let rerun = |threads: usize, report: &mut Report, gate: &mut Gate| {
        report.attempted += 1;
        match run_campaign_with(spec, threads, &RunOptions::default()) {
            Ok(again) => {
                gate.check(run_digests(&again) == digests, || {
                    format!("{threads}-thread re-run artifacts differ from the traced run's")
                });
                Some(Counters::from_metrics_json(&metrics_json(&again)))
            }
            Err(e) => {
                report.failed += 1;
                gate.check(false, || format!("ledger re-run failed: {e}"));
                None
            }
        }
    };
    loop {
        if let Some(again) = rerun(WAFER_THREADS, report, gate) {
            let repeat = counters.diff(&again);
            gate.check(repeat.is_empty(), || {
                format!("counters differ between two {WAFER_THREADS}-thread runs: {repeat:?}")
            });
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if let Some(one) = rerun(1, report, gate) {
        for (key, two, one) in counters.diff(&one) {
            report.note(format!(
                "counter {key}: {two} at {WAFER_THREADS} threads, {one} at 1 thread"
            ));
        }
    }
}

/// The service loop's layers: per-job phases from the tenants' client
/// timestamps, and the service counters read by key from `status`.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    seed: u64,
    seconds: u64,
    specs: &[CampaignSpec],
    checkpoints: &Path,
    tr: &mut Tracer,
    layers: &mut LayerFigures,
    report: &mut Report,
    gate: &mut Gate,
) {
    let served = match serve::start(seed, checkpoints) {
        Ok((served, _)) => served,
        Err(e) => {
            gate.check(false, || e);
            return;
        }
    };
    let (jobs, _) = serve::drive(served.addr(), specs, seconds as f64, serve::MIN_JOBS);
    let status = served.status();
    served.stop();
    report.attempted += jobs.len() as u64;
    report.failed += serve::check_jobs(&jobs, specs, seed, gate);

    let mut phases: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for j in jobs.iter().filter(|j| j.error.is_none()) {
        let at = |s: f64| j.started + Duration::from_secs_f64(s);
        for (span, name, from, to) in [
            ("connect", "serve.connect_ms", 0.0, j.connected_s),
            ("admit", "serve.admit_ms", j.connected_s, j.admitted_s),
            (
                "queue_wait",
                "serve.queue_wait_ms",
                j.admitted_s,
                j.first_die_s,
            ),
            ("stream", "serve.stream_ms", j.first_die_s, j.done_s),
        ] {
            tr.record("serve", span, j.job, at(from), at(to));
            phases.entry(name).or_default().push((to - from) * 1e3);
        }
    }
    for (name, v) in phases {
        layers.serve.insert(name, median(&v));
    }
    match status {
        Ok(st) => {
            let get = |a: &str, b: &str| st.get(a).and_then(|o| o.get(b)).and_then(|v| v.as_f64());
            for (name, a, b) in [
                ("serve.slices", "counters", "slices"),
                ("serve.cache_hits", "cache", "hits"),
                ("serve.cache_misses", "cache", "misses"),
            ] {
                layers.serve.insert(name, get(a, b).unwrap_or(0.0));
            }
        }
        Err(e) => gate.check(false, || format!("status: {e}")),
    }
    let mut served_counters = Counters::default();
    for j in &jobs {
        served_counters.add(&Counters::from_metrics_json(&j.metrics));
    }
    report.note(format!(
        "served jobs: {} solves, {} device evals over {} jobs",
        served_counters.value("solver.solves"),
        served_counters.value("solver.device_evals"),
        jobs.len()
    ));
}
