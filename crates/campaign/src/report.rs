//! Hand-rolled JSON and CSV report writers (no serde).
//!
//! Three artifact families with different contracts:
//!
//! - **aggregate** (`campaign_aggregate.json` / `.csv`): derived only from
//!   the deterministic fold, so the bytes are identical for any worker
//!   thread count — the campaign determinism tests compare them verbatim.
//!   The schema is frozen: fault-injection campaigns add *artifacts*, not
//!   columns, so a zero-fault run reproduces historical bytes exactly.
//! - **quarantine** (`campaign_quarantine.json` / `.csv`): the failure
//!   taxonomy — per-corner kind counts, recovery counts and one record per
//!   quarantined corner. Deterministic like the aggregate (it is part of
//!   the fold), and empty-but-present on a healthy campaign.
//! - **metrics** (`campaign_metrics.json`): wall-clock, throughput and
//!   stage histograms of one particular run; inherently non-deterministic
//!   and therefore kept out of the aggregate artifacts.
//!
//! Floats are emitted with Rust's shortest round-trip `Display`, which is
//! a pure function of the bits — determinism needs no fixed-precision
//! rounding. Non-finite values (an empty corner's min/max) become JSON
//! `null` / empty CSV cells.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::aggregate::{CornerAggregate, Welford, YieldBin};
use crate::spec::BenchProfile;
use crate::taxonomy::FailureKind;
use crate::worker::CampaignRun;

/// JSON number or `null` for non-finite input.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// CSV cell: empty for non-finite input.
fn cell(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        String::new()
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn welford_json(w: &Welford) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"std_dev\":{},\"min\":{},\"max\":{}}}",
        w.count(),
        num(w.mean()),
        num(w.std_dev()),
        num(w.min()),
        num(w.max()),
    )
}

fn corner_json(run: &CampaignRun, idx: usize, c: &CornerAggregate) -> String {
    // Frozen schema: the historical bins are emitted unconditionally so a
    // non-adaptive run reproduces historical report bytes exactly; the
    // `skipped` bin (adaptive scheduling) appears only when it counted
    // something.
    let mut bins = String::new();
    for b in YieldBin::ALL {
        if b.index() == YieldBin::Skipped.index() && c.bins[b.index()] == 0 {
            continue;
        }
        let _ = write!(bins, "\"{}\":{},", b.label(), c.bins[b.index()]);
    }
    format!(
        concat!(
            "    {{\n",
            "      \"name\":\"{name}\",\n",
            "      \"ic_amps\":{ic},\n",
            "      \"extracted\":{extracted},\n",
            "      \"eg_ev\":{eg},\n",
            "      \"xti\":{xti},\n",
            "      \"rms_residual_v\":{resid},\n",
            "      \"t_cold_err_k\":{tcold},\n",
            "      \"t_hot_err_k\":{thot},\n",
            "      \"straight\":{{\"slope_ev_per_xti\":{slope},\"intercept_ev\":{icept},\
             \"correlation\":{corr},\"r_squared\":{r2}}},\n",
            "      \"yield\":{{{bins}\"fraction\":{yf}}}\n",
            "    }}",
        ),
        name = esc(&c.name),
        ic = num(run.spec.corners[idx].ic.value()),
        extracted = c.eg_ev.count(),
        eg = welford_json(&c.eg_ev),
        xti = welford_json(&c.xti),
        resid = welford_json(&c.rms_residual_v),
        tcold = welford_json(&c.t_cold_err_k),
        thot = welford_json(&c.t_hot_err_k),
        slope = num(c.straight.slope()),
        icept = num(c.straight.intercept()),
        corr = num(c.straight.correlation()),
        r2 = num(c.straight.r_squared()),
        bins = bins,
        yf = num(c.yield_fraction()),
    )
}

/// The deterministic aggregate report as a JSON document.
#[must_use]
pub fn aggregate_json(run: &CampaignRun) -> String {
    let spec = &run.spec;
    let corners: Vec<String> = run
        .aggregate
        .corners
        .iter()
        .enumerate()
        .map(|(i, c)| corner_json(run, i, c))
        .collect();
    let [t1, t2, t3] = spec.plan.setpoints().map(|c| c.value());
    format!(
        concat!(
            "{{\n",
            "  \"schema\":\"icvbe-campaign-aggregate-v1\",\n",
            "  \"campaign\":{{\n",
            "    \"seed\":{seed},\n",
            "    \"wafer\":{{\"rows\":{rows},\"cols\":{cols},\"shape\":\"{shape}\",\
             \"dies\":{dies}}},\n",
            "    \"bench\":\"{bench}\",\n",
            "    \"plan_c\":[{t1},{t2},{t3}],\n",
            "    \"window\":{{\"eg_min\":{egmin},\"eg_max\":{egmax},\
             \"xti_min\":{xtimin},\"xti_max\":{ximax}}}\n",
            "  }},\n",
            "  \"totals\":{{\"dies\":{folded},\"dies_failed\":{failed}}},\n",
            "  \"corners\":[\n{corners}\n  ]\n",
            "}}\n",
        ),
        seed = spec.seed,
        rows = spec.wafer.rows(),
        cols = spec.wafer.cols(),
        shape = if spec.wafer.is_circular() {
            "circular"
        } else {
            "full"
        },
        dies = spec.wafer.die_count(),
        bench = match spec.bench {
            BenchProfile::Paper => "paper",
            BenchProfile::Ideal => "ideal",
        },
        t1 = num(t1),
        t2 = num(t2),
        t3 = num(t3),
        egmin = num(spec.window.eg_min),
        egmax = num(spec.window.eg_max),
        xtimin = num(spec.window.xti_min),
        ximax = num(spec.window.xti_max),
        folded = run.aggregate.dies,
        failed = run.aggregate.dies_failed,
        corners = corners.join(",\n"),
    )
}

/// The deterministic aggregate report as a wide CSV table (one row per
/// bias corner).
#[must_use]
pub fn aggregate_csv(run: &CampaignRun) -> String {
    // Frozen schema: the trailing `skipped` column (adaptive scheduling)
    // appears only when some corner actually skipped dies, so a
    // non-adaptive run reproduces historical CSV bytes exactly.
    let any_skipped = run
        .aggregate
        .corners
        .iter()
        .any(|c| c.bins[YieldBin::Skipped.index()] > 0);
    let mut out = String::from(
        "corner,ic_amps,extracted,\
         eg_mean_ev,eg_std_ev,eg_min_ev,eg_max_ev,\
         xti_mean,xti_std,xti_min,xti_max,\
         rms_residual_mean_v,t_cold_err_mean_k,t_hot_err_mean_k,\
         straight_slope_ev_per_xti,straight_intercept_ev,straight_r_squared,\
         pass,eg_low,eg_high,xti_low,xti_high,solve_fail,yield_fraction",
    );
    if any_skipped {
        out.push_str(",skipped");
    }
    out.push('\n');
    for (i, c) in run.aggregate.corners.iter().enumerate() {
        let skipped_cell = if any_skipped {
            format!(",{}", c.bins[YieldBin::Skipped.index()])
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}{skipped_cell}",
            c.name.replace(',', ";"),
            cell(run.spec.corners[i].ic.value()),
            c.eg_ev.count(),
            cell(c.eg_ev.mean()),
            cell(c.eg_ev.std_dev()),
            cell(c.eg_ev.min()),
            cell(c.eg_ev.max()),
            cell(c.xti.mean()),
            cell(c.xti.std_dev()),
            cell(c.xti.min()),
            cell(c.xti.max()),
            cell(c.rms_residual_v.mean()),
            cell(c.t_cold_err_k.mean()),
            cell(c.t_hot_err_k.mean()),
            cell(c.straight.slope()),
            cell(c.straight.intercept()),
            cell(c.straight.r_squared()),
            c.bins[YieldBin::Pass.index()],
            c.bins[YieldBin::EgLow.index()],
            c.bins[YieldBin::EgHigh.index()],
            c.bins[YieldBin::XtiLow.index()],
            c.bins[YieldBin::XtiHigh.index()],
            c.bins[YieldBin::SolveFail.index()],
            cell(c.yield_fraction()),
        );
    }
    out
}

/// The deterministic quarantine report as a JSON document: the fault
/// spec in force, per-corner taxonomy/recovery counts and one record per
/// quarantined corner.
#[must_use]
pub fn quarantine_json(run: &CampaignRun) -> String {
    let spec = &run.spec;
    let f = &spec.faults;
    let corners: Vec<String> = run
        .aggregate
        .corners
        .iter()
        .map(|c| {
            // Frozen schema: the historical kinds (indices `0..BASE`)
            // are emitted unconditionally so a zero-chaos run reproduces
            // historical report bytes exactly; the containment kinds
            // appear only when they actually counted something.
            let mut kinds = String::new();
            let mut recovered = String::new();
            for (i, k) in FailureKind::ALL.iter().enumerate() {
                if i < FailureKind::BASE || c.failures[i] > 0 {
                    let _ = write!(kinds, "\"{}\":{},", k.label(), c.failures[i]);
                }
                if i < FailureKind::BASE || c.recovered[i] > 0 {
                    let _ = write!(recovered, "\"{}\":{},", k.label(), c.recovered[i]);
                }
            }
            kinds.pop();
            recovered.pop();
            format!(
                concat!(
                    "    {{\n",
                    "      \"name\":\"{name}\",\n",
                    "      \"quarantined\":{{{kinds}}},\n",
                    "      \"recovered\":{{{recovered}}},\n",
                    "      \"robust_recoveries\":{robust},\n",
                    "      \"retries\":{retries},\n",
                    "      \"outliers_rejected\":{outliers}\n",
                    "    }}",
                ),
                name = esc(&c.name),
                kinds = kinds,
                recovered = recovered,
                robust = c.robust_recoveries,
                retries = c.retries,
                outliers = c.outliers_rejected,
            )
        })
        .collect();
    let records: Vec<String> = run
        .aggregate
        .quarantine
        .iter()
        .map(|r| {
            format!(
                "    {{\"die\":{},\"row\":{},\"col\":{},\"corner\":\"{}\",\
                 \"kind\":\"{}\",\"attempts\":{}}}",
                r.die,
                r.row,
                r.col,
                esc(&run.aggregate.corners[r.corner].name),
                r.kind.label(),
                r.attempts,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\":\"icvbe-campaign-quarantine-v1\",\n",
            "  \"faults\":{{\"noise_probability\":{noise_p},\
             \"noise_sigma_volts\":{noise_s},\"stuck_probability\":{stuck},\
             \"drop_probability\":{drop},\"drift_sigma_volts\":{drift},\
             \"nan_probability\":{nan}}},\n",
            "  \"retry_budget\":{budget},\n",
            "  \"robust\":{robust},\n",
            "  \"corners\":[\n{corners}\n  ],\n",
            "  \"records\":[{lead}{records}{trail}]\n",
            "}}\n",
        ),
        noise_p = num(f.noise_probability),
        noise_s = num(f.noise_sigma_volts),
        stuck = num(f.stuck_probability),
        drop = num(f.drop_probability),
        drift = num(f.drift_sigma_volts),
        nan = num(f.nan_probability),
        budget = spec.retry_budget,
        robust = spec.robust,
        corners = corners.join(",\n"),
        lead = if records.is_empty() { "" } else { "\n" },
        records = records.join(",\n"),
        trail = if records.is_empty() { "" } else { "\n  " },
    )
}

/// The deterministic quarantine report as CSV: one row per quarantined
/// corner (header only on a healthy campaign).
#[must_use]
pub fn quarantine_csv(run: &CampaignRun) -> String {
    let mut out = String::from("die,row,col,corner,kind,attempts\n");
    for r in &run.aggregate.quarantine {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.die,
            r.row,
            r.col,
            run.aggregate.corners[r.corner].name.replace(',', ";"),
            r.kind.label(),
            r.attempts,
        );
    }
    out
}

/// The per-run observability snapshot as a JSON document. **Not**
/// deterministic — contains wall-clock data.
#[must_use]
pub fn metrics_json(run: &CampaignRun) -> String {
    let m = &run.metrics;
    let stages: Vec<String> = m
        .stages
        .iter()
        .map(|s| {
            format!(
                "    {{\"stage\":\"{}\",\"count\":{},\"total_ns\":{},\"mean_ns\":{},\
                 \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
                esc(&s.name),
                s.count,
                s.total_ns,
                num(s.mean_ns()),
                s.p50_ns,
                s.p90_ns,
                s.p99_ns,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\":\"icvbe-campaign-metrics-v1\",\n",
            "  \"threads\":{threads},\n",
            "  \"dies_started\":{started},\n",
            "  \"dies_completed\":{completed},\n",
            "  \"dies_failed\":{failed},\n",
            "  \"elapsed_ns\":{elapsed},\n",
            "  \"dies_per_second\":{rate},\n",
            "  \"max_reorder_buffer\":{buf},\n",
            "  \"solver\":{{\"solves\":{solves},\"newton_iterations\":{newton},\
             \"newton_per_solve\":{npsolve},\"polish_iterations\":{polish},\
             \"cluster_maps\":{cmaps},\"selfheat_iterations\":{selfheat},\
             \"warm_start_hits\":{hits},\"warm_start_misses\":{misses},\
             \"warm_hit_rate\":{hitrate},\"device_evals\":{devevals},\
             \"device_reuses\":{devreuses},\
             \"device_cache_hit_rate\":{cacherate},\
             \"restamp_incremental\":{rsincr},\"restamp_full\":{rsfull},\
             \"restamp_savings\":{rssave},\"newton_per_die_p50\":{np50},\
             \"newton_per_die_p99\":{np99}}},\n",
            "  \"recovery\":{{\"corners_retried\":{retried},\
             \"corners_recovered\":{recovered},\"robust_recoveries\":{robust},\
             \"corners_quarantined\":{quarantined},\
             \"recovered_by_kind\":{{{bykind}}}}},\n",
            "  \"containment\":{{\"die_panics\":{cpanic},\
             \"budgets_exhausted\":{cbudget},\
             \"checkpoint_write_errors\":{cckwrite},\
             \"checkpoint_generation_fallbacks\":{cckfall}}},\n",
            "  \"stages\":[\n{stages}\n  ]\n",
            "}}\n",
        ),
        threads = m.threads,
        started = m.dies_started,
        completed = m.dies_completed,
        failed = m.dies_failed,
        elapsed = m.elapsed_ns,
        rate = num(m.dies_per_second),
        buf = m.max_reorder_buffer,
        solves = m.solver.solves,
        newton = m.solver.newton_iterations,
        npsolve = num(m.solver.newton_per_solve()),
        polish = m.solver.polish_iterations,
        cmaps = m.solver.cluster_maps,
        selfheat = m.solver.selfheat_iterations,
        hits = m.solver.warm_start_hits,
        misses = m.solver.warm_start_misses,
        hitrate = num(m.solver.warm_hit_rate()),
        devevals = m.solver.device_evals,
        devreuses = m.solver.device_reuses,
        cacherate = num(m.solver.device_cache_hit_rate()),
        rsincr = m.solver.restamp_incremental,
        rsfull = m.solver.restamp_full,
        rssave = num(m.solver.restamp_savings()),
        np50 = m.solver.newton_per_die_p50,
        np99 = m.solver.newton_per_die_p99,
        retried = m.recovery.corners_retried,
        recovered = m.recovery.corners_recovered,
        robust = m.recovery.robust_recoveries,
        quarantined = m.recovery.corners_quarantined,
        bykind = {
            let mut s = String::new();
            for k in FailureKind::ALL {
                let _ = write!(
                    s,
                    "\"{}\":{},",
                    k.label(),
                    m.recovery.recovered_by_kind[k.index()]
                );
            }
            s.pop();
            s
        },
        cpanic = m.containment.die_panics,
        cbudget = m.containment.budgets_exhausted,
        cckwrite = m.containment.checkpoint_write_errors,
        cckfall = m.containment.checkpoint_generation_fallbacks,
        stages = stages.join(",\n"),
    )
}

/// Writes the five report artifacts into `dir` (created if missing) and
/// returns the written paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_reports(dir: &Path, run: &CampaignRun) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let artifacts = [
        ("campaign_aggregate.json", aggregate_json(run)),
        ("campaign_aggregate.csv", aggregate_csv(run)),
        ("campaign_quarantine.json", quarantine_json(run)),
        ("campaign_quarantine.csv", quarantine_csv(run)),
        ("campaign_metrics.json", metrics_json(run)),
    ];
    let mut paths = Vec::with_capacity(artifacts.len());
    for (name, body) in artifacts {
        let path = dir.join(name);
        fs::write(&path, body)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, WaferMap};
    use crate::worker::run_campaign;

    fn tiny_run() -> CampaignRun {
        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 3);
        s.corners.truncate(2);
        run_campaign(&s, 2).unwrap()
    }

    #[test]
    fn json_has_expected_shape() {
        let run = tiny_run();
        let j = aggregate_json(&run);
        assert!(j.contains("\"schema\":\"icvbe-campaign-aggregate-v1\""));
        assert!(j.contains("\"dies\":4"));
        assert!(j.contains("\"name\":\"low\""));
        assert!(j.contains("\"name\":\"nom\""));
        assert!(j.contains("\"pass\":"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn csv_has_header_and_one_row_per_corner() {
        let run = tiny_run();
        let csv = aggregate_csv(&run);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("corner,ic_amps,extracted"));
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
    }

    #[test]
    fn metrics_json_reports_stages() {
        let run = tiny_run();
        let j = metrics_json(&run);
        assert!(j.contains("\"stage\":\"sample\""));
        assert!(j.contains("\"stage\":\"measure\""));
        assert!(j.contains("\"stage\":\"extract\""));
        assert!(j.contains("\"dies_completed\":4"));
        assert!(!j.contains("\"batching\""));
        assert!(!j.contains("lane"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn non_finite_values_do_not_leak_into_json() {
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(cell(f64::NEG_INFINITY), "");
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn write_reports_persists_five_artifacts() {
        let run = tiny_run();
        let dir = std::env::temp_dir().join("icvbe_campaign_report_test");
        let _ = fs::remove_dir_all(&dir);
        let paths = write_reports(&dir, &run).unwrap();
        assert_eq!(paths.len(), 5);
        for p in &paths {
            assert!(p.exists());
            assert!(fs::metadata(p).unwrap().len() > 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_report_is_well_formed_and_empty_when_healthy() {
        let run = tiny_run();
        let j = quarantine_json(&run);
        assert!(j.contains("\"schema\":\"icvbe-campaign-quarantine-v1\""));
        assert!(j.contains("\"records\":[]"));
        assert!(j.contains("\"non_convergence\":0"));
        assert!(j.contains("\"outlier_rejected\":0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        let csv = quarantine_csv(&run);
        assert_eq!(csv, "die,row,col,corner,kind,attempts\n");
    }

    #[test]
    fn quarantine_report_lists_faulted_corners() {
        use icvbe_instrument::faults::FaultSpec;
        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 3);
        s.corners.truncate(1);
        s.faults = FaultSpec {
            nan_probability: 1.0,
            ..FaultSpec::none()
        };
        s.robust = false;
        let run = run_campaign(&s, 1).unwrap();
        let csv = quarantine_csv(&run);
        assert_eq!(csv.lines().count(), 1 + 4, "all four dies quarantined");
        assert!(csv.contains("non_finite_input"));
        let j = quarantine_json(&run);
        assert!(j.contains("\"non_finite_input\":4"));
        assert!(j.contains("\"nan_probability\":1"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
