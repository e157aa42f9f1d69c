//! Unit costs of single calls into the solve layers, timed on the pair
//! cell of one die: a warm DC solve, one sparse LU factor + solve through
//! the cell's frozen symbolic plan, and the vector exponential.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use icvbe_campaign::seeding::{stream_seed, Stream};
use icvbe_campaign::spec::CampaignSpec;
use icvbe_instrument::bench::{SolveMode, TestStructureBench};
use icvbe_instrument::montecarlo::SampleFactory;
use icvbe_numerics::newton::NonlinearSystem;
use icvbe_numerics::sparse::SparseLu;
use icvbe_numerics::vexp::vexp_slice;
use icvbe_numerics::Matrix;
use icvbe_spice::stamp::EvalContext;
use icvbe_spice::system::{CircuitAssembly, CircuitSystem};
use icvbe_spice::workspace::{solve_dc_with, SolveWorkspace};
use icvbe_units::Kelvin;

use crate::measure::median;

/// Timed batches per unit cost; each cost is the median batch.
const BATCHES: usize = 15;

/// Median unit costs.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// One warm-started DC solve of the pair cell, µs.
    pub solve_dc_us: f64,
    /// One `SparseLu::factor_from` + `solve_into` at the cell's size, ns.
    pub lu_factor_solve_ns: f64,
    /// `vexp_slice`, ns per element.
    pub vexp_ns_per_elem: f64,
}

/// Median over [`BATCHES`] of the per-call time of `calls` calls, ns.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Times the unit costs on die 0 of `spec` at its nominal (middle) bias
/// corner, with the campaign's DC options. `None` if the cell does not
/// build or solve.
#[must_use]
pub fn measure(spec: &CampaignSpec) -> Option<UnitCosts> {
    let sample = SampleFactory::seeded(stream_seed(spec.seed, 0, Stream::Process))
        .with_spec(spec.variation)
        .draw(1);
    let bias = spec.corners[spec.corners.len() / 2].ic;
    let (circuit, _, _) = sample.pair_structure(bias).build().ok()?;
    let assembly = CircuitAssembly::new(&circuit).ok()?;
    let options = TestStructureBench::campaign_dc_options_with(SolveMode::default());
    let mut ws = SolveWorkspace::new();
    let base = spec.plan.reference.to_kelvin().value();

    // Warm solves at temperatures a self-heating iteration apart, each
    // seeded from the previous solution, as in a campaign sweep.
    let mut warm = Vec::new();
    solve_dc_with(
        &circuit,
        &assembly,
        Kelvin::new(base),
        &options,
        None,
        &mut ws,
    )
    .ok()?;
    warm.extend_from_slice(ws.solution());
    let solve_ns = per_call_ns(200, |i| {
        let t = Kelvin::new(base + 1e-3 * (i % 8) as f64);
        if solve_dc_with(&circuit, &assembly, t, &options, Some(&warm), &mut ws).is_ok() {
            warm.clear();
            warm.extend_from_slice(ws.solution());
        }
    });

    let plan = assembly.symbolic_plan()?;
    let n = assembly.dimension();
    let eval = EvalContext {
        temperature: Kelvin::new(base),
        gmin: options.gmin_floor,
        source_scale: 1.0,
    };
    let mut jac = Matrix::zeros(n, n);
    CircuitSystem::with_assembly(&circuit, eval, &assembly)
        .jacobian(&warm, &mut jac)
        .ok()?;
    let mut lu = SparseLu::new(Arc::clone(&plan));
    let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    let mut x = vec![0.0; n];
    lu.factor_from(&jac).ok()?;
    let lu_ns = per_call_ns(2000, |_| {
        let _ = lu.factor_from(black_box(&jac));
        let _ = lu.solve_into(black_box(&rhs), &mut x);
        black_box(&x);
    });

    // Junction arguments VBE/VT of a forward-biased device and its
    // reverse-biased neighbour.
    let args: Vec<f64> = (0..4096)
        .map(|i| -40.0 + 70.0 * i as f64 / 4096.0)
        .collect();
    let mut out = vec![0.0; args.len()];
    let vexp_ns = per_call_ns(200, |_| {
        vexp_slice(black_box(&args), &mut out);
        black_box(&out);
    }) / args.len() as f64;

    Some(UnitCosts {
        solve_dc_us: solve_ns / 1e3,
        lu_factor_solve_ns: lu_ns,
        vexp_ns_per_elem: vexp_ns,
    })
}
