//! DC analyses built on the operating-point solver: parameter sweeps,
//! temperature sweeps with warm starting, and multi-RHS small-signal
//! solves against a single Jacobian factorization.
//!
//! All sweep points share one [`CircuitAssembly`] and one
//! [`SolveWorkspace`], so the frozen symbolic factorization, the
//! incremental restamping plan, and the device caches survive from point
//! to point exactly as they do inside a campaign die. The solve path is
//! a pure speed knob: results are bitwise identical whether the sparse
//! plan or the dense fallback ran.

use icvbe_numerics::lu::LuFactors;
use icvbe_numerics::newton::NonlinearSystem;
use icvbe_numerics::Matrix;
use icvbe_units::Kelvin;

use crate::netlist::Circuit;
use crate::param::Param;
use crate::solver::{DcOptions, OperatingPoint};
use crate::stamp::EvalContext;
use crate::system::{CircuitAssembly, CircuitSystem};
use crate::workspace::{solve_dc_with, SolveWorkspace};
use crate::SpiceError;

/// Sweeps a [`Param`]-bound source or component value over `values`,
/// solving the DC point at each step with the previous solution as the
/// warm start.
///
/// The circuit is compiled once; every step reuses the same assembly and
/// workspace, so steps after the first restamp incrementally and solve
/// through the frozen sparse plan.
///
/// Returns one operating point per value, in order.
///
/// # Errors
///
/// Propagates the first solver failure, restoring the parameter to its
/// original value either way.
///
/// # Examples
///
/// ```
/// use icvbe_spice::element::{Resistor, VoltageSource};
/// use icvbe_spice::netlist::Circuit;
/// use icvbe_spice::param::Param;
/// use icvbe_spice::solver::DcOptions;
/// use icvbe_spice::sweep::dc_sweep;
/// use icvbe_units::{Kelvin, Ohm, Volt};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let vin = Param::new(0.0);
/// ckt.add(VoltageSource::new("V1", a, Circuit::ground(), Volt::new(0.0)).with_handle(vin.clone()));
/// ckt.add(Resistor::new("R1", a, Circuit::ground(), Ohm::new(1e3))?);
/// let pts = dc_sweep(&ckt, &vin, &[0.0, 1.0, 2.0], Kelvin::new(300.0), &DcOptions::default())?;
/// assert_eq!(pts.len(), 3);
/// assert!((pts[2].voltage(a).value() - 2.0).abs() < 1e-9);
/// # Ok::<(), icvbe_spice::SpiceError>(())
/// ```
pub fn dc_sweep(
    circuit: &Circuit,
    param: &Param,
    values: &[f64],
    temperature: Kelvin,
    options: &DcOptions,
) -> Result<Vec<OperatingPoint>, SpiceError> {
    let original = param.get();
    let assembly = CircuitAssembly::new(circuit)?;
    let mut ws = SolveWorkspace::new();
    let mut out = Vec::with_capacity(values.len());
    let mut warm: Option<Vec<f64>> = None;
    for &v in values {
        param.set(v);
        match solve_dc_with(
            circuit,
            &assembly,
            temperature,
            options,
            warm.as_deref(),
            &mut ws,
        ) {
            Ok(info) => {
                let x = ws.solution().to_vec();
                warm = Some(x.clone());
                out.push(OperatingPoint::from_parts(
                    x,
                    &assembly,
                    temperature,
                    info.iterations,
                ));
            }
            Err(e) => {
                param.set(original);
                return Err(e);
            }
        }
    }
    param.set(original);
    Ok(out)
}

/// Solves the circuit across a list of temperatures, warm-starting each
/// point from the previous one through a single compiled assembly.
///
/// # Errors
///
/// Propagates the first solver failure, labelled with the temperature.
pub fn temperature_sweep(
    circuit: &Circuit,
    temperatures: &[Kelvin],
    options: &DcOptions,
) -> Result<Vec<OperatingPoint>, SpiceError> {
    let assembly = CircuitAssembly::new(circuit)?;
    let mut ws = SolveWorkspace::new();
    let mut out = Vec::with_capacity(temperatures.len());
    let mut warm: Option<Vec<f64>> = None;
    for &t in temperatures {
        match solve_dc_with(circuit, &assembly, t, options, warm.as_deref(), &mut ws) {
            Ok(info) => {
                let x = ws.solution().to_vec();
                warm = Some(x.clone());
                out.push(OperatingPoint::from_parts(x, &assembly, t, info.iterations));
            }
            Err(e) => {
                return Err(SpiceError::NoConvergence {
                    strategy: format!("temperature sweep at {t}: {e}"),
                    residual: f64::NAN,
                });
            }
        }
    }
    Ok(out)
}

/// Builds an inclusive linear grid of `n` temperatures between `lo` and
/// `hi` (single point if `n == 1`).
#[must_use]
pub fn temperature_grid(lo: Kelvin, hi: Kelvin, n: usize) -> Vec<Kelvin> {
    if n <= 1 {
        return vec![lo];
    }
    (0..n)
        .map(|i| {
            let f = i as f64 / (n - 1) as f64;
            Kelvin::new(lo.value() + f * (hi.value() - lo.value()))
        })
        .collect()
}

/// Solves the linearized (small-signal) system at a solved operating
/// point for many right-hand sides against **one** Jacobian
/// factorization.
///
/// `rhs` holds `k` stacked excitation vectors, each of length
/// `assembly.dimension()` (node-current injections followed by branch
/// voltage excitations, in MNA unknown order); `out` receives the `k`
/// response vectors in the same layout. The MNA Jacobian is evaluated
/// once at `op`, LU-factored once, and every column is a
/// back-substitution — the classic AC/sensitivity pattern where
/// factoring dominates and extra right-hand sides are nearly free.
///
/// # Errors
///
/// - [`SpiceError::Numerics`] if the Jacobian is singular at `op` or the
///   `rhs`/`out` lengths are not matching multiples of the dimension.
pub fn small_signal_solve(
    circuit: &Circuit,
    assembly: &CircuitAssembly,
    op: &OperatingPoint,
    options: &DcOptions,
    rhs: &[f64],
    out: &mut [f64],
) -> Result<(), SpiceError> {
    let eval = EvalContext {
        temperature: op.temperature(),
        gmin: options.gmin_floor,
        source_scale: 1.0,
    };
    let system = CircuitSystem::with_assembly(circuit, eval, assembly);
    let n = assembly.dimension();
    let mut jac = Matrix::zeros(n, n);
    system.jacobian(op.solution(), &mut jac)?;
    let mut lu = LuFactors::new();
    lu.factor_from(&jac)?;
    lu.solve_many_into(rhs, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bjt::{Bjt, BjtParams, Polarity};
    use crate::element::{CurrentSource, Resistor};
    use crate::netlist::Circuit;
    use crate::solver::solve_dc;
    use icvbe_units::{Ampere, Ohm};

    #[test]
    fn temperature_grid_endpoints() {
        let g = temperature_grid(Kelvin::new(223.15), Kelvin::new(398.15), 8);
        assert_eq!(g.len(), 8);
        assert!((g[0].value() - 223.15).abs() < 1e-12);
        assert!((g[7].value() - 398.15).abs() < 1e-12);
    }

    #[test]
    fn temperature_grid_single_point() {
        let g = temperature_grid(Kelvin::new(300.0), Kelvin::new(400.0), 1);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].value(), 300.0);
    }

    #[test]
    fn sweep_restores_param_value() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let p = Param::new(1e-6);
        c.add(
            CurrentSource::new("I1", Circuit::ground(), a, Ampere::new(0.0)).with_handle(p.clone()),
        );
        c.add(Resistor::new("R1", a, Circuit::ground(), Ohm::new(1e3)).unwrap());
        let _ = dc_sweep(
            &c,
            &p,
            &[1e-6, 2e-6, 3e-6],
            Kelvin::new(300.0),
            &DcOptions::default(),
        )
        .unwrap();
        assert_eq!(p.get(), 1e-6);
    }

    #[test]
    fn vbe_falls_with_temperature_in_sweep() {
        // A diode-connected PNP under constant current: VEB must fall with
        // temperature at roughly -2 mV/K.
        let mut c = Circuit::new();
        let e = c.node("e");
        let gnd = Circuit::ground();
        c.add(CurrentSource::new("Ibias", gnd, e, Ampere::new(1e-6)));
        c.add(Bjt::new("Q1", gnd, gnd, e, Polarity::Pnp, BjtParams::default_npn()).unwrap());
        let temps = temperature_grid(Kelvin::new(248.15), Kelvin::new(348.15), 5);
        let pts = temperature_sweep(&c, &temps, &DcOptions::default()).unwrap();
        let vs: Vec<f64> = pts.iter().map(|p| p.voltage(e).value()).collect();
        for w in vs.windows(2) {
            assert!(w[1] < w[0], "VEB not falling: {vs:?}");
        }
        let slope = (vs[4] - vs[0]) / 100.0;
        assert!(slope < -1.2e-3 && slope > -3e-3, "slope {slope}");
    }

    /// The PNP test structure used by every bit-identity test below.
    fn pnp_under_bias() -> (Circuit, crate::netlist::NodeId) {
        let mut c = Circuit::new();
        let e = c.node("e");
        let gnd = Circuit::ground();
        c.add(CurrentSource::new("Ibias", gnd, e, Ampere::new(1e-6)));
        c.add(Bjt::new("Q1", gnd, gnd, e, Polarity::Pnp, BjtParams::default_npn()).unwrap());
        (c, e)
    }

    #[test]
    fn sweep_results_follow_setpoint_order() {
        // Each returned point belongs to its setpoint, regardless of the
        // direction the sweep walked the axis.
        let mut c = Circuit::new();
        let a = c.node("a");
        let p = Param::new(1e-6);
        c.add(
            CurrentSource::new("I1", Circuit::ground(), a, Ampere::new(0.0)).with_handle(p.clone()),
        );
        c.add(Resistor::new("R1", a, Circuit::ground(), Ohm::new(1e3)).unwrap());
        let up = dc_sweep(
            &c,
            &p,
            &[1e-6, 2e-6, 3e-6],
            Kelvin::new(300.0),
            &DcOptions::default(),
        )
        .unwrap();
        let down = dc_sweep(
            &c,
            &p,
            &[3e-6, 2e-6, 1e-6],
            Kelvin::new(300.0),
            &DcOptions::default(),
        )
        .unwrap();
        for (i, (u, d)) in up.iter().zip(down.iter().rev()).enumerate() {
            let vu = u.voltage(a).value();
            let vd = d.voltage(a).value();
            assert!((vu - (i + 1) as f64 * 1e-3).abs() < 1e-9, "point {i}: {vu}");
            assert!((vu - vd).abs() < 1e-9, "order-dependent point {i}");
        }
    }

    #[test]
    fn single_point_sweep_matches_standalone_solve_bitwise() {
        // A one-value sweep takes the same dense first-solve path as
        // `solve_dc` on a fresh assembly: the answer must be bit-equal.
        let (c, e) = pnp_under_bias();
        let t = Kelvin::new(300.0);
        let opts = DcOptions::default();
        let swept = temperature_sweep(&c, &[t], &opts).unwrap();
        let standalone = solve_dc(&c, t, &opts, None).unwrap();
        assert_eq!(swept.len(), 1);
        assert_eq!(
            swept[0].voltage(e).value().to_bits(),
            standalone.voltage(e).value().to_bits()
        );
        assert_eq!(swept[0].solution(), standalone.solution());
    }

    #[test]
    fn sparse_and_dense_paths_are_bit_identical() {
        // The frozen symbolic plan kicks in from the second point of the
        // sparse sweep; every point must still match the dense fallback
        // bit for bit.
        let (c, _) = pnp_under_bias();
        let temps = temperature_grid(Kelvin::new(248.15), Kelvin::new(348.15), 7);
        let sparse = DcOptions {
            sparse: true,
            ..DcOptions::default()
        };
        let dense = DcOptions {
            sparse: false,
            ..DcOptions::default()
        };
        let a = temperature_sweep(&c, &temps, &sparse).unwrap();
        let b = temperature_sweep(&c, &temps, &dense).unwrap();
        for (i, (pa, pb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(pa.solution(), pb.solution(), "point {i} diverged");
        }
    }

    #[test]
    fn small_signal_scales_linearly_across_rhs_columns() {
        // One resistor to ground: the Jacobian is the 1x1 conductance
        // matrix, so unit current injections map to R-scaled voltages and
        // stacked right-hand sides solve column by column.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(CurrentSource::new(
            "I1",
            Circuit::ground(),
            a,
            Ampere::new(1e-6),
        ));
        c.add(Resistor::new("R1", a, Circuit::ground(), Ohm::new(1e3)).unwrap());
        let opts = DcOptions::default();
        let op = solve_dc(&c, Kelvin::new(300.0), &opts, None).unwrap();
        let assembly = CircuitAssembly::new(&c).unwrap();
        assert_eq!(assembly.dimension(), 1);
        let rhs = [1e-6, 2e-6, -4e-6];
        let mut out = [0.0; 3];
        small_signal_solve(&c, &assembly, &op, &opts, &rhs, &mut out).unwrap();
        assert!((out[0] - 1e-3).abs() < 1e-9, "unit response {}", out[0]);
        assert_eq!((2.0 * out[0]).to_bits(), out[1].to_bits());
        assert_eq!((-4.0 * out[0]).to_bits(), out[2].to_bits());
    }
}
