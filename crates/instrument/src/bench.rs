//! Campaign orchestration: the full measurement chain from chamber
//! setpoint to extraction-ready data.
//!
//! For every setpoint the bench:
//!
//! 1. soaks the chamber (ambient = setpoint + controller offset),
//! 2. solves the electro-thermal fixed point — the pair structure plus the
//!    rest of the die dissipate power through the package, so the junction
//!    runs above ambient,
//! 3. solves the circuit at the *junction* temperature,
//! 4. reads the Pt100 (which sees the case, not the junction) and the SMU
//!    channels (which see noise, gain error and quantization).
//!
//! The output is exactly what the paper's extraction consumed: sensor
//! temperatures, `VBE`/`dVBE` readings and bias currents — with the die
//! truth retained alongside for validation.

use std::error::Error;
use std::fmt;

use icvbe_bandgap::pair::CompiledPair;
use icvbe_core::meijer::{MeijerMeasurement, MeijerPoint};
use icvbe_spice::solver::DcOptions;
use icvbe_spice::workspace::{SolveStats, SolveWorkspace};
use icvbe_thermal::chamber::ThermalChamber;
use icvbe_thermal::network::ThermalPath;
use icvbe_thermal::selfheat::solve_die_temperature;
use icvbe_thermal::ThermalError;
use icvbe_units::{Ampere, Celsius, Kelvin, Volt};

use crate::montecarlo::DieSample;
use crate::pt100::Pt100Sensor;
use crate::smu::VirtualSmu;

/// Error produced by a measurement campaign.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// The circuit solver failed at some setpoint.
    Circuit(icvbe_spice::SpiceError),
    /// The electro-thermal fixed point failed.
    Thermal(ThermalError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Circuit(e) => write!(f, "circuit solve failed: {e}"),
            BenchError::Thermal(e) => write!(f, "thermal solve failed: {e}"),
        }
    }
}

impl Error for BenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchError::Circuit(e) => Some(e),
            BenchError::Thermal(e) => Some(e),
        }
    }
}

#[doc(hidden)]
impl From<icvbe_spice::SpiceError> for BenchError {
    fn from(e: icvbe_spice::SpiceError) -> Self {
        BenchError::Circuit(e)
    }
}

#[doc(hidden)]
impl From<ThermalError> for BenchError {
    fn from(e: ThermalError) -> Self {
        BenchError::Thermal(e)
    }
}

/// One measured setpoint of the pair structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCampaignPoint {
    /// Chamber setpoint.
    pub setpoint: Kelvin,
    /// What the Pt100 reported (the paper's "measured temperature").
    pub sensor_temperature: Kelvin,
    /// Ground-truth junction temperature (not available to a real bench).
    pub die_temperature: Kelvin,
    /// SMU reading of `VBE(QA)`.
    pub vbe_a: Volt,
    /// SMU reading of `VBE(QB)`.
    pub vbe_b: Volt,
    /// SMU reading of the differential `dVBE` (includes the readout-chain
    /// offset of the die sample).
    pub dvbe: Volt,
    /// SMU reading of QA's collector current.
    pub ic_a: Ampere,
    /// SMU reading of QB's collector current.
    pub ic_b: Ampere,
}

/// How the compiled measurement path drives the circuit solver.
///
/// Every switch is a pure speed/observability knob: polishing (always on
/// for campaigns) makes the measured points bit-identical across all four
/// combinations — only the iteration and stamping counters differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveMode {
    /// Seed each circuit solve from the previous converged solution.
    pub warm_start: bool,
    /// Factor through the frozen symbolic sparsity plan instead of dense
    /// LU (bitwise-identical results).
    pub sparse: bool,
}

impl Default for SolveMode {
    fn default() -> Self {
        SolveMode {
            warm_start: true,
            sparse: true,
        }
    }
}

impl SolveMode {
    /// The ablation baseline: cold starts, dense LU.
    #[must_use]
    pub fn baseline() -> Self {
        SolveMode {
            warm_start: false,
            sparse: false,
        }
    }
}

/// Per-thread scratch for the warm measurement path: solver buffers plus
/// iteration counters.
///
/// One scratch serves any number of dies sequentially; nothing in it
/// affects results, only speed and observability. The embedded
/// [`SolveStats`] and the self-heating counter let the campaign layer
/// report Newton iteration counts and warm-start hit rates without
/// re-plumbing every call site.
#[derive(Debug, Default)]
pub struct BenchScratch {
    /// Circuit solver workspace (Newton/LU buffers + solve statistics).
    pub solve: SolveWorkspace,
    /// Electro-thermal fixed-point iterations accumulated.
    pub selfheat_iterations: u64,
    /// Optional process-wide symbolic-LU plan cache, installed on every
    /// pair compiled through this scratch. `None` (the default) keeps the
    /// historical per-assembly analysis; results are identical either way.
    pub symbolic_cache: Option<std::sync::Arc<icvbe_spice::cache::SymbolicCache>>,
}

impl BenchScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        BenchScratch::default()
    }

    /// Returns and resets the accumulated `(solve stats, self-heating
    /// iterations)`.
    pub fn take_counters(&mut self) -> (SolveStats, u64) {
        let stats = self.solve.stats.take();
        let selfheat = std::mem::take(&mut self.selfheat_iterations);
        (stats, selfheat)
    }
}

/// The virtual bench: thermal environment plus instruments.
#[derive(Debug)]
pub struct TestStructureBench {
    /// Junction-to-ambient path of the packaged die (scaled per sample).
    pub path: ThermalPath,
    /// Power dissipated by the rest of the die (other structures, the
    /// bias network, the output stage driving the pads), in watts. Treated
    /// as temperature-independent: the chip runs from a fixed supply.
    pub auxiliary_power_watts: f64,
    /// The parameter analyser.
    pub smu: VirtualSmu,
    /// The contact temperature sensor.
    pub sensor: Pt100Sensor,
    /// Chamber controller steady-state offset, kelvin.
    pub chamber_offset: f64,
}

impl TestStructureBench {
    /// The paper's bench: ceramic package in a hermetic partition,
    /// HP4156-class SMU, Pt100 sensor.
    #[must_use]
    pub fn paper_bench(seed: u64) -> Self {
        TestStructureBench {
            // A small ceramic package in the still air of the hermetic
            // partition: higher case-to-ambient resistance than a bench in
            // free air.
            path: ThermalPath::still_air_dip(),
            auxiliary_power_watts: 200e-3,
            smu: VirtualSmu::hp4156_class(seed),
            sensor: Pt100Sensor::paper_bench(seed.wrapping_add(1)),
            chamber_offset: 0.0,
        }
    }

    /// An idealized bench: no self-heating, perfect instruments. Useful to
    /// isolate the effect of any single imperfection.
    #[must_use]
    pub fn ideal(seed: u64) -> Self {
        TestStructureBench {
            path: ThermalPath::ideal(),
            auxiliary_power_watts: 0.0,
            smu: VirtualSmu::ideal(seed),
            sensor: Pt100Sensor::ideal(seed.wrapping_add(1)),
            chamber_offset: 0.0,
        }
    }

    /// Measures one die at one chamber setpoint.
    ///
    /// # Errors
    ///
    /// Propagates circuit and thermal solve failures.
    pub fn measure_pair_at(
        &mut self,
        sample: &DieSample,
        bias: Ampere,
        setpoint: Celsius,
    ) -> Result<PairCampaignPoint, BenchError> {
        let structure = sample.pair_structure(bias);
        let chamber = ThermalChamber::new(setpoint.to_kelvin(), self.chamber_offset);
        let path = self.path.scaled(sample.rth_scale)?;
        let ambient = chamber.ambient();

        // Electro-thermal fixed point: the structure + the rest of the die
        // heat the junction; the pair's own dissipation depends on its
        // (junction) temperature through the solved circuit.
        let aux = self.auxiliary_power_watts;
        let die = solve_die_temperature(
            ambient,
            &path,
            |t| {
                let p_pair = structure
                    .measure(t)
                    .map(|r| structure.power_watts(&r))
                    .unwrap_or(0.0);
                p_pair + aux
            },
            1e-4,
            60,
        )?;

        let reading = structure.measure(die.temperature)?;
        let case = chamber.sensor_reading(&path, die.power_watts);
        let sensor_temperature = self.sensor.read(case);

        Ok(PairCampaignPoint {
            setpoint: setpoint.to_kelvin(),
            sensor_temperature,
            die_temperature: die.temperature,
            vbe_a: self.smu.measure_voltage(reading.vbe_a),
            vbe_b: self.smu.measure_voltage(reading.vbe_b),
            dvbe: self.smu.measure_voltage(reading.dvbe),
            ic_a: self.smu.measure_current(reading.ic_a),
            ic_b: self.smu.measure_current(reading.ic_b),
        })
    }

    /// Runs a full setpoint sweep on one die.
    ///
    /// # Errors
    ///
    /// Propagates the first failing setpoint.
    pub fn run_pair_campaign(
        &mut self,
        sample: &DieSample,
        bias: Ampere,
        setpoints: &[Celsius],
    ) -> Result<Vec<PairCampaignPoint>, BenchError> {
        setpoints
            .iter()
            .map(|&c| self.measure_pair_at(sample, bias, c))
            .collect()
    }

    /// Solver options the hot path runs with: campaign defaults plus
    /// Newton polishing, which makes every solve's result bitwise
    /// independent of its starting point — the property that lets
    /// warm-started sweeps reproduce cold-started ones exactly.
    #[must_use]
    pub fn campaign_dc_options() -> DcOptions {
        let mut options = DcOptions::default();
        options.newton.polish = true;
        options
    }

    /// [`TestStructureBench::campaign_dc_options`] specialized to a
    /// [`SolveMode`]: the sparse switch maps directly.
    #[must_use]
    pub fn campaign_dc_options_with(mode: SolveMode) -> DcOptions {
        let mut options = TestStructureBench::campaign_dc_options();
        options.sparse = mode.sparse;
        options
    }

    /// [`TestStructureBench::run_pair_campaign`] for the hot path: the
    /// circuit is compiled once for the whole sweep, the thermal path is
    /// scaled once, solver storage comes from `scratch`, and results are
    /// appended to the caller's `out` buffer (cleared first).
    ///
    /// With `mode.warm_start`, every circuit solve after the first is
    /// seeded from the previous converged solution — across self-heating
    /// iterations *and* across setpoints. Solves run with
    /// [`TestStructureBench::campaign_dc_options_with`] (Newton polishing
    /// plus the mode's sparse switch), so the measured points are
    /// bit-identical across every [`SolveMode`]; only the iteration and
    /// stamping counters differ.
    ///
    /// # Errors
    ///
    /// Propagates the first failing setpoint.
    pub fn run_pair_campaign_with(
        &mut self,
        sample: &DieSample,
        bias: Ampere,
        setpoints: &[Celsius],
        scratch: &mut BenchScratch,
        out: &mut Vec<PairCampaignPoint>,
        mode: SolveMode,
    ) -> Result<(), BenchError> {
        out.clear();
        let mut compiled = sample.pair_structure(bias).compile()?;
        if let Some(cache) = &scratch.symbolic_cache {
            compiled.use_symbolic_cache(std::sync::Arc::clone(cache));
        }
        let path = self.path.scaled(sample.rth_scale)?;
        let options = TestStructureBench::campaign_dc_options_with(mode);
        for &setpoint in setpoints {
            let point = self.measure_compiled_at(
                &mut compiled,
                &path,
                setpoint,
                &options,
                scratch,
                mode.warm_start,
            )?;
            out.push(point);
        }
        Ok(())
    }

    /// One setpoint of the compiled hot path; see
    /// [`TestStructureBench::run_pair_campaign_with`].
    fn measure_compiled_at(
        &mut self,
        compiled: &mut CompiledPair,
        path: &ThermalPath,
        setpoint: Celsius,
        options: &DcOptions,
        scratch: &mut BenchScratch,
        warm_start: bool,
    ) -> Result<PairCampaignPoint, BenchError> {
        let chamber = ThermalChamber::new(setpoint.to_kelvin(), self.chamber_offset);
        let ambient = chamber.ambient();
        let aux = self.auxiliary_power_watts;

        // The thermal trajectory starts at ambient in both warm and cold
        // modes: seeding it would change the rounding of the converged die
        // temperature and break warm/cold bit-identity. Warm starts only
        // seed Newton inside the power closure, where polishing erases
        // their trace.
        let die = {
            let solve = &mut scratch.solve;
            solve_die_temperature(
                ambient,
                path,
                |t| {
                    let p_pair = compiled
                        .measure_at(t, options, solve, warm_start)
                        .map(|r| compiled.structure().power_watts(&r))
                        .unwrap_or(0.0);
                    p_pair + aux
                },
                1e-4,
                60,
            )?
        };
        scratch.selfheat_iterations += die.iterations as u64;

        let reading =
            compiled.measure_at(die.temperature, options, &mut scratch.solve, warm_start)?;
        let case = chamber.sensor_reading(path, die.power_watts);
        let sensor_temperature = self.sensor.read(case);

        Ok(PairCampaignPoint {
            setpoint: setpoint.to_kelvin(),
            sensor_temperature,
            die_temperature: die.temperature,
            vbe_a: self.smu.measure_voltage(reading.vbe_a),
            vbe_b: self.smu.measure_voltage(reading.vbe_b),
            dvbe: self.smu.measure_voltage(reading.dvbe),
            ic_a: self.smu.measure_current(reading.ic_a),
            ic_b: self.smu.measure_current(reading.ic_b),
        })
    }

    /// Assembles the analytical-method measurement from three campaign
    /// points, using the given temperatures (sensor-read or
    /// dVBE-computed) for cold/reference/hot.
    #[must_use]
    pub fn meijer_from_points(
        points: [&PairCampaignPoint; 3],
        temperatures: [Kelvin; 3],
    ) -> MeijerMeasurement {
        let mk = |p: &PairCampaignPoint, t: Kelvin| MeijerPoint {
            temperature: t,
            vbe: p.vbe_a,
            ic: p.ic_a,
        };
        MeijerMeasurement {
            cold: mk(points[0], temperatures[0]),
            reference: mk(points[1], temperatures[1]),
            hot: mk(points[2], temperatures[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::SampleFactory;

    #[test]
    fn ideal_bench_reports_truth() {
        let mut bench = TestStructureBench::ideal(0);
        let sample = DieSample::nominal(0);
        let p = bench
            .measure_pair_at(&sample, Ampere::new(1e-6), Celsius::new(25.0))
            .unwrap();
        assert!((p.die_temperature.value() - 298.15).abs() < 1e-9);
        assert!((p.sensor_temperature.value() - 298.15).abs() < 1e-9);
        assert!(p.dvbe.value() > 0.04 && p.dvbe.value() < 0.07);
    }

    #[test]
    fn paper_bench_die_runs_above_sensor() {
        let mut bench = TestStructureBench::paper_bench(2002);
        let sample = DieSample::nominal(0);
        let p = bench
            .measure_pair_at(&sample, Ampere::new(1e-6), Celsius::new(25.0))
            .unwrap();
        assert!(
            p.die_temperature.value() > p.sensor_temperature.value(),
            "die {} vs sensor {}",
            p.die_temperature,
            p.sensor_temperature
        );
        // Self-heating magnitude: the full powered die runs tens of kelvin
        // above ambient through the still-air package path.
        let dt = p.die_temperature.value() - p.setpoint.value();
        assert!(dt > 5.0 && dt < 60.0, "self-heating {dt} K");
    }

    #[test]
    fn campaign_covers_every_setpoint() {
        let mut bench = TestStructureBench::paper_bench(1);
        let sample = SampleFactory::seeded(5).draw(1);
        let setpoints: Vec<Celsius> = [-25.0, 25.0, 75.0].map(Celsius::new).to_vec();
        let pts = bench
            .run_pair_campaign(&sample, Ampere::new(1e-6), &setpoints)
            .unwrap();
        assert_eq!(pts.len(), 3);
        assert!(pts
            .windows(2)
            .all(|w| w[0].dvbe.value() < w[1].dvbe.value()));
    }

    #[test]
    fn warm_and_cold_campaigns_are_bit_identical() {
        let setpoints: Vec<Celsius> = [-25.0, 25.0, 75.0].map(Celsius::new).to_vec();
        let sample = SampleFactory::seeded(7).draw(3);

        let mut cold_bench = TestStructureBench::paper_bench(11);
        let mut cold_scratch = BenchScratch::new();
        let mut cold_points = Vec::new();
        cold_bench
            .run_pair_campaign_with(
                &sample,
                Ampere::new(1e-6),
                &setpoints,
                &mut cold_scratch,
                &mut cold_points,
                SolveMode {
                    warm_start: false,
                    ..SolveMode::default()
                },
            )
            .unwrap();

        let mut warm_bench = TestStructureBench::paper_bench(11);
        let mut warm_scratch = BenchScratch::new();
        let mut warm_points = Vec::new();
        warm_bench
            .run_pair_campaign_with(
                &sample,
                Ampere::new(1e-6),
                &setpoints,
                &mut warm_scratch,
                &mut warm_points,
                SolveMode::default(),
            )
            .unwrap();

        assert_eq!(cold_points, warm_points);
        let (cold_stats, cold_selfheat) = cold_scratch.take_counters();
        let (warm_stats, warm_selfheat) = warm_scratch.take_counters();
        // Identical physics, fewer Newton iterations.
        assert_eq!(cold_selfheat, warm_selfheat);
        assert_eq!(cold_stats.solves, warm_stats.solves);
        assert_eq!(cold_stats.warm_starts, 0);
        assert!(warm_stats.warm_starts >= warm_stats.solves - 1);
        assert!(
            warm_stats.newton_iterations < cold_stats.newton_iterations,
            "warm {} vs cold {} Newton iterations",
            warm_stats.newton_iterations,
            cold_stats.newton_iterations
        );
    }

    #[test]
    fn compiled_campaign_matches_per_setpoint_structure() {
        // The compiled path must agree with the allocating path up to the
        // polish-induced last-ulp difference; check physical closeness. The
        // SMU quantizes voltages on a ~1e-6 V grid, so a last-ulp shift in
        // the raw solve can flip one quantization boundary — the dvbe
        // tolerance must sit above one quantum, not at solver precision.
        let setpoints: Vec<Celsius> = [-25.0, 25.0, 75.0].map(Celsius::new).to_vec();
        let sample = DieSample::nominal(0);
        let mut old_bench = TestStructureBench::paper_bench(5);
        let old = old_bench
            .run_pair_campaign(&sample, Ampere::new(1e-6), &setpoints)
            .unwrap();
        let mut new_bench = TestStructureBench::paper_bench(5);
        let mut scratch = BenchScratch::new();
        let mut new_points = Vec::new();
        new_bench
            .run_pair_campaign_with(
                &sample,
                Ampere::new(1e-6),
                &setpoints,
                &mut scratch,
                &mut new_points,
                SolveMode::default(),
            )
            .unwrap();
        assert_eq!(old.len(), new_points.len());
        for (a, b) in old.iter().zip(&new_points) {
            assert!((a.die_temperature.value() - b.die_temperature.value()).abs() < 1e-6);
            assert!((a.dvbe.value() - b.dvbe.value()).abs() < 2e-6);
        }
    }

    #[test]
    fn meijer_assembly_uses_given_temperatures() {
        let mut bench = TestStructureBench::ideal(3);
        let sample = DieSample::nominal(0);
        let pts = bench
            .run_pair_campaign(
                &sample,
                Ampere::new(1e-6),
                &[Celsius::new(-25.0), Celsius::new(25.0), Celsius::new(75.0)],
            )
            .unwrap();
        let m = TestStructureBench::meijer_from_points(
            [&pts[0], &pts[1], &pts[2]],
            [
                Kelvin::new(248.15),
                Kelvin::new(298.15),
                Kelvin::new(348.15),
            ],
        );
        assert!(m.validate().is_ok());
        assert_eq!(m.reference.temperature.value(), 298.15);
    }
}
