//! Saturation-current temperature laws: the physical eq. 11 and the SPICE
//! eq. 1, linked by the eq.-12 identification.
//!
//! Eq. 11 (physics):
//!
//! ```text
//! IS(T) = IS(T0) (T/T0)^(4 - EN - Erho - b/k)
//!         * exp( -(q/k) (EG(0) - dEGbgn) (1/T - 1/T0) )
//! ```
//!
//! Eq. 1 (SPICE):
//!
//! ```text
//! IS(T) = IS(T0) (T/T0)^XTI exp( (q EG / k) (1/T0 - 1/T) )
//! ```
//!
//! Identifying the two (eq. 12):
//!
//! ```text
//! EG  = EG(0) - dEGbgn
//! XTI = 4 - EN - Erho - b/k
//! ```

use icvbe_units::constants::Q_OVER_BOLTZMANN;
use icvbe_units::{Ampere, ElectronVolt, Kelvin};

use crate::eg::{EgModel, LogEgModel};
use crate::narrowing::BandgapNarrowing;
use crate::transport::{BaseDiffusivity, GummelNumber};

/// The two-parameter SPICE saturation-current temperature law (eq. 1).
///
/// # Examples
///
/// ```
/// use icvbe_devphys::saturation::SpiceIsLaw;
/// use icvbe_units::{Ampere, ElectronVolt, Kelvin};
///
/// let law = SpiceIsLaw::new(
///     Ampere::new(1e-16),
///     Kelvin::new(300.0),
///     ElectronVolt::new(1.11),
///     3.0,
/// );
/// // IS grows by orders of magnitude over 100 K.
/// let r = law.is_at(Kelvin::new(400.0)).value() / 1e-16;
/// assert!(r > 1e3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpiceIsLaw {
    is_ref: Ampere,
    t_ref: Kelvin,
    eg: ElectronVolt,
    xti: f64,
}

impl SpiceIsLaw {
    /// Creates the law from `IS(T0)`, `T0`, `EG` and `XTI`.
    #[must_use]
    pub fn new(is_ref: Ampere, t_ref: Kelvin, eg: ElectronVolt, xti: f64) -> Self {
        SpiceIsLaw {
            is_ref,
            t_ref,
            eg,
            xti,
        }
    }

    /// Saturation current at `temperature` per eq. 1.
    #[must_use]
    pub fn is_at(&self, temperature: Kelvin) -> Ampere {
        let t = temperature.value();
        let t0 = self.t_ref.value();
        let ratio = (t / t0).powf(self.xti);
        // vexp, not libm exp: this feeds the per-temperature model cards
        // of the solver hot path (every self-heating update re-evaluates
        // it), and the deterministic kernel keeps the bits identical on
        // every host.
        let arrhenius =
            icvbe_numerics::vexp::vexp(Q_OVER_BOLTZMANN * self.eg.value() * (1.0 / t0 - 1.0 / t));
        Ampere::new(self.is_ref.value() * ratio * arrhenius)
    }

    /// The `EG` parameter.
    #[must_use]
    pub fn eg(&self) -> ElectronVolt {
        self.eg
    }

    /// The `XTI` parameter.
    #[must_use]
    pub fn xti(&self) -> f64 {
        self.xti
    }

    /// The reference saturation current `IS(T0)`.
    #[must_use]
    pub fn is_ref(&self) -> Ampere {
        self.is_ref
    }

    /// The reference temperature `T0`.
    #[must_use]
    pub fn t_ref(&self) -> Kelvin {
        self.t_ref
    }
}

/// The fully physical saturation-current law of eq. 11, assembled from the
/// bandgap model, narrowing, diffusivity and Gummel number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalIsLaw {
    is_ref: Ampere,
    t_ref: Kelvin,
    eg_model: LogEgModel,
    narrowing: BandgapNarrowing,
    diffusivity: BaseDiffusivity,
    gummel: GummelNumber,
}

impl PhysicalIsLaw {
    /// Assembles the physical law from its ingredients.
    #[must_use]
    pub fn new(
        is_ref: Ampere,
        t_ref: Kelvin,
        eg_model: LogEgModel,
        narrowing: BandgapNarrowing,
        diffusivity: BaseDiffusivity,
        gummel: GummelNumber,
    ) -> Self {
        PhysicalIsLaw {
            is_ref,
            t_ref,
            eg_model,
            narrowing,
            diffusivity,
            gummel,
        }
    }

    /// A representative silicon bipolar device: EG5 bandgap, 45 meV
    /// narrowing, moderately doped base.
    #[must_use]
    pub fn typical_silicon(is_ref: Ampere, t_ref: Kelvin) -> Self {
        PhysicalIsLaw::new(
            is_ref,
            t_ref,
            LogEgModel::eg5(),
            BandgapNarrowing::silicon_bipolar(),
            BaseDiffusivity::silicon_npn_base(),
            GummelNumber::silicon_base(),
        )
    }

    /// Saturation current at `temperature` per eq. 11.
    #[must_use]
    pub fn is_at(&self, temperature: Kelvin) -> Ampere {
        // IS ~ Ae q nie²(T) Dnb(T) / NG(T); take the ratio to T0 and use
        // the closed eq.-10 power law for nie².
        let nie_ratio = crate::carriers::nie_squared_ratio_eq10(
            &self.eg_model,
            self.narrowing,
            temperature,
            self.t_ref,
        );
        let d_ratio =
            self.diffusivity.value_at(temperature) / self.diffusivity.value_at(self.t_ref);
        let g_ratio = self.gummel.value_at(temperature) / self.gummel.value_at(self.t_ref);
        Ampere::new(self.is_ref.value() * nie_ratio * d_ratio / g_ratio)
    }

    /// The eq.-12 identification: the [`SpiceIsLaw`] that is *exactly*
    /// equivalent to this physical law.
    ///
    /// `EG = EG(0) - dEGbgn`, `XTI = 4 - EN - Erho - b/k`.
    #[must_use]
    pub fn to_spice_law(&self) -> SpiceIsLaw {
        let k_ev = 1.0 / Q_OVER_BOLTZMANN;
        let eg = self.narrowing.apply(self.eg_model.eg_at_zero());
        let xti = 4.0 - self.diffusivity.en() - self.gummel.erho() - self.eg_model.b() / k_ev;
        SpiceIsLaw::new(self.is_ref, self.t_ref, eg, xti)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typical() -> PhysicalIsLaw {
        PhysicalIsLaw::typical_silicon(Ampere::new(2e-17), Kelvin::new(298.15))
    }

    #[test]
    fn physical_and_spice_laws_agree_exactly() {
        // The eq.-12 identification must be exact for the log Eg model.
        let phys = typical();
        let spice = phys.to_spice_law();
        for t in [223.15, 248.15, 273.15, 298.15, 323.15, 348.15, 398.15] {
            let t = Kelvin::new(t);
            let a = phys.is_at(t).value();
            let b = spice.is_at(t).value();
            assert!(
                (a / b - 1.0).abs() < 1e-10,
                "mismatch at {t}: {a:e} vs {b:e}"
            );
        }
    }

    #[test]
    fn xti_identification_has_paper_magnitude() {
        // XTI = 4 - EN - Erho - b/k; with EG5's b = -8.459e-5 eV/K,
        // -b/k ~ +0.98, EN = 2.4, Erho = 0 => XTI ~ 2.6.
        let spice = typical().to_spice_law();
        assert!(
            spice.xti() > 1.5 && spice.xti() < 4.5,
            "XTI = {}",
            spice.xti()
        );
    }

    #[test]
    fn eg_identification_subtracts_narrowing() {
        let spice = typical().to_spice_law();
        assert!((spice.eg().value() - (1.1774 - 0.045)).abs() < 1e-12);
    }

    #[test]
    fn is_at_reference_is_reference() {
        let phys = typical();
        assert!((phys.is_at(Kelvin::new(298.15)).value() - 2e-17).abs() / 2e-17 < 1e-12);
    }

    #[test]
    fn sensitivity_is_about_20_percent_per_kelvin() {
        // The paper (citing Martinelli) says IS moves ~20%/K near room temp.
        let spice = typical().to_spice_law();
        let r = spice.is_at(Kelvin::new(299.15)).value() / spice.is_at(Kelvin::new(298.15)).value();
        assert!(r > 1.1 && r < 1.3, "IS sensitivity per K: {r}");
    }

    #[test]
    fn spice_law_is_monotone_in_temperature() {
        let spice = typical().to_spice_law();
        let mut prev = 0.0;
        for t in (200..450).step_by(10) {
            let v = spice.is_at(Kelvin::new(t as f64)).value();
            assert!(v > prev);
            prev = v;
        }
    }
}
