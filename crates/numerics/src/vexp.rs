//! Deterministic, dependency-free, branch-free `exp` — the vector kernel
//! behind every hot-path exponential in the workspace.
//!
//! # Why not libm?
//!
//! `f64::exp` goes through the platform libm: a scalar call with
//! data-dependent branches whose exact bits vary across hosts and libc
//! versions. That pins the solver's hot loop to scalar code (the
//! per-device junction-exponential block of `icvbe-spice` cannot
//! vectorize around an opaque call) and makes golden fixtures
//! host-specific. This module replaces it with a fixed arithmetic
//! pipeline — Cody–Waite two-term argument reduction, a degree-12
//! minimax polynomial, exponent scaling by integer bit construction —
//! that is:
//!
//! - **deterministic across platforms**: pure IEEE-754 double arithmetic
//!   and integer ops, no fused multiply-add (Rust never contracts `a*b+c`
//!   implicitly), so every host computes the same bits;
//! - **branch-free**: clamps and special cases are per-lane selects, so
//!   the lane form is straight-line code the compiler auto-vectorizes;
//! - **bit-identical in all three forms**: [`vexp`], [`vexp_lanes`] and
//!   [`vexp_slice`] all route through one `#[inline(always)]` core, so
//!   the scalar and slice call sites agree by construction.
//!
//! Accuracy is within 2 ulp of a correctly-rounded `exp` over the solver's
//! operating range (`|x| ≤ 120`, the `limexp` linearization region and far
//! beyond); see the test suite. Overflow clamps to `+∞` above
//! [`VEXP_OVERFLOW`] and to `+0.0` below [`VEXP_UNDERFLOW`], matching libm
//! `exp` semantics; NaN propagates; `±0 → 1` exactly.
//!
//! # Ablation switch
//!
//! [`set_libm_backend`] routes every entry point back through `f64::exp`
//! at runtime — the `--libm-exp` campaign ablation. The switch is a
//! process-global relaxed atomic read hoisted out of the slice loops; the
//! libm call lives only here, which is what lets the repo gate "no libm
//! `exp` in hot paths" by grep.

use std::sync::atomic::{AtomicBool, Ordering};

/// `log2(e)`: scales the reduction to base 2.
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// Upper word of `ln 2` (Cody–Waite split: `L2U + L2L = ln 2` to ~107
/// bits; `n * L2U` is exact for the `n` range the clamp admits).
const L2U: f64 = 0.693_147_180_559_662_956_511_601_805_646_5;
/// Lower word of `ln 2`.
const L2L: f64 = 0.282_352_905_630_315_771_225_884_481_750_5e-12;
/// `1.5 * 2^52`: adding then subtracting rounds to nearest-even and
/// leaves the integer in the low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// Smallest argument that overflows `f64` (`ln(MAX)` rounded up).
pub const VEXP_OVERFLOW: f64 = 709.782_712_893_384;
/// Largest argument that underflows to zero (`ln(2^-1075)` rounded down).
pub const VEXP_UNDERFLOW: f64 = -745.133_219_101_941_2;

/// Degree-12 minimax coefficients for `e^s - 1 - s - s²/2` on the reduced
/// interval `|s| ≤ ln2/2`, highest degree first (≈ `1/12! … 1/2!`,
/// adjusted to spread the truncation error below 1 ulp).
// The literals quote the minimax generator's full output; they round to
// the intended f64 bits either way, and the extra digits are the
// provenance trail back to the generator.
#[allow(clippy::excessive_precision)]
const C: [f64; 11] = [
    2.088_606_211_072_836_875_36e-9,
    2.511_129_308_928_765_186_10e-8,
    2.755_739_112_349_004_718_93e-7,
    2.755_723_629_119_288_276_29e-6,
    2.480_158_715_923_547_299_8e-5,
    1.984_126_989_605_092_055_64e-4,
    1.388_888_888_977_449_220_7e-3,
    8.333_333_333_316_527_216_64e-3,
    4.166_666_666_666_650_475_91e-2,
    1.666_666_666_666_668_517_03e-1,
    5e-1,
];

/// Process-global ablation switch: when set, every entry point routes
/// through libm `f64::exp` instead of the in-tree kernel.
static USE_LIBM: AtomicBool = AtomicBool::new(false);

/// Selects the libm backend (`true`) or the in-tree kernel (`false`,
/// the default). Used by the `--libm-exp` campaign ablation; flip it
/// before any solves run — the switch is process-global.
pub fn set_libm_backend(on: bool) {
    USE_LIBM.store(on, Ordering::Relaxed);
}

/// Whether the libm ablation backend is active.
#[must_use]
pub fn libm_backend() -> bool {
    USE_LIBM.load(Ordering::Relaxed)
}

/// The shared straight-line core: every public form calls exactly this,
/// which is what makes scalar and lane results bit-identical.
#[inline(always)]
fn exp_core(x: f64) -> f64 {
    // Bound the reduction pipeline. `min`/`max` map NaN to the bound
    // (IEEE minNum semantics), so the integer extraction below is safe
    // for every input; the true NaN/∞/clamp answers are selected at the
    // end from the *original* x. Not `f64::clamp`, which propagates NaN.
    #[allow(clippy::manual_clamp)]
    let xb = x.min(VEXP_OVERFLOW + 1.0).max(VEXP_UNDERFLOW - 1.0);

    // Round n = nearest(x * log2(e)) without a branch or a float→int
    // instruction: after adding 1.5·2^52 the low mantissa bits hold n in
    // two's complement.
    let t = xb * LOG2E + SHIFT;
    let n = (t.to_bits() & 0xffff_ffff) as u32 as i32;
    let nf = t - SHIFT;

    // Cody–Waite: s = x - n·ln2, the high word exactly, the low word as a
    // correction, keeping |s| ≤ ln2/2 with no cancellation error.
    let s = xb - nf * L2U - nf * L2L;

    // e^s = 1 + s + s²·P(s), with P evaluated Estrin-style: a Horner
    // chain is 10 serial mul-adds deep (the latency wall that made the
    // scalar form slower than libm), while the power-of-s tree below is
    // ~5 deep and its independent pairs issue in parallel — in scalar
    // *and* in vectorized lane code alike.
    let s2 = s * s;
    let s4 = s2 * s2;
    let s8 = s4 * s4;
    let b0 = C[10] + C[9] * s;
    let b1 = C[8] + C[7] * s;
    let b2 = C[6] + C[5] * s;
    let b3 = C[4] + C[3] * s;
    let b4 = C[2] + C[1] * s;
    let c0 = b0 + b1 * s2;
    let c1 = b2 + b3 * s2;
    let c2 = b4 + C[0] * s2;
    let p = (c0 + c1 * s4) + c2 * s8;
    let u = s2 * p + s + 1.0;

    // 2^n in two halves so each factor's biased exponent stays in range
    // even where the product is subnormal (n ∈ [-1076, 1025]).
    let n1 = n >> 1;
    let n2 = n - n1;
    let p1 = f64::from_bits(((n1 + 1023) as u64) << 52);
    let p2 = f64::from_bits(((n2 + 1023) as u64) << 52);
    let r = u * p1 * p2;

    // Clamp/special-case selects on the original argument: +∞ and
    // overflow to +∞, -∞ and underflow to +0.0, NaN propagates.
    let r = if x > VEXP_OVERFLOW { f64::INFINITY } else { r };
    let r = if x < VEXP_UNDERFLOW { 0.0 } else { r };
    if x.is_nan() {
        f64::NAN
    } else {
        r
    }
}

/// Scalar form: `e^x` through the deterministic kernel (or libm when the
/// ablation backend is active).
///
/// # Examples
///
/// ```
/// use icvbe_numerics::vexp::vexp;
///
/// assert_eq!(vexp(0.0), 1.0);
/// let e = vexp(1.0);
/// assert!((e - std::f64::consts::E).abs() < 1e-15);
/// assert_eq!(vexp(f64::INFINITY), f64::INFINITY);
/// assert_eq!(vexp(f64::NEG_INFINITY), 0.0);
/// ```
#[must_use]
#[inline]
pub fn vexp(x: f64) -> f64 {
    if libm_backend() {
        return x.exp();
    }
    exp_core(x)
}

/// Lane-array form: straight-line per-lane arithmetic over a fixed-width
/// block, bit-identical to [`vexp`] per lane. The loop body has no
/// data-dependent branches, so the compiler unrolls and auto-vectorizes
/// it — the shape a SIMD or GPU backend consumes directly.
#[must_use]
#[inline]
pub fn vexp_lanes<const N: usize>(xs: &[f64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    if libm_backend() {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = x.exp();
        }
        return out;
    }
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = exp_core(x);
    }
    out
}

/// Slice form for variable-length batches (robust/IRLS model paths, the
/// per-device junction block in `limexp_lanes`): `out[i] = e^(xs[i])`,
/// bit-identical to [`vexp`] per element. The backend switch is read
/// once, outside the loop.
///
/// # Panics
///
/// Panics if `out` is shorter than `xs`.
pub fn vexp_slice(xs: &[f64], out: &mut [f64]) {
    let out = &mut out[..xs.len()];
    if libm_backend() {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = x.exp();
        }
        return;
    }
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = exp_core(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units-in-the-last-place between two finite doubles.
    fn ulp_distance(a: f64, b: f64) -> u64 {
        // Map to a monotone integer line (two's-complement style).
        fn key(x: f64) -> i64 {
            let b = x.to_bits() as i64;
            if b < 0 {
                i64::MIN.wrapping_add(1).wrapping_sub(b).wrapping_sub(1)
            } else {
                b
            }
        }
        key(a).abs_diff(key(b))
    }

    #[test]
    fn within_two_ulp_of_libm_over_operating_range() {
        // VBE/VT ∈ [-40, 40] densely, plus the limexp linearization
        // region up to the cutoff and beyond toward overflow.
        let mut worst = 0u64;
        let mut x = -40.0;
        while x <= 40.0 {
            let d = ulp_distance(vexp(x), x.exp());
            worst = worst.max(d);
            assert!(
                d <= 2,
                "x={x}: vexp={:e} libm={:e} ({d} ulp)",
                vexp(x),
                x.exp()
            );
            x += 7.63e-4; // dense, irrational-ish step to avoid grid artifacts
        }
        let mut x = 40.0;
        while x <= 708.0 {
            let d = ulp_distance(vexp(x), x.exp());
            worst = worst.max(d);
            assert!(d <= 2, "x={x}: {d} ulp");
            x += 0.137;
        }
        let mut x = -708.0;
        while x <= -40.0 {
            let d = ulp_distance(vexp(x), x.exp());
            worst = worst.max(d);
            assert!(d <= 2, "x={x}: {d} ulp");
            x += 0.137;
        }
        assert!(worst <= 2, "worst-case {worst} ulp");
    }

    #[test]
    fn exact_special_cases() {
        assert_eq!(vexp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(vexp(-0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(vexp(f64::INFINITY), f64::INFINITY);
        assert_eq!(vexp(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert!(vexp(f64::NAN).is_nan());
        assert!(vexp(-f64::NAN).is_nan());
    }

    #[test]
    fn overflow_and_underflow_clamp_like_libm() {
        assert_eq!(vexp(710.0), f64::INFINITY);
        assert_eq!(vexp(1e9), f64::INFINITY);
        assert_eq!(vexp(-746.0), 0.0);
        assert_eq!(vexp(-1e9), 0.0);
        // Just inside the clamps stays finite / nonzero.
        assert!(vexp(709.7).is_finite());
        assert!(vexp(-745.0) > 0.0);
        // Results deep in the subnormal range remain ordered.
        assert!(vexp(-744.0) > vexp(-745.0));
    }

    #[test]
    fn monotone_on_a_dense_grid() {
        let mut prev = vexp(-60.0);
        let mut x = -60.0 + 1e-3;
        while x <= 125.0 {
            let v = vexp(x);
            assert!(v > prev, "non-monotone at x={x}: {v:e} <= {prev:e}");
            prev = v;
            x += 1e-3;
        }
    }

    #[test]
    fn lanes_and_slice_match_scalar_bitwise() {
        // Adversarial lane patterns: mixed magnitudes, clamps, specials,
        // denormal-result arguments, sign flips — all in one block.
        let adversarial = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            40.0,
            -40.0,
            120.0,
            120.0000001,
            709.78,
            710.0,
            -745.0,
            -746.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            3.5e-8,
        ];
        let lanes = vexp_lanes(&adversarial);
        let mut sliced = [0.0; 16];
        vexp_slice(&adversarial, &mut sliced);
        for (i, &x) in adversarial.iter().enumerate() {
            let s = vexp(x);
            assert_eq!(s.to_bits(), lanes[i].to_bits(), "lane {i} x={x}");
            assert_eq!(s.to_bits(), sliced[i].to_bits(), "slice {i} x={x}");
        }
        // And across a dense sweep in odd-width slices.
        let xs: Vec<f64> = (-1000..1000).map(|i| f64::from(i) * 0.123).collect();
        let mut out = vec![0.0; xs.len()];
        vexp_slice(&xs, &mut out);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(vexp(x).to_bits(), out[i].to_bits(), "slice sweep {i}");
        }
    }
}
