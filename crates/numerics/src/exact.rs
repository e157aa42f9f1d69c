//! Exact fixed-point superaccumulation of `f64` sums and products.
//!
//! Floating-point addition is not associative, so a streaming statistic
//! folded die-by-die and the same statistic merged from per-shard partial
//! accumulators generally disagree in the last bits — which breaks the
//! campaign's byte-identical-artifacts contract the moment work is split
//! across processes. [`ExactSum`] removes the problem at the root: it
//! accumulates every addend *exactly*, as a wide fixed-point integer that
//! spans the full `f64` product range, so accumulation is associative and
//! commutative by construction. Absorbing values one at a time, or
//! merging partial accumulators in any tree shape, yields bit-identical
//! state — and [`ExactSum::to_f64`] rounds the exact total to the nearest
//! `f64` exactly once, at report time.
//!
//! [`Wide`] is the companion arbitrary-precision signed integer used for
//! *derived* statistics (variance, regression slope, correlation): the
//! textbook numerators `n·Σx² − (Σx)²` are computed exactly from the
//! accumulator integers — so a degenerate point cloud gives an exactly
//! zero numerator, never a tiny negative one — and rounded to `f64` at
//! the end.

/// Number of 32-bit limbs in an [`ExactSum`].
///
/// The accumulator represents `I · 2^SCALE_EXP` for an integer `I` held
/// in `LIMBS` base-2³² digits. Products of two finite `f64`s span
/// `[2^-2148, 2^2048)`; with `SCALE_EXP = -2176` the most significant
/// product bit lands at limb 132, leaving three limbs of carry headroom —
/// enough for far more than 2⁶⁴ accumulated terms.
pub const LIMBS: usize = 136;

/// Binary exponent of limb 0's least significant bit: an accumulator
/// holding integer `I` represents the real value `I · 2^SCALE_EXP`.
pub const SCALE_EXP: i32 = -2176;

const RADIX_BITS: u32 = 32;
const RADIX_MASK: i64 = 0xffff_ffff;

/// An exact superaccumulator for sums of `f64` values and `f64·f64`
/// products.
///
/// Internally a `LIMBS`-digit base-2³² fixed-point integer in canonical
/// form: every limb except the last lies in `[0, 2³²)` and the top limb
/// is signed (it carries the sign of the whole value). Addition of
/// accumulators is plain limb-wise integer addition, hence exactly
/// associative and commutative — the property the campaign's shard merge
/// is built on.
///
/// Non-finite inputs are a caller error (the aggregation layer only
/// absorbs finite measurement values); they are ignored in release
/// builds and trip a debug assertion.
#[derive(Clone, PartialEq, Eq)]
pub struct ExactSum {
    limbs: [i64; LIMBS],
}

impl std::fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExactSum({})", self.to_f64())
    }
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::zero()
    }
}

/// Splits a finite `f64` into `(mantissa, exponent, negative)` with
/// `value = ±mantissa · 2^exponent` exactly. Zero mantissa means ±0.0.
fn decompose(x: f64) -> (u64, i32, bool) {
    let bits = x.to_bits();
    let neg = bits >> 63 == 1;
    let exp_field = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & 0xf_ffff_ffff_ffff;
    debug_assert!(exp_field != 0x7ff, "non-finite value fed to ExactSum");
    if exp_field == 0x7ff {
        return (0, 0, neg);
    }
    if exp_field == 0 {
        // Subnormal (or zero): no implicit bit, fixed exponent.
        (frac, -1074, neg)
    } else {
        (frac | (1 << 52), exp_field - 1075, neg)
    }
}

impl ExactSum {
    /// The empty (zero) accumulator.
    #[must_use]
    pub fn zero() -> Self {
        ExactSum { limbs: [0; LIMBS] }
    }

    /// Whether the accumulated total is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&v| v == 0)
    }

    /// Restores canonical form: every limb but the last in `[0, 2³²)`,
    /// carries folded into the signed top limb.
    fn canonicalize(&mut self) {
        let mut carry: i64 = 0;
        for limb in self.limbs.iter_mut().take(LIMBS - 1) {
            let v = *limb + carry;
            let r = v & RADIX_MASK;
            // v - r is a multiple of 2^32; arithmetic shift is the
            // floor division canonicalization needs for negatives too.
            carry = (v - r) >> RADIX_BITS;
            *limb = r;
        }
        self.limbs[LIMBS - 1] += carry;
    }

    /// Adds `±m · 2^e` exactly. `e` must be ≥ [`SCALE_EXP`] (every
    /// finite `f64` and every product of two satisfies this).
    fn add_raw(&mut self, m: u64, e: i32, negative: bool) {
        if m == 0 {
            return;
        }
        let offset = e - SCALE_EXP;
        debug_assert!(offset >= 0, "exponent below the accumulator range");
        let q = (offset / 32) as usize;
        let r = offset % 32;
        debug_assert!(q + 2 < LIMBS, "exponent above the accumulator range");
        let wide = u128::from(m) << r; // < 2^96
        for k in 0..3 {
            let part = ((wide >> (32 * k)) & 0xffff_ffff) as i64;
            if part != 0 {
                self.limbs[q + k] += if negative { -part } else { part };
            }
        }
        self.canonicalize();
    }

    /// Adds a finite `f64` exactly.
    pub fn add_f64(&mut self, x: f64) {
        let (m, e, neg) = decompose(x);
        self.add_raw(m, e, neg);
    }

    /// Adds the *exact* product `x · y` (no intermediate rounding): the
    /// full 106-bit mantissa product is accumulated, so `Σ x·y` carries
    /// no per-term error.
    pub fn add_prod(&mut self, x: f64, y: f64) {
        let (mx, ex, negx) = decompose(x);
        let (my, ey, negy) = decompose(y);
        if mx == 0 || my == 0 {
            return;
        }
        let neg = negx != negy;
        let p = u128::from(mx) * u128::from(my); // ≤ 2^106
        let e = ex + ey;
        self.add_raw(p as u64, e, neg);
        self.add_raw((p >> 64) as u64, e + 64, neg);
    }

    /// Adds another accumulator's total exactly. Plain limb-wise integer
    /// addition: associative and commutative, so any merge tree over any
    /// partition of the inputs produces bit-identical state.
    pub fn merge(&mut self, other: &ExactSum) {
        for (a, b) in self.limbs.iter_mut().zip(other.limbs.iter()) {
            *a += *b;
        }
        self.canonicalize();
    }

    /// Flips the sign in place (stays canonical).
    fn negate(&mut self) {
        for v in &mut self.limbs {
            *v = -*v;
        }
        self.canonicalize();
    }

    /// The exact total as a signed arbitrary-precision integer scaled by
    /// `2^SCALE_EXP` (for derived-statistic arithmetic).
    #[must_use]
    pub fn to_wide(&self) -> Wide {
        let neg = self.limbs[LIMBS - 1] < 0;
        let mut mag = self.clone();
        if neg {
            mag.negate();
        }
        let mut digits: Vec<u64> = mag.limbs.iter().map(|&v| v as u64).collect();
        while digits.last() == Some(&0) {
            digits.pop();
        }
        Wide {
            neg: neg && !digits.is_empty(),
            digits,
        }
    }

    /// Rounds the exact total to the nearest `f64` (ties to even),
    /// overflowing to ±∞. This is the *only* rounding step between the
    /// raw measurement values and the reported sum.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.to_wide().to_f64_scaled(i64::from(SCALE_EXP))
    }

    /// The non-zero limbs as `(index, value)` pairs — the sparse form the
    /// checkpoint codec serializes. Real accumulator states touch a few
    /// dozen of the 136 limbs at most.
    pub fn nonzero_limbs(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.limbs
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (i, v))
    }

    /// Rebuilds an accumulator from sparse `(index, value)` pairs.
    /// Returns `None` on an out-of-range index, a duplicate index, or a
    /// limb value outside canonical form — a decoder must reject such
    /// documents rather than construct a non-canonical accumulator.
    #[must_use]
    pub fn from_sparse(pairs: &[(usize, i64)]) -> Option<Self> {
        let mut s = ExactSum::zero();
        let mut seen = [false; LIMBS];
        for &(i, v) in pairs {
            if i >= LIMBS || seen[i] {
                return None;
            }
            if i < LIMBS - 1 && !(0..=RADIX_MASK).contains(&v) {
                return None;
            }
            seen[i] = true;
            s.limbs[i] = v;
        }
        Some(s)
    }
}

/// A signed arbitrary-precision integer in base-2³² digits (each digit
/// stored in a `u64` slot, little-endian, trimmed). The workhorse behind
/// exact derived-statistic numerators like `n·Σx² − (Σx)²`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wide {
    neg: bool,
    digits: Vec<u64>,
}

impl Wide {
    /// Zero.
    #[must_use]
    pub fn zero() -> Self {
        Wide {
            neg: false,
            digits: Vec::new(),
        }
    }

    /// Whether the value is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.digits.is_empty()
    }

    /// Whether the value is strictly positive.
    #[must_use]
    pub fn is_positive(&self) -> bool {
        !self.neg && !self.is_zero()
    }

    /// Whether the value is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    fn trim(mut self) -> Self {
        while self.digits.last() == Some(&0) {
            self.digits.pop();
        }
        if self.digits.is_empty() {
            self.neg = false;
        }
        self
    }

    /// Multiplies by a `u64` scalar (exact).
    #[must_use]
    pub fn mul_u64(&self, k: u64) -> Wide {
        if k == 0 || self.is_zero() {
            return Wide::zero();
        }
        let (klo, khi) = (u128::from(k & 0xffff_ffff), u128::from(k >> 32));
        let mut digits = vec![0u64; self.digits.len() + 3];
        let mut carry: u128 = 0;
        for (i, &d) in self.digits.iter().enumerate() {
            let t = u128::from(d) * klo + carry + u128::from(digits[i]);
            digits[i] = (t & 0xffff_ffff) as u64;
            carry = t >> 32;
        }
        let mut i = self.digits.len();
        while carry > 0 {
            let t = carry + u128::from(digits[i]);
            digits[i] = (t & 0xffff_ffff) as u64;
            carry = t >> 32;
            i += 1;
        }
        if khi > 0 {
            carry = 0;
            for (i, &d) in self.digits.iter().enumerate() {
                let t = u128::from(d) * khi + carry + u128::from(digits[i + 1]);
                digits[i + 1] = (t & 0xffff_ffff) as u64;
                carry = t >> 32;
            }
            let mut i = self.digits.len() + 1;
            while carry > 0 {
                let t = carry + u128::from(digits[i]);
                digits[i] = (t & 0xffff_ffff) as u64;
                carry = t >> 32;
                i += 1;
            }
        }
        Wide {
            neg: self.neg,
            digits,
        }
        .trim()
    }

    /// Full signed multiply (exact).
    ///
    /// A zero digit adds nothing and starts no carry, so zero rows of
    /// `self` and the zero low digits of `other` are skipped. A sum
    /// scaled by `2^SCALE_EXP` keeps ~65 all-zero low digits; skipping
    /// them turns ~70×70 digit products into the ~3×3 that carry data.
    #[must_use]
    pub fn mul(&self, other: &Wide) -> Wide {
        if self.is_zero() || other.is_zero() {
            return Wide::zero();
        }
        let low = other.digits.iter().take_while(|&&d| d == 0).count();
        let mut digits = vec![0u64; self.digits.len() + other.digits.len() + 1];
        for (i, &a) in self.digits.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for (j, &b) in other.digits.iter().enumerate().skip(low) {
                let t = u128::from(digits[i + j]) + u128::from(a) * u128::from(b) + carry;
                digits[i + j] = (t & 0xffff_ffff) as u64;
                carry = t >> 32;
            }
            let mut k = i + other.digits.len();
            while carry > 0 {
                let t = u128::from(digits[k]) + carry;
                digits[k] = (t & 0xffff_ffff) as u64;
                carry = t >> 32;
                k += 1;
            }
        }
        Wide {
            neg: self.neg != other.neg,
            digits,
        }
        .trim()
    }

    /// Shifts left by `bits` (multiplies by `2^bits`, exact).
    #[must_use]
    pub fn shl_bits(&self, bits: usize) -> Wide {
        if self.is_zero() {
            return Wide::zero();
        }
        let (limb_shift, bit_shift) = (bits / 32, (bits % 32) as u32);
        let mut digits = vec![0u64; limb_shift];
        let mut carry: u64 = 0;
        for &d in &self.digits {
            let t = (d << bit_shift) | carry;
            digits.push(t & 0xffff_ffff);
            carry = t >> 32;
        }
        if carry > 0 {
            digits.push(carry);
        }
        Wide {
            neg: self.neg,
            digits,
        }
        .trim()
    }

    /// Magnitude comparison.
    fn cmp_mag(&self, other: &Wide) -> std::cmp::Ordering {
        self.digits
            .len()
            .cmp(&other.digits.len())
            .then_with(|| self.digits.iter().rev().cmp(other.digits.iter().rev()))
    }

    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(a.len().max(b.len()) + 1);
        let mut carry: u64 = 0;
        for i in 0..a.len().max(b.len()) {
            let t = a.get(i).copied().unwrap_or(0) + b.get(i).copied().unwrap_or(0) + carry;
            out.push(t & 0xffff_ffff);
            carry = t >> 32;
        }
        if carry > 0 {
            out.push(carry);
        }
        out
    }

    /// `a - b` over magnitudes, requires `a >= b`.
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(a.len());
        let mut borrow: i64 = 0;
        for i in 0..a.len() {
            let mut t = a[i] as i64 - b.get(i).copied().unwrap_or(0) as i64 - borrow;
            if t < 0 {
                t += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(t as u64);
        }
        debug_assert_eq!(borrow, 0, "sub_mag requires |a| >= |b|");
        out
    }

    /// Signed subtraction `self - other` (exact).
    #[must_use]
    pub fn sub(&self, other: &Wide) -> Wide {
        if self.neg != other.neg {
            // a - (-b) = a + b with a's sign.
            return Wide {
                neg: self.neg,
                digits: Wide::add_mag(&self.digits, &other.digits),
            }
            .trim();
        }
        match self.cmp_mag(other) {
            std::cmp::Ordering::Equal => Wide::zero(),
            std::cmp::Ordering::Greater => Wide {
                neg: self.neg,
                digits: Wide::sub_mag(&self.digits, &other.digits),
            }
            .trim(),
            std::cmp::Ordering::Less => Wide {
                neg: !self.neg,
                digits: Wide::sub_mag(&other.digits, &self.digits),
            }
            .trim(),
        }
    }

    /// Bit length of the magnitude (0 for zero).
    fn bit_len(&self) -> u64 {
        match self.digits.last() {
            None => 0,
            Some(&top) => (self.digits.len() as u64 - 1) * 32 + u64::from(64 - top.leading_zeros()),
        }
    }

    /// The bit at magnitude position `i` (0 = LSB).
    fn bit(&self, i: u64) -> bool {
        let (q, r) = ((i / 32) as usize, i % 32);
        self.digits.get(q).is_some_and(|d| (d >> r) & 1 == 1)
    }

    /// Whether any magnitude bit strictly below position `i` is set.
    fn any_bits_below(&self, i: u64) -> bool {
        let (q, r) = ((i / 32) as usize, i % 32);
        if self.digits.iter().take(q).any(|&d| d != 0) {
            return true;
        }
        r > 0 && self.digits.get(q).is_some_and(|d| d & ((1 << r) - 1) != 0)
    }

    /// The magnitude shifted right by `cut` bits, truncated to a `u64`
    /// (the caller guarantees the result fits).
    fn shifted_down(&self, cut: u64) -> u64 {
        let mut out: u64 = 0;
        let bits = self.bit_len();
        let mut pos = cut;
        let mut k = 0;
        while pos < bits && k < 64 {
            if self.bit(pos) {
                out |= 1 << k;
            }
            pos += 1;
            k += 1;
        }
        out
    }

    /// Rounds `self · 2^scale_exp` to the nearest `f64` (ties to even),
    /// with gradual underflow to subnormals/zero and overflow to ±∞.
    ///
    /// This is how derived statistics leave the exact domain: one
    /// correct rounding of the exactly computed value.
    #[must_use]
    pub fn to_f64_scaled(&self, scale_exp: i64) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let msb = self.bit_len() as i64 - 1;
        // The result's ulp exponent: 52 below the MSB, floored at the
        // subnormal ulp 2^-1074. Negative means the exact value already
        // fits in 53 bits — no rounding at all.
        let cut = (msb - 52).max(-1074 - scale_exp).max(0) as u64;
        let mut q = self.shifted_down(cut);
        let round = cut > 0 && self.bit(cut - 1);
        let sticky = cut > 1 && self.any_bits_below(cut - 1);
        if round && (sticky || q & 1 == 1) {
            q += 1;
        }
        let mut e = cut as i64 + scale_exp;
        if q == 1 << 53 {
            q >>= 1;
            e += 1;
        }
        if q == 0 {
            return 0.0;
        }
        // Normalize a short significand into the normal range (values
        // exactly representable in fewer than 53 bits).
        while q < 1 << 52 && e > -1074 {
            q <<= 1;
            e -= 1;
        }
        let sign_bit = if self.neg { 1u64 << 63 } else { 0 };
        if q >= 1 << 52 {
            // Normal (or overflow): value = q · 2^e with 2^52 <= q < 2^53.
            let exp_field = e + 52 + 1023;
            if exp_field >= 0x7ff {
                return f64::from_bits(sign_bit | (0x7ffu64 << 52)); // ±inf
            }
            debug_assert!(exp_field >= 1);
            f64::from_bits(sign_bit | ((exp_field as u64) << 52) | (q & 0xf_ffff_ffff_ffff))
        } else {
            // Subnormal: only reachable on the e == -1074 floor.
            debug_assert_eq!(e, -1074);
            f64::from_bits(sign_bit | q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — deterministic value streams without external crates.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        /// A finite f64 with wildly varying magnitude.
        fn f64(&mut self) -> f64 {
            loop {
                let x = f64::from_bits(self.next());
                if x.is_finite() {
                    return x;
                }
            }
        }
        /// A "tame" value in a range where sums stay finite.
        fn tame(&mut self) -> f64 {
            let m = (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let e = (self.next() % 80) as i32 - 40;
            m * 2f64.powi(e)
        }
    }

    fn single(x: f64) -> f64 {
        let mut s = ExactSum::zero();
        s.add_f64(x);
        s.to_f64()
    }

    #[test]
    fn single_values_round_trip_exactly() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            std::f64::consts::PI,
            1e300,
            -1e300,
            1e-300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,            // subnormal
            f64::from_bits(1),                  // smallest subnormal
            f64::from_bits(0xf_ffff_ffff_ffff), // largest subnormal
            -f64::from_bits(1),
        ];
        for x in cases {
            let y = single(x);
            assert_eq!(y.to_bits(), (x + 0.0).to_bits(), "round trip of {x:e}");
        }
    }

    #[test]
    fn random_single_values_round_trip_exactly() {
        let mut rng = Mix(0x1234_5678);
        for _ in 0..2000 {
            let x = rng.f64();
            // -0.0 canonicalizes to +0.0; everything else is bit-exact.
            let want = if x == 0.0 { 0.0 } else { x };
            assert_eq!(single(x).to_bits(), want.to_bits(), "round trip of {x:e}");
        }
    }

    #[test]
    fn exact_cancellation_recovers_the_small_term() {
        let mut s = ExactSum::zero();
        s.add_f64(1e16);
        s.add_f64(1.0);
        s.add_f64(-1e16);
        assert_eq!(s.to_f64(), 1.0);

        let mut s = ExactSum::zero();
        s.add_f64(1e300);
        s.add_f64(1e-300);
        s.add_f64(-1e300);
        assert_eq!(s.to_f64(), 1e-300);
    }

    #[test]
    fn sum_overflow_saturates_to_infinity() {
        let mut s = ExactSum::zero();
        s.add_f64(f64::MAX);
        s.add_f64(f64::MAX);
        assert_eq!(s.to_f64(), f64::INFINITY);
        let mut s = ExactSum::zero();
        s.add_f64(f64::MIN);
        s.add_f64(f64::MIN);
        assert_eq!(s.to_f64(), f64::NEG_INFINITY);
        // ...but the state stays exact: subtracting one MAX recovers it.
        s.add_f64(f64::MAX);
        assert_eq!(s.to_f64(), f64::MIN);
    }

    #[test]
    fn single_products_round_like_hardware_multiply() {
        // to_f64 of the exact product must agree with the IEEE multiply,
        // which is itself correctly rounded — including subnormal results
        // and overflow to infinity.
        let mut rng = Mix(0xdead_beef);
        for _ in 0..2000 {
            let (x, y) = (rng.f64(), rng.f64());
            let mut s = ExactSum::zero();
            s.add_prod(x, y);
            let want = x * y;
            if want == 0.0 && x != 0.0 && y != 0.0 {
                // The exact product of nonzero values is nonzero, but the
                // hardware multiply underflowed to zero; to_f64 must also
                // round the tiny exact value to zero.
                assert_eq!(s.to_f64(), 0.0, "underflow of {x:e} * {y:e}");
            } else {
                assert_eq!(
                    s.to_f64().to_bits(),
                    (want + 0.0).to_bits(),
                    "product {x:e} * {y:e}"
                );
            }
        }
    }

    #[test]
    fn merge_matches_sequential_absorb_bit_for_bit() {
        let mut rng = Mix(7);
        let values: Vec<f64> = (0..257).map(|_| rng.tame()).collect();

        let mut sequential = ExactSum::zero();
        for &v in &values {
            sequential.add_f64(v);
            sequential.add_prod(v, v);
        }

        for chunk_size in [1usize, 2, 3, 7, 64, 256, 300] {
            let mut parts: Vec<ExactSum> = values
                .chunks(chunk_size)
                .map(|c| {
                    let mut s = ExactSum::zero();
                    for &v in c {
                        s.add_f64(v);
                        s.add_prod(v, v);
                    }
                    s
                })
                .collect();
            // Left-to-right fold.
            let mut folded = ExactSum::zero();
            for p in &parts {
                folded.merge(p);
            }
            assert_eq!(folded, sequential, "fold, chunks of {chunk_size}");
            // Balanced tree merge.
            while parts.len() > 1 {
                let mut next = Vec::new();
                for pair in parts.chunks(2) {
                    let mut m = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        m.merge(b);
                    }
                    next.push(m);
                }
                parts = next;
            }
            assert_eq!(parts[0], sequential, "tree, chunks of {chunk_size}");
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut rng = Mix(99);
        let (mut a, mut b) = (ExactSum::zero(), ExactSum::zero());
        for _ in 0..50 {
            a.add_f64(rng.tame());
            b.add_f64(rng.tame());
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn empty_merge_is_identity() {
        let mut rng = Mix(5);
        let mut a = ExactSum::zero();
        for _ in 0..20 {
            a.add_f64(rng.tame());
        }
        let before = a.clone();
        a.merge(&ExactSum::zero());
        assert_eq!(a, before);
        let mut empty = ExactSum::zero();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn sparse_round_trip_and_rejection() {
        let mut rng = Mix(42);
        let mut s = ExactSum::zero();
        for _ in 0..30 {
            s.add_f64(rng.tame());
            s.add_f64(-rng.tame());
        }
        let pairs: Vec<(usize, i64)> = s.nonzero_limbs().collect();
        assert!(!pairs.is_empty());
        assert!(pairs.len() < LIMBS, "sparse form must be sparse");
        let back = ExactSum::from_sparse(&pairs).unwrap();
        assert_eq!(back, s);

        assert!(
            ExactSum::from_sparse(&[(LIMBS, 1)]).is_none(),
            "index range"
        );
        assert!(ExactSum::from_sparse(&[(0, -1)]).is_none(), "canonical low");
        assert!(
            ExactSum::from_sparse(&[(0, 1 << 32)]).is_none(),
            "canonical high"
        );
        assert!(ExactSum::from_sparse(&[(3, 1), (3, 1)]).is_none(), "dupes");
        assert!(
            ExactSum::from_sparse(&[(LIMBS - 1, -5)]).is_some(),
            "signed top limb is canonical"
        );
    }

    #[test]
    fn negative_totals_round_correctly() {
        let mut rng = Mix(11);
        for _ in 0..200 {
            let x = -rng.tame().abs();
            let y = -rng.tame().abs();
            let mut s = ExactSum::zero();
            s.add_f64(x);
            s.add_f64(y);
            // Oracle: exact two-term sum via the classic 2Sum trick.
            let hi = x + y;
            let lo = {
                let bb = hi - x;
                (x - (hi - bb)) + (y - bb)
            };
            // If the 2Sum residual is zero the f64 sum is exact.
            if lo == 0.0 {
                assert_eq!(s.to_f64().to_bits(), (hi + 0.0).to_bits());
            }
        }
    }

    #[test]
    fn wide_arithmetic_matches_small_integer_oracle() {
        // Build integers through ExactSum and check the Wide ops against
        // i128 arithmetic (values small enough to be exact).
        let to_wide = |n: i64| -> Wide {
            let mut s = ExactSum::zero();
            s.add_f64(n as f64);
            s.to_wide()
        };
        let scaled = |w: &Wide| w.to_f64_scaled(i64::from(SCALE_EXP));
        for (a, b) in [(0i64, 0i64), (5, 3), (3, 5), (-4, 9), (7, -7), (-2, -8)] {
            let (wa, wb) = (to_wide(a), to_wide(b));
            assert_eq!(scaled(&wa.sub(&wb)), (a - b) as f64, "{a} - {b}");
            assert_eq!(
                wa.mul(&wb).to_f64_scaled(2 * i64::from(SCALE_EXP)),
                (a * b) as f64,
                "{a} * {b}"
            );
            assert_eq!(scaled(&wa.mul_u64(13)), (a * 13) as f64, "{a} * 13");
        }
        // Shift: x * 2^40.
        let w = to_wide(3);
        assert_eq!(scaled(&w.shl_bits(40)), 3.0 * 2f64.powi(40));
        // mul_u64 with a full-width scalar.
        let k = u64::MAX;
        let w = to_wide(1);
        assert_eq!(scaled(&w.mul_u64(k)), k as f64);
    }

    /// The plain schoolbook product `Wide::mul` must reproduce.
    fn schoolbook(a: &Wide, b: &Wide) -> Wide {
        let mut digits = vec![0u64; a.digits.len() + b.digits.len() + 1];
        for (i, &x) in a.digits.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &y) in b.digits.iter().enumerate() {
                let t = u128::from(digits[i + j]) + u128::from(x) * u128::from(y) + carry;
                digits[i + j] = (t & 0xffff_ffff) as u64;
                carry = t >> 32;
            }
            let mut k = i + b.digits.len();
            while carry > 0 {
                let t = u128::from(digits[k]) + carry;
                digits[k] = (t & 0xffff_ffff) as u64;
                carry = t >> 32;
                k += 1;
            }
        }
        Wide {
            neg: a.neg != b.neg,
            digits,
        }
        .trim()
    }

    #[test]
    fn mul_skipping_zero_digits_matches_schoolbook() {
        // Operands shaped like scaled sums: a long run of zero low
        // digits, a few data digits (some zero, some all-ones to force
        // long carries), either sign — plus zero itself.
        let mut rng = Mix(0x5eed_0e1a);
        let operand = |rng: &mut Mix| -> Wide {
            let zeros = (rng.next() % 72) as usize;
            let data = (rng.next() % 6) as usize;
            let mut digits = vec![0u64; zeros];
            for _ in 0..data {
                digits.push(match rng.next() % 4 {
                    0 => 0,
                    1 => 0xffff_ffff,
                    _ => rng.next() & 0xffff_ffff,
                });
            }
            Wide {
                neg: rng.next() % 2 == 1,
                digits,
            }
            .trim()
        };
        for _ in 0..2000 {
            let (a, b) = (operand(&mut rng), operand(&mut rng));
            assert_eq!(a.mul(&b), schoolbook(&a, &b), "{a:?} * {b:?}");
            assert_eq!(b.mul(&a), schoolbook(&b, &a), "{b:?} * {a:?}");
        }
        let x = operand(&mut rng);
        assert!(x.mul(&Wide::zero()).is_zero());
        assert!(Wide::zero().mul(&x).is_zero());
    }

    #[test]
    fn exact_variance_numerator_is_zero_for_constant_data() {
        // n*Σx² - (Σx)² computed exactly must vanish for constant data —
        // the property that makes degenerate scatter stats exactly zero.
        let x = 1.234_567_890_123_456_7;
        let n = 17u64;
        let mut sum = ExactSum::zero();
        let mut sumsq = ExactSum::zero();
        for _ in 0..n {
            sum.add_f64(x);
            sumsq.add_prod(x, x);
        }
        // Σx is I_S·2^s and Σx² is I_Q·2^s for the same s = SCALE_EXP, so
        // n·Σx² − (Σx)² = (n·I_Q·2^-s − I_S²)·2^2s.
        let t = sumsq
            .to_wide()
            .mul_u64(n)
            .shl_bits((-SCALE_EXP) as usize)
            .sub(&sum.to_wide().mul(&sum.to_wide()));
        assert!(
            t.is_zero(),
            "constant data must give an exactly zero numerator"
        );
    }

    #[test]
    fn exact_variance_matches_two_pass_for_benign_data() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let n = values.len() as u64;
        let mut sum = ExactSum::zero();
        let mut sumsq = ExactSum::zero();
        for &v in &values {
            sum.add_f64(v);
            sumsq.add_prod(v, v);
        }
        let t = sumsq
            .to_wide()
            .mul_u64(n)
            .shl_bits((-SCALE_EXP) as usize)
            .sub(&sum.to_wide().mul(&sum.to_wide()));
        let var = t.to_f64_scaled(2 * i64::from(SCALE_EXP)) / ((n * (n - 1)) as f64);
        // Two-pass oracle: mean 5, Σ(x-mean)² = 32, sample variance 32/7.
        assert_eq!(var, 32.0 / 7.0);
    }

    #[test]
    fn to_f64_scaled_handles_overflow_and_underflow() {
        // Unit integers straight from sparse limbs (to_wide of an
        // ExactSum would carry the 2^2176 fixed-point scale).
        let one = ExactSum::from_sparse(&[(0, 1)]).unwrap().to_wide();
        let three = ExactSum::from_sparse(&[(0, 3)]).unwrap().to_wide();
        // 2^1100 overflows f64.
        assert_eq!(one.shl_bits(1100).to_f64_scaled(0), f64::INFINITY);
        assert_eq!(one.shl_bits(1100).to_f64_scaled(-3276 - 52), 0.0);
        // Far below the subnormal floor: rounds to zero.
        assert_eq!(one.to_f64_scaled(-3000), 0.0);
        // Exactly the smallest subnormal.
        assert_eq!(one.to_f64_scaled(-1074), f64::from_bits(1));
        // Half of it: tie, rounds to even (zero).
        assert_eq!(one.to_f64_scaled(-1075), 0.0);
        // Three quarters: above the tie, rounds up.
        assert_eq!(three.to_f64_scaled(-1076), f64::from_bits(1));
        // Plain integers round-trip.
        assert_eq!(three.to_f64_scaled(0), 3.0);
    }
}
