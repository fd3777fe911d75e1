//! Batched elementwise math kernels for the training hot loops.
//!
//! Profiling after the allocation-free training rewrite (DESIGN.md §13)
//! showed the NAR fit floor is `tanh` itself: ~10 ms of the 14 ms
//! 120-epoch fit was spent inside libm. This module provides a batched,
//! autovectorization-friendly `tanh` with a strict accuracy contract:
//!
//! * absolute error ≤ 1e-12 vs libm everywhere (measured ~2 ulp);
//! * **exact** ±1.0 saturation for `|x| ≥ SATURATION` (and ±∞);
//! * **bitwise** odd symmetry: `f(-x)` is `f(x)` with the sign flipped,
//!   including `-0.0 → -0.0`;
//! * NaN maps to NaN (the input is returned unchanged).
//!
//! The core is branch-free (selects, no data-dependent branches) and is
//! processed in fixed-width chunks so LLVM vectorizes it; every
//! polynomial step uses [`f64::mul_add`], which is correctly rounded on
//! every ISA (fused instruction or soft-float fallback), so results are
//! bit-identical across targets.
//!
//! Swapping libm's `tanh` for this kernel moved float bits, so it landed
//! as a recorded fingerprint migration (DESIGN.md §14). It is the only
//! `tanh`: every hidden unit of the network runs through [`tanh_fast`] /
//! [`tanh_fast_slice`], and the accuracy tests use `f64::tanh` as the
//! oracle.

/// Saturation cutoff: for `|x| ≥ SATURATION` the kernel returns exactly
/// ±1.0. `1 − tanh(19) ≈ 6.3e-17`, under one ulp of 1.0, so the clamp
/// sits below the 1e-12 accuracy budget by four orders of magnitude.
pub const SATURATION: f64 = 19.0;

/// [`tanh_fast`] over a slice in place, chunked so the branch-free
/// scalar core vectorizes. Each lane is independent, so the chunk width
/// cannot change values — `tanh_fast_slice` ≡ mapping [`tanh_fast`].
pub fn tanh_fast_slice(xs: &mut [f64]) {
    const CHUNK: usize = 8;
    let mut chunks = xs.chunks_exact_mut(CHUNK);
    for chunk in &mut chunks {
        for x in chunk {
            *x = tanh_fast(*x);
        }
    }
    for x in chunks.into_remainder() {
        *x = tanh_fast(*x);
    }
}

/// `log2(e)`, the exponent-reduction multiplier.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// `ln 2` split Cody–Waite style: `LN2_HI` carries the top bits with a
/// zeroed tail so `n · LN2_HI` is exact for the small `n` in play, and
/// `LN2_LO` restores the remainder.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// `1.5 · 2^52`: adding it forces rounding at integer granularity, the
/// classic branch-free round-to-nearest.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Degree-13 Taylor coefficients of `exp` (`1/k!`). With the reduced
/// argument confined to `[−ln2/2, ln2/2]`, the truncation tail
/// `r^14/14!` is below 5e-18 — invisible next to rounding.
const EXP_POLY: [f64; 14] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// The fast scalar kernel: `tanh(x) = (e^{2|x|} − 1) / (e^{2|x|} + 1)`
/// with the sign restored by `copysign`, which makes odd symmetry hold
/// *bitwise* by construction. `e^{2|x|}` comes from Cody–Waite range
/// reduction (`2|x| = n·ln2 + r`), a Horner polynomial for `e^r`, and an
/// exact power-of-two scale built from exponent bits. It is selects and
/// arithmetic only — no data-dependent branches, the NaN case included
/// (a NaN runs the finite path on the clamped `ax.min(SATURATION)` and
/// the last select returns the input) — so the slice form autovectorizes.
#[inline(always)]
pub fn tanh_fast(x: f64) -> f64 {
    let ax = x.abs();
    // Clamp before the reduction so the scale exponent stays in range;
    // the saturation select below makes the clamped value irrelevant.
    let y = 2.0 * ax.min(SATURATION);
    // n = round(y / ln 2), branch-free; exact because y·log2e ≤ 55.
    let shifted = y.mul_add(LOG2_E, ROUND_MAGIC);
    let n = shifted - ROUND_MAGIC;
    // r = y − n·ln2, with ln2 split so the subtraction is exact.
    let r = n.mul_add(-LN2_LO, n.mul_add(-LN2_HI, y));
    let mut p = EXP_POLY[13];
    p = p.mul_add(r, EXP_POLY[12]);
    p = p.mul_add(r, EXP_POLY[11]);
    p = p.mul_add(r, EXP_POLY[10]);
    p = p.mul_add(r, EXP_POLY[9]);
    p = p.mul_add(r, EXP_POLY[8]);
    p = p.mul_add(r, EXP_POLY[7]);
    p = p.mul_add(r, EXP_POLY[6]);
    p = p.mul_add(r, EXP_POLY[5]);
    p = p.mul_add(r, EXP_POLY[4]);
    p = p.mul_add(r, EXP_POLY[3]);
    p = p.mul_add(r, EXP_POLY[2]);
    p = p.mul_add(r, EXP_POLY[1]);
    p = p.mul_add(r, EXP_POLY[0]);
    // e^{2|x|} = p · 2^n via exponent bits; n ∈ [0, 55] so no overflow.
    // `shifted` sits in [2^52, 2^53), where one ulp is 1, so its bits
    // minus ROUND_MAGIC's are n as an integer: no float-to-int
    // conversion, whose saturating form does not vectorize.
    let n_bits = shifted.to_bits().wrapping_sub(ROUND_MAGIC.to_bits());
    let scale = f64::from_bits((n_bits + 1023) << 52);
    let e2x = p * scale;
    let t = (e2x - 1.0) / (e2x + 1.0);
    let mag = if ax >= SATURATION { 1.0 } else { t };
    if x.is_nan() {
        x
    } else {
        mag.copysign(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel as it was with an early `return x` on NaN, which left
    /// scalar paths in the slice form: the oracle for the final select.
    fn tanh_branchy(x: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        let ax = x.abs();
        let y = 2.0 * ax.min(SATURATION);
        let shifted = y.mul_add(LOG2_E, ROUND_MAGIC);
        let n = shifted - ROUND_MAGIC;
        let r = n.mul_add(-LN2_LO, n.mul_add(-LN2_HI, y));
        let mut p = EXP_POLY[13];
        for c in EXP_POLY[..13].iter().rev() {
            p = p.mul_add(r, *c);
        }
        let scale = f64::from_bits(((n as i64 + 1023) as u64) << 52);
        let e2x = p * scale;
        let t = (e2x - 1.0) / (e2x + 1.0);
        let mag = if ax >= SATURATION { 1.0 } else { t };
        mag.copysign(x)
    }

    /// Random bit patterns (every exponent, NaN payloads and subnormals
    /// included) plus the specials, through the scalar kernel and the
    /// slice form, bit for bit against the branchy oracle.
    #[test]
    fn select_form_matches_branchy_oracle_bitwise() {
        let mut inputs = vec![
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_BEEF),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x8000_0000_0000_0001),
            f64::MAX,
            f64::MIN,
            SATURATION,
            -SATURATION,
            SATURATION.next_down(),
            (-SATURATION).next_up(),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        inputs.extend((0..1_000_000).map(|_| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            f64::from_bits(z ^ (z >> 31))
        }));
        inputs.extend((0..=80_000).map(|i| -20.0 + i as f64 * 5e-4));
        let mut batched = inputs.clone();
        tanh_fast_slice(&mut batched);
        for (&x, &b) in inputs.iter().zip(&batched) {
            let want = tanh_branchy(x).to_bits();
            assert_eq!(tanh_fast(x).to_bits(), want, "scalar at {:#018x}", x.to_bits());
            assert_eq!(b.to_bits(), want, "slice at {:#018x}", x.to_bits());
        }
    }

    #[test]
    fn matches_libm_closely_on_dense_grid() {
        let mut worst = 0.0_f64;
        for i in 0..=400_000 {
            let x = -20.0 + i as f64 * 1e-4;
            let err = (tanh_fast(x) - x.tanh()).abs();
            worst = worst.max(err);
        }
        assert!(worst <= 1e-12, "worst abs error {worst:e}");
    }

    #[test]
    fn saturates_exactly() {
        for x in [SATURATION, 19.5, 20.0, 100.0, 1e300, f64::INFINITY] {
            assert_eq!(tanh_fast(x).to_bits(), 1.0_f64.to_bits());
            assert_eq!(tanh_fast(-x).to_bits(), (-1.0_f64).to_bits());
        }
    }

    #[test]
    fn odd_symmetry_is_bitwise() {
        for i in 0..10_000 {
            let x = (i as f64 * 0.004) - 20.0;
            assert_eq!(tanh_fast(-x).to_bits(), (-tanh_fast(x)).to_bits());
        }
        assert_eq!(tanh_fast(0.0).to_bits(), 0.0_f64.to_bits());
        assert_eq!(tanh_fast(-0.0).to_bits(), (-0.0_f64).to_bits());
    }

    #[test]
    fn nan_propagates() {
        assert!(tanh_fast(f64::NAN).is_nan());
    }

    #[test]
    fn slice_matches_scalar_bitwise() {
        let src: Vec<f64> = (0..137).map(|i| (i as f64 - 68.0) * 0.31).collect();
        let mut batched = src.clone();
        tanh_fast_slice(&mut batched);
        for (&x, &b) in src.iter().zip(&batched) {
            assert_eq!(b.to_bits(), tanh_fast(x).to_bits());
        }
    }
}
