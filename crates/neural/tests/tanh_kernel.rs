//! Accuracy contract of the fast tanh kernel, property-tested against
//! libm as the oracle over the kernel's whole active range.
//!
//! The error budget these properties pin (|error| ≤ 1e-12 per call) is
//! what justifies the recorded fingerprint migration: every migrated
//! golden line moved because of deviations bounded here, and nothing
//! else. See DESIGN.md §14.

use ddos_neural::kernel::{tanh_fast, tanh_fast_slice, SATURATION};
use ddos_neural::nar::{NarConfig, NarModel};
use ddos_neural::train::TrainConfig;
use proptest::prelude::*;

const MAX_ABS_ERR: f64 = 1e-12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Within the approximation's active range the kernel tracks libm
    /// to 1e-12 absolute — two orders tighter than anything the NAR
    /// training loop can observe through its ~1e-6 convergence noise.
    #[test]
    fn matches_libm_within_budget(x in -20.0f64..20.0) {
        let got = tanh_fast(x);
        let want = x.tanh();
        prop_assert!((got - want).abs() <= MAX_ABS_ERR);
    }

    /// Saturation is exact: at and beyond the cutoff the kernel returns
    /// ±1.0 bit-exactly (libm itself rounds to ±1.0 well before 19).
    #[test]
    fn saturates_exactly(mag in SATURATION..1e300, neg in 0u8..2) {
        let x = if neg == 1 { -mag } else { mag };
        prop_assert_eq!(tanh_fast(x).to_bits(), (1.0f64.copysign(x)).to_bits());
    }

    /// Odd symmetry holds bitwise, zeros and signed zeros included.
    #[test]
    fn odd_symmetry_is_bitwise(x in -1e300f64..1e300) {
        prop_assert_eq!(tanh_fast(-x).to_bits(), (-tanh_fast(x)).to_bits());
    }

    /// Monotone non-decreasing up to 1 ulp: the exp-reduction boundary can
    /// wiggle adjacent outputs by a single bit, so strict ordering is only
    /// required once the inputs are separated by more than the local error
    /// (pairs at least 1e-6 apart), while arbitrary pairs must never
    /// decrease by more than one ulp of 1.0.
    #[test]
    fn monotone_within_one_ulp(a in -21.0f64..21.0, gap in 0.0f64..2.0) {
        let b = a + gap;
        let (fa, fb) = (tanh_fast(a), tanh_fast(b));
        prop_assert!(fb >= fa - f64::EPSILON);
        if gap >= 1e-6 {
            prop_assert!(fb >= fa);
        }
    }

    /// The batched form is the scalar kernel, element for element.
    #[test]
    fn slice_is_scalar_elementwise(xs in proptest::collection::vec(-25.0f64..25.0, 0..64)) {
        let mut batched = xs.clone();
        tanh_fast_slice(&mut batched);
        for (x, b) in xs.iter().zip(&batched) {
            prop_assert_eq!(tanh_fast(*x).to_bits(), b.to_bits());
        }
    }
}

/// Deterministic dense sweep backing the proptest bound: ~2M evenly
/// spaced points across the active range, worst-case error recorded.
#[test]
fn dense_grid_worst_case_error() {
    let mut worst = 0.0f64;
    let n = 2_000_000;
    for k in 0..=n {
        let x = -20.0 + 40.0 * (k as f64) / (n as f64);
        let err = (tanh_fast(x) - x.tanh()).abs();
        if err > worst {
            worst = err;
        }
    }
    assert!(worst <= MAX_ABS_ERR, "worst-case |error| {worst:e} exceeds 1e-12");
}

/// The end-to-end bound the per-call budget buys: a §VII-A style NAR fit
/// plus rolling evaluation lands within 1e-6 RMSE of the same run on
/// scalar libm tanh. The libm run's RMSE is frozen as a literal, so the
/// bound holds without a libm network path.
#[test]
fn nar_rolling_rmse_within_1e_6_of_frozen_libm_run() {
    // Rolling RMSE of this exact run with every tanh on `f64::tanh`,
    // recorded at commit 9ff334b, the last with a libm network path.
    const LIBM_RMSE: f64 = f64::from_bits(0x3fc4_19ff_981f_8348);

    // Deterministic synthetic attack-intensity series (AR(2) with a
    // forced seasonal term), long enough for the paper's 80/20 split.
    let mut s = vec![50.0, 52.0];
    for t in 2..240 {
        let v = 0.9 * s[t - 1] - 0.35 * s[t - 2] + ((t as f64) * 0.29).sin() * 6.0 + 24.0;
        s.push(v.clamp(0.0, 1e6));
    }
    let cut = s.len() * 8 / 10;
    let config = NarConfig {
        delays: 3,
        hidden: 6,
        train: TrainConfig { max_epochs: 120, patience: 120, ..Default::default() },
    };
    let model = NarModel::fit(&s[..cut], config, 7).unwrap();
    let preds = model.predict_rolling(&s[..cut], &s[cut..]).unwrap();
    let sse: f64 = s[cut..].iter().zip(&preds).map(|(t, p)| (t - p) * (t - p)).sum();
    let rmse = (sse / preds.len() as f64).sqrt();
    assert!(rmse.is_finite() && rmse > 0.0, "the model must learn something: {rmse}");
    assert!(
        (rmse - LIBM_RMSE).abs() < 1e-6,
        "RMSE moved by {:e} (fast {rmse}, frozen libm {LIBM_RMSE})",
        (rmse - LIBM_RMSE).abs()
    );
}
