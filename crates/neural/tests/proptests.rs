//! Property-based tests for the neural substrate.

use ddos_neural::nar::{NarConfig, NarModel};
use ddos_neural::network::Mlp;
use ddos_neural::scale::MinMaxScaler;
use ddos_neural::train::TrainConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The analytic gradient matches finite differences for arbitrary
    /// small networks and inputs.
    #[test]
    fn gradient_check(
        input in proptest::collection::vec(-2.0f64..2.0, 2..4),
        target in -1.5f64..1.5,
        seed in 0u64..1000,
    ) {
        let m = Mlp::new(input.len(), 3, seed).unwrap();
        let mut grad = vec![0.0; m.n_params()];
        m.accumulate_gradient(&input, target, &mut grad).unwrap();
        let h = 1e-6;
        let loss = |net: &Mlp| {
            let e = net.predict(&input).unwrap() - target;
            0.5 * e * e
        };
        for probe in [0usize, m.n_params() / 2, m.n_params() - 1] {
            let mut plus = m.clone();
            plus.apply_update(|i, v| if i == probe { v + h } else { v });
            let mut minus = m.clone();
            minus.apply_update(|i, v| if i == probe { v - h } else { v });
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * h);
            prop_assert!(
                (numeric - grad[probe]).abs() < 1e-4,
                "param {probe}: {numeric} vs {}",
                grad[probe]
            );
        }
    }

    /// NAR one-step predictions stay within the sigmoid-bounded envelope
    /// implied by the training range (linear output of bounded hidden
    /// units: |y| <= Σ|w2| + |b2| in scaled space, loosely checked via a
    /// generous multiple of the data range).
    #[test]
    fn nar_predictions_bounded(
        series in proptest::collection::vec(0.0f64..100.0, 24..60),
        seed in 0u64..200,
    ) {
        let cfg = NarConfig {
            delays: 2,
            hidden: 3,
            train: TrainConfig { max_epochs: 40, patience: 10, ..Default::default() },
        };
        let model = match NarModel::fit(&series, cfg, seed) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        let p = model.predict_next(&series).unwrap();
        prop_assert!(p.is_finite());
        let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1.0);
        prop_assert!(p > lo - 5.0 * span && p < hi + 5.0 * span, "{p} outside sane envelope");
    }

    /// Extreme but finite magnitudes (after Bragg et al.'s hostile-input
    /// testing): `NarModel::fit`, `predict_rolling` and `forecast` give a
    /// typed error or finite output, never a panic or a NaN.
    #[test]
    fn nar_extreme_magnitudes_error_or_stay_finite(
        noise in proptest::collection::vec(-1.0f64..1.0, 8..60),
        exponent in 0i32..200,
        spikes in proptest::collection::vec(0usize..120, 0..3),
        delays in 1usize..4,
        seed in 0u64..100,
    ) {
        // An AR(1)-like walk scaled by 10^exponent, with up to two
        // ±f64::MAX spikes in the training history or in the held-out
        // continuation (two in one lag window can make a hidden
        // pre-activation ∞ − ∞).
        let scale = 10f64.powi(exponent);
        let mut series: Vec<f64> = noise
            .iter()
            .scan(0.0, |level, u| {
                *level = 0.7 * *level + u;
                Some(*level * scale)
            })
            .collect();
        for (i, &at) in spikes.iter().enumerate() {
            if let Some(v) = series.get_mut(at) {
                *v = if i % 2 == 0 { f64::MAX } else { -f64::MAX };
            }
        }
        let (history, test) = series.split_at(series.len() * 3 / 4);
        let cfg = NarConfig {
            delays,
            hidden: 3,
            train: TrainConfig { max_epochs: 20, patience: 5, ..Default::default() },
        };
        let model = match NarModel::fit(history, cfg, seed) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        prop_assert!(model.sigma().is_finite(), "sigma {}", model.sigma());
        if let Ok(preds) = model.predict_rolling(history, test) {
            prop_assert!(preds.iter().all(|v| v.is_finite()), "{preds:?}");
        }
        if let Ok(fc) = model.forecast(&series, 5) {
            prop_assert!(fc.iter().all(|v| v.is_finite()), "{fc:?}");
        }
    }

    /// Scaling is strictly monotone for non-degenerate fits.
    #[test]
    fn scaler_monotone(
        values in proptest::collection::vec(-1e3f64..1e3, 2..30),
        a in -2e3f64..2e3,
        b in -2e3f64..2e3,
    ) {
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assume!(hi > lo);
        prop_assume!(a < b);
        let s = MinMaxScaler::fit(&values).unwrap();
        prop_assert!(s.transform(a) < s.transform(b));
    }
}
