//! Property-based tests for the statistical substrate.

use ddos_stats::arima::{difference, Arima, ArimaOrder};
use ddos_stats::distributions::Categorical;
use ddos_stats::ols::LinearModel;
use ddos_stats::select::{search, SearchConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// OLS residuals are orthogonal to every regressor column (the normal
    /// equations), for arbitrary well-conditioned designs.
    #[test]
    fn ols_residuals_orthogonal_to_design(
        slope in -5.0f64..5.0,
        intercept in -5.0f64..5.0,
        noise in proptest::collection::vec(-1.0f64..1.0, 12..40),
    ) {
        let xs: Vec<Vec<f64>> = (0..noise.len()).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = noise
            .iter()
            .enumerate()
            .map(|(i, n)| intercept + slope * i as f64 + n)
            .collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        let resid: Vec<f64> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| y - m.predict(x).unwrap())
            .collect();
        let dot_x: f64 = xs.iter().zip(&resid).map(|(x, r)| x[0] * r).sum();
        let dot_1: f64 = resid.iter().sum();
        prop_assert!(dot_x.abs() < 1e-6 * ys.len() as f64, "x·r = {dot_x}");
        prop_assert!(dot_1.abs() < 1e-6 * ys.len() as f64, "1·r = {dot_1}");
    }

    /// Differencing reduces a polynomial of degree d to (near-)constant
    /// after d rounds.
    #[test]
    fn differencing_kills_polynomials(
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
        c in -3.0f64..3.0,
    ) {
        let series: Vec<f64> = (0..30)
            .map(|i| {
                let t = i as f64;
                a + b * t + c * t * t
            })
            .collect();
        let d2 = difference(&series, 2).unwrap();
        let first = d2[0];
        prop_assert!(d2.iter().all(|v| (v - first).abs() < 1e-6));
    }

    /// An ARIMA fit on any reasonable series produces finite forecasts.
    #[test]
    fn arima_forecasts_are_finite(
        base in proptest::collection::vec(-100.0f64..100.0, 40..120),
        p in 0usize..3,
        q in 0usize..2,
    ) {
        // Skip degenerate constant inputs for p+q > 0 handled internally.
        let model = match Arima::fit(&base, ArimaOrder::new(p, 0, q)) {
            Ok(m) => m,
            Err(_) => return Ok(()), // too short for this order: fine
        };
        let fc = model.forecast(5).unwrap();
        prop_assert!(fc.iter().all(|v| v.is_finite()), "{fc:?}");
    }

    /// Extreme but finite magnitudes (after Bragg et al.'s hostile-input
    /// testing): `Arima::fit`, `search`, `forecast` and `predict_rolling`
    /// (over a continuation holding ±`f64::MAX`) give a typed error or
    /// finite output, never a panic, a NaN or an ∞.
    #[test]
    fn arima_extreme_magnitudes_error_or_stay_finite(
        noise in proptest::collection::vec(-1.0f64..1.0, 8..90),
        exponent in 0i32..200,
        spike in 0usize..180,
        p in 0usize..4,
        d in 0usize..3,
        q in 0usize..3,
    ) {
        // An AR(1)-like walk scaled by 10^exponent, so some series fit and
        // some overflow; about a quarter also carry one ±f64::MAX spike.
        let scale = 10f64.powi(exponent);
        let mut series: Vec<f64> = noise
            .iter()
            .scan(0.0, |level, u| {
                *level = 0.7 * *level + u;
                Some(*level * scale)
            })
            .collect();
        if let Some(v) = series.get_mut(spike) {
            *v = f64::MAX.copysign(*v);
        }
        let mut models = Vec::new();
        if let Ok(m) = Arima::fit(&series, ArimaOrder::new(p, d, q)) {
            models.push(m);
        }
        let config = SearchConfig { max_d: d, ..Default::default() };
        if let Ok(outcome) = search(&series, config) {
            prop_assert!(outcome.table.iter().all(|(_, s)| s.is_finite()));
            models.push(outcome.model);
        }
        for m in &models {
            prop_assert!(m.constant().is_finite() && m.sigma2().is_finite(), "{m:?}");
            prop_assert!(m.aic().is_finite());
            prop_assert!(m.residuals().iter().all(|v| v.is_finite()));
            if let Ok(fc) = m.forecast(5) {
                prop_assert!(fc.iter().all(|v| v.is_finite()), "{fc:?}");
            }
            if let Ok(preds) = m.predict_rolling(&[1.0, f64::MAX, -f64::MAX, 3.0, 4.0]) {
                prop_assert!(preds.iter().all(|v| v.is_finite()), "{preds:?}");
            }
        }
    }

    /// Categorical sampling only returns indices with positive weight.
    #[test]
    fn categorical_respects_support(
        weights in proptest::collection::vec(0.0f64..10.0, 2..12),
        seed in 0u64..1000,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let cat = Categorical::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let idx = cat.sample(&mut rng);
            prop_assert!(idx < weights.len());
            prop_assert!(weights[idx] > 0.0, "sampled zero-weight index {idx}");
        }
    }
}
