//! Information-criterion order selection for ARIMA models.
//!
//! The paper fits "the most general class of models for time series data"
//! (§IV-A4) without publishing exact orders; this module performs the
//! standard Box–Jenkins grid search, choosing the differencing degree from
//! the lag-1 autocorrelation and the (p, q) pair by AIC.
//!
//! The grid is the search's hot path (the temporal model runs it for every
//! series of every family), so [`search`] differences each series once and
//! shares the lag-regression buffers and the Hannan–Rissanen stage-1
//! innovations across its cells; each cell is still bit-identical to
//! [`Arima::fit`] at that order.

use crate::acf::acf;
use crate::arima::{aic, check_length, difference, Arima, ArimaOrder, Estimate, LagFits};
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// Configuration for [`search`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Maximum AR order to try (inclusive).
    pub max_p: usize,
    /// Maximum differencing degree to try (inclusive).
    pub max_d: usize,
    /// Maximum MA order to try (inclusive).
    pub max_q: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { max_p: 3, max_d: 1, max_q: 2 }
    }
}

/// Result of an order search: the winning model plus the score table.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best-scoring fitted model.
    pub model: Arima,
    /// Every (order, score) pair that fit successfully, sorted by score.
    pub table: Vec<(ArimaOrder, f64)>,
}

/// Chooses a differencing degree `d ∈ 0..=max_d`: the smallest `d` whose
/// differenced series has lag-1 autocorrelation below 0.9 (a pragmatic
/// stationarity screen; a near-unit-root series keeps ρ₁ ≈ 1).
///
/// # Errors
///
/// Propagates [`StatsError::TooShort`] for series too short to difference,
/// and [`StatsError::NonFiniteInput`] from [`acf`] when a differenced
/// series is too large for its autocorrelation to be finite.
pub fn choose_differencing(series: &[f64], max_d: usize) -> Result<usize> {
    for d in 0..=max_d {
        let w = difference(series, d)?;
        if w.len() < 3 {
            return Err(StatsError::TooShort { required: d + 3, actual: series.len() });
        }
        match acf(&w, 1) {
            Ok(rho) if rho[1].abs() < 0.9 => return Ok(d),
            Ok(_) => continue,
            // A constant series is trivially stationary.
            Err(StatsError::InvalidParameter { .. }) => return Ok(d),
            Err(e) => return Err(e),
        }
    }
    Ok(max_d)
}

/// Grid search over (p, d, q) minimizing the AIC ([`Arima::aic`]).
///
/// `d` is screened first with [`choose_differencing`] and the grid then runs
/// over `p ∈ 0..=max_p`, `q ∈ 0..=max_q`. Orders whose fit fails (e.g. too
/// little data) or scores non-finitely are skipped.
///
/// Every cell is the fit [`Arima::fit`] would return for its order, bit
/// for bit, but the series is differenced once for the whole grid, the
/// lag designs share one set of solver buffers, and the Hannan–Rissanen
/// stage-1 innovations are computed once per long-AR order rather than
/// once per cell. Only the winner is assembled into an [`Arima`].
///
/// # Errors
///
/// * Propagates [`choose_differencing`] errors.
/// * When no cell scores, the first cell's own error in grid order (the
///   white-noise order (0, d, 0) comes first), or
///   [`StatsError::NonFiniteInput`] for a cell that fit but scored
///   non-finitely.
///
/// # Example
///
/// ```
/// use ddos_stats::select::{search, SearchConfig};
///
/// # fn main() -> Result<(), ddos_stats::StatsError> {
/// let series: Vec<f64> = (0..150).map(|i| ((i as f64) * 0.4).sin() * 3.0 + 10.0).collect();
/// let outcome = search(&series, SearchConfig::default())?;
/// assert!(outcome.model.order().p > 0); // a sinusoid needs AR structure
/// # Ok(())
/// # }
/// ```
pub fn search(series: &[f64], config: SearchConfig) -> Result<SearchOutcome> {
    let d = choose_differencing(series, config.max_d)?;
    // Every cell's `Arima::fit` would refuse a non-finite series first.
    if series.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    let work = difference(series, d)?;
    let mut fits = LagFits::new(&work);
    let mut table: Vec<(ArimaOrder, f64)> = Vec::new();
    let mut best: Option<(ArimaOrder, f64, Estimate)> = None;
    let mut first_cause: Option<StatsError> = None;
    for p in 0..=config.max_p {
        for q in 0..=config.max_q {
            let order = ArimaOrder::new(p, d, q);
            let estimate = match check_length(series.len(), order).and_then(|()| fits.fit(p, q)) {
                Ok(estimate) => estimate,
                Err(e) => {
                    first_cause.get_or_insert(e);
                    continue;
                }
            };
            let score = aic(work.len(), order, estimate.sigma2);
            if !score.is_finite() {
                first_cause.get_or_insert(StatsError::NonFiniteInput);
                continue;
            }
            table.push((order, score));
            if best.as_ref().is_none_or(|(_, s, _)| score < *s) {
                best = Some((order, score, estimate));
            }
        }
    }
    let Some((order, _, estimate)) = best else {
        // The grid always holds (0, d, 0), so some cell left its cause.
        return Err(first_cause.unwrap_or(StatsError::NonFiniteInput));
    };
    // Non-finite scores were skipped above; `total_cmp` keeps the sort
    // panic-free regardless.
    table.sort_by(|a, b| a.1.total_cmp(&b.1));
    let model = Arima::from_estimate(order, series, work, estimate);
    Ok(SearchOutcome { model, table })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn nan_series_is_an_error_not_a_panic() {
        let mut series = ar_series(0.6, 120, 3);
        series[40] = f64::NAN;
        assert!(search(&series, SearchConfig::default()).is_err());
    }

    fn ar_series(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = vec![0.0; n];
        for t in 1..n {
            x[t] = phi * x[t - 1] + rng.gen::<f64>() - 0.5;
        }
        x
    }

    #[test]
    fn stationary_series_needs_no_differencing() {
        let s = ar_series(0.5, 500, 1);
        assert_eq!(choose_differencing(&s, 2).unwrap(), 0);
    }

    #[test]
    fn random_walk_needs_one_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = vec![0.0f64];
        for _ in 0..800 {
            s.push(s.last().unwrap() + rng.gen::<f64>() - 0.5);
        }
        assert_eq!(choose_differencing(&s, 2).unwrap(), 1);
    }

    #[test]
    fn linear_trend_detected() {
        let s: Vec<f64> = (0..300).map(|i| 2.0 * i as f64).collect();
        let d = choose_differencing(&s, 2).unwrap();
        assert!(d >= 1, "trend should difference at least once, got {d}");
    }

    #[test]
    fn search_prefers_ar_for_ar_data() {
        let s = ar_series(0.8, 1500, 3);
        let out = search(&s, SearchConfig::default()).unwrap();
        assert!(out.model.order().p >= 1, "chose {:?}", out.model.order());
        assert_eq!(out.model.order().d, 0);
        assert!(!out.table.is_empty());
        // Table is sorted ascending.
        for w in out.table.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn search_white_noise_prefers_small_model() {
        let mut rng = StdRng::seed_from_u64(4);
        let s: Vec<f64> = (0..1500).map(|_| rng.gen::<f64>()).collect();
        let out = search(&s, SearchConfig::default()).unwrap();
        let o = out.model.order();
        assert!(o.p + o.q <= 1, "white noise picked {o}");
    }

    #[test]
    fn search_fails_on_tiny_series() {
        // The white-noise cell's own length requirement.
        assert_eq!(
            search(&[1.0, 2.0, 3.0], SearchConfig::default()).unwrap_err(),
            StatsError::TooShort { required: 8, actual: 3 }
        );
    }

    /// The search as a loop of independent `Arima::fit` calls: the same
    /// cells, scores, skips and winner, with no shared state.
    fn search_by_independent_fits(series: &[f64], config: SearchConfig) -> SearchOutcome {
        let d = choose_differencing(series, config.max_d).unwrap();
        let mut table = Vec::new();
        let mut best: Option<(f64, Arima)> = None;
        for p in 0..=config.max_p {
            for q in 0..=config.max_q {
                let order = ArimaOrder::new(p, d, q);
                let Ok(model) = Arima::fit(series, order) else { continue };
                let score = model.aic();
                table.push((order, score));
                if best.as_ref().is_none_or(|(s, _)| score < *s) {
                    best = Some((score, model));
                }
            }
        }
        table.sort_by(|a, b| a.1.total_cmp(&b.1));
        SearchOutcome { model: best.unwrap().1, table }
    }

    #[test]
    fn search_equals_independent_fits() {
        let mut rng = StdRng::seed_from_u64(9);
        let walk: Vec<f64> = (0..400)
            .scan(0.0, |acc, _| {
                *acc += rng.gen::<f64>() - 0.4;
                Some(*acc)
            })
            .collect();
        let series =
            [ar_series(0.6, 30, 5), ar_series(0.8, 700, 6), ar_series(-0.3, 2900, 7), walk];
        for s in &series {
            let config = SearchConfig::default();
            let got = search(s, config).unwrap();
            let want = search_by_independent_fits(s, config);
            // `Arima` equality is field by field; no field here is NaN.
            assert_eq!(got.model, want.model);
            let bits = |t: &[(ArimaOrder, f64)]| -> Vec<(ArimaOrder, u64)> {
                t.iter().map(|(o, s)| (*o, s.to_bits())).collect()
            };
            assert_eq!(bits(&got.table), bits(&want.table));
        }
    }

    #[test]
    fn overflowing_series_fails_with_its_own_error() {
        // Finite, but the mean overflows: the differencing screen fails
        // with the typed error instead of reading a NaN ACF as "not
        // stationary", and the search reports that same error. A fit at
        // d = 0 overflows too.
        let s: Vec<f64> =
            (0..200).map(|i| if (i / 3) % 2 == 0 { 1.7e308 } else { 1.0e308 }).collect();
        assert_eq!(Arima::fit(&s, ArimaOrder::new(0, 0, 0)), Err(StatsError::NonFiniteInput));
        for max_d in [0, 1] {
            let config = SearchConfig { max_d, ..Default::default() };
            let first = choose_differencing(&s, max_d).unwrap_err();
            assert_eq!(first, StatsError::NonFiniteInput);
            assert_eq!(search(&s, config).unwrap_err(), first, "max_d {max_d}");
        }
    }
}
