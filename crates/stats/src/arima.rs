//! Autoregressive integrated moving-average (ARIMA) models.
//!
//! The paper's temporal model (§IV, Eq. 5) represents each attacker-side
//! feature series as
//!
//! ```text
//! A_t = Σ_{j=1..p} φ_j · A_{t−j} + Σ_{j=0..q} θ_j · e_{t−j}
//! ```
//!
//! i.e. an ARMA(p, q) after `d` rounds of differencing. This module
//! implements the full pipeline:
//!
//! * [`difference`] / [`integrate`] — the "I" part,
//! * [`Arima::fit`] — parameter estimation by the Hannan–Rissanen two-stage
//!   least-squares procedure (exact OLS for pure AR models),
//! * [`Arima::forecast`] — multi-step mean forecasts with re-integration,
//! * [`Arima::fitted`] / [`Arima::residuals`] — in-sample diagnostics,
//! * [`Arima::aic`] / [`Arima::bic`] — information criteria for order
//!   selection (see [`crate::select`]).

use crate::codec::{CodecError, CodecResult, Reader, Writer};
use crate::ols::LinearModel;
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// The (p, d, q) order of an ARIMA model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArimaOrder {
    /// Autoregressive order (number of lagged observations).
    pub p: usize,
    /// Degree of differencing.
    pub d: usize,
    /// Moving-average order (number of lagged errors).
    pub q: usize,
}

impl ArimaOrder {
    /// Creates an order triple.
    pub fn new(p: usize, d: usize, q: usize) -> Self {
        ArimaOrder { p, d, q }
    }

    /// Total number of estimated coefficients (φ's, θ's and the constant).
    pub fn n_params(&self) -> usize {
        self.p + self.q + 1
    }
}

impl std::fmt::Display for ArimaOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ARIMA({},{},{})", self.p, self.d, self.q)
    }
}

/// Applies `d` rounds of first differencing.
///
/// # Errors
///
/// Returns [`StatsError::TooShort`] when the series has `<= d` points.
pub fn difference(series: &[f64], d: usize) -> Result<Vec<f64>> {
    if series.len() <= d {
        return Err(StatsError::TooShort { required: d + 1, actual: series.len() });
    }
    let mut out = series.to_vec();
    for _ in 0..d {
        out = out.windows(2).map(|w| w[1] - w[0]).collect();
    }
    Ok(out)
}

/// Inverts [`difference`]: given the last `d` *heads* recorded during
/// differencing (the first element of the series at each level) this is not
/// needed for forecasting, so this helper instead re-integrates a block of
/// *future* differenced values onto the tail of the original series.
///
/// `history` is the raw (undifferenced) series the model was fit on and
/// `diffed_future` the forecasts produced at the differenced level; the
/// return value is the forecasts at the original level.
///
/// # Errors
///
/// Returns [`StatsError::TooShort`] when `history.len() <= d`.
pub fn integrate(history: &[f64], diffed_future: &[f64], d: usize) -> Result<Vec<f64>> {
    if history.len() <= d {
        return Err(StatsError::TooShort { required: d + 1, actual: history.len() });
    }
    if d == 0 {
        return Ok(diffed_future.to_vec());
    }
    // Build the ladder of last values at each differencing level.
    let mut levels: Vec<Vec<f64>> = vec![history.to_vec()];
    for k in 0..d {
        let next = difference(&levels[k], 1)?;
        levels.push(next);
    }
    // Level `k` holds `history.len() - k >= d + 1 - k >= 1` points for
    // every retained `k < d` (the length guard above), so the tails
    // always exist; the typed error keeps this a `Result` path anyway.
    let mut tails: Vec<f64> = Vec::with_capacity(d);
    for level in levels.iter().take(d) {
        let &tail =
            level.last().ok_or(StatsError::TooShort { required: d + 1, actual: history.len() })?;
        tails.push(tail);
    }
    let mut out = Vec::with_capacity(diffed_future.len());
    for &df in diffed_future {
        // Walk up the ladder: add the deepest-tail first.
        let mut v = df;
        for t in tails.iter_mut().rev() {
            v += *t;
            *t = v;
        }
        out.push(v);
    }
    Ok(out)
}

/// A fitted ARIMA(p, d, q) model.
///
/// # Example
///
/// ```
/// use ddos_stats::arima::{Arima, ArimaOrder};
///
/// # fn main() -> Result<(), ddos_stats::StatsError> {
/// // A trending series is handled by d = 1.
/// let series: Vec<f64> = (0..120).map(|i| 10.0 + 0.5 * i as f64).collect();
/// let model = Arima::fit(&series, ArimaOrder::new(1, 1, 0))?;
/// let next = model.forecast(3)?;
/// // The series continues 70.0, 70.5, 71.0; the differenced AR model
/// // recovers the 0.5 slope essentially exactly.
/// assert!((next[0] - 70.0).abs() < 1e-6);
/// assert!((next[2] - 71.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arima {
    order: ArimaOrder,
    constant: f64,
    ar: Vec<f64>,
    ma: Vec<f64>,
    /// The raw training series (needed for re-integration and forecasting).
    history: Vec<f64>,
    /// Differenced training series.
    work: Vec<f64>,
    /// In-sample one-step residuals at the differenced level.
    residuals: Vec<f64>,
    sigma2: f64,
}

impl Arima {
    /// Fits the model by Hannan–Rissanen two-stage least squares.
    ///
    /// Stage 1 fits a long autoregression to estimate the innovation
    /// sequence; stage 2 regresses the differenced series on its own lags
    /// and the lagged innovation estimates. For pure AR models (q = 0) this
    /// collapses to exact conditional OLS.
    ///
    /// # Errors
    ///
    /// * [`StatsError::TooShort`] when the series cannot support the order
    ///   (needs roughly `d + max(p, q) · 3 + 10` points).
    /// * [`StatsError::NonFiniteInput`] for NaN/∞ inputs.
    /// * [`StatsError::SingularMatrix`] for degenerate (e.g. constant)
    ///   series with p + q > 0.
    pub fn fit(series: &[f64], order: ArimaOrder) -> Result<Self> {
        if series.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteInput);
        }
        let min_len = order.d + order.p.max(order.q) * 3 + 8;
        if series.len() < min_len {
            return Err(StatsError::TooShort { required: min_len, actual: series.len() });
        }
        let work = difference(series, order.d)?;
        let n = work.len();
        let p = order.p;
        let q = order.q;

        let (constant, ar, ma) = if p == 0 && q == 0 {
            let mean = work.iter().sum::<f64>() / n as f64;
            (mean, Vec::new(), Vec::new())
        } else if q == 0 {
            // Exact conditional least squares for AR(p).
            let (c, phi) = fit_ar_ols(&work, p)?;
            (c, phi, Vec::new())
        } else {
            fit_hannan_rissanen(&work, p, q)?
        };

        let residuals = compute_residuals(&work, constant, &ar, &ma);
        let eff_n = residuals.len().saturating_sub(p).max(1);
        let sigma2 = residuals.iter().skip(p).map(|e| e * e).sum::<f64>() / eff_n as f64;

        Ok(Arima { order, constant, ar, ma, history: series.to_vec(), work, residuals, sigma2 })
    }

    /// The model order.
    pub fn order(&self) -> ArimaOrder {
        self.order
    }

    /// The fitted constant term (at the differenced level).
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// The fitted autoregressive coefficients φ₁..φ_p.
    pub fn ar_coefficients(&self) -> &[f64] {
        &self.ar
    }

    /// The fitted moving-average coefficients θ₁..θ_q.
    pub fn ma_coefficients(&self) -> &[f64] {
        &self.ma
    }

    /// Innovation variance estimate σ².
    pub fn sigma2(&self) -> f64 {
        self.sigma2
    }

    /// In-sample one-step residuals (differenced level). The first
    /// `max(p, q)` entries are conditioning zeros.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// In-sample fitted values at the *original* level, aligned with the
    /// training series (the first `d + p` values repeat the observations, as
    /// no prediction exists for them).
    pub fn fitted(&self) -> Vec<f64> {
        let d = self.order.d;
        let mut fitted_diff = Vec::with_capacity(self.work.len());
        for (t, (w, e)) in self.work.iter().zip(&self.residuals).enumerate() {
            if t < self.order.p {
                fitted_diff.push(*w);
            } else {
                fitted_diff.push(w - e);
            }
        }
        if d == 0 {
            return fitted_diff;
        }
        // Reconstruct at the original level: fitted_t = fitted_diff_t + y_{t-1} (for d=1),
        // generalized through the differencing ladder.
        let mut out = self.history[..d].to_vec();
        for (t, fd) in fitted_diff.iter().enumerate() {
            // One-step-ahead reconstruction uses the *observed* previous values.
            let mut v = *fd;
            // Undo d rounds of differencing using observed history.
            for k in 1..=d {
                v += nth_difference_at(&self.history, k - 1, t + d - k);
            }
            out.push(v);
        }
        out
    }

    /// Mean forecast `horizon` steps ahead, at the original level.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `horizon == 0`.
    pub fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.forecast_into(horizon, &mut out)?;
        Ok(out)
    }

    /// [`Arima::forecast`] writing into a caller-owned output buffer
    /// (cleared first): the preallocated multi-step batch path. The
    /// differenced-level recursion and the re-integration ladder perform
    /// exactly the float operations of the allocating path (the ladder
    /// tails are seeded from the trailing `d + 1` history values, which
    /// is the same pairwise-subtraction tree [`integrate`] builds), so
    /// the two are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `horizon == 0`.
    pub fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>) -> Result<()> {
        if horizon == 0 {
            return Err(StatsError::InvalidParameter {
                name: "horizon",
                detail: "forecast horizon must be nonzero".to_string(),
            });
        }
        let d = self.order.d;
        if self.history.len() <= d {
            return Err(StatsError::TooShort { required: d + 1, actual: self.history.len() });
        }
        let mut w = Vec::with_capacity(self.work.len() + horizon);
        w.extend_from_slice(&self.work);
        let mut e = Vec::with_capacity(self.residuals.len() + horizon);
        e.extend_from_slice(&self.residuals);
        out.clear();
        out.reserve(horizon);
        for _ in 0..horizon {
            let t = w.len();
            let mut v = self.constant;
            for (j, phi) in self.ar.iter().enumerate() {
                if t > j {
                    v += phi * w[t - 1 - j];
                }
            }
            for (j, theta) in self.ma.iter().enumerate() {
                if t > j && t - 1 - j < e.len() {
                    v += theta * e[t - 1 - j];
                }
            }
            w.push(v);
            e.push(0.0); // future innovations are zero in the mean forecast
            out.push(v);
        }
        if d == 0 {
            return Ok(());
        }
        // In-place re-integration: the ladder tails (last value of the
        // k-th difference of the history, k = 0..d) seed the walk.
        let n = self.history.len();
        let mut tails: Vec<f64> =
            (0..d).map(|k| nth_difference_at(&self.history, k, n - 1 - k)).collect();
        for v in out.iter_mut() {
            let mut acc = *v;
            for t in tails.iter_mut().rev() {
                acc += *t;
                *t = acc;
            }
            *v = acc;
        }
        Ok(())
    }

    /// The ψ-weights (MA(∞) representation) of the fitted ARMA part, up to
    /// `n` terms: `ψ₀ = 1`, `ψ_j = θ_j + Σ_{k=1..min(j,p)} φ_k ψ_{j−k}`.
    /// Forecast error variance at horizon `h` is `σ² Σ_{j<h} ψ_j²`.
    pub fn psi_weights(&self, n: usize) -> Vec<f64> {
        let mut psi = vec![0.0; n.max(1)];
        psi[0] = 1.0;
        for j in 1..psi.len() {
            let mut v = if j <= self.ma.len() { self.ma[j - 1] } else { 0.0 };
            for (k, phi) in self.ar.iter().enumerate() {
                if j > k {
                    v += phi * psi[j - 1 - k];
                }
            }
            psi[j] = v;
        }
        psi
    }

    /// Mean forecast with symmetric `z`-score prediction intervals, at the
    /// original level: returns `(mean, lower, upper)` per step. `z = 1.96`
    /// gives 95% intervals under Gaussian innovations.
    ///
    /// Defense provisioning wants the upper band, not the point forecast —
    /// the paper's §IV-B worries about "over-provisions of the defense
    /// resources"; the interval quantifies exactly how much headroom a
    /// given confidence costs.
    ///
    /// For differenced models the interval widths are computed on the
    /// differenced scale and accumulated through the integration, which is
    /// the standard approximation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Arima::forecast`]; additionally
    /// [`StatsError::InvalidParameter`] for a nonpositive `z`.
    pub fn forecast_with_interval(&self, horizon: usize, z: f64) -> Result<Vec<(f64, f64, f64)>> {
        if z <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "z",
                detail: format!("z-score must be positive, got {z}"),
            });
        }
        let means = self.forecast(horizon)?;
        let psi = self.psi_weights(horizon);
        let sigma = self.sigma2.sqrt();
        let mut cum = 0.0;
        let mut out = Vec::with_capacity(horizon);
        for (h, mean) in means.iter().enumerate() {
            cum += psi[h] * psi[h];
            // Integration (d > 0) accumulates the differenced-scale errors.
            let width = z * sigma * (cum * (self.order.d as f64 + 1.0)).sqrt();
            out.push((*mean, mean - width, mean + width));
        }
        Ok(out)
    }

    /// Rolling one-step-ahead predictions over a held-out continuation of
    /// the training series, re-fitting nothing: the model is applied with
    /// its frozen coefficients, consuming each true observation as it
    /// arrives. Returns one prediction per element of `test`.
    ///
    /// This mirrors the paper's evaluation protocol: train on 80% of the
    /// chronologically ordered attacks, then predict each test attack from
    /// everything observed before it.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `test` is empty.
    pub fn predict_rolling(&self, test: &[f64]) -> Result<Vec<f64>> {
        let mut preds = Vec::new();
        self.predict_rolling_into(test, &mut preds)?;
        Ok(preds)
    }

    /// [`Arima::predict_rolling`] writing into a caller-owned output
    /// buffer (cleared first): the preallocated batch path the serve
    /// stages use, so steady-state rolling prediction reuses one output
    /// allocation across models. Bit-identical to the allocating
    /// wrapper — the per-step float operations are the same code.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `test` is empty.
    pub fn predict_rolling_into(&self, test: &[f64], preds: &mut Vec<f64>) -> Result<()> {
        if test.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let d = self.order.d;
        // Preallocate for the full rolling horizon up front: each absorbed
        // observation pushes one element onto all three series, so sizing
        // them now keeps the loop free of reallocation.
        let mut full = Vec::with_capacity(self.history.len() + test.len());
        full.extend_from_slice(&self.history);
        let mut w = Vec::with_capacity(self.work.len() + test.len());
        w.extend_from_slice(&self.work);
        let mut e = Vec::with_capacity(self.residuals.len() + test.len());
        e.extend_from_slice(&self.residuals);
        preds.clear();
        preds.reserve(test.len());
        for &obs in test {
            // One-step mean forecast at differenced level.
            let t = w.len();
            let mut v = self.constant;
            for (j, phi) in self.ar.iter().enumerate() {
                if t > j {
                    v += phi * w[t - 1 - j];
                }
            }
            for (j, theta) in self.ma.iter().enumerate() {
                if t > j && t - 1 - j < e.len() {
                    v += theta * e[t - 1 - j];
                }
            }
            let pred = integrate(&full, &[v], d)?[0];
            preds.push(pred);
            // Absorb the true observation.
            full.push(obs);
            // `difference` either errors (`full.len() <= d`) or returns
            // `full.len() - d >= 1` values, so the tail always exists;
            // surface the impossible case as a typed error, not a panic.
            let new_w = *difference(&full, d)?
                .last()
                .ok_or(StatsError::TooShort { required: d + 1, actual: full.len() })?;
            w.push(new_w);
            e.push(new_w - v);
        }
        Ok(())
    }

    /// One-step mean prediction from an *arbitrary* history window using
    /// the frozen coefficients (MA terms use zero for the unknown
    /// innovations, the standard approximation when the conditioning
    /// window is short).
    ///
    /// This is how the spatiotemporal model (§VI) reuses a fitted temporal
    /// model on a target's 10-attack history.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::TooShort`] when `history` cannot supply
    /// `d + p` values.
    pub fn predict_one_from(&self, history: &[f64]) -> Result<f64> {
        let mut diffed = Vec::new();
        self.predict_one_from_with(history, &mut diffed)
    }

    /// [`Arima::predict_one_from`] with a caller-owned differencing
    /// buffer: the per-call allocation (the cloned-then-differenced
    /// history) lands in `diffed` and is reused across calls, so batch
    /// feature assembly pays zero steady-state allocation per window for
    /// the common `d = 0` orders. Bit-identical to the allocating
    /// wrapper: the in-place differencing and re-integration ladder
    /// perform the exact float operations of [`difference`] /
    /// [`integrate`] in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::TooShort`] when `history` cannot supply
    /// `d + p` values.
    pub fn predict_one_from_with(&self, history: &[f64], diffed: &mut Vec<f64>) -> Result<f64> {
        let d = self.order.d;
        let p = self.order.p;
        if history.len() < d + p.max(1) {
            return Err(StatsError::TooShort { required: d + p.max(1), actual: history.len() });
        }
        // In-place differencing, capturing each level's tail value for
        // the re-integration ladder. (For d > 0 the d-element tail list
        // is a tiny side allocation; the history-sized buffer is what
        // `diffed` amortizes.)
        diffed.clear();
        diffed.extend_from_slice(history);
        let mut tails: Vec<f64> = Vec::with_capacity(d);
        for _ in 0..d {
            // Before round `k < d` the buffer holds
            // `history.len() - k >= d + p.max(1) - k >= 1` values (the
            // length guard above), so the tail always exists; keep the
            // impossible case on the typed error path.
            let &tail = diffed
                .last()
                .ok_or(StatsError::TooShort { required: d + p.max(1), actual: history.len() })?;
            tails.push(tail);
            for i in 0..diffed.len() - 1 {
                diffed[i] = diffed[i + 1] - diffed[i];
            }
            diffed.pop();
        }
        let t = diffed.len();
        let mut v = self.constant;
        for (j, phi) in self.ar.iter().enumerate() {
            if t > j {
                v += phi * diffed[t - 1 - j];
            }
        }
        // `integrate` adds the level tails deepest-first onto the
        // differenced forecast; replicate that exact addition order.
        for &tail in tails.iter().rev() {
            v += tail;
        }
        Ok(v)
    }

    /// Akaike information criterion (Gaussian likelihood approximation).
    pub fn aic(&self) -> f64 {
        let n = self.work.len() as f64;
        let k = self.order.n_params() as f64;
        n * self.sigma2.max(1e-12).ln() + 2.0 * k
    }

    /// Bayesian information criterion.
    pub fn bic(&self) -> f64 {
        let n = self.work.len() as f64;
        let k = self.order.n_params() as f64;
        n * self.sigma2.max(1e-12).ln() + k * n.ln()
    }

    /// The training series this model was fit on.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Encodes the fitted model field-for-field into `w` (the ARIMA
    /// artifact payload). Every `f64` is written as its `to_bits`
    /// pattern, so [`Arima::decode`] reconstructs a struct that is
    /// bitwise equal to `self` — round-trip is the identity.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.order.p);
        w.usize(self.order.d);
        w.usize(self.order.q);
        w.f64(self.constant);
        w.f64_seq(&self.ar);
        w.f64_seq(&self.ma);
        w.f64_seq(&self.history);
        w.f64_seq(&self.work);
        w.f64_seq(&self.residuals);
        w.f64(self.sigma2);
    }

    /// Decodes a model encoded by [`Arima::encode`], validating the
    /// structural invariants the prediction paths rely on (coefficient
    /// counts matching the order, differenced-series lengths consistent
    /// with the history) so corrupt payloads become typed errors rather
    /// than panics downstream.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] / [`CodecError::Invalid`] on short or
    /// inconsistent input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let order = ArimaOrder::new(r.usize()?, r.usize()?, r.usize()?);
        let constant = r.f64()?;
        let ar = r.f64_seq()?;
        let ma = r.f64_seq()?;
        let history = r.f64_seq()?;
        let work = r.f64_seq()?;
        let residuals = r.f64_seq()?;
        let sigma2 = r.f64()?;
        if ar.len() != order.p || ma.len() != order.q {
            return Err(CodecError::Invalid {
                detail: format!(
                    "coefficient counts ({}, {}) disagree with order {order}",
                    ar.len(),
                    ma.len()
                ),
            });
        }
        if history.len() <= order.d || work.len() != history.len() - order.d {
            return Err(CodecError::Invalid {
                detail: format!(
                    "history of {} cannot yield {} values at differencing degree {}",
                    history.len(),
                    work.len(),
                    order.d
                ),
            });
        }
        if residuals.len() != work.len() {
            return Err(CodecError::Invalid {
                detail: format!(
                    "{} residuals for {} differenced observations",
                    residuals.len(),
                    work.len()
                ),
            });
        }
        Ok(Arima { order, constant, ar, ma, history, work, residuals, sigma2 })
    }
}

/// Value of the `k`-th difference of `series` at index `idx` (0-th
/// difference is the series itself).
fn nth_difference_at(series: &[f64], k: usize, idx: usize) -> f64 {
    let mut vals: Vec<f64> = series[idx..=idx + k].to_vec();
    for _ in 0..k {
        vals = vals.windows(2).map(|w| w[1] - w[0]).collect();
    }
    vals[0]
}

/// Conditional OLS fit of an AR(p) with intercept.
fn fit_ar_ols(work: &[f64], p: usize) -> Result<(f64, Vec<f64>)> {
    let n = work.len();
    if n <= p + 1 {
        return Err(StatsError::TooShort { required: p + 2, actual: n });
    }
    let xs: Vec<Vec<f64>> = (p..n).map(|t| (1..=p).map(|j| work[t - j]).collect()).collect();
    let ys: Vec<f64> = work[p..].to_vec();
    match LinearModel::fit(&xs, &ys) {
        Ok(m) => Ok((m.intercept(), m.coefficients().to_vec())),
        Err(StatsError::SingularMatrix) => {
            // Constant series: fall back to mean-only model.
            let mean = work.iter().sum::<f64>() / n as f64;
            Ok((mean, vec![0.0; p]))
        }
        Err(e) => Err(e),
    }
}

/// Hannan–Rissanen estimation for ARMA(p, q).
fn fit_hannan_rissanen(work: &[f64], p: usize, q: usize) -> Result<(f64, Vec<f64>, Vec<f64>)> {
    let n = work.len();
    // Stage 1: long AR to estimate innovations.
    let long_p = ((n as f64).ln().ceil() as usize + p + q).min(n / 4).max(p + q + 1);
    let (c1, phi1) = fit_ar_ols(work, long_p)?;
    let mut e = vec![0.0; n];
    for t in long_p..n {
        let mut pred = c1;
        for (j, ph) in phi1.iter().enumerate() {
            pred += ph * work[t - 1 - j];
        }
        e[t] = work[t] - pred;
    }
    // Stage 2: regress on p lags of the series and q lags of ê.
    let start = long_p + q;
    if n <= start + p + q + 2 {
        return Err(StatsError::TooShort { required: start + p + q + 3, actual: n });
    }
    let mut xs = Vec::with_capacity(n - start);
    let mut ys = Vec::with_capacity(n - start);
    for t in start.max(p)..n {
        let mut row = Vec::with_capacity(p + q);
        for j in 1..=p {
            row.push(work[t - j]);
        }
        for j in 1..=q {
            row.push(e[t - j]);
        }
        xs.push(row);
        ys.push(work[t]);
    }
    let m = LinearModel::fit(&xs, &ys)?;
    let coef = m.coefficients();
    let ar = coef[..p].to_vec();
    let ma = coef[p..].to_vec();
    Ok((m.intercept(), ar, ma))
}

/// Conditional (zero-initialized) residual recursion.
fn compute_residuals(work: &[f64], constant: f64, ar: &[f64], ma: &[f64]) -> Vec<f64> {
    let n = work.len();
    let p = ar.len();
    let mut e = vec![0.0; n];
    for t in 0..n {
        if t < p {
            continue; // conditioning period
        }
        let mut pred = constant;
        for (j, phi) in ar.iter().enumerate() {
            pred += phi * work[t - 1 - j];
        }
        for (j, theta) in ma.iter().enumerate() {
            if t > j {
                pred += theta * e[t - 1 - j];
            }
        }
        e[t] = work[t] - pred;
    }
    e
}

/// A lightweight vector-autoregression-style convenience: fits independent
/// ARIMA models of the same order to several aligned series at once.
///
/// The temporal model tracks three features (`A^f`, `A^b`, `A^s`) per
/// family; this helper keeps their models together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArimaEnsemble {
    models: Vec<Arima>,
}

impl ArimaEnsemble {
    /// Fits one model per series.
    ///
    /// # Errors
    ///
    /// Propagates the first fitting error; returns
    /// [`StatsError::EmptyInput`] when `series.is_empty()`.
    pub fn fit(series: &[Vec<f64>], order: ArimaOrder) -> Result<Self> {
        if series.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let models = series.iter().map(|s| Arima::fit(s, order)).collect::<Result<Vec<_>>>()?;
        Ok(ArimaEnsemble { models })
    }

    /// The fitted member models, in input order.
    pub fn models(&self) -> &[Arima] {
        &self.models
    }

    /// Forecasts every member `horizon` steps ahead.
    ///
    /// # Errors
    ///
    /// Propagates the member forecast errors.
    pub fn forecast(&self, horizon: usize) -> Result<Vec<Vec<f64>>> {
        self.models.iter().map(|m| m.forecast(horizon)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn simulate_arma(
        phi: &[f64],
        theta: &[f64],
        c: f64,
        n: usize,
        noise: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = phi.len();
        let q = theta.len();
        let mut x = vec![0.0f64; n + 100];
        let mut e = vec![0.0f64; n + 100];
        for t in p.max(q)..x.len() {
            let et = (rng.gen::<f64>() - 0.5) * 2.0 * noise;
            let mut v = c + et;
            for (j, ph) in phi.iter().enumerate() {
                v += ph * x[t - 1 - j];
            }
            for (j, th) in theta.iter().enumerate() {
                v += th * e[t - 1 - j];
            }
            x[t] = v;
            e[t] = et;
        }
        x[100..].to_vec()
    }

    #[test]
    fn difference_basics() {
        assert_eq!(difference(&[1.0, 3.0, 6.0], 1).unwrap(), vec![2.0, 3.0]);
        assert_eq!(difference(&[1.0, 3.0, 6.0], 2).unwrap(), vec![1.0]);
        assert!(difference(&[1.0], 1).is_err());
    }

    #[test]
    fn integrate_inverts_difference_one_step_chain() {
        let hist = vec![2.0, 5.0, 9.0, 14.0];
        // future differenced values 6.0, 7.0 should integrate to 20, 27
        let out = integrate(&hist, &[6.0, 7.0], 1).unwrap();
        assert_eq!(out, vec![20.0, 27.0]);
    }

    #[test]
    fn integrate_d2() {
        // y = t², first diff = 2t+1, second diff = 2 (constant).
        let hist: Vec<f64> = (0..6).map(|t| (t * t) as f64).collect();
        let out = integrate(&hist, &[2.0, 2.0], 2).unwrap();
        assert_eq!(out, vec![36.0, 49.0]);
    }

    #[test]
    fn integrate_d0_is_identity() {
        assert_eq!(integrate(&[1.0], &[5.0, 6.0], 0).unwrap(), vec![5.0, 6.0]);
    }

    #[test]
    fn ar1_recovery() {
        let series = simulate_arma(&[0.7], &[], 1.0, 3000, 0.5, 11);
        let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        assert!(
            (model.ar_coefficients()[0] - 0.7).abs() < 0.05,
            "phi {} should be near 0.7",
            model.ar_coefficients()[0]
        );
        // Unconditional mean = c / (1 - phi) ≈ 3.33
        let implied_mean = model.constant() / (1.0 - model.ar_coefficients()[0]);
        assert!((implied_mean - 1.0 / 0.3).abs() < 0.3, "mean {implied_mean}");
    }

    #[test]
    fn ar2_recovery() {
        let series = simulate_arma(&[0.5, 0.3], &[], 0.0, 5000, 0.5, 12);
        let model = Arima::fit(&series, ArimaOrder::new(2, 0, 0)).unwrap();
        assert!((model.ar_coefficients()[0] - 0.5).abs() < 0.07);
        assert!((model.ar_coefficients()[1] - 0.3).abs() < 0.07);
    }

    #[test]
    fn ma1_recovery_sign() {
        let series = simulate_arma(&[], &[0.6], 0.0, 8000, 1.0, 13);
        let model = Arima::fit(&series, ArimaOrder::new(0, 0, 1)).unwrap();
        let theta = model.ma_coefficients()[0];
        assert!(theta > 0.3 && theta < 0.9, "theta {theta} should be near 0.6");
    }

    #[test]
    fn arma11_fits_better_than_white_noise() {
        let series = simulate_arma(&[0.6], &[0.4], 0.0, 4000, 1.0, 14);
        let arma = Arima::fit(&series, ArimaOrder::new(1, 0, 1)).unwrap();
        let wn = Arima::fit(&series, ArimaOrder::new(0, 0, 0)).unwrap();
        assert!(arma.sigma2() < wn.sigma2());
        assert!(arma.aic() < wn.aic());
    }

    #[test]
    fn trend_handled_by_differencing() {
        let series: Vec<f64> = (0..200).map(|i| 5.0 + 2.0 * i as f64).collect();
        let model = Arima::fit(&series, ArimaOrder::new(0, 1, 0)).unwrap();
        let fc = model.forecast(3).unwrap();
        // Next values continue the line: 405, 407, 409.
        assert!((fc[0] - 405.0).abs() < 0.5, "fc {fc:?}");
        assert!((fc[2] - 409.0).abs() < 0.5);
    }

    #[test]
    fn forecast_horizon_zero_rejected() {
        let series: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        assert!(model.forecast(0).is_err());
    }

    #[test]
    fn forecast_of_mean_model_is_mean() {
        let series = vec![4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0];
        let model = Arima::fit(&series, ArimaOrder::new(0, 0, 0)).unwrap();
        let fc = model.forecast(2).unwrap();
        assert!((fc[0] - 5.0).abs() < 1e-9);
        assert!((fc[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn residuals_align_and_shrink_with_fit() {
        let series = simulate_arma(&[0.8], &[], 0.0, 1000, 0.3, 15);
        let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        assert_eq!(model.residuals().len(), series.len());
        let resid_var = model.sigma2();
        let series_var = crate::metrics::variance(&series).unwrap();
        assert!(resid_var < series_var * 0.6, "{resid_var} vs {series_var}");
    }

    #[test]
    fn fitted_matches_series_length() {
        let series = simulate_arma(&[0.5], &[], 1.0, 300, 0.5, 16);
        let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        assert_eq!(model.fitted().len(), series.len());
        let model_d = Arima::fit(&series, ArimaOrder::new(1, 1, 0)).unwrap();
        assert_eq!(model_d.fitted().len(), series.len());
    }

    #[test]
    fn predict_rolling_tracks_ar_process() {
        let series = simulate_arma(&[0.9], &[], 0.5, 2200, 0.2, 17);
        let (train, test) = series.split_at(2000);
        let model = Arima::fit(train, ArimaOrder::new(1, 0, 0)).unwrap();
        let preds = model.predict_rolling(test).unwrap();
        assert_eq!(preds.len(), test.len());
        let rmse = crate::metrics::rmse(&preds, test).unwrap();
        // One-step error should be near the innovation std (~0.115 for uniform(-0.2,0.2)).
        assert!(rmse < 0.2, "rolling RMSE {rmse}");
    }

    #[test]
    fn predict_rolling_rejects_empty() {
        let series: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        assert!(model.predict_rolling(&[]).is_err());
    }

    #[test]
    fn psi_weights_ar1_are_geometric() {
        let series = simulate_arma(&[0.6], &[], 0.0, 2000, 0.5, 27);
        let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        let phi = model.ar_coefficients()[0];
        let psi = model.psi_weights(5);
        assert_eq!(psi[0], 1.0);
        for (j, p) in psi.iter().enumerate().skip(1) {
            assert!((p - phi.powi(j as i32)).abs() < 1e-9, "psi[{j}] = {p}");
        }
    }

    #[test]
    fn interval_forecast_widens_with_horizon_and_z() {
        let series = simulate_arma(&[0.7], &[], 1.0, 1500, 0.5, 28);
        let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        let bands = model.forecast_with_interval(5, 1.96).unwrap();
        for (mean, lo, hi) in &bands {
            assert!(lo < mean && mean < hi);
        }
        // Width must be nondecreasing with horizon for a stationary AR(1).
        for w in bands.windows(2) {
            let w0 = w[0].2 - w[0].1;
            let w1 = w[1].2 - w[1].1;
            assert!(w1 >= w0 - 1e-9, "interval shrank: {w0} -> {w1}");
        }
        // Larger z → wider bands.
        let wide = model.forecast_with_interval(5, 2.58).unwrap();
        assert!(wide[0].2 - wide[0].1 > bands[0].2 - bands[0].1);
        // Coverage sanity: one-step truth should fall inside the 95% band
        // for most continuation draws; test the mean of the band instead
        // (deterministic): band center equals the mean forecast.
        let fc = model.forecast(5).unwrap();
        for (b, m) in bands.iter().zip(&fc) {
            assert!((b.0 - m).abs() < 1e-12);
        }
        assert!(model.forecast_with_interval(3, 0.0).is_err());
    }

    #[test]
    fn predict_one_from_matches_internal_state_for_ar() {
        let series = simulate_arma(&[0.6], &[], 0.3, 500, 0.4, 29);
        let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        // From its own full history the frozen prediction must match a
        // rolling prediction's first step.
        let test = [series[series.len() - 1] * 0.6 + 0.3];
        let rolled = model.predict_rolling(&test).unwrap()[0];
        let frozen = model.predict_one_from(&series).unwrap();
        assert!((rolled - frozen).abs() < 1e-9, "{rolled} vs {frozen}");
        // Short-window prediction still works with p values.
        let window = &series[series.len() - 3..];
        let v = model.predict_one_from(window).unwrap();
        assert!(v.is_finite());
        assert!(model.predict_one_from(&[]).is_err());
    }

    #[test]
    fn predict_one_from_handles_differencing() {
        let series: Vec<f64> = (0..100).map(|i| 3.0 * i as f64).collect();
        let model = Arima::fit(&series, ArimaOrder::new(0, 1, 0)).unwrap();
        // A fresh linear window should continue its own line, not the
        // training line.
        let window: Vec<f64> = (0..10).map(|i| 100.0 + 5.0 * i as f64).collect();
        let v = model.predict_one_from(&window).unwrap();
        // Drift from training is +3/step; window ends at 145.
        assert!((v - 148.0).abs() < 0.5, "prediction {v}");
    }

    #[test]
    fn predict_one_from_with_matches_ladder_composition_bitwise() {
        // The scratch variant replicates difference + AR + integrate
        // inline; pin it bit-for-bit against the explicit composition for
        // every practical differencing depth, reusing one dirty buffer.
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let series: Vec<f64> = (0..120)
            .map(|i| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = (lcg >> 40) as f64 / (1u64 << 24) as f64;
                (i as f64 * 0.37).sin() * 9.0 + i as f64 + noise * 4.0
            })
            .collect();
        let mut scratch = vec![f64::NAN; 3];
        for (p, d, q) in [(2, 0, 1), (1, 1, 0), (2, 2, 0)] {
            let model = Arima::fit(&series, ArimaOrder::new(p, d, q)).unwrap();
            for window_len in [d + p.max(1), 10, 40] {
                let window = &series[series.len() - window_len..];
                let via_ladder = {
                    let w = difference(window, d).unwrap();
                    let t = w.len();
                    let mut v = model.constant;
                    for (j, phi) in model.ar.iter().enumerate() {
                        if t > j {
                            v += phi * w[t - 1 - j];
                        }
                    }
                    integrate(window, &[v], d).unwrap()[0]
                };
                let via_scratch = model.predict_one_from_with(window, &mut scratch).unwrap();
                assert_eq!(via_scratch.to_bits(), via_ladder.to_bits(), "order ({p},{d},{q})");
                assert_eq!(model.predict_one_from(window).unwrap().to_bits(), via_ladder.to_bits());
            }
        }
    }

    #[test]
    fn fit_rejects_nan_and_short() {
        assert!(matches!(
            Arima::fit(&[1.0, f64::NAN, 2.0], ArimaOrder::new(0, 0, 0)),
            Err(StatsError::NonFiniteInput)
        ));
        assert!(matches!(
            Arima::fit(&[1.0, 2.0], ArimaOrder::new(2, 0, 0)),
            Err(StatsError::TooShort { .. })
        ));
    }

    #[test]
    fn constant_series_falls_back_gracefully() {
        let series = vec![5.0; 100];
        let model = Arima::fit(&series, ArimaOrder::new(2, 0, 0)).unwrap();
        let fc = model.forecast(2).unwrap();
        assert!((fc[0] - 5.0).abs() < 1e-6, "fc {fc:?}");
    }

    #[test]
    fn bic_penalizes_more_than_aic_for_large_n() {
        let series = simulate_arma(&[0.5], &[], 0.0, 500, 1.0, 18);
        let m = Arima::fit(&series, ArimaOrder::new(3, 0, 2)).unwrap();
        let m0 = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        // Relative penalty for the bigger model is larger under BIC.
        assert!((m.bic() - m0.bic()) > (m.aic() - m0.aic()));
    }

    #[test]
    fn ensemble_fits_multiple_series() {
        let s1 = simulate_arma(&[0.5], &[], 0.0, 300, 0.5, 19);
        let s2 = simulate_arma(&[0.7], &[], 1.0, 300, 0.5, 20);
        let ens = ArimaEnsemble::fit(&[s1, s2], ArimaOrder::new(1, 0, 0)).unwrap();
        assert_eq!(ens.models().len(), 2);
        let fcs = ens.forecast(4).unwrap();
        assert_eq!(fcs.len(), 2);
        assert_eq!(fcs[0].len(), 4);
        assert!(ArimaEnsemble::fit(&[], ArimaOrder::new(1, 0, 0)).is_err());
    }

    #[test]
    fn forecast_into_matches_integrate_ladder_bitwise() {
        // The in-place re-integration must reproduce `integrate` exactly,
        // including for d = 2 where the ladder tails interact.
        for d in [0usize, 1, 2] {
            let series: Vec<f64> =
                (0..160).map(|i| 3.0 + 0.7 * i as f64 + ((i * i) % 13) as f64 * 0.21).collect();
            let model = Arima::fit(&series, ArimaOrder::new(1, d, 0)).unwrap();
            let mut out = Vec::new();
            model.forecast_into(7, &mut out).unwrap();
            // Recompute the differenced-level forecasts and integrate the
            // reference way.
            let mut w = model.work.clone();
            let mut fut = Vec::new();
            for _ in 0..7 {
                let t = w.len();
                let mut v = model.constant();
                for (j, phi) in model.ar_coefficients().iter().enumerate() {
                    if t > j {
                        v += phi * w[t - 1 - j];
                    }
                }
                w.push(v);
                fut.push(v);
            }
            let reference = integrate(model.history(), &fut, d).unwrap();
            assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "d = {d}");
            }
            // And the allocating wrapper is the same code path.
            let wrapped = model.forecast(7).unwrap();
            for (a, b) in out.iter().zip(&wrapped) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn codec_round_trip_is_identity() {
        use crate::codec::{Reader, Writer};
        let series = simulate_arma(&[0.6], &[0.25], 0.1, 400, 0.7, 33);
        let model = Arima::fit(&series, ArimaOrder::new(1, 1, 1)).unwrap();
        let mut w = Writer::new();
        model.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = Arima::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(model, back);
        // Truncation at every prefix must be a typed error, not a panic.
        for cut in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(Arima::decode(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn order_display_and_params() {
        let o = ArimaOrder::new(2, 1, 1);
        assert_eq!(o.to_string(), "ARIMA(2,1,1)");
        assert_eq!(o.n_params(), 4);
    }

    /// Regression tests for the former `expect("nonempty")` panic sites:
    /// every helper must stay on the typed-error path (or succeed) at the
    /// minimal legal input lengths, never unwind.
    #[test]
    fn minimal_length_inputs_never_panic() {
        // `integrate` at exactly `history.len() == d + 1` — the shortest
        // history its guard admits, where the deepest level holds one
        // value. Re-integrating a zero difference carries the last raw
        // value forward, so with history [1, 3] (d = 1) the forecast is 3.
        let out = integrate(&[1.0, 3.0], &[0.0], 1).unwrap();
        assert_eq!(out, vec![3.0]);
        let out = integrate(&[2.0, 3.0, 5.0], &[0.0, 0.0], 2).unwrap();
        assert_eq!(out.len(), 2);
        // One shorter is a typed error, not a panic.
        assert_eq!(
            integrate(&[3.0], &[0.0], 1),
            Err(StatsError::TooShort { required: 2, actual: 1 })
        );

        // `predict_one_from` at `history.len() == d + max(p, 1)` for a
        // differencing model, including the degenerate d = p = 0 order
        // (pure MA/constant: one observation is the minimum window).
        let series: Vec<f64> = (0..60).map(|i| 5.0 + 0.3 * i as f64).collect();
        let diff_model = Arima::fit(&series, ArimaOrder::new(1, 1, 0)).unwrap();
        assert!(diff_model.predict_one_from(&[4.0, 7.0]).unwrap().is_finite());
        assert_eq!(
            diff_model.predict_one_from(&[4.0]),
            Err(StatsError::TooShort { required: 2, actual: 1 })
        );
        let flat = Arima::fit(&series, ArimaOrder::new(0, 0, 0)).unwrap();
        assert!(flat.predict_one_from(&[4.0]).unwrap().is_finite());
        assert_eq!(
            flat.predict_one_from(&[]),
            Err(StatsError::TooShort { required: 1, actual: 0 })
        );

        // `predict_rolling` with d > 0 exercises the absorbed-observation
        // re-differencing tail on every step.
        let mut preds = Vec::new();
        diff_model.predict_rolling_into(&[23.0, 23.3], &mut preds).unwrap();
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|p| p.is_finite()));
    }
}
