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
//!   least-squares procedure (exact OLS for pure AR models), each lag
//!   regression a flat row-major design solved by
//!   [`lstsq_into`],
//! * [`Arima::forecast`] — multi-step mean forecasts with re-integration,
//! * [`Arima::residuals`] — the in-sample one-step residuals,
//! * [`Arima::one_step`] — the frozen one-step predictor ([`OneStep`]) the
//!   spatiotemporal model applies to short history windows and stores,
//! * [`Arima::aic`] — the information criterion of order selection (see
//!   [`crate::select`]).

use crate::codec::{CodecError, CodecResult, Reader, Writer};
use crate::matrix::{lstsq_into, LstsqScratch};
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
    /// Both stages solve flat row-major lag designs with
    /// [`lstsq_into`]. [`crate::select::search`] runs the same code for
    /// every cell of its grid over one differenced series, sharing the
    /// stage-1 innovations between the orders whose long AR coincides.
    ///
    /// # Errors
    ///
    /// * [`StatsError::TooShort`] when the series cannot support the order
    ///   (needs `d + max(p, q) · 3 + 8` points).
    /// * [`StatsError::NonFiniteInput`] for NaN/∞ inputs, and for finite
    ///   inputs so large that the differenced series, the estimated
    ///   innovations, the constant or σ² overflow.
    /// * [`StatsError::SingularMatrix`] for degenerate (e.g. constant)
    ///   series with q > 0.
    pub fn fit(series: &[f64], order: ArimaOrder) -> Result<Self> {
        if series.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteInput);
        }
        check_length(series.len(), order)?;
        let work = difference(series, order.d)?;
        let estimate = LagFits::new(&work).fit(order.p, order.q)?;
        Ok(Arima::from_estimate(order, series, work, estimate))
    }

    /// Assembles a fitted model from its order's estimate on `work`, the
    /// `d`-th difference of `series`.
    pub(crate) fn from_estimate(
        order: ArimaOrder,
        series: &[f64],
        work: Vec<f64>,
        estimate: Estimate,
    ) -> Self {
        let Estimate { constant, ar, ma, residuals, sigma2 } = estimate;
        Arima { order, constant, ar, ma, history: series.to_vec(), work, residuals, sigma2 }
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
    /// (cleared first): the preallocated multi-step batch path, and the
    /// code [`Arima::forecast`] runs. The re-integration ladder is seeded
    /// from the trailing `d + 1` history values, the same
    /// pairwise-subtraction tree [`integrate`] builds, so it matches
    /// `integrate` over the differenced forecasts bit for bit.
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
        let mut ladder = Ladder::new(&self.history, d);
        let mut w = Vec::with_capacity(self.work.len() + horizon);
        w.extend_from_slice(&self.work);
        let mut e = Vec::with_capacity(self.residuals.len() + horizon);
        e.extend_from_slice(&self.residuals);
        out.clear();
        out.reserve(horizon);
        for _ in 0..horizon {
            let v = self.step_mean(&w, &e);
            w.push(v);
            e.push(0.0); // future innovations are zero in the mean forecast
            out.push(ladder.advance(v));
        }
        Ok(())
    }

    /// The one-step mean at the differenced level after the differenced
    /// series `w` with innovations `e`.
    fn step_mean(&self, w: &[f64], e: &[f64]) -> f64 {
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
        v
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
    /// Same conditions as [`Arima::predict_rolling_into`].
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
    /// * [`StatsError::EmptyInput`] when `test` is empty.
    /// * [`StatsError::NonFiniteInput`] when a prediction is not finite:
    ///   a NaN or ∞ observation, or finite ones so large (±`f64::MAX`)
    ///   that differencing or re-integration overflows. `preds` then
    ///   holds the predictions before it.
    pub fn predict_rolling_into(&self, test: &[f64], preds: &mut Vec<f64>) -> Result<()> {
        if test.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let d = self.order.d;
        if self.history.len() <= d {
            return Err(StatsError::TooShort { required: d + 1, actual: self.history.len() });
        }
        // The ladder carries the last value of every differencing level,
        // so each step re-integrates and absorbs in O(d). Preallocate the
        // differenced series and innovations for the whole horizon.
        let mut ladder = Ladder::new(&self.history, d);
        let mut w = Vec::with_capacity(self.work.len() + test.len());
        w.extend_from_slice(&self.work);
        let mut e = Vec::with_capacity(self.residuals.len() + test.len());
        e.extend_from_slice(&self.residuals);
        preds.clear();
        preds.reserve(test.len());
        for &obs in test {
            // One-step mean forecast at differenced level.
            let v = self.step_mean(&w, &e);
            let pred = ladder.level(v);
            if !pred.is_finite() {
                return Err(StatsError::NonFiniteInput);
            }
            preds.push(pred);
            // Absorb the true observation.
            let new_w = ladder.absorb(obs);
            w.push(new_w);
            e.push(new_w - v);
        }
        Ok(())
    }

    /// The model's one-step predictor: the differencing degree, the
    /// constant and the AR coefficients, all that a one-step mean
    /// prediction from a fresh window reads.
    pub fn one_step(&self) -> OneStep {
        OneStep { d: self.order.d, constant: self.constant, ar: self.ar.clone() }
    }

    /// Akaike information criterion (Gaussian likelihood approximation).
    /// NaN when σ² is NaN.
    pub fn aic(&self) -> f64 {
        aic(self.work.len(), self.order, self.sigma2)
    }

    /// The training series this model was fit on.
    pub fn history(&self) -> &[f64] {
        &self.history
    }
}

/// The one-step predictor of a fitted [`Arima`], built by
/// [`Arima::one_step`]: the differencing degree `d`, the constant and the
/// AR coefficients. It predicts the next value of an arbitrary history
/// window with the frozen coefficients (MA terms use zero for the unknown
/// innovations, the standard approximation when the conditioning window
/// is short). This is how the spatiotemporal model (§VI) reuses a fitted
/// temporal model on a target's 10-attack history, and it is all of an
/// ARIMA that the model's artifact stores.
#[derive(Debug, Clone, PartialEq)]
pub struct OneStep {
    d: usize,
    constant: f64,
    ar: Vec<f64>,
}

impl OneStep {
    /// Predicts the value after `history`: differences the window `d`
    /// times in place, applies the AR recursion to the differenced tail,
    /// then adds back each level's last value deepest-first. These are
    /// the float operations of [`difference`], the AR step and
    /// [`integrate`], in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::TooShort`] when `history` cannot supply
    /// `d + max(p, 1)` values.
    pub fn predict(&self, history: &[f64]) -> Result<f64> {
        // `decode` refuses a predictor whose requirement overflows, and
        // `Arima::one_step` copies a fitted order, which `check_length`
        // already bounded.
        let required = self.d.saturating_add(self.ar.len().max(1));
        if history.len() < required {
            return Err(StatsError::TooShort { required, actual: history.len() });
        }
        let mut diffed = history.to_vec();
        let mut tails = Vec::with_capacity(self.d);
        for _ in 0..self.d {
            // Before round `k < d` the buffer holds
            // `history.len() - k >= 1` values (the length guard above).
            let Some(&tail) = diffed.last() else {
                return Err(StatsError::TooShort { required, actual: history.len() });
            };
            tails.push(tail);
            for i in 0..diffed.len() - 1 {
                diffed[i] = diffed[i + 1] - diffed[i];
            }
            diffed.pop();
        }
        // At least `p` differenced values remain, so every AR lag reads
        // one of them.
        let mut v = self.constant;
        for (phi, x) in self.ar.iter().zip(diffed.iter().rev()) {
            v += phi * x;
        }
        for &tail in tails.iter().rev() {
            v += tail;
        }
        Ok(v)
    }

    /// Encodes the predictor: `d`, the constant, then the AR
    /// coefficients, every `f64` as its bit pattern.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.d);
        w.f64(self.constant);
        w.f64_seq(&self.ar);
    }

    /// Decodes a predictor written by [`OneStep::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on short input, and
    /// [`CodecError::Invalid`] when `d + max(p, 1)`, the window length
    /// [`OneStep::predict`] requires, overflows.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let d = r.usize()?;
        let constant = r.f64()?;
        let ar = r.f64_seq()?;
        if d.checked_add(ar.len().max(1)).is_none() {
            return Err(CodecError::Invalid {
                detail: format!("differencing degree {d} overflows the window length"),
            });
        }
        Ok(OneStep { d, constant, ar })
    }
}

/// The re-integration ladder of a series: the last value of each of its
/// differencing levels `0..d`. Both forecast paths run on it, one O(d)
/// step per value, with the float operations of [`difference`] and
/// [`integrate`] over the whole series.
struct Ladder {
    tails: Vec<f64>,
}

impl Ladder {
    /// Seeds the ladder from `history`, which must hold more than `d`
    /// values.
    fn new(history: &[f64], d: usize) -> Self {
        let n = history.len();
        Ladder { tails: (0..d).map(|k| nth_difference_at(history, k, n - 1 - k)).collect() }
    }

    /// The original-level value of the next differenced value `v`: the
    /// walk [`integrate`] makes, leaving the ladder where it is.
    fn level(&self, v: f64) -> f64 {
        self.tails.iter().rev().fold(v, |acc, t| acc + t)
    }

    /// [`Ladder::level`] that also moves the ladder onto `v`, as
    /// [`integrate`] does over a block of future values.
    fn advance(&mut self, v: f64) -> f64 {
        let mut acc = v;
        for t in self.tails.iter_mut().rev() {
            acc += *t;
            *t = acc;
        }
        acc
    }

    /// Appends the observation `obs` and returns its `d`-th difference:
    /// the value [`difference`] ends with on the extended series.
    fn absorb(&mut self, obs: f64) -> f64 {
        let mut next = obs;
        for t in &mut self.tails {
            let below = next - *t;
            *t = next;
            next = below;
        }
        next
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

/// The smallest series an order can be fit on: `d + max(p, q) · 3 + 8`.
pub(crate) fn check_length(len: usize, order: ArimaOrder) -> Result<()> {
    let min_len = order.d + order.p.max(order.q) * 3 + 8;
    if len < min_len {
        return Err(StatsError::TooShort { required: min_len, actual: len });
    }
    Ok(())
}

/// ln σ², floored at 1e-12 so that a perfect fit scores finitely. A NaN
/// σ² stays NaN: it never scores as a perfect fit.
fn log_variance(sigma2: f64) -> f64 {
    if sigma2.is_nan() {
        f64::NAN
    } else {
        sigma2.max(1e-12).ln()
    }
}

/// AIC of an order fit to `n_obs` differenced observations with variance
/// `sigma2`.
pub(crate) fn aic(n_obs: usize, order: ArimaOrder, sigma2: f64) -> f64 {
    let n = n_obs as f64;
    let k = order.n_params() as f64;
    n * log_variance(sigma2) + 2.0 * k
}

/// One order's estimate on a differenced series: everything of an
/// [`Arima`] but the history and the series themselves.
pub(crate) struct Estimate {
    pub(crate) constant: f64,
    pub(crate) ar: Vec<f64>,
    pub(crate) ma: Vec<f64>,
    pub(crate) residuals: Vec<f64>,
    pub(crate) sigma2: f64,
}

/// The lag regressions of every order fit to one differenced series.
///
/// Each regression writes its rows `[1, w_{t−1}…w_{t−p}, ê_{t−1}…ê_{t−q}]`
/// row-major into one reused buffer and solves them with [`lstsq_into`]
/// into a reused scratch and `beta`: the rows, their order and the
/// solver call are exactly those of gathering `Vec` rows for
/// `LinearModel::fit`, so every coefficient is the same bit pattern.
///
/// Stage 1 of Hannan–Rissanen depends only on the series and the long-AR
/// order, so its innovations are computed once per order and reused by
/// every (p, q) that shares it. Borrowing `work` ties that memo to the
/// series it was computed from.
pub(crate) struct LagFits<'a> {
    work: &'a [f64],
    finite: bool,
    solver: LagSolver,
    /// Stage-1 innovations (or the stage-1 error) per long-AR order.
    innovations: Vec<(usize, Result<Vec<f64>>)>,
}

impl<'a> LagFits<'a> {
    /// Fits over `work`, the differenced series.
    pub(crate) fn new(work: &'a [f64]) -> Self {
        LagFits {
            work,
            finite: work.iter().all(|v| v.is_finite()),
            solver: LagSolver::default(),
            innovations: Vec::new(),
        }
    }

    /// Estimates the ARMA(p, q) part: the mean for (0, 0), exact
    /// conditional OLS for q = 0, Hannan–Rissanen otherwise.
    ///
    /// # Errors
    ///
    /// [`StatsError::NonFiniteInput`] when the differenced series, the
    /// innovations stage 2 reads, the constant or σ² is non-finite; the
    /// lag regressions' [`StatsError::TooShort`] and
    /// [`StatsError::SingularMatrix`].
    pub(crate) fn fit(&mut self, p: usize, q: usize) -> Result<Estimate> {
        if !self.finite {
            return Err(StatsError::NonFiniteInput);
        }
        let work = self.work;
        let (constant, ar, ma) = if p == 0 && q == 0 {
            (mean(work), Vec::new(), Vec::new())
        } else if q == 0 {
            let (c, phi) = fit_ar(work, p, &mut self.solver)?;
            (c, phi, Vec::new())
        } else {
            self.fit_hannan_rissanen(p, q)?
        };
        let residuals = compute_residuals(work, constant, &ar, &ma);
        let eff_n = residuals.len().saturating_sub(p).max(1);
        let sigma2 = residuals.iter().skip(p).map(|e| e * e).sum::<f64>() / eff_n as f64;
        if !constant.is_finite() || !sigma2.is_finite() {
            return Err(StatsError::NonFiniteInput);
        }
        Ok(Estimate { constant, ar, ma, residuals, sigma2 })
    }

    /// Hannan–Rissanen estimation for ARMA(p, q).
    fn fit_hannan_rissanen(&mut self, p: usize, q: usize) -> Result<(f64, Vec<f64>, Vec<f64>)> {
        let LagFits { work, solver, innovations, .. } = self;
        let work: &[f64] = work;
        let n = work.len();
        // Stage 1: long AR to estimate innovations, once per `long_p`.
        let long_p = ((n as f64).ln().ceil() as usize + p + q).min(n / 4).max(p + q + 1);
        let slot = match innovations.iter().position(|(lp, _)| *lp == long_p) {
            Some(slot) => slot,
            None => {
                innovations.push((long_p, stage1_innovations(work, long_p, solver)));
                innovations.len() - 1
            }
        };
        let e = innovations[slot].1.as_ref().map_err(Clone::clone)?;
        // Stage 2: regress on p lags of the series and q lags of ê. As
        // `long_p > p`, the first row is `start` and the rows read
        // ê[long_p..n − 1].
        let start = long_p + q;
        if n <= start + p + q + 2 {
            return Err(StatsError::TooShort { required: start + p + q + 3, actual: n });
        }
        if e[long_p..n - 1].iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteInput);
        }
        let design = &mut solver.design;
        design.clear();
        for t in start..n {
            design.push(1.0);
            design.extend(work[t - p..t].iter().rev());
            design.extend(e[t - q..t].iter().rev());
        }
        let beta = solver.solve(p + q + 1, &work[start..])?;
        Ok((beta[0], beta[1..=p].to_vec(), beta[p + 1..].to_vec()))
    }
}

/// The buffers every lag regression reuses: the row-major design, the QR
/// workspace and the solution.
#[derive(Default)]
struct LagSolver {
    design: Vec<f64>,
    lstsq: LstsqScratch,
    beta: Vec<f64>,
}

impl LagSolver {
    /// Solves the rows in `design`, `cols` wide (the intercept column
    /// included), against `ys`: `[intercept, coefficients…]`.
    fn solve(&mut self, cols: usize, ys: &[f64]) -> Result<&[f64]> {
        lstsq_into(&self.design, ys.len(), cols, ys, &mut self.lstsq, &mut self.beta)?;
        Ok(&self.beta)
    }
}

/// The mean of a nonempty series.
fn mean(work: &[f64]) -> f64 {
    work.iter().sum::<f64>() / work.len() as f64
}

/// Conditional OLS fit of an AR(p) with intercept; a singular design (a
/// constant series) falls back to the mean-only model.
fn fit_ar(work: &[f64], p: usize, solver: &mut LagSolver) -> Result<(f64, Vec<f64>)> {
    let n = work.len();
    if n <= p + 1 {
        return Err(StatsError::TooShort { required: p + 2, actual: n });
    }
    let design = &mut solver.design;
    design.clear();
    for t in p..n {
        design.push(1.0);
        design.extend(work[t - p..t].iter().rev());
    }
    // The solver refuses fewer rows than columns with the `TooShort` an
    // OLS fit would return.
    match solver.solve(p + 1, &work[p..]) {
        Ok(beta) => Ok((beta[0], beta[1..].to_vec())),
        Err(StatsError::SingularMatrix) => Ok((mean(work), vec![0.0; p])),
        Err(e) => Err(e),
    }
}

/// Hannan–Rissanen stage 1: the innovations `ê_t` of a long AR(`long_p`)
/// fit, zero over its conditioning period.
fn stage1_innovations(work: &[f64], long_p: usize, solver: &mut LagSolver) -> Result<Vec<f64>> {
    let (c1, phi1) = fit_ar(work, long_p, solver)?;
    let mut e = vec![0.0; work.len()];
    for t in long_p..work.len() {
        let mut pred = c1;
        for (j, ph) in phi1.iter().enumerate() {
            pred += ph * work[t - 1 - j];
        }
        e[t] = work[t] - pred;
    }
    Ok(e)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
    fn predict_rolling_rejects_overflowing_continuations() {
        let series: Vec<f64> = (0..40).map(|i| (i % 7) as f64 + 0.5 * (i % 3) as f64).collect();
        let model = Arima::fit(&series, ArimaOrder::new(1, 1, 0)).unwrap();
        let hostile = [1.0, f64::MAX, -f64::MAX, 3.0, 4.0];
        assert_eq!(model.predict_rolling(&hostile), Err(StatsError::NonFiniteInput));
        assert_eq!(model.predict_rolling(&[1.0, f64::NAN, 2.0]), Err(StatsError::NonFiniteInput));
        assert!(model.predict_rolling(&[1.0, 2.0, 3.0]).unwrap().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn one_step_matches_internal_state_for_ar() {
        let series = simulate_arma(&[0.6], &[], 0.3, 500, 0.4, 29);
        let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        // From its own full history the frozen prediction must match a
        // rolling prediction's first step.
        let test = [series[series.len() - 1] * 0.6 + 0.3];
        let rolled = model.predict_rolling(&test).unwrap()[0];
        let frozen = model.one_step().predict(&series).unwrap();
        assert!((rolled - frozen).abs() < 1e-9, "{rolled} vs {frozen}");
        // Short-window prediction still works with p values.
        let window = &series[series.len() - 3..];
        let v = model.one_step().predict(window).unwrap();
        assert!(v.is_finite());
        assert!(model.one_step().predict(&[]).is_err());
    }

    #[test]
    fn one_step_handles_differencing() {
        let series: Vec<f64> = (0..100).map(|i| 3.0 * i as f64).collect();
        let model = Arima::fit(&series, ArimaOrder::new(0, 1, 0)).unwrap();
        // A fresh linear window should continue its own line, not the
        // training line.
        let window: Vec<f64> = (0..10).map(|i| 100.0 + 5.0 * i as f64).collect();
        let v = model.one_step().predict(&window).unwrap();
        // Drift from training is +3/step; window ends at 145.
        assert!((v - 148.0).abs() < 0.5, "prediction {v}");
    }

    #[test]
    fn one_step_matches_ladder_composition_bitwise() {
        // The one-step predictor replicates difference + AR + integrate
        // inline; pin it bit-for-bit against the explicit composition for
        // every practical differencing depth.
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let series: Vec<f64> = (0..120)
            .map(|i| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = (lcg >> 40) as f64 / (1u64 << 24) as f64;
                (i as f64 * 0.37).sin() * 9.0 + i as f64 + noise * 4.0
            })
            .collect();
        for (p, d, q) in [(2, 0, 1), (1, 1, 0), (2, 2, 0)] {
            let model = Arima::fit(&series, ArimaOrder::new(p, d, q)).unwrap();
            let one_step = model.one_step();
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
                let got = one_step.predict(window).unwrap();
                assert_eq!(got.to_bits(), via_ladder.to_bits(), "order ({p},{d},{q})");
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

    /// Rolling prediction over the whole growing history: every step
    /// re-differences and re-integrates it, O(n) per step. The oracle
    /// the O(d) ladder path must match bit for bit.
    fn rolling_reference(model: &Arima, test: &[f64]) -> Vec<f64> {
        let d = model.order.d;
        let mut full = model.history.clone();
        let mut w = model.work.clone();
        let mut e = model.residuals.clone();
        let mut preds = Vec::new();
        for &obs in test {
            let t = w.len();
            let mut v = model.constant;
            for (j, phi) in model.ar.iter().enumerate() {
                if t > j {
                    v += phi * w[t - 1 - j];
                }
            }
            for (j, theta) in model.ma.iter().enumerate() {
                if t > j && t - 1 - j < e.len() {
                    v += theta * e[t - 1 - j];
                }
            }
            preds.push(integrate(&full, &[v], d).unwrap()[0]);
            full.push(obs);
            let new_w = *difference(&full, d).unwrap().last().unwrap();
            w.push(new_w);
            e.push(new_w - v);
        }
        preds
    }

    #[test]
    fn rolling_ladder_matches_full_history_reference_bitwise() {
        let series: Vec<f64> =
            (0..120).map(|i| 3.0 + 0.7 * i as f64 + ((i * i) % 13) as f64 * 0.21).collect();
        let rough = simulate_arma(&[0.5], &[0.3], 0.2, 120, 1.3, 17);
        // The second test window is longer than the 120-point history.
        let windows: [Vec<f64>; 2] = [
            (0..40).map(|i| 90.0 + ((i * 7) % 11) as f64 * 1.7).collect(),
            (0..300).map(|i| -5.0 + ((i * 31) % 17) as f64 * 0.9 - 0.01 * i as f64).collect(),
        ];
        for d in [0usize, 1, 2] {
            for s in [&series, &rough] {
                for order in [ArimaOrder::new(1, d, 0), ArimaOrder::new(2, d, 1)] {
                    let model = Arima::fit(s, order).unwrap();
                    for test in &windows {
                        let fast = model.predict_rolling(test).unwrap();
                        let reference = rolling_reference(&model, test);
                        assert_eq!(fast.len(), test.len());
                        for (a, b) in fast.iter().zip(&reference) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{order}");
                        }
                    }
                }
            }
        }
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
        let one_step = model.one_step();
        let mut w = Writer::new();
        one_step.encode(&mut w);
        let bytes = w.into_bytes();
        // d, the constant, then the length-prefixed AR coefficient.
        assert_eq!(bytes.len(), 8 + 8 + 8 + 8);
        let mut r = Reader::new(&bytes);
        let back = OneStep::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(one_step, back);
        let window = &series[series.len() - 10..];
        assert_eq!(
            back.predict(window).unwrap().to_bits(),
            model.one_step().predict(window).unwrap().to_bits()
        );
        // Truncation at every prefix must be a typed error, not a panic.
        for cut in 0..bytes.len() {
            assert!(OneStep::decode(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn one_step_decode_refuses_overflow_and_truncated_coefficients() {
        use crate::codec::{CodecError, Reader, Writer};
        // `d + max(p, 1)` overflows: refused at decode, so `predict`
        // never computes the window length.
        for (d, ar) in [(usize::MAX, vec![]), (usize::MAX - 1, vec![0.5, 0.25])] {
            let mut w = Writer::new();
            w.usize(d);
            w.f64(1.0);
            w.f64_seq(&ar);
            let bytes = w.into_bytes();
            let err = OneStep::decode(&mut Reader::new(&bytes)).unwrap_err();
            assert!(matches!(err, CodecError::Invalid { .. }), "d = {d}: {err:?}");
        }
        // The largest degree that does not overflow decodes, and its
        // predictions are a typed TooShort.
        let mut w = Writer::new();
        w.usize(usize::MAX - 1);
        w.f64(1.0);
        w.f64_seq(&[]);
        let bytes = w.into_bytes();
        let huge = OneStep::decode(&mut Reader::new(&bytes)).unwrap();
        assert!(matches!(huge.predict(&[1.0, 2.0]), Err(StatsError::TooShort { .. })));
        // A coefficient list declaring more values than the input holds.
        let mut w = Writer::new();
        w.usize(0);
        w.f64(1.0);
        w.f64_seq(&[0.5, 0.25, 0.125]);
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 8);
        let err = OneStep::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err:?}");
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

        // `OneStep::predict` at `history.len() == d + max(p, 1)` for a
        // differencing model, including the degenerate d = p = 0 order
        // (pure MA/constant: one observation is the minimum window).
        let series: Vec<f64> = (0..60).map(|i| 5.0 + 0.3 * i as f64).collect();
        let diff_model = Arima::fit(&series, ArimaOrder::new(1, 1, 0)).unwrap();
        assert!(diff_model.one_step().predict(&[4.0, 7.0]).unwrap().is_finite());
        assert_eq!(
            diff_model.one_step().predict(&[4.0]),
            Err(StatsError::TooShort { required: 2, actual: 1 })
        );
        let flat = Arima::fit(&series, ArimaOrder::new(0, 0, 0)).unwrap();
        assert!(flat.one_step().predict(&[4.0]).unwrap().is_finite());
        assert_eq!(
            flat.one_step().predict(&[]),
            Err(StatsError::TooShort { required: 1, actual: 0 })
        );

        // `predict_rolling` with d > 0 exercises the absorbed-observation
        // re-differencing tail on every step.
        let mut preds = Vec::new();
        diff_model.predict_rolling_into(&[23.0, 23.3], &mut preds).unwrap();
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    /// The per-cell path [`LagFits`] replaced, kept as the reference its
    /// flat designs must match bit for bit: `Vec` rows through
    /// `LinearModel::fit`, and a fresh stage-1 long-AR fit for every
    /// order. It carries the same non-finite guards as `Arima::fit` (the
    /// differenced series up front, the constant and σ² at the end).
    mod reference {
        use super::super::*;
        use crate::ols::LinearModel;

        pub(super) fn fit(series: &[f64], order: ArimaOrder) -> Result<Arima> {
            if series.iter().any(|v| !v.is_finite()) {
                return Err(StatsError::NonFiniteInput);
            }
            let min_len = order.d + order.p.max(order.q) * 3 + 8;
            if series.len() < min_len {
                return Err(StatsError::TooShort { required: min_len, actual: series.len() });
            }
            let work = difference(series, order.d)?;
            if work.iter().any(|v| !v.is_finite()) {
                return Err(StatsError::NonFiniteInput);
            }
            let n = work.len();
            let (p, q) = (order.p, order.q);
            let (constant, ar, ma) = if p == 0 && q == 0 {
                (work.iter().sum::<f64>() / n as f64, Vec::new(), Vec::new())
            } else if q == 0 {
                let (c, phi) = fit_ar_ols(&work, p)?;
                (c, phi, Vec::new())
            } else {
                fit_hannan_rissanen(&work, p, q)?
            };
            let residuals = compute_residuals(&work, constant, &ar, &ma);
            let eff_n = residuals.len().saturating_sub(p).max(1);
            let sigma2 = residuals.iter().skip(p).map(|e| e * e).sum::<f64>() / eff_n as f64;
            if !constant.is_finite() || !sigma2.is_finite() {
                return Err(StatsError::NonFiniteInput);
            }
            let history = series.to_vec();
            Ok(Arima { order, constant, ar, ma, history, work, residuals, sigma2 })
        }

        fn fit_ar_ols(work: &[f64], p: usize) -> Result<(f64, Vec<f64>)> {
            let n = work.len();
            if n <= p + 1 {
                return Err(StatsError::TooShort { required: p + 2, actual: n });
            }
            let xs: Vec<Vec<f64>> =
                (p..n).map(|t| (1..=p).map(|j| work[t - j]).collect()).collect();
            let ys: Vec<f64> = work[p..].to_vec();
            match LinearModel::fit(&xs, &ys) {
                Ok(m) => Ok((m.intercept(), m.coefficients().to_vec())),
                Err(StatsError::SingularMatrix) => {
                    let mean = work.iter().sum::<f64>() / n as f64;
                    Ok((mean, vec![0.0; p]))
                }
                Err(e) => Err(e),
            }
        }

        fn fit_hannan_rissanen(
            work: &[f64],
            p: usize,
            q: usize,
        ) -> Result<(f64, Vec<f64>, Vec<f64>)> {
            let n = work.len();
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
            Ok((m.intercept(), coef[..p].to_vec(), coef[p..].to_vec()))
        }
    }

    /// Every cell of the default order-search grid at differencing
    /// degree `d`, fit the way `select::search` fits them: one
    /// differencing, one `LagFits` shared by the whole grid.
    fn grid_through_lag_fits(series: &[f64], d: usize) -> Vec<(ArimaOrder, Result<Arima>)> {
        let work = difference(series, d).unwrap();
        let mut fits = LagFits::new(&work);
        let mut cells = Vec::new();
        for p in 0..=3 {
            for q in 0..=2 {
                let order = ArimaOrder::new(p, d, q);
                let fit = check_length(series.len(), order)
                    .and_then(|()| fits.fit(p, q))
                    .map(|est| Arima::from_estimate(order, series, work.clone(), est));
                cells.push((order, fit));
            }
        }
        cells
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts two fits of one order agree: every `Ok` field bit for bit,
    /// or equal errors.
    fn assert_same_fit(order: ArimaOrder, got: &Result<Arima>, want: &Result<Arima>) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.constant.to_bits(), w.constant.to_bits(), "{order} constant");
                assert_eq!(bits(&g.ar), bits(&w.ar), "{order} AR");
                assert_eq!(bits(&g.ma), bits(&w.ma), "{order} MA");
                assert_eq!(bits(&g.residuals), bits(&w.residuals), "{order} residuals");
                assert_eq!(g.sigma2.to_bits(), w.sigma2.to_bits(), "{order} sigma2");
                assert_eq!(bits(&g.work), bits(&w.work), "{order} work");
                assert_eq!(bits(&g.history), bits(&w.history), "{order} history");
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "{order}"),
            (g, w) => panic!("{order}: lag fits {g:?}, reference {w:?}"),
        }
    }

    /// Checks both the grid path and a stand-alone `Arima::fit` per cell
    /// against the reference.
    fn assert_grid_matches_reference(series: &[f64], d: usize) {
        for (order, got) in grid_through_lag_fits(series, d) {
            let want = reference::fit(series, order);
            assert_same_fit(order, &got, &want);
            assert_same_fit(order, &Arima::fit(series, order), &want);
        }
    }

    /// `d` rounds of cumulative summation: a series whose `d`-th
    /// difference is `base`.
    fn integrate_d(base: &[f64], d: usize) -> Vec<f64> {
        let mut out = base.to_vec();
        for _ in 0..d {
            let mut acc = 0.0;
            for v in out.iter_mut() {
                acc += *v;
                *v = acc;
            }
        }
        out
    }

    #[test]
    fn lag_fits_match_reference_at_clamped_long_ar_orders() {
        // Short series, where `long_p` is clamped by `n / 4` or by
        // `p + q + 1`; orders past the search grid make the HR stages hit
        // `TooShort`.
        let (mut by_quarter, mut by_floor, mut too_short) = (false, false, false);
        for n in 8..=60 {
            let series = simulate_arma(&[0.5], &[0.3], 0.2, n, 1.0, n as u64);
            assert_grid_matches_reference(&series, 0);
            for (p, q) in (0..=5).flat_map(|p| (1..=5).map(move |q| (p, q))) {
                let order = ArimaOrder::new(p, 0, q);
                if check_length(n, order).is_err() {
                    continue;
                }
                let unclamped = (n as f64).ln().ceil() as usize + p + q;
                by_quarter |= n / 4 < unclamped && n / 4 > p + q;
                by_floor |= n / 4 <= p + q;
                let want = reference::fit(&series, order);
                too_short |= matches!(want, Err(StatsError::TooShort { .. }));
                assert_same_fit(order, &Arima::fit(&series, order), &want);
            }
        }
        assert!(by_quarter && by_floor && too_short);
    }

    #[test]
    fn lag_fits_match_reference_on_constant_series() {
        // AR cells take the `SingularMatrix` mean fallback, in stage 1 too.
        for (n, level) in [(12, 5.0), (40, -3.25), (300, 1e6)] {
            let series = vec![level; n];
            assert_grid_matches_reference(&series, 0);
            assert_grid_matches_reference(&series, 1);
        }
    }

    #[test]
    fn lag_fits_match_reference_on_overflowing_series() {
        // Scales around where squares, sums and differences overflow,
        // with and without one ±f64::MAX spike: the same errors as the
        // reference, from the same checks.
        for exponent in [150, 153, 154, 155, 160, 200, 300, 306, 307] {
            let scale = 10f64.powi(exponent);
            for (n, seed) in [(40, 1), (300, 2)] {
                let base = simulate_arma(&[0.6], &[0.3], 0.5, n, 1.0, seed);
                let mut series: Vec<f64> = base.iter().map(|v| v * scale).collect();
                for d in 0..=2 {
                    assert_grid_matches_reference(&series, d);
                }
                series[n / 2] = f64::MAX;
                for d in 0..=2 {
                    assert_grid_matches_reference(&series, d);
                }
            }
        }
    }

    #[test]
    fn overflowing_difference_is_an_error_for_every_order() {
        // Finite, but the first difference of ±1.7e308 overflows to ±∞.
        let s: Vec<f64> =
            (0..200).map(|i| if (i / 3) % 2 == 0 { 1.7e308 } else { -1.7e308 }).collect();
        for p in 0..=3 {
            for q in 0..=2 {
                let order = ArimaOrder::new(p, 1, q);
                assert_eq!(Arima::fit(&s, order), Err(StatsError::NonFiniteInput), "{order}");
            }
        }
        assert_eq!(
            crate::select::search(&s, crate::select::SearchConfig::default()).unwrap_err(),
            StatsError::NonFiniteInput
        );
    }

    #[test]
    fn nan_sigma2_never_scores_as_a_perfect_fit() {
        let series = simulate_arma(&[0.5], &[], 0.0, 200, 1.0, 41);
        let mut model = Arima::fit(&series, ArimaOrder::new(1, 0, 0)).unwrap();
        model.sigma2 = f64::NAN;
        assert!(model.aic().is_nan());
        // A zero σ² (an exact fit) still scores finitely.
        model.sigma2 = 0.0;
        assert!(model.aic().is_finite());
    }

    fn arma_case() -> impl Strategy<Value = (Vec<f64>, usize)> {
        (
            // Half the cases short enough for `long_p` to clamp.
            (0u8..2, 8usize..64, 64usize..3000),
            0usize..=2,
            proptest::collection::vec(-0.45f64..0.45, 0usize..3),
            proptest::collection::vec(-0.8f64..0.8, 0usize..3),
            -2.0f64..2.0,
            0u64..u64::MAX,
        )
            .prop_map(|(len, d, phi, theta, c, seed)| {
                let n = if len.0 == 0 { len.1 } else { len.2 };
                let base = simulate_arma(&phi, &theta, c, n, 1.0, seed);
                (integrate_d(&base, d), d)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every grid cell through the shared lag fits, and every
        /// stand-alone `Arima::fit`, equals the per-cell reference bit
        /// for bit, at the differencing degree the series was built with.
        #[test]
        fn lag_fits_match_per_cell_reference(case in arma_case()) {
            let (series, d) = case;
            assert_grid_matches_reference(&series, d);
        }
    }
}
