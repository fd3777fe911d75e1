//! The nonlinear autoregressive (NAR) model.
//!
//! Eq. 6 of the paper:
//!
//! ```text
//! T_{j+1} = f(T_j, T_{j−1}, …, T_{j−q}) + ε,   ε ~ N(0, σ²)
//! ```
//!
//! where `q` is the number of delays and `f` a one-hidden-layer tan-sigmoid
//! network. [`NarModel`] builds the lagged design from a series, scales
//! everything into the sigmoid's range, trains the network and exposes
//! one-step, rolling and recursive forecasting.

use crate::activation::Activation;
use crate::network::Mlp;
use crate::scale::MinMaxScaler;
use crate::train::{train_with, TrainConfig, TrainReport, TrainScratch};
use crate::{NeuralError, Result};
use ddos_stats::codec::{CodecError, CodecResult, Reader, Writer};
use serde::{Deserialize, Serialize};

/// NAR hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NarConfig {
    /// Number of delays `q` (lagged inputs).
    pub delays: usize,
    /// Hidden-layer width.
    pub hidden: usize,
    /// Hidden activation (the paper uses tan-sigmoid).
    pub activation: Activation,
    /// Training configuration.
    pub train: TrainConfig,
}

impl Default for NarConfig {
    fn default() -> Self {
        NarConfig {
            delays: 3,
            hidden: 8,
            activation: Activation::TanSig,
            train: TrainConfig::default(),
        }
    }
}

impl NarConfig {
    /// Encodes the hyperparameters verbatim (artifact payloads that embed
    /// a NAR *specification* rather than a fitted model).
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.delays);
        w.usize(self.hidden);
        self.activation.encode(w);
        self.train.encode(w);
    }

    /// Decodes a configuration written by [`NarConfig::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated input or unknown tags.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(NarConfig {
            delays: r.usize()?,
            hidden: r.usize()?,
            activation: Activation::decode(r)?,
            train: TrainConfig::decode(r)?,
        })
    }
}

/// A fitted NAR model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NarModel {
    config: NarConfig,
    scaler: MinMaxScaler,
    network: Mlp,
    report: TrainReport,
    /// Residual standard deviation on the training set (original scale).
    sigma: f64,
}

/// Reusable fit workspace: the scaled series, the flat lagged design and
/// targets, the rolling-evaluation output, and the full training arena.
/// Grid search carries one per executor shard so consecutive cells reuse
/// every allocation; [`NarModel::fit_with`] is bit-identical whether the
/// scratch is fresh or carried over from a fit of any other shape.
#[derive(Debug, Default)]
pub struct FitScratch {
    scaled: Vec<f64>,
    design: Vec<f64>,
    targets: Vec<f64>,
    /// Rolling one-step predictions (grid-cell scoring output buffer).
    pub(crate) preds: Vec<f64>,
    train: TrainScratch,
}

impl NarModel {
    /// Fits a NAR model to a series.
    ///
    /// # Errors
    ///
    /// * [`NeuralError::InvalidParameter`] when `delays == 0`.
    /// * [`NeuralError::NotEnoughData`] when the series has fewer than
    ///   `delays + 4` points.
    /// * Propagates scaling and training errors.
    pub fn fit(series: &[f64], config: NarConfig, seed: u64) -> Result<Self> {
        Self::fit_with(series, config, seed, &mut FitScratch::default())
    }

    /// [`NarModel::fit`] with every working buffer — scaled series, flat
    /// lagged design, training arena — drawn from `scratch`, so repeated
    /// fits (grid-search cells) reuse allocations. Bit-identical to
    /// [`NarModel::fit`]: the same float ops run in the same order on the
    /// same values regardless of what the scratch previously held.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NarModel::fit`].
    pub fn fit_with(
        series: &[f64],
        config: NarConfig,
        seed: u64,
        scratch: &mut FitScratch,
    ) -> Result<Self> {
        if config.delays == 0 {
            return Err(NeuralError::InvalidParameter {
                name: "delays",
                detail: "need at least one delay".to_string(),
            });
        }
        let min_len = config.delays + 4;
        if series.len() < min_len {
            return Err(NeuralError::NotEnoughData { required: min_len, actual: series.len() });
        }
        let scaler = MinMaxScaler::fit(series)?;
        let FitScratch { scaled, design, targets, train: train_scratch, .. } = scratch;
        scaled.clear();
        scaled.extend(series.iter().map(|v| scaler.transform(*v)));
        // The flat lagged design, row-major: row `t` is
        // `[x_t, x_{t−1}, …, x_{t−q+1}]` with target `x_{t+1}` — exactly
        // [`lagged_design`] without the per-row boxes.
        let q = config.delays;
        design.clear();
        targets.clear();
        for t in (q - 1)..(scaled.len() - 1) {
            for j in 0..q {
                design.push(scaled[t - j]);
            }
            targets.push(scaled[t + 1]);
        }
        let mut network = Mlp::new(q, config.hidden, config.activation, seed)?;
        let report = train_with(&mut network, design, targets, &config.train, train_scratch)?;

        // Residual σ on the original scale.
        let mut sse = 0.0;
        let hidden = &mut train_scratch.hidden;
        for (x, y) in design.chunks_exact(q).zip(targets.iter()) {
            let pred = scaler.inverse(network.forward_into(x, hidden)?);
            let truth = scaler.inverse(*y);
            sse += (pred - truth).powi(2);
        }
        let sigma = (sse / targets.len() as f64).sqrt();

        Ok(NarModel { config, scaler, network, report, sigma })
    }

    /// The hyperparameters used.
    pub fn config(&self) -> &NarConfig {
        &self.config
    }

    /// The training report.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Residual standard deviation (original scale) — the `σ` of Eq. 7.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// One-step prediction from the last `delays` values of `history`
    /// (most recent last).
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::NotEnoughData`] when `history` is shorter
    /// than the delay count.
    pub fn predict_next(&self, history: &[f64]) -> Result<f64> {
        let q = self.config.delays;
        if history.len() < q {
            return Err(NeuralError::NotEnoughData { required: q, actual: history.len() });
        }
        let window: Vec<f64> = history[history.len() - q..]
            .iter()
            .rev() // input order: T_j, T_{j-1}, …, T_{j-q+1}
            .map(|v| self.scaler.transform(*v))
            .collect();
        Ok(self.scaler.inverse(self.network.predict(&window)?))
    }

    /// Rolling one-step predictions over a held-out continuation: predicts
    /// each element of `test` from everything before it (training history
    /// plus already-revealed test truth). Returns one prediction per test
    /// element — the paper's evaluation protocol.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::NotEnoughData`] when `history` is shorter
    /// than the delay count.
    ///
    /// The loop is allocation-free per step: the growing history is
    /// preallocated for `history + test`, and one lag-window plus one
    /// hidden-activation buffer are reused across all steps.
    pub fn predict_rolling(&self, history: &[f64], test: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.predict_rolling_into(history, test, &mut out)?;
        Ok(out)
    }

    /// [`NarModel::predict_rolling`] writing into a caller-owned output
    /// buffer (cleared first): the preallocated batch path the serve
    /// stages use, bit-identical to the allocating wrapper (it is the
    /// same loop).
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::NotEnoughData`] when `history` is shorter
    /// than the delay count.
    pub fn predict_rolling_into(
        &self,
        history: &[f64],
        test: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let q = self.config.delays;
        if history.len() < q {
            return Err(NeuralError::NotEnoughData { required: q, actual: history.len() });
        }
        let mut h = Vec::with_capacity(history.len() + test.len());
        h.extend_from_slice(history);
        let mut window = vec![0.0; q];
        let mut hidden = Vec::with_capacity(self.network.hidden_dim());
        out.clear();
        out.reserve(test.len());
        for &truth in test {
            // input order: T_j, T_{j-1}, …, T_{j-q+1} (as in predict_next).
            for (j, w) in window.iter_mut().enumerate() {
                *w = self.scaler.transform(h[h.len() - 1 - j]);
            }
            out.push(self.scaler.inverse(self.network.forward_into(&window, &mut hidden)?));
            h.push(truth);
        }
        Ok(())
    }

    /// Recursive multi-step forecast: feeds its own predictions back as
    /// inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NarModel::predict_next`], plus
    /// [`NeuralError::InvalidParameter`] for a zero horizon.
    pub fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.forecast_into(history, horizon, &mut out)?;
        Ok(out)
    }

    /// [`NarModel::forecast`] writing into a caller-owned output buffer
    /// (cleared first): the preallocated multi-step batch path. One
    /// lag-window and one hidden-activation buffer are reused across all
    /// steps instead of allocating per step as the stepwise
    /// [`NarModel::predict_next`] chain does; the window is filled with
    /// the same `transform` calls in the same order, so the recursion is
    /// bit-identical to the allocating path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NarModel::predict_next`], plus
    /// [`NeuralError::InvalidParameter`] for a zero horizon.
    pub fn forecast_into(&self, history: &[f64], horizon: usize, out: &mut Vec<f64>) -> Result<()> {
        if horizon == 0 {
            return Err(NeuralError::InvalidParameter {
                name: "horizon",
                detail: "forecast horizon must be nonzero".to_string(),
            });
        }
        let q = self.config.delays;
        if history.len() < q {
            return Err(NeuralError::NotEnoughData { required: q, actual: history.len() });
        }
        let mut h = Vec::with_capacity(history.len() + horizon);
        h.extend_from_slice(history);
        let mut window = vec![0.0; q];
        let mut hidden = Vec::with_capacity(self.network.hidden_dim());
        out.clear();
        out.reserve(horizon);
        for _ in 0..horizon {
            // input order: T_j, T_{j-1}, …, T_{j-q+1} (as in predict_next).
            for (j, w) in window.iter_mut().enumerate() {
                *w = self.scaler.transform(h[h.len() - 1 - j]);
            }
            let next = self.scaler.inverse(self.network.forward_into(&window, &mut hidden)?);
            h.push(next);
            out.push(next);
        }
        Ok(())
    }

    /// Encodes the fitted model field-for-field into `w` (the NAR
    /// artifact payload): config, scaler, network, training report and
    /// residual σ, every `f64` as its bit pattern. Round-trip through
    /// [`NarModel::decode`] is the identity on the struct.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.config.delays);
        w.usize(self.config.hidden);
        self.config.activation.encode(w);
        self.config.train.encode(w);
        self.scaler.encode(w);
        self.network.encode(w);
        self.report.encode(w);
        w.f64(self.sigma);
    }

    /// Decodes a model encoded by [`NarModel::encode`], validating that
    /// the embedded network's input width matches the configured delay
    /// count (the invariant every prediction path indexes by).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, malformed or inconsistent input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let config = NarConfig {
            delays: r.usize()?,
            hidden: r.usize()?,
            activation: Activation::decode(r)?,
            train: TrainConfig::decode(r)?,
        };
        let scaler = MinMaxScaler::decode(r)?;
        let network = Mlp::decode(r)?;
        let report = TrainReport::decode(r)?;
        let sigma = r.f64()?;
        if network.input_dim() != config.delays {
            return Err(CodecError::Invalid {
                detail: format!(
                    "network input width {} disagrees with {} delays",
                    network.input_dim(),
                    config.delays
                ),
            });
        }
        Ok(NarModel { config, scaler, network, report, sigma })
    }
}

/// Builds the lagged design: row `t` is `[x_t, x_{t−1}, …, x_{t−q+1}]` with
/// target `x_{t+1}`. The fit path builds the same rows flat into
/// [`FitScratch`]; this boxed form remains as the tests' readable oracle.
#[cfg(test)]
fn lagged_design(series: &[f64], delays: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for t in (delays - 1)..(series.len() - 1) {
        let row: Vec<f64> = (0..delays).map(|j| series[t - j]).collect();
        inputs.push(row);
        targets.push(series[t + 1]);
    }
    (inputs, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.35).sin() * 4.0 + 10.0).collect()
    }

    #[test]
    fn lagged_design_shapes() {
        let s: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let (x, y) = lagged_design(&s, 3);
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), 7);
        assert_eq!(x[0], vec![2.0, 1.0, 0.0]);
        assert_eq!(y[0], 3.0);
        assert_eq!(x.last().unwrap(), &vec![8.0, 7.0, 6.0]);
        assert_eq!(*y.last().unwrap(), 9.0);
    }

    #[test]
    fn learns_a_sine_wave() {
        let s = sine(300);
        let model =
            NarModel::fit(&s, NarConfig { delays: 4, hidden: 10, ..Default::default() }, 21)
                .unwrap();
        assert!(model.sigma() < 0.8, "sigma {}", model.sigma());
        // One-step prediction continues the wave.
        let next = model.predict_next(&s).unwrap();
        let truth = (300.0f64 * 0.35).sin() * 4.0 + 10.0;
        assert!((next - truth).abs() < 1.0, "next {next} vs {truth}");
    }

    #[test]
    fn rolling_prediction_tracks_test_set() {
        let s = sine(360);
        let (train_s, test_s) = s.split_at(300);
        let model =
            NarModel::fit(train_s, NarConfig { delays: 4, hidden: 10, ..Default::default() }, 22)
                .unwrap();
        let preds = model.predict_rolling(train_s, test_s).unwrap();
        assert_eq!(preds.len(), test_s.len());
        let rmse: f64 = (preds.iter().zip(test_s).map(|(p, t)| (p - t).powi(2)).sum::<f64>()
            / test_s.len() as f64)
            .sqrt();
        assert!(rmse < 1.2, "rolling RMSE {rmse}");
    }

    #[test]
    fn rolling_matches_stepwise_predict_next_bitwise() {
        let s = sine(360);
        let (train_s, test_s) = s.split_at(300);
        let model =
            NarModel::fit(train_s, NarConfig { delays: 4, hidden: 10, ..Default::default() }, 22)
                .unwrap();
        let fast = model.predict_rolling(train_s, test_s).unwrap();
        let mut h = train_s.to_vec();
        for (p, &truth) in fast.iter().zip(test_s) {
            let expected = model.predict_next(&h).unwrap();
            assert_eq!(p.to_bits(), expected.to_bits());
            h.push(truth);
        }
    }

    #[test]
    fn recursive_forecast_stays_in_range() {
        let s = sine(300);
        let model = NarModel::fit(&s, NarConfig { delays: 4, hidden: 8, ..Default::default() }, 23)
            .unwrap();
        let fc = model.forecast(&s, 24).unwrap();
        assert_eq!(fc.len(), 24);
        // Scaled sigmoid output cannot leave the training range by much.
        assert!(fc.iter().all(|v| *v > 4.0 && *v < 16.0), "{fc:?}");
    }

    #[test]
    fn validates_parameters() {
        let s = sine(50);
        assert!(NarModel::fit(&s, NarConfig { delays: 0, ..Default::default() }, 1).is_err());
        assert!(NarModel::fit(&s[..5], NarConfig { delays: 4, ..Default::default() }, 1).is_err());
        let m = NarModel::fit(&s, NarConfig::default(), 1).unwrap();
        assert!(m.predict_next(&s[..2]).is_err());
        assert!(m.forecast(&s, 0).is_err());
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let s = sine(120);
        let a = NarModel::fit(&s, NarConfig::default(), 9).unwrap();
        let b = NarModel::fit(&s, NarConfig::default(), 9).unwrap();
        assert_eq!(a.predict_next(&s).unwrap(), b.predict_next(&s).unwrap());
    }

    #[test]
    fn forecast_into_matches_stepwise_predict_next_bitwise() {
        let s = sine(300);
        let model = NarModel::fit(&s, NarConfig { delays: 4, hidden: 8, ..Default::default() }, 23)
            .unwrap();
        let mut fast = Vec::new();
        model.forecast_into(&s, 24, &mut fast).unwrap();
        // Reference: the stepwise chain the allocating path used to run.
        let mut h = s.clone();
        for p in &fast {
            let expected = model.predict_next(&h).unwrap();
            assert_eq!(p.to_bits(), expected.to_bits());
            h.push(expected);
        }
        // Dirty output buffers must not leak in.
        let mut dirty = vec![99.0; 7];
        model.forecast_into(&s, 24, &mut dirty).unwrap();
        assert_eq!(dirty.len(), 24);
        for (a, b) in fast.iter().zip(&dirty) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codec_round_trip_is_identity() {
        use ddos_stats::codec::{Reader, Writer};
        let s = sine(200);
        let model =
            NarModel::fit(&s, NarConfig { delays: 3, hidden: 6, ..Default::default() }, 5).unwrap();
        let mut w = Writer::new();
        model.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = NarModel::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(model, back);
        for cut in [0, 9, bytes.len() / 3, bytes.len() - 1] {
            assert!(NarModel::decode(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn constant_series_predicts_constant() {
        let s = vec![5.0; 40];
        let model = NarModel::fit(&s, NarConfig::default(), 3).unwrap();
        let p = model.predict_next(&s).unwrap();
        assert!((p - 5.0).abs() < 1e-9, "constant prediction {p}");
    }
}
