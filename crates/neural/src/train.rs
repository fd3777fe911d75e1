//! Batch training with early stopping.
//!
//! The optimizer is **iRPROP−** (resilient backpropagation: robust on the
//! small per-target datasets the spatial model sees, with no learning rate
//! to tune). Training stops early when the validation error has not
//! improved for `patience` epochs, the standard guard against overfitting
//! tiny series.

use crate::network::{EpochKernel, EpochScratch, Mlp};
use crate::{NeuralError, Result};
use ddos_stats::codec::{CodecError, CodecResult, Reader, Writer};
use serde::{Deserialize, Serialize};

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub max_epochs: usize,
    /// Fraction of samples held out for validation-based early stopping
    /// (taken from the *end* of the sample list; time-ordered callers get a
    /// chronological holdout).
    pub validation_fraction: f64,
    /// Epochs without validation improvement before stopping.
    pub patience: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { max_epochs: 300, validation_fraction: 0.2, patience: 25 }
    }
}

impl TrainConfig {
    /// Encodes the configuration (artifact payload fragment). It ends with
    /// the optimizer tag byte `0` (RPROP, the only optimizer), which keeps
    /// the artifact format unchanged.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.max_epochs);
        w.f64(self.validation_fraction);
        w.usize(self.patience);
        w.u8(0);
    }

    /// Decodes a configuration encoded by [`TrainConfig::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated input or an optimizer tag other than
    /// `0`.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let max_epochs = r.usize()?;
        let validation_fraction = r.f64()?;
        let patience = r.usize()?;
        match r.u8()? {
            0 => Ok(TrainConfig { max_epochs, validation_fraction, patience }),
            t => Err(CodecError::BadTag { context: "Optimizer", tag: t as u64 }),
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Final training MSE.
    pub train_mse: f64,
    /// Best validation MSE (equals `train_mse` when no validation split).
    pub validation_mse: f64,
    /// Whether early stopping triggered.
    pub stopped_early: bool,
}

impl TrainReport {
    /// Encodes the report (artifact payload fragment).
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.epochs);
        w.f64(self.train_mse);
        w.f64(self.validation_mse);
        w.bool(self.stopped_early);
    }

    /// Decodes a report encoded by [`TrainReport::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(TrainReport {
            epochs: r.usize()?,
            train_mse: r.f64()?,
            validation_mse: r.f64()?,
            stopped_early: r.bool()?,
        })
    }
}

/// Reusable training workspace: every buffer [`train_with`] needs, so one
/// arena can be carried across many fits (grid-search cells within an
/// executor shard) instead of reallocating per fit.
///
/// Contents are pure scratch: each `train_with` call (re)initializes every
/// buffer before reading it, so reuse is bit-identical to starting from
/// [`TrainScratch::default`] — the grid-search determinism tests sweep
/// worker counts (which changes who shares an arena) to prove it.
#[derive(Debug, Default)]
pub struct TrainScratch {
    grad: Vec<f64>,
    prev_grad: Vec<f64>,
    step: Vec<f64>,
    moves: Vec<f64>,
    /// The epoch kernels' buffers; its activation buffer is also
    /// borrowed by the NAR σ pass after training completes.
    pub(crate) epoch: EpochScratch,
    /// Best-so-far network kept across calls so the early-stopping
    /// snapshot reuses weight buffers instead of cloning a fresh `Mlp`.
    best: Option<Mlp>,
}

/// Trains `network` in place on a row-major design (`targets.len()` rows
/// of `input_dim` values), with every working buffer drawn from
/// `scratch`.
///
/// The network with the *best validation error* is the one left in
/// `network` (classic early-stopping semantics). The result is the same
/// bits whether the scratch is fresh or reused from a previous fit of any
/// shape.
///
/// # Errors
///
/// * [`NeuralError::NotEnoughData`] when there are no samples.
/// * [`NeuralError::BadDimensions`] when `design` is not
///   `targets.len() × input_dim`.
/// * [`NeuralError::InvalidParameter`] for bad config values.
/// * [`NeuralError::NonFiniteInput`] for a NaN or infinite design value
///   or target.
///
/// The epoch kernel is chosen once, from the network's shape (see
/// `Mlp::epoch_kernel`); every kernel gives the same bits.
pub fn train_with(
    network: &mut Mlp,
    design: &[f64],
    targets: &[f64],
    config: &TrainConfig,
    scratch: &mut TrainScratch,
) -> Result<TrainReport> {
    if targets.is_empty() {
        return Err(NeuralError::NotEnoughData { required: 1, actual: 0 });
    }
    let dim = network.input_dim();
    if design.len() != targets.len() * dim {
        return Err(NeuralError::BadDimensions {
            detail: format!(
                "design of {} values is not {} rows × {dim} inputs",
                design.len(),
                targets.len()
            ),
        });
    }
    if !(0.0..1.0).contains(&config.validation_fraction) {
        return Err(NeuralError::InvalidParameter {
            name: "validation_fraction",
            detail: format!("must lie in [0, 1), got {}", config.validation_fraction),
        });
    }
    if config.max_epochs == 0 {
        return Err(NeuralError::InvalidParameter {
            name: "max_epochs",
            detail: "must be nonzero".to_string(),
        });
    }
    if targets.iter().any(|t| !t.is_finite()) || design.iter().any(|v| !v.is_finite()) {
        return Err(NeuralError::NonFiniteInput);
    }
    let kernel = network.epoch_kernel();
    Ok(train_validated(network, design, targets, config, scratch, kernel))
}

/// [`train_with`]'s RPROP loop on validated inputs, running every epoch
/// through `kernel`.
fn train_validated(
    network: &mut Mlp,
    flat: &[f64],
    targets: &[f64],
    config: &TrainConfig,
    scratch: &mut TrainScratch,
    kernel: EpochKernel,
) -> TrainReport {
    let dim = network.input_dim();
    let n_val = ((targets.len() as f64) * config.validation_fraction) as usize;
    let n_train = targets.len() - n_val;
    // Never train on zero samples; fold a too-small split back in.
    let (n_train, n_val) = if n_train == 0 { (targets.len(), 0) } else { (n_train, n_val) };

    let n_params = network.n_params();
    // All per-epoch scratch comes from the arena, (re)initialized to
    // exactly the state a fresh allocation would have: the epoch body
    // performs no heap allocation and reuse cannot change a single bit.
    let TrainScratch { grad, prev_grad, step, moves, epoch: epoch_scratch, best: kept } = scratch;
    grad.clear();
    grad.resize(n_params, 0.0);
    prev_grad.clear();
    prev_grad.resize(n_params, 0.0);
    step.clear();
    step.resize(n_params, 0.05); // RPROP initial step
    moves.clear();
    moves.resize(n_params, 0.0);
    let (train_x, val_x) = flat.split_at(n_train * dim);
    let (train_y, val_y) = targets.split_at(n_train);

    // The early-stopping snapshot reuses the arena's retained network
    // when there is one (clone_from keeps its weight buffers); the copy
    // makes its value identical to a fresh clone either way.
    let mut best = match kept.take() {
        Some(mut b) => {
            b.clone_from(network);
            b
        }
        None => network.clone(),
    };
    let mut best_val = f64::INFINITY;
    let mut stall = 0usize;
    let mut epochs_run = 0usize;
    let mut train_mse = f64::INFINITY;
    let mut stopped_early = false;

    for epoch in 0..config.max_epochs {
        epochs_run = epoch + 1;
        // The kernel overwrites every gradient entry.
        let sse = kernel(network, train_x, train_y, Some(grad), epoch_scratch);
        train_mse = sse / n_train as f64;

        // iRPROP−: adapt per-parameter steps by gradient sign
        // agreement; on sign flip, shrink the step and skip the move.
        const ETA_PLUS: f64 = 1.2;
        const ETA_MINUS: f64 = 0.5;
        const STEP_MAX: f64 = 5.0;
        const STEP_MIN: f64 = 1e-9;
        for i in 0..n_params {
            let g = grad[i];
            let prod = g * prev_grad[i];
            if prod > 0.0 {
                step[i] = (step[i] * ETA_PLUS).min(STEP_MAX);
                moves[i] = -g.signum() * step[i];
                prev_grad[i] = g;
            } else if prod < 0.0 {
                step[i] = (step[i] * ETA_MINUS).max(STEP_MIN);
                moves[i] = 0.0;
                prev_grad[i] = 0.0;
            } else {
                moves[i] = -g.signum() * step[i];
                prev_grad[i] = g;
            }
        }
        network.apply_update(|i, v| v + moves[i]);

        // Validation / early stopping.
        let val_mse = if n_val > 0 {
            kernel(network, val_x, val_y, None, epoch_scratch) / n_val as f64
        } else {
            train_mse
        };
        if val_mse < best_val - 1e-12 {
            best_val = val_mse;
            // clone_from reuses `best`'s weight buffers instead of
            // allocating a fresh network on every improvement.
            best.clone_from(network);
            stall = 0;
        } else {
            stall += 1;
            if stall >= config.patience {
                stopped_early = true;
                break;
            }
        }
    }

    std::mem::swap(network, &mut best);
    // Hand the displaced network back to the arena: the next fit's
    // snapshot clone_from reuses its weight buffers.
    *kept = Some(best);
    TrainReport { epochs: epochs_run, train_mse, validation_mse: best_val, stopped_early }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat two-input design and its targets.
    fn xor_like() -> (Vec<f64>, Vec<f64>) {
        // A smooth nonlinear target a linear model cannot fit.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..80 {
            let a = (i % 9) as f64 / 4.0 - 1.0;
            let b = (i / 9) as f64 / 4.0 - 1.0;
            xs.extend([a, b]);
            ys.push((a * b).tanh());
        }
        (xs, ys)
    }

    fn train(
        net: &mut Mlp,
        design: &[f64],
        targets: &[f64],
        config: &TrainConfig,
    ) -> Result<TrainReport> {
        train_with(net, design, targets, config, &mut TrainScratch::default())
    }

    /// A lagged design over a deterministic wavy series, `dim` lags per
    /// row, as `NarModel::fit` builds it.
    fn lagged(dim: usize) -> (Vec<f64>, Vec<f64>) {
        let series: Vec<f64> =
            (0..120).map(|t| (t as f64 * 0.37).sin() + 0.3 * (t as f64 * 1.3).cos()).collect();
        let mut design = Vec::new();
        let mut targets = Vec::new();
        for t in (dim - 1)..(series.len() - 1) {
            design.extend((0..dim).map(|j| series[t - j]));
            targets.push(series[t + 1]);
        }
        (design, targets)
    }

    /// FNV-1a over the encoded network and report: every weight bit and
    /// every report field.
    fn fit_fingerprint(net: &Mlp, report: &TrainReport) -> u64 {
        let mut w = Writer::new();
        net.encode(&mut w);
        report.encode(&mut w);
        w.into_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn fixed_kernel_fit_matches_runtime_width_fit_bitwise() {
        // Each fit's fingerprint as the runtime-width epoch loop
        // (`accumulate_gradient_epoch` / `forward_sse_epoch`) produced it
        // at the commit before the fixed-width kernel; (3, 17) has no
        // fixed-width instance.
        let pinned = [
            ((3, 5), 0x5073_8373_16ab_7855_u64),
            ((1, 1), 0x703c_2257_af42_06d2),
            ((6, 12), 0xf689_fd28_f04d_b762),
            ((8, 16), 0xcc0f_6792_df2a_16d4),
            ((2, 8), 0x822a_1311_bfcc_6460),
            ((3, 17), 0x2c9d_6f94_0e62_24f8),
        ];
        let config = TrainConfig { max_epochs: 150, validation_fraction: 0.2, patience: 20 };
        for ((dim, hid), fingerprint) in pinned {
            let (design, targets) = lagged(dim);
            let mut net = Mlp::new(dim, hid, 7).unwrap();
            let mut runtime = net.clone();
            let report =
                train_with(&mut net, &design, &targets, &config, &mut TrainScratch::default())
                    .unwrap();
            let runtime_report = train_validated(
                &mut runtime,
                &design,
                &targets,
                &config,
                &mut TrainScratch::default(),
                Mlp::epoch_runtime,
            );
            assert_eq!(
                fit_fingerprint(&net, &report),
                fit_fingerprint(&runtime, &runtime_report),
                "({dim}, {hid})"
            );
            assert_eq!(fit_fingerprint(&net, &report), fingerprint, "({dim}, {hid})");
        }
    }

    #[test]
    fn rprop_learns_nonlinear_function() {
        let (xs, ys) = xor_like();
        let mut net = Mlp::new(2, 8, 11).unwrap();
        let report = train(
            &mut net,
            &xs,
            &ys,
            &TrainConfig { max_epochs: 500, validation_fraction: 0.0, patience: 100 },
        )
        .unwrap();
        assert!(report.train_mse < 0.01, "train MSE {}", report.train_mse);
        // Spot-check sign structure of the learned surface.
        assert!(net.predict(&[0.9, 0.9]).unwrap() > 0.2);
        assert!(net.predict(&[0.9, -0.9]).unwrap() < -0.2);
    }

    #[test]
    fn optimizer_tag_zero_round_trips_to_the_same_bytes() {
        let config = TrainConfig { max_epochs: 120, validation_fraction: 0.25, patience: 9 };
        let mut w = Writer::new();
        config.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.last(), Some(&0), "the optimizer tag closes the payload");
        let decoded = TrainConfig::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, config);
        let mut again = Writer::new();
        decoded.encode(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn retired_sgd_optimizer_tag_is_a_bad_tag() {
        // The payload an SGD configuration used to write: tag 1 followed
        // by its learning rate and momentum.
        let mut w = Writer::new();
        w.usize(400);
        w.f64(0.0);
        w.usize(400);
        w.u8(1);
        w.f64(0.5);
        w.f64(0.9);
        let bytes = w.into_bytes();
        assert!(matches!(
            TrainConfig::decode(&mut Reader::new(&bytes)),
            Err(CodecError::BadTag { context: "Optimizer", tag: 1 })
        ));
    }

    #[test]
    fn early_stopping_triggers_on_noise() {
        // Pure noise: validation cannot improve for long.
        let xs: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).sin()).collect();
        let ys: Vec<f64> =
            (0..60).map(|i| ((i * 2654435761u64 % 97) as f64 / 97.0) - 0.5).collect();
        let mut net = Mlp::new(1, 4, 13).unwrap();
        let report = train(
            &mut net,
            &xs,
            &ys,
            &TrainConfig { max_epochs: 5_000, patience: 10, ..Default::default() },
        )
        .unwrap();
        assert!(report.stopped_early);
        assert!(report.epochs < 5_000);
    }

    #[test]
    fn validates_inputs() {
        let mut net = Mlp::new(1, 2, 1).unwrap();
        assert!(train(&mut net, &[], &[], &TrainConfig::default()).is_err());
        assert!(train(&mut net, &[1.0], &[1.0, 2.0], &TrainConfig::default()).is_err());
        assert!(train(
            &mut net,
            &[f64::NAN],
            &[1.0],
            &TrainConfig { validation_fraction: 0.0, ..Default::default() }
        )
        .is_err());
        let bad = TrainConfig { validation_fraction: 1.5, ..Default::default() };
        assert!(train(&mut net, &[1.0], &[1.0], &bad).is_err());
        let bad = TrainConfig { max_epochs: 0, ..Default::default() };
        assert!(train(&mut net, &[1.0], &[1.0], &bad).is_err());
    }

    #[test]
    fn best_validation_network_is_kept() {
        let (xs, ys) = xor_like();
        let mut net = Mlp::new(2, 6, 14).unwrap();
        let report = train(
            &mut net,
            &xs,
            &ys,
            &TrainConfig { max_epochs: 300, validation_fraction: 0.25, patience: 30 },
        )
        .unwrap();
        // Recompute validation error of the returned network: must equal
        // the reported best.
        let n_val = (ys.len() as f64 * 0.25) as usize;
        let n_train = ys.len() - n_val;
        let mut sse = 0.0;
        for (x, y) in xs[2 * n_train..].chunks_exact(2).zip(&ys[n_train..]) {
            let e = net.predict(x).unwrap() - y;
            sse += e * e;
        }
        let val = sse / n_val as f64;
        assert!((val - report.validation_mse).abs() < 1e-9);
    }
}
