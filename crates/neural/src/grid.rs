//! Grid search over NAR hyperparameters.
//!
//! "For each dataset by any botnet family, we need to find the optimal
//! parameters for the number of delays as well as the number of hidden
//! nodes. A grid search technique was utilized to accomplish this." (§V-A)

use crate::nar::{FitScratch, NarConfig, NarModel};
use crate::train::TrainConfig;
use crate::{NeuralError, Result};
use ddos_stats::codec::{CodecResult, Reader, Writer};
use ddos_stats::exec::map_indexed_with;
use serde::{Deserialize, Serialize};

/// The search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Delay counts to try.
    pub delays: Vec<usize>,
    /// Hidden-layer widths to try.
    pub hidden: Vec<usize>,
    /// Training configuration shared by all cells.
    pub train: TrainConfig,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            delays: vec![1, 2, 3, 4, 6],
            hidden: vec![2, 4, 8, 12],
            train: TrainConfig::default(),
        }
    }
}

impl GridSpec {
    /// Encodes the search space verbatim.
    pub fn encode(&self, w: &mut Writer) {
        w.usize_seq(&self.delays);
        w.usize_seq(&self.hidden);
        self.train.encode(w);
    }

    /// Decodes a search space written by [`GridSpec::encode`].
    ///
    /// # Errors
    ///
    /// [`ddos_stats::codec::CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(GridSpec {
            delays: r.usize_seq()?,
            hidden: r.usize_seq()?,
            train: TrainConfig::decode(r)?,
        })
    }
}

/// One evaluated grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// Delay count.
    pub delays: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Validation RMSE on the holdout tail (original scale).
    pub rmse: f64,
}

/// Result of a grid search.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// The winning model, retrained on the full series.
    pub model: NarModel,
    /// Every evaluated cell, sorted ascending by RMSE.
    pub table: Vec<GridCell>,
    /// Cells that could not be scored (fit/prediction failed or produced
    /// a non-finite RMSE) and therefore do not appear in `table`.
    pub skipped: usize,
}

/// How one grid cell's evaluation ended.
enum CellEval {
    /// The cell trained and scored with a finite RMSE.
    Scored(GridCell, Box<NarModel>),
    /// The cell was infeasible; the cause is kept so a fully-failed grid
    /// can report *why* instead of a generic "not enough data".
    Infeasible(NeuralError),
}

/// Searches the grid with the default worker count (every available
/// core). See [`grid_search_with`]; the parallel evaluation is
/// bit-identical to serial, so the worker count never changes the result.
///
/// # Errors
///
/// * [`NeuralError::InvalidParameter`] for an empty grid.
/// * [`NeuralError::NotEnoughData`] when the series has no holdout tail.
/// * When *every* cell is infeasible, the first cell's underlying error
///   (in grid order) rather than a generic failure.
pub fn grid_search(series: &[f64], spec: &GridSpec, seed: u64) -> Result<GridOutcome> {
    grid_search_with(series, spec, seed, None)
}

/// Searches the grid: each cell trains on the first 80% of the series and
/// is scored by rolling one-step RMSE on the remaining 20%; the winner is
/// refit on the whole series.
///
/// Cells are evaluated on up to `parallelism` worker threads (`None` =
/// all available cores, `Some(1)` = serial). Each cell derives its own
/// seed (`seed ^ (ci << 32) ^ cj`) and the reduction walks cells in grid
/// order, so results are bit-identical at any worker count.
///
/// Cells that fail to train or score (e.g. too many delays for the
/// series) are skipped and counted in [`GridOutcome::skipped`].
///
/// # Errors
///
/// * [`NeuralError::InvalidParameter`] for an empty grid.
/// * [`NeuralError::NotEnoughData`] when the series has no holdout tail.
/// * When *every* cell is infeasible, the first cell's underlying error
///   (in grid order) rather than a generic failure.
pub fn grid_search_with(
    series: &[f64],
    spec: &GridSpec,
    seed: u64,
    parallelism: Option<usize>,
) -> Result<GridOutcome> {
    if spec.delays.is_empty() || spec.hidden.is_empty() {
        return Err(NeuralError::InvalidParameter {
            name: "spec",
            detail: "grid must contain at least one delay and one hidden size".to_string(),
        });
    }
    let cut = (series.len() as f64 * 0.8) as usize;
    let (head, tail) = series.split_at(cut.clamp(1, series.len().saturating_sub(1)));
    if tail.is_empty() {
        return Err(NeuralError::NotEnoughData { required: 10, actual: series.len() });
    }

    // Cells in canonical (row-major) grid order; the index-preserving map
    // plus an in-order reduction below makes the outcome independent of
    // the worker count.
    let cells: Vec<(usize, usize, usize, usize)> = spec
        .delays
        .iter()
        .enumerate()
        .flat_map(|(ci, &delays)| {
            spec.hidden.iter().enumerate().map(move |(cj, &hidden)| (ci, cj, delays, hidden))
        })
        .collect();
    // One fit arena per executor shard: consecutive cells on a worker
    // reuse every training allocation (scaled series, flat design, weight
    // and gradient buffers). Per-cell seeds are untouched and the scratch
    // is pure workspace, so results — and the goldencheck fingerprints
    // downstream of them — are bit-identical to fresh-allocation fits at
    // any worker count.
    let evals = map_indexed_with(&cells, parallelism, FitScratch::default, |scratch, _, &cell| {
        let (ci, cj, delays, hidden) = cell;
        let config = NarConfig { delays, hidden, train: spec.train };
        let cell_seed = seed ^ ((ci as u64) << 32) ^ (cj as u64);
        let model = match NarModel::fit_with(head, config, cell_seed, scratch) {
            Ok(m) => m,
            Err(e) => return CellEval::Infeasible(e),
        };
        if let Err(e) = model.predict_rolling_into(head, tail, &mut scratch.preds) {
            return CellEval::Infeasible(e);
        }
        let sse: f64 = scratch.preds.iter().zip(tail).map(|(p, t)| (p - t).powi(2)).sum();
        let rmse = (sse / tail.len() as f64).sqrt();
        if !rmse.is_finite() {
            return CellEval::Infeasible(NeuralError::NonFiniteInput);
        }
        CellEval::Scored(GridCell { delays, hidden, rmse }, Box::new(model))
    });

    let mut table = Vec::new();
    let mut skipped = 0usize;
    let mut first_cause: Option<NeuralError> = None;
    let mut best: Option<(GridCell, Box<NarModel>)> = None;
    for eval in evals {
        match eval {
            CellEval::Scored(cell, model) => {
                let better = best.as_ref().is_none_or(|(c, _)| cell.rmse < c.rmse);
                if better {
                    best = Some((cell.clone(), model));
                }
                table.push(cell);
            }
            CellEval::Infeasible(cause) => {
                skipped += 1;
                first_cause.get_or_insert(cause);
            }
        }
    }
    let Some((winner, _)) = best else {
        // Every cell failed: surface the real cause, not a generic error.
        return Err(first_cause
            .unwrap_or(NeuralError::NotEnoughData { required: 10, actual: series.len() }));
    };
    // Refit the winning architecture on the full series.
    let config = NarConfig { delays: winner.delays, hidden: winner.hidden, train: spec.train };
    let model = NarModel::fit(series, config, seed)?;
    table.sort_by(|a, b| a.rmse.total_cmp(&b.rmse));
    Ok(GridOutcome { model, table, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar2(n: usize) -> Vec<f64> {
        // Deterministic AR(2)-flavored oscillation.
        let mut x = vec![1.0, 0.5];
        for t in 2..n {
            let v: f64 = 1.3 * x[t - 1] - 0.6 * x[t - 2] + ((t as f64) * 0.61).sin() * 0.05;
            x.push(v);
        }
        x
    }

    #[test]
    fn search_finds_multi_delay_model_for_ar2() {
        let s = ar2(260);
        let spec = GridSpec {
            delays: vec![1, 2, 3],
            hidden: vec![4, 8],
            train: TrainConfig { max_epochs: 200, patience: 20, ..Default::default() },
        };
        let out = grid_search(&s, &spec, 31).unwrap();
        assert!(out.model.config().delays >= 2, "AR(2) needs ≥ 2 delays");
        assert_eq!(out.table.len(), 6);
        for w in out.table.windows(2) {
            assert!(w[0].rmse <= w[1].rmse);
        }
    }

    #[test]
    fn winner_is_best_cell() {
        let s = ar2(200);
        let spec = GridSpec {
            delays: vec![1, 2],
            hidden: vec![2, 6],
            train: TrainConfig { max_epochs: 120, patience: 15, ..Default::default() },
        };
        let out = grid_search(&s, &spec, 32).unwrap();
        let best = &out.table[0];
        assert_eq!(
            (out.model.config().delays, out.model.config().hidden),
            (best.delays, best.hidden)
        );
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let s = ar2(220);
        let spec = GridSpec {
            delays: vec![1, 2, 3],
            hidden: vec![2, 4],
            train: TrainConfig { max_epochs: 120, patience: 15, ..Default::default() },
        };
        let serial = grid_search_with(&s, &spec, 77, Some(1)).unwrap();
        for workers in [2, 4, 8] {
            let par = grid_search_with(&s, &spec, 77, Some(workers)).unwrap();
            assert_eq!(par.table, serial.table, "workers={workers}");
            assert_eq!(par.skipped, serial.skipped);
            assert_eq!(par.model.config(), serial.model.config());
            assert_eq!(
                par.model.predict_next(&s).unwrap().to_bits(),
                serial.model.predict_next(&s).unwrap().to_bits(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn infeasible_cells_are_counted_not_swallowed() {
        let s = ar2(60);
        // delays=50 cannot be trained on a 48-point head; delays=2 can.
        let spec = GridSpec {
            delays: vec![2, 50],
            hidden: vec![2],
            train: TrainConfig { max_epochs: 60, patience: 10, ..Default::default() },
        };
        let out = grid_search(&s, &spec, 9).unwrap();
        assert_eq!(out.skipped, 1);
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.table[0].delays, 2);
    }

    #[test]
    fn all_cells_infeasible_reports_underlying_cause() {
        let s = ar2(60);
        let spec =
            GridSpec { delays: vec![50, 55], hidden: vec![2], train: TrainConfig::default() };
        let err = grid_search(&s, &spec, 9).unwrap_err();
        // The real cause (cells too large for the head), not a generic
        // series-level NotEnoughData{required: 10}.
        match err {
            NeuralError::NotEnoughData { required, .. } => assert!(required > 10),
            other => panic!("expected the cell-level cause, got {other:?}"),
        }
    }

    #[test]
    fn nan_series_errors_without_panicking() {
        let mut s = ar2(120);
        s[40] = f64::NAN;
        let spec = GridSpec {
            delays: vec![1, 2],
            hidden: vec![2],
            train: TrainConfig { max_epochs: 40, patience: 10, ..Default::default() },
        };
        // Every cell sees the NaN and fails; the search must return the
        // cause instead of panicking in the RMSE sort.
        assert!(grid_search(&s, &spec, 3).is_err());
    }

    #[test]
    fn empty_grid_rejected() {
        let s = ar2(100);
        let spec = GridSpec { delays: vec![], hidden: vec![4], train: TrainConfig::default() };
        assert!(grid_search(&s, &spec, 1).is_err());
    }

    #[test]
    fn short_series_rejected() {
        let spec = GridSpec::default();
        assert!(grid_search(&[1.0, 2.0], &spec, 1).is_err());
    }
}
