//! Bitwise determinism of the scratch-arena fit paths.
//!
//! The grid search reuses one [`FitScratch`] per executor shard across
//! cells. These tests are the migration guard for that reuse: a fit with
//! a dirty, repeatedly-reused arena must be *bitwise* identical to a
//! fresh-allocation fit, and `grid_search_with` must be bitwise stable
//! across worker counts (which changes which cells share an arena).
//! Fingerprints downstream of the grid search must therefore not move.

use ddos_neural::grid::{grid_search_with, GridSpec};
use ddos_neural::nar::{FitScratch, NarConfig, NarModel};
use ddos_neural::train::TrainConfig;
use ddos_stats::codec::Writer;
use proptest::prelude::*;

/// Deterministic synthetic series: AR(2) flavor with tunable dynamics.
fn series(n: usize, a: f64, b: f64, amp: f64) -> Vec<f64> {
    let mut x = vec![1.0, 0.6];
    for t in 2..n {
        let v: f64 = a * x[t - 1] - b * x[t - 2] + ((t as f64) * 0.47).sin() * amp;
        x.push(v.clamp(-1e6, 1e6));
    }
    x
}

/// Every f64 bit of a fitted model, via the exact binary codec.
fn model_bits(m: &NarModel) -> Vec<u8> {
    let mut w = Writer::new();
    m.encode(&mut w);
    w.into_bytes()
}

fn quick_train() -> TrainConfig {
    TrainConfig { max_epochs: 40, patience: 8, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A single arena dragged across fits of *varying shapes* produces
    /// bit-identical models to fresh-allocation fits, cell for cell.
    #[test]
    fn reused_arena_fits_match_fresh_fits_bitwise(
        n in 60usize..120,
        a in 0.8f64..1.4,
        b in 0.3f64..0.7,
        amp in 0.01f64..0.2,
        seed in 0u64..1_000,
    ) {
        let s = series(n, a, b, amp);
        let mut arena = FitScratch::default();
        // Shapes deliberately interleaved so every reuse follows a fit of
        // a different (delays, hidden) footprint.
        for (delays, hidden) in [(1, 2), (3, 6), (2, 4), (4, 2), (1, 6)] {
            let config = NarConfig { delays, hidden, train: quick_train() };
            let reused = NarModel::fit_with(&s, config, seed, &mut arena).unwrap();
            let fresh = NarModel::fit(&s, config, seed).unwrap();
            prop_assert_eq!(model_bits(&reused), model_bits(&fresh));
        }
    }

    /// `grid_search_with` is bitwise stable across worker counts: the
    /// shard layout decides which cells share an arena, so any state leak
    /// between cells would break this equality.
    #[test]
    fn grid_search_is_bitwise_stable_across_parallelism(
        n in 60usize..110,
        a in 0.8f64..1.4,
        b in 0.3f64..0.7,
        seed in 0u64..1_000,
        delays_hi in 2usize..4,
        hidden_hi in 2usize..4,
    ) {
        let s = series(n, a, b, 0.05);
        let spec = GridSpec {
            delays: (1..=delays_hi).collect(),
            hidden: (1..=hidden_hi).map(|h| h * 2).collect(),
            train: quick_train(),
        };
        let reference = grid_search_with(&s, &spec, seed, Some(1)).unwrap();
        for parallelism in [None, Some(2), Some(4)] {
            let out = grid_search_with(&s, &spec, seed, parallelism).unwrap();
            prop_assert_eq!(out.skipped, reference.skipped);
            prop_assert_eq!(out.table.len(), reference.table.len());
            for (got, want) in out.table.iter().zip(&reference.table) {
                prop_assert_eq!(got.delays, want.delays);
                prop_assert_eq!(got.hidden, want.hidden);
                prop_assert_eq!(got.rmse.to_bits(), want.rmse.to_bits());
            }
            prop_assert_eq!(model_bits(&out.model), model_bits(&reference.model));
        }
    }
}
