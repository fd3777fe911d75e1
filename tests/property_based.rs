//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary inputs, not just fixtures.

use ddos_adversary::astopo::ipmap::{IpAsnMap, Prefix};
use ddos_adversary::astopo::Asn;
use ddos_adversary::cart::leaf::LeafKind;
use ddos_adversary::cart::tree::{RegressionTree, TreeConfig};
use ddos_adversary::model::baseline::{predict_rolling, BaselineKind};
use ddos_adversary::neural::scale::MinMaxScaler;
use ddos_adversary::stats::arima::{difference, integrate};
use ddos_adversary::stats::metrics;
use ddos_adversary::trace::Timestamp;
use proptest::prelude::*;

proptest! {
    /// Differencing then integrating a future block is exact.
    #[test]
    fn difference_integrate_round_trip(
        series in proptest::collection::vec(-100.0f64..100.0, 4..40),
        future in proptest::collection::vec(-100.0f64..100.0, 1..10),
        d in 0usize..3,
    ) {
        prop_assume!(series.len() > d);
        // Build a "true" continuation, difference the whole thing, then
        // re-integrate the future part from the history: must match.
        let mut full = series.clone();
        full.extend_from_slice(&future);
        let diffed = difference(&full, d).unwrap();
        let future_diffed = &diffed[diffed.len() - future.len()..];
        let rebuilt = integrate(&series, future_diffed, d).unwrap();
        for (a, b) in rebuilt.iter().zip(&future) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    /// Min–max scaling round-trips within the fitted range and beyond.
    #[test]
    fn scaler_round_trips(
        values in proptest::collection::vec(-1e6f64..1e6, 2..50),
        probe in -2e6f64..2e6,
    ) {
        let s = MinMaxScaler::fit(&values).unwrap();
        let back = s.inverse(s.transform(probe));
        prop_assert!((back - probe).abs() < 1e-6 * probe.abs().max(1.0));
    }

    /// Regression-tree predictions on constant-leaf trees stay within the
    /// training target range (no extrapolation is possible).
    #[test]
    fn constant_tree_predictions_bounded(
        xs in proptest::collection::vec(-50.0f64..50.0, 12..60),
        probe in -100.0f64..100.0,
    ) {
        let rows: Vec<Vec<f64>> = xs.iter().map(|x| vec![*x]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin() * 10.0).collect();
        let cfg = TreeConfig { leaf_kind: LeafKind::Constant, ..Default::default() };
        let tree = RegressionTree::fit(&rows, &ys, &cfg).unwrap();
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let p = tree.predict(&[probe]).unwrap();
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
    }

    /// Longest-prefix match always prefers the longer of two nested
    /// prefixes.
    #[test]
    fn lpm_prefers_longer_prefix(
        net in 0u32..0xffff,
        host in 0u32..0xff,
    ) {
        let short = Prefix::new(net << 16, 16).unwrap();
        let long = Prefix::new(net << 16, 24).unwrap();
        let mut map = IpAsnMap::new();
        map.insert(short, Asn(1)).unwrap();
        map.insert(long, Asn(2)).unwrap();
        // Addresses inside the /24 go to AS2; the rest of the /16 to AS1.
        let in_long = (net << 16) | host;
        let in_short_only = (net << 16) | 0x100 | host;
        prop_assert_eq!(map.lookup(in_long), Some(Asn(2)));
        prop_assert_eq!(map.lookup(in_short_only), Some(Asn(1)));
    }

    /// Timestamp decomposition invariants hold for arbitrary seconds.
    #[test]
    fn timestamp_decomposition_invariants(secs in 0u64..10_000_000_000) {
        let t = Timestamp(secs);
        prop_assert!(t.hour() < 24);
        prop_assert!((1..=31).contains(&t.day_of_month()));
        prop_assert_eq!(
            t.as_secs(),
            t.day() as u64 * 86_400 + t.hour() as u64 * 3_600 + t.second_of_hour()
        );
    }

    /// Baseline rolling predictions have the right length and are finite.
    #[test]
    fn baselines_shape_and_finiteness(
        history in proptest::collection::vec(-1e3f64..1e3, 1..30),
        test in proptest::collection::vec(-1e3f64..1e3, 0..30),
    ) {
        for kind in [BaselineKind::AlwaysSame, BaselineKind::AlwaysMean] {
            let p = predict_rolling(kind, &history, &test).unwrap();
            prop_assert_eq!(p.len(), test.len());
            prop_assert!(p.iter().all(|v| v.is_finite()));
        }
    }

    /// RMSE is zero iff predictions equal truth, and symmetric in sign of
    /// error.
    #[test]
    fn rmse_properties(values in proptest::collection::vec(-1e3f64..1e3, 1..40)) {
        prop_assert_eq!(metrics::rmse(&values, &values).unwrap(), 0.0);
        let shifted: Vec<f64> = values.iter().map(|v| v + 1.0).collect();
        let down: Vec<f64> = values.iter().map(|v| v - 1.0).collect();
        let up = metrics::rmse(&shifted, &values).unwrap();
        let dn = metrics::rmse(&down, &values).unwrap();
        prop_assert!((up - 1.0).abs() < 1e-9);
        prop_assert!((up - dn).abs() < 1e-9);
    }

    /// Histograms conserve mass.
    #[test]
    fn histogram_conserves_mass(
        values in proptest::collection::vec(-1e3f64..1e3, 1..200),
        bins in 1usize..20,
    ) {
        let (edges, counts) = metrics::histogram(&values, bins).unwrap();
        prop_assert_eq!(counts.iter().sum::<usize>(), values.len());
        prop_assert_eq!(edges.len(), counts.len() + 1);
    }
}
