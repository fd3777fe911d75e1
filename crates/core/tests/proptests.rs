//! Property-based tests for the model crate: feature and use-case
//! invariants that must hold over randomized corpora and inputs, plus the
//! artifact-codec robustness properties (no input may panic the decoder).

use ddos_cart::CartError;
use ddos_core::artifact::{ArtifactError, ModelArtifact, MAGIC, SCHEMA_VERSION};
use ddos_core::detection::{DetectorConfig, EntropyDetector};
use ddos_core::features::FeatureExtractor;
use ddos_core::spatiotemporal::{ForecastScratch, SpatioTemporalConfig, SpatioTemporalModel};
use ddos_core::usecases::{AsFilteringSimulator, MiddleboxSimulator};
use ddos_core::ModelError;
use ddos_trace::{Corpus, CorpusConfig, TraceGenerator};
use proptest::prelude::*;
use std::sync::OnceLock;

fn corpus_for(seed: u64) -> Corpus {
    TraceGenerator::new(CorpusConfig::small(), seed).generate().unwrap()
}

/// The spatiotemporal artifact (the one artifact kind), fitted once and
/// shared across the cheap corruption properties below (fitting per
/// proptest case would dominate the suite's wall-clock).
fn reference_artifact() -> &'static [u8] {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    CELL.get_or_init(|| {
        let corpus = corpus_for(977);
        let (st_train, _) = corpus.split(0.8).unwrap();
        let st =
            SpatioTemporalModel::fit(&corpus, st_train, &SpatioTemporalConfig::fast(), 11).unwrap();
        st.to_artifact_bytes()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Feature-series invariants over corpus realizations: `A^s` is
    /// positive and finite, and the series aligns with the attacks.
    #[test]
    fn feature_invariants(seed in 0u64..2_000) {
        let corpus = corpus_for(seed);
        let fx = FeatureExtractor::new(&corpus);
        let fam = corpus.catalog().most_active(1)[0];
        let attacks: Vec<_> = corpus.family_attacks(fam).into_iter().take(60).collect();
        let source = fx.source_distribution_series(&attacks).unwrap();
        prop_assert_eq!(source.len(), attacks.len());
        for a_s in &source {
            prop_assert!(*a_s > 0.0);
            prop_assert!(a_s.is_finite());
        }
    }

    /// Filtering coverage is a true fraction and monotone in the rule set.
    #[test]
    fn filtering_coverage_monotone(seed in 0u64..2_000, k in 1usize..6) {
        let corpus = corpus_for(seed);
        let attack = &corpus.attacks()[corpus.len() / 2];
        let sim = AsFilteringSimulator::new();
        let asns = attack.source_asns();
        let small = sim.replay(&asns[..k.min(asns.len())], attack);
        let full = sim.replay(&asns, attack);
        prop_assert!((0.0..=1.0).contains(&small.coverage));
        prop_assert!(small.coverage <= full.coverage + 1e-12);
        prop_assert!((full.coverage - 1.0).abs() < 1e-12);
    }

    /// Middlebox outcomes never report negative times and the proactive
    /// flip with a perfect prediction always beats or ties the reactive
    /// one on exposure.
    #[test]
    fn middlebox_outcomes_sane(
        start in 0.0f64..80_000.0,
        duration in 1.0f64..20_000.0,
        error in -7_200.0f64..7_200.0,
    ) {
        let sim = MiddleboxSimulator::default();
        let (pro, rea) = sim.compare(start + error, start, duration).unwrap();
        prop_assert!(pro.unprotected_secs >= 0.0 && rea.unprotected_secs >= 0.0);
        prop_assert!(pro.overcautious_secs >= 0.0);
        prop_assert!(pro.unprotected_secs <= duration + 1e-9);
        // Perfect prediction: zero exposure (margin 30 min >= 0 error).
        if error == 0.0 {
            prop_assert_eq!(pro.unprotected_secs, 0.0);
        }
    }

    /// The detector's threshold always sits below the benign mean and the
    /// entropy of any window is nonnegative and bounded by log2(window).
    #[test]
    fn detector_invariants(n_ases in 4u32..80, seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let benign: Vec<ddos_astopo::Asn> =
            (0..2_000).map(|_| ddos_astopo::Asn(rng.gen_range(0..n_ases))).collect();
        let config = DetectorConfig { window: 100, sigma_threshold: 4.0 };
        let d = EntropyDetector::calibrate(&benign, config).unwrap();
        prop_assert!(d.threshold() < d.benign_mean());
        prop_assert!(d.benign_mean() >= 0.0);
        prop_assert!(d.benign_mean() <= (config.window as f64).log2() + 1e-9);
    }
}

// Decoder-robustness properties over the pre-fitted spatiotemporal
// artifact (see `reference_artifact`), so the cases stay cheap: each is a
// decode, not a fit. The contract under test: NO byte-level damage may
// panic the decoder — truncation and version skew must fail with typed
// errors, and arbitrary single-byte flips must either fail typed or
// decode cleanly.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a valid artifact fails with a typed error.
    #[test]
    fn truncated_artifacts_fail_typed_without_panicking(frac in 0.0f64..1.0) {
        let bytes = reference_artifact();
        let cut = (((bytes.len() - 1) as f64) * frac) as usize;
        let err = SpatioTemporalModel::from_artifact_bytes(&bytes[..cut]).map(|_| ()).unwrap_err();
        prop_assert!(matches!(
            err,
            ArtifactError::BadMagic
                | ArtifactError::Corrupt(_)
                | ArtifactError::UnsupportedVersion { .. }
                | ArtifactError::UnknownKind { .. }
        ));
    }

    /// Flipping any single byte never panics the decoder (it may still
    /// decode — e.g. a flipped coefficient bit yields a different but
    /// well-formed model — but it must never crash or hang).
    #[test]
    fn flipped_byte_never_panics_decoder(pos_frac in 0.0f64..1.0, mask in 1u8..=255) {
        let mut bytes = reference_artifact().to_vec();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= mask;
        let _ = SpatioTemporalModel::from_artifact_bytes(&bytes);
    }

    /// Flipping any byte of the *payload* region is caught by the
    /// envelope's checksum guard before the structured decoder ever runs
    /// — the hardening the guarded envelope exists for.
    #[test]
    fn flipped_payload_byte_is_caught_by_checksum(pos_frac in 0.0f64..1.0, mask in 1u8..=255) {
        // Header: magic(8) + version(4) + kind(1) + len(8) + guard(8).
        const HEADER: usize = 29;
        let mut bytes = reference_artifact().to_vec();
        let payload_len = bytes.len() - HEADER;
        let pos = HEADER + (((payload_len as f64) * pos_frac) as usize % payload_len);
        bytes[pos] ^= mask;
        let err = SpatioTemporalModel::from_artifact_bytes(&bytes).map(|_| ()).unwrap_err();
        prop_assert!(matches!(err, ArtifactError::ChecksumMismatch { .. }));
    }

    /// Any schema version other than the current one — the retired v1
    /// to v5 schemas included — is refused up front, with the found
    /// version reported.
    #[test]
    fn wrong_schema_version_rejected(pick in 0usize..10, other in 0u32..10_000) {
        // Half the cases stamp a retired schema version (1 to 5).
        let version = [1, 2, 3, 4, 5, other, other, other, other, other][pick];
        prop_assume!(version != SCHEMA_VERSION);
        let mut bytes = reference_artifact().to_vec();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let err = SpatioTemporalModel::from_artifact_bytes(&bytes).map(|_| ()).unwrap_err();
        prop_assert_eq!(err, ArtifactError::UnsupportedVersion { found: version });
    }
}

/// Round-trip byte identity for the spatiotemporal artifact, plus an
/// exhaustive every-byte-flip sweep: flipping any single byte must never
/// panic the decoder, and any flip inside the payload region must be
/// caught by the envelope's guard hash (the header region fails with its
/// own typed errors or — for the unguarded length/checksum fields
/// themselves — still a typed error, never a crash).
#[test]
fn zoo_artifacts_round_trip_and_survive_every_byte_flip() {
    const HEADER: usize = 29;
    let original = reference_artifact();

    // The round trip is byte-exact: decode → re-encode is the identity.
    let st = SpatioTemporalModel::from_artifact_bytes(original).unwrap();
    assert_eq!(st.to_artifact_bytes(), original);

    for pos in 0..original.len() {
        let mut bytes = original.to_vec();
        bytes[pos] ^= 0xFF;
        let err = SpatioTemporalModel::from_artifact_bytes(&bytes)
            .map(|_| ())
            .expect_err("a flipped byte can never decode cleanly");
        if pos >= HEADER {
            assert!(
                matches!(err, ArtifactError::ChecksumMismatch { .. }),
                "payload flip at {pos} escaped the checksum: {err:?}"
            );
        }
    }
}

/// The spatiotemporal model decoded from the reference artifact, with its
/// own training design rows: the serving fixture for the hostile-input
/// property below.
fn serving_fixture() -> &'static (SpatioTemporalModel, Vec<Vec<f64>>) {
    static CELL: OnceLock<(SpatioTemporalModel, Vec<Vec<f64>>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let model = SpatioTemporalModel::from_artifact_bytes(reference_artifact()).unwrap();
        let corpus = corpus_for(977);
        let (st_train, _) = corpus.split(0.8).unwrap();
        let (rows, _) =
            SpatioTemporalModel::training_design(st_train, &SpatioTemporalConfig::fast(), 11)
                .unwrap();
        (model, rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Finite but extreme features (±`f64::MAX`, ±1e300 in 1 to 13 of a
    /// design row's columns) never reach a caller as NaN or ∞: serving
    /// either answers with every field finite and in its clamp range, or
    /// refuses the batch with `NonFiniteInput`. An MLR leaf can overflow
    /// on such rows, and the output clamps pass NaN through.
    #[test]
    fn serving_extreme_features_errors_or_stays_finite(
        row in 0usize..100_000,
        extremes in proptest::collection::vec((0usize..13, 0usize..4), 1..14),
    ) {
        let (model, rows) = serving_fixture();
        let mut row = rows[row % rows.len()].clone();
        for (feature, pick) in extremes {
            row[feature] = [f64::MAX, -f64::MAX, 1e300, -1e300][pick];
        }
        let (mut scratch, mut out) = (ForecastScratch::default(), Vec::new());
        match model.forecast_rows_into(&[row], &mut scratch, &mut out) {
            Ok(()) => {
                prop_assert_eq!(out.len(), 1);
                let fc = out[0];
                prop_assert!((0.0..24.0).contains(&fc.hour), "hour {}", fc.hour);
                prop_assert!((1.0..=31.0).contains(&fc.day), "day {}", fc.day);
                prop_assert!(fc.magnitude.is_finite() && fc.magnitude >= 0.0);
                prop_assert!(fc.duration_secs.is_finite() && fc.duration_secs >= 0.0);
            }
            Err(e) => {
                prop_assert_eq!(e, ModelError::Cart(CartError::NonFiniteInput));
                prop_assert!(out.is_empty());
            }
        }
    }
}

/// Every kind tag but the spatiotemporal one (3) is refused by the
/// envelope, and a damaged magic prefix is not recognised as an artifact
/// at all.
#[test]
fn artifact_envelope_rejects_wrong_kind_and_bad_magic() {
    let original = reference_artifact();
    for tag in (0..=u8::MAX).filter(|&t| t != 3) {
        let mut bytes = original.to_vec();
        bytes[12] = tag;
        assert_eq!(
            SpatioTemporalModel::from_artifact_bytes(&bytes).map(|_| ()),
            Err(ArtifactError::UnknownKind { tag })
        );
    }
    let mut bytes = original.to_vec();
    bytes[..MAGIC.len()].copy_from_slice(b"NOTMODEL");
    assert!(matches!(
        SpatioTemporalModel::from_artifact_bytes(&bytes),
        Err(ArtifactError::BadMagic)
    ));
}
