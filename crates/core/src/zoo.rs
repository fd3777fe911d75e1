//! Artifact bindings for the standalone forecaster-zoo learners.
//!
//! [`BaggedForest`] and [`BoostedTrees`] live in `ddos-cart` (they are
//! pure learners with no modeling-layer dependencies); this module gives
//! each one a versioned on-disk form by binding it to the artifact
//! envelope under its own [`ArtifactKind`]. The payload is exactly the
//! learner's own codec, so a standalone ensemble artifact and the same
//! ensemble embedded in an ensemble-backed spatiotemporal payload share
//! one byte layout.

use crate::artifact::{ArtifactKind, ModelArtifact};
use ddos_cart::ensemble::{BaggedForest, BoostedTrees};
use ddos_stats::codec::{CodecResult, Reader, Writer};

impl ModelArtifact for BaggedForest {
    const KIND: ArtifactKind = ArtifactKind::Forest;

    fn encode_payload(&self, w: &mut Writer) {
        self.encode(w);
    }

    fn decode_payload(r: &mut Reader<'_>) -> CodecResult<Self> {
        BaggedForest::decode(r)
    }
}

impl ModelArtifact for BoostedTrees {
    const KIND: ArtifactKind = ArtifactKind::Boosted;

    fn encode_payload(&self, w: &mut Writer) {
        self.encode(w);
    }

    fn decode_payload(r: &mut Reader<'_>) -> CodecResult<Self> {
        BoostedTrees::decode(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactError;
    use ddos_cart::ensemble::{BoostConfig, ForestConfig};

    fn design() -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = 120;
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..4).map(|f| ((i * 31 + f * 7) % 83) as f64 / 8.3).collect())
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] * 2.0 - r[2] + (r[1] * 0.5).cos()).collect();
        (xs, ys)
    }

    #[test]
    fn standalone_ensembles_round_trip_under_their_own_kinds() {
        let (xs, ys) = design();
        let forest =
            BaggedForest::fit(&xs, &ys, &ForestConfig { n_trees: 4, ..Default::default() })
                .unwrap();
        let boosted = BoostedTrees::fit(&xs, &ys, &BoostConfig::default()).unwrap();

        let fb = forest.to_artifact_bytes();
        let bb = boosted.to_artifact_bytes();
        let forest_back = BaggedForest::from_artifact_bytes(&fb).unwrap();
        let boosted_back = BoostedTrees::from_artifact_bytes(&bb).unwrap();
        assert_eq!(forest_back, forest);
        assert_eq!(boosted_back, boosted);

        // Kinds are distinct: a forest artifact is not a boosted one.
        assert_eq!(
            BoostedTrees::from_artifact_bytes(&fb),
            Err(ArtifactError::WrongKind {
                expected: ArtifactKind::Boosted,
                found: ArtifactKind::Forest,
            })
        );
        assert_eq!(
            BaggedForest::from_artifact_bytes(&bb).unwrap_err(),
            ArtifactError::WrongKind {
                expected: ArtifactKind::Forest,
                found: ArtifactKind::Boosted
            }
        );
    }
}
