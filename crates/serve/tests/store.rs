//! `ModelStore` behavior: decode-caching, typed errors for missing keys
//! and stale schema versions, and a stored model served end to end.

use ddos_core::artifact::{ArtifactError, ModelArtifact};
use ddos_core::spatiotemporal::{SpatioTemporalConfig, SpatioTemporalModel};
use ddos_serve::{DirModelStore, MemoryModelStore, ModelStore, ServeError};
use ddos_trace::{CorpusConfig, TraceGenerator};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

fn fitted() -> &'static SpatioTemporalModel {
    static CELL: OnceLock<SpatioTemporalModel> = OnceLock::new();
    CELL.get_or_init(|| {
        let corpus = TraceGenerator::new(CorpusConfig::small(), 300).generate().unwrap();
        let (train, _) = corpus.split(0.8).unwrap();
        SpatioTemporalModel::fit(&corpus, train, &SpatioTemporalConfig::fast(), 5).unwrap()
    })
}

/// A fresh per-test artifact directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddos-serve-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn dir_store_decode_caches_and_types_missing_keys() {
    let dir = scratch_dir("cache");
    fitted().save_artifact(&dir.join("st.mdl")).unwrap();

    let store = DirModelStore::open(&dir);
    assert_eq!(store.keys(), vec!["st".to_string()]);
    let first = store.load("st").unwrap();
    let second = store.load("st").unwrap();
    // Same Arc, not a re-decode: a long-lived service pays the artifact
    // decode once per key.
    assert!(Arc::ptr_eq(&first, &second));

    match store.load("absent") {
        Err(ServeError::ModelNotFound { key }) => assert_eq!(key, "absent"),
        Err(other) => panic!("expected ModelNotFound, got {other:?}"),
        Ok(_) => panic!("expected ModelNotFound, got a model"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dir_store_rejects_v1_stamped_artifacts_and_serves_current_ones() {
    let dir = scratch_dir("stale");
    let current = fitted().to_artifact_bytes();
    let mut stale = current.clone();
    stale[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(dir.join("legacy.mdl"), stale).unwrap();
    std::fs::write(dir.join("current.mdl"), &current).unwrap();

    let store = DirModelStore::open(&dir);
    assert_eq!(store.keys(), vec!["current".to_string(), "legacy".to_string()]);
    match store.load("legacy") {
        Err(ServeError::Artifact(ArtifactError::UnsupportedVersion { found: 1 })) => {}
        Err(other) => panic!("expected UnsupportedVersion {{ found: 1 }}, got {other:?}"),
        Ok(_) => panic!("a v1-stamped artifact must not be served"),
    }
    // The stale file poisons nothing: the current key still loads, and
    // serves the exact bytes it was written from.
    assert_eq!(store.load("current").unwrap().to_artifact_bytes(), current);
    assert!(store.load("legacy").is_err(), "a failed decode is never cached");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dir_store_loads_only_the_spatiotemporal_kind_tag() {
    // Tag 3 is the one artifact kind; the retired temporal (1), spatial
    // (2), source-distribution (4), forest (5), boosted (6) and
    // ensemble-backed (7) tags, and 0, are unknown.
    let dir = scratch_dir("kinds");
    let current = fitted().to_artifact_bytes();
    assert_eq!(current[12], 3);
    let retired = [0u8, 1, 2, 4, 5, 6, 7];
    for tag in retired {
        let mut stamped = current.clone();
        stamped[12] = tag;
        std::fs::write(dir.join(format!("tag{tag}.mdl")), stamped).unwrap();
    }
    std::fs::write(dir.join("tag3.mdl"), &current).unwrap();

    let store = DirModelStore::open(&dir);
    for tag in retired {
        match store.load(&format!("tag{tag}")) {
            Err(ServeError::Artifact(ArtifactError::UnknownKind { tag: found })) => {
                assert_eq!(found, tag)
            }
            Err(other) => panic!("expected UnknownKind {{ tag: {tag} }}, got {other:?}"),
            Ok(_) => panic!("a kind-{tag} artifact must not be served"),
        }
    }
    assert_eq!(store.load("tag3").unwrap().to_artifact_bytes(), current);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dir_store_serves_ensemble_backed_models_end_to_end() {
    use ddos_astopo::Asn;
    use ddos_core::spatiotemporal::InstanceFeatures;
    use ddos_serve::{BatchPolicy, ForecastRequest, ForecastService, ServeConfig};
    use std::time::Duration;

    let corpus = TraceGenerator::new(CorpusConfig::small(), 300).generate().unwrap();
    let (train, _) = corpus.split(0.8).unwrap();
    let config = SpatioTemporalConfig::fast();
    let model = fitted();

    // The default model persists under the spatiotemporal kind and
    // reloads byte-identically through the directory store.
    let dir = scratch_dir("zoo");
    model.save_artifact(&dir.join("zoo.mdl")).unwrap();
    let store = DirModelStore::open(&dir);
    let served = store.load("zoo").unwrap();
    assert_eq!(served.to_artifact_bytes(), model.to_artifact_bytes());

    // And it serves through the micro-batched service exactly like the
    // in-memory fit does: bit-identical forecasts for every request.
    let (xs, _) = SpatioTemporalModel::training_design(train, &config, 5).unwrap();
    let features: Vec<InstanceFeatures> =
        xs.iter().take(24).map(|row| InstanceFeatures::from_row(row).unwrap()).collect();
    let serial = model.forecast_features(&features).unwrap();
    let handle = ForecastService::start_with_model(
        served,
        ServeConfig {
            batch: BatchPolicy { max_batch: 7, max_delay: Duration::from_micros(200) },
            queue_capacity: 10_000,
            workers: Some(2),
            rate_windows: Vec::new(),
        },
    );
    let client = handle.client();
    let tickets: Vec<_> = features
        .iter()
        .enumerate()
        .map(|(i, f)| {
            client
                .submit(ForecastRequest { source: i as u64, target: Asn(i as u32), features: *f })
                .unwrap()
        })
        .collect();
    for (ticket, expect) in tickets.into_iter().zip(&serial) {
        let got = ticket.wait().unwrap().forecast;
        assert_eq!(got.hour.to_bits(), expect.hour.to_bits());
        assert_eq!(got.day.to_bits(), expect.day.to_bits());
        assert_eq!(got.magnitude.to_bits(), expect.magnitude.to_bits());
        assert_eq!(got.duration_secs.to_bits(), expect.duration_secs.to_bits());
    }
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_store_registers_and_serves() {
    let store = MemoryModelStore::new();
    assert!(store.keys().is_empty());
    assert!(matches!(store.load("st"), Err(ServeError::ModelNotFound { .. })));
    // The model is not Clone (it owns fitted trees); round-trip through
    // its artifact bytes to get an owned copy.
    let owned = SpatioTemporalModel::from_artifact_bytes(&fitted().to_artifact_bytes()).unwrap();
    store.insert("st", owned);
    assert_eq!(store.keys(), vec!["st".to_string()]);
    let a = store.load("st").unwrap();
    let b = store.load("st").unwrap();
    assert!(Arc::ptr_eq(&a, &b));
}
