//! Artifact loading behind a trait.
//!
//! Serving must not care where fitted models come from — a cache
//! directory written by the fitting pipeline, an in-memory registry in a
//! test, an object store in a deployment. [`ModelStore`] is that seam:
//! the service asks for a model by key and receives a shared
//! [`SpatioTemporalModel`], decode-cached so a long-lived process pays
//! the ~20 µs artifact decode once per key, not per request.

use crate::error::{Result, ServeError};
use ddos_core::artifact::{migrate_artifact_file, ModelArtifact, SCHEMA_VERSION};
use ddos_core::spatiotemporal::SpatioTemporalModel;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Source of fitted spatiotemporal models, addressed by string key.
///
/// Implementations must be cheap to call repeatedly with the same key
/// (the expectation is an internal decode cache returning shared
/// handles) and safe to share across serving threads.
pub trait ModelStore: Send + Sync {
    /// Returns the model stored under `key`.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] when the key has no artifact;
    /// [`ServeError::Artifact`] when its bytes fail to decode.
    fn load(&self, key: &str) -> Result<Arc<SpatioTemporalModel>>;

    /// The keys this store can currently serve, sorted.
    fn keys(&self) -> Vec<String>;
}

/// A directory of `<key>.mdl` artifact files with a decode cache.
///
/// Artifacts at any supported schema version are served: the decoder
/// accepts v1 and v2 envelopes alike, and [`DirModelStore::migrate_all`]
/// rewrites stale files at the current version in place.
pub struct DirModelStore {
    dir: PathBuf,
    cache: Mutex<HashMap<String, Arc<SpatioTemporalModel>>>,
}

impl fmt::Debug for DirModelStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cached = self.cache().len();
        f.debug_struct("DirModelStore").field("dir", &self.dir).field("cached", &cached).finish()
    }
}

impl DirModelStore {
    /// Opens a store over `dir` (which need not exist yet — an empty or
    /// missing directory simply has no keys).
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        DirModelStore { dir: dir.into(), cache: Mutex::new(HashMap::new()) }
    }

    /// The directory this store reads.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The decode cache. A panic on another thread while it held the lock
    /// cannot leave the map half-updated (every access is one lookup or
    /// one insert of a fully decoded model), so a poisoned lock is
    /// recovered rather than propagated.
    fn cache(&self) -> MutexGuard<'_, HashMap<String, Arc<SpatioTemporalModel>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.mdl"))
    }

    /// Rewrites every artifact file not at the current schema version,
    /// returning `(key, version_found)` for each migrated file. Decode →
    /// re-encode is bit-exact on the model, so a migrated artifact serves
    /// the exact predictions the original did.
    ///
    /// # Errors
    ///
    /// First I/O or decode failure encountered, keyed in the error.
    pub fn migrate_all(&self) -> Result<Vec<(String, u32)>> {
        let mut migrated = Vec::new();
        for key in self.keys() {
            let path = self.path_for(&key);
            let (model, from, rewritten) =
                migrate_artifact_file::<SpatioTemporalModel>(&path).map_err(ServeError::from)?;
            if rewritten {
                migrated.push((key.clone(), from));
            }
            // The freshly decoded model is authoritative either way;
            // warm the cache with it.
            self.cache().insert(key, Arc::new(model));
        }
        debug_assert!(migrated.iter().all(|(_, v)| *v != SCHEMA_VERSION));
        Ok(migrated)
    }
}

impl ModelStore for DirModelStore {
    fn load(&self, key: &str) -> Result<Arc<SpatioTemporalModel>> {
        if let Some(model) = self.cache().get(key) {
            return Ok(Arc::clone(model));
        }
        let path = self.path_for(key);
        if !path.exists() {
            return Err(ServeError::ModelNotFound { key: key.to_string() });
        }
        let model = Arc::new(SpatioTemporalModel::load_artifact(&path)?);
        self.cache().insert(key.to_string(), Arc::clone(&model));
        Ok(model)
    }

    fn keys(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut keys: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let path = e.path();
                if path.extension().is_some_and(|x| x == "mdl") {
                    path.file_stem().map(|s| s.to_string_lossy().into_owned())
                } else {
                    None
                }
            })
            .collect();
        keys.sort();
        keys
    }
}

/// An in-memory store for tests, benches and embedded use: models are
/// registered directly, no filesystem involved.
#[derive(Default)]
pub struct MemoryModelStore {
    models: Mutex<HashMap<String, Arc<SpatioTemporalModel>>>,
}

impl fmt::Debug for MemoryModelStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryModelStore").field("keys", &self.keys()).finish()
    }
}

impl MemoryModelStore {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `model` under `key`, replacing any previous entry.
    pub fn insert(&self, key: impl Into<String>, model: SpatioTemporalModel) {
        self.models().insert(key.into(), Arc::new(model));
    }

    /// The registry, recovered from poisoning for the same reason as
    /// [`DirModelStore`]'s cache: each access is one lookup or one insert.
    fn models(&self) -> MutexGuard<'_, HashMap<String, Arc<SpatioTemporalModel>>> {
        self.models.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ModelStore for MemoryModelStore {
    fn load(&self, key: &str) -> Result<Arc<SpatioTemporalModel>> {
        self.models()
            .get(key)
            .map(Arc::clone)
            .ok_or_else(|| ServeError::ModelNotFound { key: key.to_string() })
    }

    fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.models().keys().cloned().collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_core::spatiotemporal::SpatioTemporalConfig;
    use ddos_trace::{CorpusConfig, TraceGenerator};

    /// Panics on another thread while holding `lock`, leaving it poisoned.
    fn poison<T: Send>(lock: &Mutex<T>) {
        let held = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = lock.lock();
                panic!("a store user panicked while holding the lock");
            })
            .join()
        });
        assert!(held.is_err());
        assert!(lock.is_poisoned());
    }

    #[test]
    fn poisoned_locks_still_publish_and_load() {
        let corpus = TraceGenerator::new(CorpusConfig::small(), 300).generate().unwrap();
        let (train, _) = corpus.split(0.8).unwrap();
        let model =
            SpatioTemporalModel::fit(&corpus, train, &SpatioTemporalConfig::fast(), 5).unwrap();
        let bytes = model.to_artifact_bytes();

        let memory = MemoryModelStore::new();
        poison(&memory.models);
        memory.insert("st", SpatioTemporalModel::from_artifact_bytes(&bytes).unwrap());
        assert_eq!(memory.keys(), ["st"]);
        assert_eq!(memory.load("st").unwrap().to_artifact_bytes(), bytes);

        let dir = std::env::temp_dir().join(format!("ddos-serve-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        model.save_artifact(&dir.join("st.mdl")).unwrap();
        let store = DirModelStore::open(&dir);
        poison(&store.cache);
        let loaded = store.load("st").unwrap();
        assert_eq!(loaded.to_artifact_bytes(), bytes);
        // The recovered cache still caches: a second load shares the model.
        assert!(Arc::ptr_eq(&loaded, &store.load("st").unwrap()));
        assert!(store.migrate_all().unwrap().is_empty());
        assert!(format!("{store:?}").contains("cached: 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
