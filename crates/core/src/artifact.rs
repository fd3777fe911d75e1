//! Versioned binary artifacts for the fitted spatiotemporal model.
//!
//! Fitting the spatiotemporal model is by far the most expensive part of
//! the pipeline; serving its predictions is cheap. This module gives the
//! served model — the §VI model trees over the component outputs — a
//! durable, *versioned* on-disk form so it can be fit once and served
//! many times, across processes and across releases, with
//! **bit-identical** predictions. It is the only model any program
//! persists: the temporal and spatial models are refit in memory.
//!
//! # Envelope (schema v7, current)
//!
//! Every artifact starts with the same envelope, followed by the model
//! payload:
//!
//! | bytes | field | value |
//! |---|---|---|
//! | 0..8 | magic | `b"DDOSMDL\0"` |
//! | 8..12 | schema version | little-endian `u32`, currently `7` |
//! | 12 | kind tag | always `3` (the spatiotemporal model) |
//! | 13..21 | payload length | little-endian `u64` |
//! | 21..29 | payload checksum | four-lane guard hash (`u64`) over the payload |
//! | 29.. | payload | model-specific, see [`ModelArtifact`] |
//!
//! The length + checksum guard lets a long-lived serving process cheaply
//! reject a torn or bit-flipped artifact *before* attempting the
//! structured decode. The checksum is a four-lane multiply–rotate hash
//! ([`guard64`]-style, xxHash64 primes): 32 bytes per step across four
//! independent dependency chains, in fully safe, platform-independent
//! code. There is one kind tag and one payload layout. Every other tag —
//! 1, 2 and 4 (the retired temporal, spatial and source-distribution
//! artifacts), 5 and 6 (standalone forests and boosted ensembles), 7 (the
//! ensemble-backed spatiotemporal layout) and any tag never written —
//! decodes as [`ArtifactError::UnknownKind`]. v7 is the only schema this
//! crate reads or writes: an artifact stamped with any other version, the
//! retired v1–v6 included (DESIGN.md §12, §22, §31, §34, §38), is an
//! [`ArtifactError::UnsupportedVersion`]. v7 differs from v6 only in what
//! each per-AS spatial component stores: its duration, hour and gap NARs,
//! without the launch-day NAR that no prediction read. v6 had already
//! stored each temporal component as its one-step predictor
//! (differencing degree, constant, AR coefficients) instead of the fitted
//! ARIMA with its training series, tree nodes with no sample counts,
//! standard deviations or split gains, and MLR leaves with no R²,
//! residual spread or observation count.
//!
//! All floating-point state inside payloads is written via
//! [`f64::to_bits`], so encode→decode is the *identity* on the model —
//! the round-tripped model reproduces every prediction of the original
//! to the last bit. Decoding never panics: corrupt, truncated or
//! wrong-version input yields a typed [`ArtifactError`].

use ddos_stats::codec::{guard64, CodecError, CodecResult, Reader, Writer};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Leading magic bytes identifying a fitted-model artifact.
pub const MAGIC: [u8; 8] = *b"DDOSMDL\0";

/// Current artifact schema version. Bump when any payload layout changes.
pub const SCHEMA_VERSION: u32 = 7;

/// The kind tag every artifact carries: the spatiotemporal model's, the
/// only model with an artifact.
const KIND_TAG: u8 = 3;

/// Errors from reading or writing model artifacts.
///
/// Derives `Clone + PartialEq` so it can live inside
/// [`crate::ModelError`]; I/O failures are therefore carried as their
/// display strings rather than as `std::io::Error` values.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The input does not start with [`MAGIC`] — not an artifact at all.
    BadMagic,
    /// The artifact was written by an incompatible schema version.
    UnsupportedVersion {
        /// Version found in the envelope.
        found: u32,
    },
    /// The kind tag is not `3` (the spatiotemporal model's): a retired
    /// model kind or one this build never wrote.
    UnknownKind {
        /// The unrecognised tag byte.
        tag: u8,
    },
    /// The payload guard did not match: the payload bytes hash to a
    /// different value than the envelope recorded (torn write or bit
    /// rot).
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        expected: u64,
        /// Checksum of the payload bytes actually present.
        actual: u64,
    },
    /// The payload failed to decode (truncated or malformed bytes).
    Corrupt(CodecError),
    /// Reading or writing the artifact file failed.
    Io(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not a model artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported artifact schema version {found} (supported: {SCHEMA_VERSION})"
                )
            }
            ArtifactError::UnknownKind { tag } => {
                write!(f, "unknown artifact kind tag {tag}")
            }
            ArtifactError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "artifact payload checksum mismatch: envelope says {expected:016x}, \
                     payload hashes to {actual:016x}"
                )
            }
            ArtifactError::Corrupt(e) => write!(f, "corrupt artifact payload: {e}"),
            ArtifactError::Io(detail) => write!(f, "artifact i/o failed: {detail}"),
        }
    }
}

impl Error for ArtifactError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ArtifactError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ArtifactError {
    fn from(e: CodecError) -> Self {
        ArtifactError::Corrupt(e)
    }
}

/// A fitted model with a durable, versioned binary form.
///
/// Implementors provide only the payload codec; the envelope (magic,
/// schema version, kind tag `3`) and its validation are supplied by the
/// default [`to_artifact_bytes`](ModelArtifact::to_artifact_bytes) /
/// [`from_artifact_bytes`](ModelArtifact::from_artifact_bytes) pair.
///
/// # Contract
///
/// `from_artifact_bytes(&to_artifact_bytes(m))` must reconstruct a model
/// whose every prediction is bit-identical to `m`'s. Payload encoders
/// therefore store state verbatim (`f64::to_bits`) and never re-derive
/// anything lossy at decode time.
pub trait ModelArtifact: Sized {
    /// Appends the model-specific payload to `w`.
    fn encode_payload(&self, w: &mut Writer);

    /// Reconstructs the model from a payload written by
    /// [`encode_payload`](ModelArtifact::encode_payload).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or malformed payloads. Implementations
    /// must validate any invariant that serving relies on (e.g. index
    /// bounds) so a corrupt artifact can never panic at predict time.
    fn decode_payload(r: &mut Reader<'_>) -> CodecResult<Self>;

    /// Serializes the model into a self-describing artifact at the
    /// current schema version (payload length + guard-hash checksum
    /// guard the payload).
    fn to_artifact_bytes(&self) -> Vec<u8> {
        let mut pw = Writer::new();
        self.encode_payload(&mut pw);
        let payload = pw.into_bytes();
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.u32(SCHEMA_VERSION);
        w.u8(KIND_TAG);
        w.usize(payload.len());
        w.u64(guard64(&payload));
        w.bytes(&payload);
        w.into_bytes()
    }

    /// Deserializes a model from artifact bytes, validating the envelope
    /// and verifying the payload guard before decoding.
    ///
    /// # Errors
    ///
    /// * [`ArtifactError::BadMagic`] when the magic prefix is absent.
    /// * [`ArtifactError::UnsupportedVersion`] for other schema versions.
    /// * [`ArtifactError::UnknownKind`] when the kind tag is not `3`.
    /// * [`ArtifactError::ChecksumMismatch`] when the payload guard
    ///   disagrees with the payload bytes.
    /// * [`ArtifactError::Corrupt`] when the payload fails to decode or
    ///   leaves trailing bytes.
    fn from_artifact_bytes(bytes: &[u8]) -> std::result::Result<Self, ArtifactError> {
        let mut r = Reader::new(bytes);
        let magic = r.bytes(MAGIC.len()).map_err(|_| ArtifactError::BadMagic)?;
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = r.u32()?;
        if version != SCHEMA_VERSION {
            return Err(ArtifactError::UnsupportedVersion { found: version });
        }
        let tag = r.u8()?;
        if tag != KIND_TAG {
            return Err(ArtifactError::UnknownKind { tag });
        }
        let len = r.usize()?;
        let expected = r.u64()?;
        let payload = r.bytes(len)?;
        r.finish()?;
        let actual = guard64(payload);
        if actual != expected {
            return Err(ArtifactError::ChecksumMismatch { expected, actual });
        }
        let mut pr = Reader::new(payload);
        let model = Self::decode_payload(&mut pr)?;
        pr.finish()?;
        Ok(model)
    }

    /// Writes the artifact to `path` (atomically enough for a cache: a
    /// temp file in the same directory renamed into place).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the file cannot be written.
    fn save_artifact(&self, path: &Path) -> std::result::Result<(), ArtifactError> {
        save_bytes(path, &self.to_artifact_bytes())
    }

    /// Reads and decodes an artifact from `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the file cannot be read, plus every
    /// error [`from_artifact_bytes`](ModelArtifact::from_artifact_bytes)
    /// can produce.
    fn load_artifact(path: &Path) -> std::result::Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))?;
        Self::from_artifact_bytes(&bytes)
    }
}

/// Writes `bytes` to `path` via a sibling temp file + rename, so a
/// concurrent reader never observes a half-written artifact.
fn save_bytes(path: &Path, bytes: &[u8]) -> std::result::Result<(), ArtifactError> {
    let io_err = |e: std::io::Error| ArtifactError::Io(format!("{}: {e}", path.display()));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(io_err)?;
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal stand-in model: the envelope logic is model-agnostic.
    #[derive(Debug, PartialEq)]
    struct Toy {
        weights: Vec<f64>,
    }

    impl ModelArtifact for Toy {
        fn encode_payload(&self, w: &mut Writer) {
            w.f64_seq(&self.weights);
        }

        fn decode_payload(r: &mut Reader<'_>) -> CodecResult<Self> {
            Ok(Toy { weights: r.f64_seq()? })
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let toy = Toy { weights: vec![1.5, -0.0, f64::MIN_POSITIVE, 3.25e300] };
        let bytes = toy.to_artifact_bytes();
        assert_eq!(&bytes[..8], &MAGIC);
        let back = Toy::from_artifact_bytes(&bytes).unwrap();
        for (a, b) in toy.weights.iter().zip(&back.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Toy { weights: vec![1.0] }.to_artifact_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(Toy::from_artifact_bytes(&bytes), Err(ArtifactError::BadMagic));
        // Too short to even hold the magic.
        assert_eq!(Toy::from_artifact_bytes(b"DD"), Err(ArtifactError::BadMagic));
        assert_eq!(Toy::from_artifact_bytes(b""), Err(ArtifactError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        // A well-formed artifact stamped with any other version is
        // refused before the payload is looked at. v6 shares the current
        // envelope; only its spatiotemporal payload differed (a launch-day
        // NAR per spatial component).
        let bytes = Toy { weights: vec![1.5, -0.0] }.to_artifact_bytes();
        for version in [0, 3, 4, 5, 6, SCHEMA_VERSION + 1, u32::MAX] {
            let mut stamped = bytes.clone();
            stamped[8..12].copy_from_slice(&version.to_le_bytes());
            let err = Toy::from_artifact_bytes(&stamped).unwrap_err();
            assert_eq!(err, ArtifactError::UnsupportedVersion { found: version });
        }
    }

    #[test]
    fn v1_artifacts_are_rejected() {
        // The retired v1 envelope: magic, version, kind tag, then the bare
        // payload — no length and no guard.
        let current = Toy { weights: vec![1.5, -0.0, 3.25e300] }.to_artifact_bytes();
        let mut v1 = Vec::with_capacity(current.len() - 16);
        v1.extend_from_slice(&MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.push(current[12]);
        v1.extend_from_slice(&current[29..]);
        let err = Toy::from_artifact_bytes(&v1).unwrap_err();
        assert_eq!(err, ArtifactError::UnsupportedVersion { found: 1 });
    }

    #[test]
    fn v2_artifacts_are_rejected() {
        // The retired v2 envelope shares the current layout (only its guard
        // hash differed), so a current artifact stamped 2 has a v2
        // artifact's shape.
        let mut v2 = Toy { weights: vec![1.5, -0.0, 3.25e300] }.to_artifact_bytes();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = Toy::from_artifact_bytes(&v2).unwrap_err();
        assert_eq!(err, ArtifactError::UnsupportedVersion { found: 2 });
    }

    #[test]
    fn wrong_and_unknown_kind_rejected() {
        // Every tag but the spatiotemporal one is unknown: the retired
        // temporal (1), spatial (2), source-distribution (4), forest (5),
        // boosted (6) and ensemble-backed (7) kinds and tags never written.
        let bytes = Toy { weights: vec![1.5, -0.0] }.to_artifact_bytes();
        assert_eq!(bytes[12], KIND_TAG);
        for tag in (0..=u8::MAX).filter(|&t| t != KIND_TAG) {
            let mut stamped = bytes.clone();
            stamped[12] = tag;
            let err = Toy::from_artifact_bytes(&stamped).unwrap_err();
            assert_eq!(err, ArtifactError::UnknownKind { tag });
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let full = Toy { weights: vec![2.0, 4.0, 8.0] }.to_artifact_bytes();
        // Every strict prefix fails cleanly (no panic), with a typed error.
        for cut in 0..full.len() {
            let err = Toy::from_artifact_bytes(&full[..cut]).unwrap_err();
            match err {
                ArtifactError::BadMagic
                | ArtifactError::Corrupt(_)
                | ArtifactError::UnsupportedVersion { .. }
                | ArtifactError::UnknownKind { .. } => {}
                other => panic!("unexpected error at cut {cut}: {other:?}"),
            }
        }
        // Trailing garbage after a valid payload is also rejected.
        let mut padded = full;
        padded.push(0);
        assert!(matches!(
            Toy::from_artifact_bytes(&padded),
            Err(ArtifactError::Corrupt(CodecError::Invalid { .. }))
        ));
    }

    #[test]
    fn v3_envelope_carries_checksum_guard() {
        let toy = Toy { weights: vec![2.0, 4.0] };
        let bytes = toy.to_artifact_bytes();
        assert_eq!(bytes[8..12], SCHEMA_VERSION.to_le_bytes());
        // Flip one payload byte: the guard catches it before decode.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            Toy::from_artifact_bytes(&corrupt),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("ddos-core-artifact-test");
        let path = dir.join("toy.mdl");
        let toy = Toy { weights: vec![0.125, -9.75] };
        toy.save_artifact(&path).unwrap();
        let back = Toy::load_artifact(&path).unwrap();
        assert_eq!(toy, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Toy::load_artifact(Path::new("/nonexistent/definitely/missing.mdl")).unwrap_err();
        assert!(matches!(err, ArtifactError::Io(_)));
    }
}
