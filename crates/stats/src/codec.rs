//! Deterministic little-endian binary encoding primitives for model
//! artifacts.
//!
//! Every fitted model in the workspace can be persisted to a versioned
//! binary artifact (see `ddos_core::artifact` for the envelope). The
//! payload encodings all bottom out in this module: a [`Writer`] that
//! appends fixed-width little-endian words to a byte buffer and a
//! [`Reader`] that consumes them back, returning a typed [`CodecError`]
//! — never panicking — on truncated or malformed input.
//!
//! [`guard64`] is the one payload checksum every envelope uses: the
//! model artifact header and the columnar trace footer.
//!
//! Floating-point values are encoded as their IEEE-754 bit patterns
//! (`f64::to_bits`), so save → load round-trips are bit-exact: a reloaded
//! model produces predictions whose `to_bits` equal the in-memory
//! model's, which is what the goldencheck fingerprint gate verifies.

use std::fmt;

/// A typed decoding failure. Encoding is infallible (it only appends to
/// a growable buffer); every decoding failure mode maps to one variant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before a fixed-width word could be read.
    Truncated {
        /// Bytes the pending read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// An enum discriminant byte had no matching variant.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The unrecognized discriminant.
        tag: u64,
    },
    /// A structurally valid field held an impossible value (e.g. a
    /// length that would overflow, or a count disagreeing with another).
    Invalid {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated input: needed {needed} bytes, {remaining} remaining")
            }
            CodecError::BadTag { context, tag } => {
                write!(f, "unrecognized tag {tag} while decoding {context}")
            }
            CodecError::Invalid { detail } => write!(f, "invalid field: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience result alias for decoding.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// The xxHash64 prime constants, reused for the guard's lane mixing.
const GUARD_P1: u64 = 0x9E37_79B1_85EB_CA87;
const GUARD_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const GUARD_P3: u64 = 0x1656_67B1_9E37_79F9;

/// The workspace's one payload checksum: a four-lane multiply–rotate
/// hash over 32-byte blocks, xxHash64-style. It guards the v3 model
/// artifact envelope (`ddos_core::artifact`) and, chained per row group,
/// the `DDOSCOL` columnar trace footer (`ddos_trace::columnar`).
///
/// FNV-1a's one-byte-per-multiply serial chain made the old artifact
/// guard the dominant cost of encode/decode. Here each 32-byte block
/// feeds four *independent* accumulator chains (xor → odd-multiply →
/// rotate), so the CPU overlaps four multiplies instead of waiting on
/// one — about an order of magnitude faster on the ~60 KB
/// spatiotemporal payload, in fully safe, table-free,
/// platform-independent integer code.
///
/// Detection guarantee: every per-lane step is a bijection on `u64`
/// (xor with a constant, multiply by an odd constant, rotate), so any
/// corruption confined to a single 8-byte word *always* changes that
/// lane — and the other three lanes are untouched, so the final combine
/// cannot cancel it. The exhaustive every-byte-flip tests pin this down;
/// corruption spanning multiple words is caught with probability
/// ~1 − 2⁻⁶⁴ via the avalanche finalizer.
pub fn guard64(bytes: &[u8]) -> u64 {
    let mut acc = [GUARD_P1, GUARD_P2, GUARD_P3, GUARD_P1 ^ GUARD_P2];
    let (blocks, rem) = bytes.as_chunks::<32>();
    for block in blocks {
        // Fixed four-word unroll: the lane updates carry no dependency on
        // each other, so the four multiplies overlap in the pipeline.
        let (words, _) = block.as_chunks::<8>();
        let [w0, w1, w2, w3] = words else { continue };
        acc[0] = (acc[0] ^ u64::from_le_bytes(*w0)).wrapping_mul(GUARD_P1).rotate_left(31);
        acc[1] = (acc[1] ^ u64::from_le_bytes(*w1)).wrapping_mul(GUARD_P1).rotate_left(31);
        acc[2] = (acc[2] ^ u64::from_le_bytes(*w2)).wrapping_mul(GUARD_P1).rotate_left(31);
        acc[3] = (acc[3] ^ u64::from_le_bytes(*w3)).wrapping_mul(GUARD_P1).rotate_left(31);
    }
    let mut h = acc[0].rotate_left(1)
        ^ acc[1].rotate_left(7)
        ^ acc[2].rotate_left(12)
        ^ acc[3].rotate_left(18);
    let (words, tail) = rem.as_chunks::<8>();
    for word in words {
        h = (h ^ u64::from_le_bytes(*word)).wrapping_mul(GUARD_P2).rotate_left(29);
    }
    for &b in tail {
        h = (h ^ b as u64).wrapping_mul(GUARD_P3).rotate_left(11);
    }
    h ^= bytes.len() as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(GUARD_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(GUARD_P3);
    h ^= h >> 32;
    h
}

/// Append-only little-endian encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates an empty writer whose buffer holds `capacity` bytes
    /// before it reallocates. The bytes written are the same as from
    /// [`Writer::new`]; only the allocation pattern differs.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer { buf: Vec::with_capacity(capacity) }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a single byte (enum discriminants).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (lengths, counts).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — the bit-exactness
    /// anchor of the whole artifact format.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 / 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64_seq(&mut self, values: &[f64]) {
        self.usize(values.len());
        self.buf.reserve(8 * values.len());
        for &v in values {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed `usize` slice.
    pub fn usize_seq(&mut self, values: &[usize]) {
        self.usize(values.len());
        for &v in values {
            self.usize(v);
        }
    }
}

/// Cursor-based little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes and returns `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { needed: n, remaining: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> CodecResult<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> CodecResult<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that do not fit.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::Invalid`] on overflow.
    pub fn usize(&mut self) -> CodecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| CodecError::Invalid { detail: format!("count {v} overflows usize") })
    }

    /// Reads a length field that will drive an allocation: the declared
    /// count must be plausible given the bytes remaining (each element
    /// needs at least `min_elem_bytes`), so corrupt headers cannot
    /// trigger huge allocations.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] for impossible counts.
    pub fn len(&mut self, min_elem_bytes: usize) -> CodecResult<usize> {
        let n = self.usize()?;
        let needed = n.saturating_mul(min_elem_bytes.max(1));
        if needed > self.remaining() {
            return Err(CodecError::Truncated { needed, remaining: self.remaining() });
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte, rejecting anything but 0 / 1.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] / [`CodecError::BadTag`].
    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag { context: "bool", tag: t as u64 }),
        }
    }

    /// Reads a length-prefixed `f64` sequence.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on short input.
    pub fn f64_seq(&mut self) -> CodecResult<Vec<f64>> {
        let n = self.len(8)?;
        // One bounds check for the whole run (`len(8)` proved `8 * n`
        // bytes remain, so the multiplication cannot overflow), then a
        // straight-line word copy — this is the hot path of artifact
        // decode, where per-element `f64()` calls cost ~2x.
        let raw = self.bytes(8 * n)?;
        let (words, _) = raw.as_chunks::<8>();
        Ok(words.iter().map(|w| f64::from_bits(u64::from_le_bytes(*w))).collect())
    }

    /// Reads a length-prefixed `usize` sequence.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] / [`CodecError::Invalid`] on short or
    /// overflowing input.
    pub fn usize_seq(&mut self) -> CodecResult<Vec<usize>> {
        let n = self.len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.usize()?);
        }
        Ok(out)
    }

    /// Asserts that every byte has been consumed — artifact envelopes
    /// call this so trailing garbage is a typed error, not silence.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] when bytes remain.
    pub fn finish(&self) -> CodecResult<()> {
        if self.remaining() != 0 {
            return Err(CodecError::Invalid {
                detail: format!("{} trailing bytes after payload", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_word_types() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.usize(481);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.bool(false);
        w.f64_seq(&[1.5, -2.25, f64::INFINITY]);
        w.usize_seq(&[0, 13]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 481);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        let seq = r.f64_seq().unwrap();
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[0], 1.5);
        assert_eq!(seq[2], f64::INFINITY);
        assert_eq!(r.usize_seq().unwrap(), vec![0, 13]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(CodecError::Truncated { needed: 8, remaining: 5 })));
    }

    #[test]
    fn huge_declared_length_is_rejected_without_allocating() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // a length claiming ~2^64 elements
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.f64_seq().is_err());
    }

    #[test]
    fn bad_bool_tag() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(CodecError::BadTag { context: "bool", tag: 2 })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
        r.u8().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn guard64_detects_every_word_confined_corruption() {
        // The documented guarantee: corruption confined to one 8-byte
        // word always changes the guard. Exercise every word position on
        // lengths straddling the 32-byte block and 8-byte tail chunking,
        // with single-bit, single-byte and full-word damage.
        for len in [1usize, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 200] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let clean = guard64(&data);
            for pos in 0..len {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut dirty = data.clone();
                    dirty[pos] ^= flip;
                    assert_ne!(guard64(&dirty), clean, "len={len} pos={pos} flip={flip:#x}");
                }
            }
        }
        // Length is mixed into the finalizer, so a truncated payload that
        // happens to share a prefix still changes the guard.
        let data: Vec<u8> = vec![0; 64];
        assert_ne!(guard64(&data), guard64(&data[..32]));
    }
}
