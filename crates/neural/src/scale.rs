//! Min–max feature scaling.
//!
//! Tan-sigmoid hidden layers saturate outside a few units of zero, so both
//! inputs and targets are mapped to `[-1, 1]` before training and mapped
//! back afterwards.

use crate::{NeuralError, Result};
use ddos_stats::codec::{CodecResult, Reader, Writer};
use serde::{Deserialize, Serialize};

/// A fitted min–max scaler mapping `[lo, hi] → [-1, 1]`.
///
/// Degenerate (constant) inputs map to 0 and invert back to the constant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    lo: f64,
    hi: f64,
}

impl MinMaxScaler {
    /// Fits the scaler to the data range.
    ///
    /// # Errors
    ///
    /// * [`NeuralError::NotEnoughData`] for an empty slice.
    /// * [`NeuralError::NonFiniteInput`] for NaN/∞ values, and for finite
    ///   values whose range `hi - lo` overflows (the scaled values would
    ///   be NaN).
    pub fn fit(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(NeuralError::NotEnoughData { required: 1, actual: 0 });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(NeuralError::NonFiniteInput);
        }
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !(hi - lo).is_finite() {
            return Err(NeuralError::NonFiniteInput);
        }
        Ok(MinMaxScaler { lo, hi })
    }

    /// Maps a value into `[-1, 1]` (values outside the fitted range
    /// extrapolate linearly).
    pub fn transform(&self, v: f64) -> f64 {
        if self.hi == self.lo {
            0.0
        } else {
            2.0 * (v - self.lo) / (self.hi - self.lo) - 1.0
        }
    }

    /// Inverse of [`MinMaxScaler::transform`].
    pub fn inverse(&self, s: f64) -> f64 {
        if self.hi == self.lo {
            self.lo
        } else {
            self.lo + (s + 1.0) / 2.0 * (self.hi - self.lo)
        }
    }

    /// The fitted `(min, max)` range.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Encodes the fitted range as two `to_bits` words.
    pub fn encode(&self, w: &mut Writer) {
        w.f64(self.lo);
        w.f64(self.hi);
    }

    /// Decodes a scaler encoded by [`MinMaxScaler::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`](ddos_stats::codec::CodecError) on truncated input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(MinMaxScaler { lo: r.f64()?, hi: r.f64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let s = MinMaxScaler::fit(&[2.0, 4.0, 10.0]).unwrap();
        for &v in &[2.0, 3.3, 10.0, 12.0, -1.0] {
            assert!((s.inverse(s.transform(v)) - v).abs() < 1e-12);
        }
        assert_eq!(s.range(), (2.0, 10.0));
    }

    #[test]
    fn maps_endpoints_to_unit_interval() {
        let s = MinMaxScaler::fit(&[-5.0, 5.0]).unwrap();
        assert_eq!(s.transform(-5.0), -1.0);
        assert_eq!(s.transform(5.0), 1.0);
        assert_eq!(s.transform(0.0), 0.0);
    }

    #[test]
    fn constant_input_is_stable() {
        let s = MinMaxScaler::fit(&[3.0, 3.0]).unwrap();
        assert_eq!(s.transform(3.0), 0.0);
        assert_eq!(s.inverse(0.7), 3.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(MinMaxScaler::fit(&[]).is_err());
        assert!(MinMaxScaler::fit(&[1.0, f64::NAN]).is_err());
        // Finite endpoints whose span overflows would scale values to
        // NaN.
        assert_eq!(MinMaxScaler::fit(&[-f64::MAX, f64::MAX]), Err(NeuralError::NonFiniteInput));
        assert_eq!(MinMaxScaler::fit(&[-1e308, 1e308]), Err(NeuralError::NonFiniteInput));
    }
}
