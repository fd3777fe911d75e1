//! Transfer functions.
//!
//! The paper (§V-A) lists the three functions "most commonly used for
//! multilayer networks" — log-sigmoid, tan-sigmoid and linear — and picks
//! tan-sigmoid for the hidden layer ("the transfer function has to be
//! nonlinear … we choose the default Tan-Sigmoid Transfer Function").

use crate::kernel;
use ddos_stats::codec::{CodecError, CodecResult, Reader, Writer};
use serde::{Deserialize, Serialize};

/// A neuron transfer function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic-tangent sigmoid, range (−1, 1) — the paper's choice.
    #[default]
    TanSig,
    /// Logistic sigmoid, range (0, 1).
    LogSig,
    /// Identity (used for the output layer of a regression network).
    Linear,
    /// Elliott's fast sigmoid `x / (1 + |x|)`, range (−1, 1) — the
    /// activation of the paper's reference \[47\], cheaper than `tanh`
    /// (no transcendental call) with the same shape.
    Elliott,
}

impl Activation {
    /// Applies the function.
    ///
    /// `TanSig` is [`crate::kernel::tanh_fast`], so scalar and batched
    /// ([`Activation::apply_slice`]) call sites see the same bits for the
    /// same input.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::TanSig => kernel::tanh_fast(x),
            Activation::LogSig => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
            Activation::Elliott => x / (1.0 + x.abs()),
        }
    }

    /// Applies the function elementwise in place — the batched form hot
    /// loops use. For `TanSig` this is the vectorized kernel
    /// ([`crate::kernel::tanh_fast_slice`]); for every variant the result is
    /// bit-identical to mapping [`Activation::apply`] over the slice.
    pub fn apply_slice(self, xs: &mut [f64]) {
        match self {
            Activation::TanSig => kernel::tanh_fast_slice(xs),
            Activation::LogSig => {
                for x in xs {
                    *x = 1.0 / (1.0 + (-*x).exp());
                }
            }
            Activation::Linear => {}
            Activation::Elliott => {
                for x in xs {
                    *x /= 1.0 + x.abs();
                }
            }
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)` —
    /// the form backpropagation wants.
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::TanSig => 1.0 - y * y,
            Activation::LogSig => y * (1.0 - y),
            Activation::Linear => 1.0,
            // For y = x/(1+|x|): dy/dx = 1/(1+|x|)² = (1 − |y|)².
            Activation::Elliott => (1.0 - y.abs()).powi(2),
        }
    }

    /// Encodes the variant as a one-byte tag (artifact payloads).
    pub fn encode(self, w: &mut Writer) {
        w.u8(match self {
            Activation::TanSig => 0,
            Activation::LogSig => 1,
            Activation::Linear => 2,
            Activation::Elliott => 3,
        });
    }

    /// Decodes a tag written by [`Activation::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError::BadTag`] for unknown discriminants.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        match r.u8()? {
            0 => Ok(Activation::TanSig),
            1 => Ok(Activation::LogSig),
            2 => Ok(Activation::Linear),
            3 => Ok(Activation::Elliott),
            t => Err(CodecError::BadTag { context: "Activation", tag: t as u64 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tansig_range_and_odd_symmetry() {
        let a = Activation::TanSig;
        assert!(a.apply(10.0) < 1.0 && a.apply(10.0) > 0.99);
        assert!((a.apply(0.5) + a.apply(-0.5)).abs() < 1e-12);
        assert_eq!(a.apply(0.0), 0.0);
    }

    #[test]
    fn logsig_range_and_midpoint() {
        let a = Activation::LogSig;
        assert_eq!(a.apply(0.0), 0.5);
        assert!(a.apply(-20.0) < 1e-6);
        assert!(a.apply(20.0) > 1.0 - 1e-6);
    }

    #[test]
    fn linear_is_identity() {
        assert_eq!(Activation::Linear.apply(3.25), 3.25);
        assert_eq!(Activation::Linear.derivative_from_output(123.0), 1.0);
    }

    #[test]
    fn elliott_shape_and_bounds() {
        let a = Activation::Elliott;
        assert_eq!(a.apply(0.0), 0.0);
        assert!(a.apply(100.0) < 1.0 && a.apply(100.0) > 0.98);
        assert!((a.apply(1.0) - 0.5).abs() < 1e-12);
        assert!((a.apply(0.5) + a.apply(-0.5)).abs() < 1e-12); // odd symmetry
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [Activation::TanSig, Activation::LogSig, Activation::Elliott] {
            for &x in &[-2.0, -0.5, 0.0, 0.7, 1.8] {
                let y = act.apply(x);
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn default_is_tansig() {
        assert_eq!(Activation::default(), Activation::TanSig);
    }
}
