//! A one-hidden-layer multilayer perceptron.
//!
//! The paper's spatial model "consists of three layers: input, hidden and
//! an output … we use only one hidden layer to construct the spatial model
//! in order to simplify the performance optimization" (§V-A). This module
//! is that network: a tan-sigmoid hidden layer ("we choose the default
//! Tan-Sigmoid Transfer Function") and a linear output unit for
//! regression.

use crate::kernel::tanh_fast_slice;
use crate::{NeuralError, Result};
use ddos_stats::codec::{CodecError, CodecResult, Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A fully-connected 1-hidden-layer regression network with tan-sigmoid
/// hidden units ([`crate::kernel::tanh_fast`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    input_dim: usize,
    hidden_dim: usize,
    /// Hidden weights, row-major `[hidden][input]`.
    w1: Vec<f64>,
    /// Hidden biases `[hidden]`.
    b1: Vec<f64>,
    /// Output weights `[hidden]`.
    w2: Vec<f64>,
    /// Output bias.
    b2: f64,
}

/// Widest input the fixed-width epoch kernel ([`Mlp::epoch_fixed`])
/// holds in its local weight and gradient blocks.
pub(crate) const MAX_KERNEL_INPUT: usize = 8;

/// An epoch kernel ([`Mlp::epoch_fixed`] or [`Mlp::epoch_runtime`]):
/// `(network, rows, targets, gradient out, scratch) → summed squared
/// error`.
pub(crate) type EpochKernel =
    fn(&Mlp, &[f64], &[f64], Option<&mut [f64]>, &mut EpochScratch) -> f64;

/// Working buffers of the epoch kernels. Pure scratch: every kernel sets
/// each buffer before reading it.
#[derive(Debug, Default)]
pub(crate) struct EpochScratch {
    /// The whole epoch's hidden activations.
    pub(crate) acts: Vec<f64>,
    /// Transposed hidden weights ([`Mlp::epoch_runtime`] only).
    w1t: Vec<f64>,
    /// Transposed `w1` gradient ([`Mlp::epoch_runtime`] only).
    gw1t: Vec<f64>,
    /// One sample's deltas ([`Mlp::epoch_runtime`] only).
    z: Vec<f64>,
}

/// Payload tag of the hidden transfer function. Tan-sigmoid (`0`) is the
/// only one; tags 1–3 (log-sigmoid, linear, Elliott) are retired.
const TANSIG_TAG: u8 = 0;

/// Writes the tan-sigmoid tag byte of NAR and network payloads.
pub(crate) fn encode_activation(w: &mut Writer) {
    w.u8(TANSIG_TAG);
}

/// Reads the tag byte [`encode_activation`] writes.
///
/// # Errors
///
/// [`CodecError::BadTag`] for any tag but tan-sigmoid's, including the
/// retired tags 1–3.
pub(crate) fn decode_activation(r: &mut Reader<'_>) -> CodecResult<()> {
    match r.u8()? {
        TANSIG_TAG => Ok(()),
        t => Err(CodecError::BadTag { context: "Activation", tag: t as u64 }),
    }
}

impl Mlp {
    /// Creates a network with small random weights (uniform in
    /// `±1/√fan_in`, the classic initialization for sigmoid nets).
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadDimensions`] when either dimension is 0.
    pub fn new(input_dim: usize, hidden_dim: usize, seed: u64) -> Result<Self> {
        if input_dim == 0 || hidden_dim == 0 {
            return Err(NeuralError::BadDimensions {
                detail: format!("input {input_dim} × hidden {hidden_dim} must be nonzero"),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let a1 = 1.0 / (input_dim as f64).sqrt();
        let a2 = 1.0 / (hidden_dim as f64).sqrt();
        let w1 = (0..hidden_dim * input_dim).map(|_| rng.gen_range(-a1..a1)).collect();
        let b1 = (0..hidden_dim).map(|_| rng.gen_range(-a1..a1)).collect();
        let w2 = (0..hidden_dim).map(|_| rng.gen_range(-a2..a2)).collect();
        let b2 = rng.gen_range(-a2..a2);
        Ok(Mlp { input_dim, hidden_dim, w1, b1, w2, b2 })
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-layer width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.w1.len() + self.b1.len() + self.w2.len() + 1
    }

    /// Forward pass returning only the output.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InputWidthMismatch`] for wrong-width input.
    pub fn predict(&self, input: &[f64]) -> Result<f64> {
        self.forward_into(input, &mut Vec::with_capacity(self.hidden_dim))
    }

    /// Forward pass writing the hidden activations into a caller-owned
    /// scratch buffer (cleared first) and returning the output. Hot loops
    /// — training epochs, rolling prediction — reuse one buffer across
    /// samples instead of allocating a `Vec` per forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InputWidthMismatch`] for wrong-width input.
    pub fn forward_into(&self, input: &[f64], hidden: &mut Vec<f64>) -> Result<f64> {
        if input.len() != self.input_dim {
            return Err(NeuralError::InputWidthMismatch {
                expected: self.input_dim,
                actual: input.len(),
            });
        }
        hidden.clear();
        hidden.extend(
            self.w1
                .chunks_exact(self.input_dim)
                .zip(&self.b1)
                .map(|(row, b)| row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>() + b),
        );
        // Pre-activations are accumulated in the same order as ever; only
        // the activation itself is applied batched over the slice.
        tanh_fast_slice(hidden);
        Ok(self.w2.iter().zip(hidden.iter()).map(|(w, h)| w * h).sum::<f64>() + self.b2)
    }

    /// Writes the column-major (input-major) transpose of the hidden
    /// weights into `w1t`, for [`Mlp::epoch_runtime`]: with columns
    /// contiguous, the per-unit pre-activation recurrences run in lockstep
    /// across hidden units and vectorize, while each unit still sees its
    /// float ops in exactly the row-major order.
    pub(crate) fn transpose_w1_into(&self, w1t: &mut [f64]) {
        debug_assert_eq!(w1t.len(), self.w1.len());
        for h in 0..self.hidden_dim {
            for i in 0..self.input_dim {
                w1t[i * self.hidden_dim + h] = self.w1[h * self.input_dim + i];
            }
        }
    }

    /// The epoch kernel for this network's shape, chosen once per fit:
    /// [`Mlp::epoch_fixed`] instantiated at the hidden width when the
    /// width is 1 to 16 (every width the shipped configurations train)
    /// and the input at most [`MAX_KERNEL_INPUT`], else
    /// [`Mlp::epoch_runtime`]. Both give the same bits, so the choice
    /// only changes speed.
    pub(crate) fn epoch_kernel(&self) -> EpochKernel {
        macro_rules! fixed_widths {
            ($($h:literal)*) => {
                match self.hidden_dim {
                    $($h if self.input_dim <= MAX_KERNEL_INPUT => Mlp::epoch_fixed::<$h>,)*
                    _ => Mlp::epoch_runtime,
                }
            };
        }
        fixed_widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    }

    /// One epoch over a sample block, with the hidden width `H` fixed at
    /// compile time. With `grad`, writes the block's summed gradient into
    /// it (layout `w1, b1, w2, b2`, every entry overwritten); returns the
    /// summed squared error either way, accumulated sample by sample.
    ///
    /// The weights and every gradient accumulator live in local `[f64; H]`
    /// arrays (the input width is a runtime loop over a block of
    /// [`MAX_KERNEL_INPUT`] columns). With every loop over `H` of fixed
    /// length and no accumulator in a slice, the compiler can keep the
    /// per-sample updates in registers. The forward pass writes every
    /// sample's pre-activations into `scratch.acts` and runs the tanh
    /// once over the whole epoch, which lets the batched kernel vectorize
    /// whatever `H` is.
    ///
    /// Bit-identical to the per-sample oracle ([`Mlp::accumulate_gradient`]
    /// and [`Mlp::forward_into`], summed in sample order) and so to
    /// [`Mlp::epoch_runtime`]: every pre-activation adds the inputs in
    /// order, then the bias; the batched tanh equals the scalar one
    /// elementwise; each gradient entry starts from 0.0 and takes the same
    /// `err · h`, `err · w2 · (1 − h²)` and `δ · x` terms in sample order;
    /// the output is the same `Iterator::sum` dot product plus `b2`.
    pub(crate) fn epoch_fixed<const H: usize>(
        &self,
        flat: &[f64],
        targets: &[f64],
        grad: Option<&mut [f64]>,
        scratch: &mut EpochScratch,
    ) -> f64 {
        let dim = self.input_dim;
        debug_assert!(self.hidden_dim == H && dim <= MAX_KERNEL_INPUT);
        debug_assert_eq!(flat.len(), targets.len() * dim);
        let mut w1t = [[0.0; H]; MAX_KERNEL_INPUT];
        for (h, row) in self.w1.chunks_exact(dim).enumerate() {
            for (col, &w) in w1t.iter_mut().zip(row) {
                col[h] = w;
            }
        }
        let b1: [f64; H] = std::array::from_fn(|h| self.b1[h]);
        let w2: [f64; H] = std::array::from_fn(|h| self.w2[h]);
        let acts = &mut scratch.acts;
        acts.clear();
        acts.reserve(targets.len() * H);
        for x in flat.chunks_exact(dim) {
            let mut z = [0.0; H];
            for (col, &xi) in w1t.iter().zip(x) {
                for (zh, &w) in z.iter_mut().zip(col) {
                    *zh += w * xi;
                }
            }
            for (zh, &b) in z.iter_mut().zip(&b1) {
                *zh += b;
            }
            acts.extend_from_slice(&z);
        }
        tanh_fast_slice(acts);
        let (hidden, _) = acts.as_chunks::<H>();
        let mut sse = 0.0;
        let Some(grad) = grad else {
            for (hid, &y) in hidden.iter().zip(targets) {
                let err = w2.iter().zip(hid).map(|(w, hv)| w * hv).sum::<f64>() + self.b2 - y;
                sse += err * err;
            }
            return sse;
        };
        let mut gw1t = [[0.0; H]; MAX_KERNEL_INPUT];
        let mut gb1 = [0.0; H];
        let mut gw2 = [0.0; H];
        let mut gb2 = 0.0;
        for ((hid, x), &y) in hidden.iter().zip(flat.chunks_exact(dim)).zip(targets) {
            let err = w2.iter().zip(hid).map(|(w, hv)| w * hv).sum::<f64>() + self.b2 - y;
            let mut delta = [0.0; H];
            for h in 0..H {
                gw2[h] += err * hid[h];
                delta[h] = err * w2[h] * (1.0 - hid[h] * hid[h]);
                gb1[h] += delta[h];
            }
            gb2 += err;
            for (g, &xi) in gw1t.iter_mut().zip(x) {
                for (gh, &d) in g.iter_mut().zip(&delta) {
                    *gh += d * xi;
                }
            }
            sse += err * err;
        }
        let (gw1, rest) = grad.split_at_mut(H * dim);
        for (h, row) in gw1.chunks_exact_mut(dim).enumerate() {
            for (g, col) in row.iter_mut().zip(&gw1t) {
                *g = col[h];
            }
        }
        let (gb1_out, rest) = rest.split_at_mut(H);
        gb1_out.copy_from_slice(&gb1);
        let (gw2_out, gb2_out) = rest.split_at_mut(H);
        gw2_out.copy_from_slice(&gw2);
        gb2_out[0] = gb2;
        sse
    }

    /// [`Mlp::epoch_fixed`] at a runtime hidden width, for the shapes no
    /// fixed-width instance covers. Same contract and same bits; the
    /// transposed weights, the `w1` gradient and the deltas live in
    /// `scratch` instead of local arrays.
    pub(crate) fn epoch_runtime(
        &self,
        flat: &[f64],
        targets: &[f64],
        grad: Option<&mut [f64]>,
        scratch: &mut EpochScratch,
    ) -> f64 {
        let h = self.hidden_dim;
        let dim = self.input_dim;
        debug_assert_eq!(flat.len(), targets.len() * dim);
        let EpochScratch { acts, w1t, gw1t, z } = scratch;
        w1t.clear();
        w1t.resize(self.w1.len(), 0.0);
        self.transpose_w1_into(w1t);
        acts.clear();
        acts.resize(targets.len() * h, 0.0);
        for (seg, x) in acts.chunks_exact_mut(h).zip(flat.chunks_exact(dim)) {
            for (col, &xi) in w1t.chunks_exact(h).zip(x) {
                for (s, &w) in seg.iter_mut().zip(col) {
                    *s += w * xi;
                }
            }
            for (s, &b) in seg.iter_mut().zip(&self.b1) {
                *s += b;
            }
        }
        tanh_fast_slice(acts);
        let mut sse = 0.0;
        let Some(grad) = grad else {
            for (hid, &y) in acts.chunks_exact(h).zip(targets) {
                let err = self.w2.iter().zip(hid).map(|(w, hv)| w * hv).sum::<f64>() + self.b2 - y;
                sse += err * err;
            }
            return sse;
        };
        grad.fill(0.0);
        gw1t.clear();
        gw1t.resize(self.w1.len(), 0.0);
        z.clear();
        z.resize(h, 0.0);
        let (_, rest) = grad.split_at_mut(self.w1.len());
        let (gb1, rest) = rest.split_at_mut(h);
        let (gw2, gb2) = rest.split_at_mut(h);
        for ((hid, x), &y) in acts.chunks_exact(h).zip(flat.chunks_exact(dim)).zip(targets) {
            let err = self.w2.iter().zip(hid).map(|(w, hv)| w * hv).sum::<f64>() + self.b2 - y;
            for (g, &hv) in gw2.iter_mut().zip(hid) {
                *g += err * hv;
            }
            gb2[0] += err;
            for ((d, &hv), &w2) in z.iter_mut().zip(hid).zip(self.w2.iter()) {
                *d = err * w2 * (1.0 - hv * hv);
            }
            for (gb, &d) in gb1.iter_mut().zip(z.iter()) {
                *gb += d;
            }
            for (col, &xi) in gw1t.chunks_exact_mut(h).zip(x) {
                for (g, &d) in col.iter_mut().zip(z.iter()) {
                    *g += d * xi;
                }
            }
            sse += err * err;
        }
        self.fold_transposed_grad(gw1t, grad);
        sse
    }

    /// Writes a column-major `w1` gradient (as [`Mlp::epoch_runtime`]
    /// accumulates it) into `grad`'s row-major `w1` region (plain copies,
    /// no arithmetic).
    pub(crate) fn fold_transposed_grad(&self, gw1t: &[f64], grad: &mut [f64]) {
        debug_assert_eq!(gw1t.len(), self.w1.len());
        for h in 0..self.hidden_dim {
            for i in 0..self.input_dim {
                grad[h * self.input_dim + i] = gw1t[i * self.hidden_dim + h];
            }
        }
    }

    /// Accumulates the gradient of the squared error `½(out − target)²`
    /// for one sample into `grad` (same flat layout as [`Mlp::apply_update`]:
    /// `w1, b1, w2, b2`). The per-sample oracle the epoch kernels are
    /// pinned against.
    ///
    /// Returns the sample's squared error.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InputWidthMismatch`] for wrong-width input.
    pub fn accumulate_gradient(&self, input: &[f64], target: f64, grad: &mut [f64]) -> Result<f64> {
        debug_assert_eq!(grad.len(), self.n_params());
        let mut hidden = Vec::with_capacity(self.hidden_dim);
        let output = self.forward_into(input, &mut hidden)?;
        let err = output - target;
        // Output layer.
        let (gw1, rest) = grad.split_at_mut(self.w1.len());
        let (gb1, rest) = rest.split_at_mut(self.b1.len());
        let (gw2, gb2) = rest.split_at_mut(self.w2.len());
        for (g, h) in gw2.iter_mut().zip(hidden.iter()) {
            *g += err * h;
        }
        gb2[0] += err;
        // Hidden layer, with tanh' = 1 − y² of the unit's output y
        // (chunked iteration keeps the loop free of bounds checks; the
        // per-unit float-op order is unchanged).
        for (((grow, gb), &h), &w2) in gw1
            .chunks_exact_mut(self.input_dim)
            .zip(gb1.iter_mut())
            .zip(hidden.iter())
            .zip(self.w2.iter())
        {
            let dh = err * w2 * (1.0 - h * h);
            for (g, &x) in grow.iter_mut().zip(input) {
                *g += dh * x;
            }
            *gb += dh;
        }
        Ok(err * err)
    }

    /// Encodes the network field-for-field into `w` (weights as
    /// `to_bits` patterns): the MLP fragment of NAR artifact payloads.
    /// Round-trip through [`Mlp::decode`] is the identity.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.input_dim);
        w.usize(self.hidden_dim);
        encode_activation(w);
        w.f64_seq(&self.w1);
        w.f64_seq(&self.b1);
        w.f64_seq(&self.w2);
        w.f64(self.b2);
    }

    /// Decodes a network encoded by [`Mlp::encode`], validating the
    /// weight-buffer shapes against the declared dimensions so corrupt
    /// payloads cannot produce a network whose forward pass silently
    /// misindexes.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, malformed or shape-inconsistent
    /// input; [`CodecError::BadTag`] for an activation tag other than
    /// tan-sigmoid's `0`.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let input_dim = r.usize()?;
        let hidden_dim = r.usize()?;
        decode_activation(r)?;
        let w1 = r.f64_seq()?;
        let b1 = r.f64_seq()?;
        let w2 = r.f64_seq()?;
        let b2 = r.f64()?;
        if input_dim == 0 || hidden_dim == 0 {
            return Err(CodecError::Invalid {
                detail: format!("degenerate dimensions {input_dim}×{hidden_dim}"),
            });
        }
        let expect_w1 = hidden_dim.checked_mul(input_dim).ok_or_else(|| CodecError::Invalid {
            detail: format!("dimension product {hidden_dim}×{input_dim} overflows"),
        })?;
        if w1.len() != expect_w1 || b1.len() != hidden_dim || w2.len() != hidden_dim {
            return Err(CodecError::Invalid {
                detail: format!(
                    "weight shapes ({}, {}, {}) disagree with dimensions {input_dim}×{hidden_dim}",
                    w1.len(),
                    b1.len(),
                    w2.len()
                ),
            });
        }
        Ok(Mlp { input_dim, hidden_dim, w1, b1, w2, b2 })
    }

    /// Mutable view of all parameters as one flat slice-set, in the order
    /// `w1, b1, w2, b2` (the layout gradients use).
    pub fn apply_update(&mut self, update: impl Fn(usize, f64) -> f64) {
        let mut idx = 0;
        for w in &mut self.w1 {
            *w = update(idx, *w);
            idx += 1;
        }
        for b in &mut self.b1 {
            *b = update(idx, *b);
            idx += 1;
        }
        for w in &mut self.w2 {
            *w = update(idx, *w);
            idx += 1;
        }
        self.b2 = update(idx, self.b2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates_dims() {
        assert!(Mlp::new(0, 3, 1).is_err());
        assert!(Mlp::new(3, 0, 1).is_err());
        let m = Mlp::new(4, 6, 1).unwrap();
        assert_eq!(m.input_dim(), 4);
        assert_eq!(m.hidden_dim(), 6);
        assert_eq!(m.n_params(), 4 * 6 + 6 + 6 + 1);
    }

    #[test]
    fn construction_is_deterministic() {
        let a = Mlp::new(3, 5, 42).unwrap();
        let b = Mlp::new(3, 5, 42).unwrap();
        assert_eq!(a, b);
        let c = Mlp::new(3, 5, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let m = Mlp::new(3, 2, 1).unwrap();
        assert!(matches!(
            m.predict(&[1.0, 2.0]),
            Err(NeuralError::InputWidthMismatch { expected: 3, actual: 2 })
        ));
    }

    #[test]
    fn output_is_finite_for_large_inputs() {
        let m = Mlp::new(2, 8, 2).unwrap();
        let y = m.predict(&[1e6, -1e6]).unwrap();
        assert!(y.is_finite());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = Mlp::new(3, 4, 3).unwrap();
        let input = [0.3, -0.7, 0.2];
        let target = 0.5;
        let mut grad = vec![0.0; m.n_params()];
        m.accumulate_gradient(&input, target, &mut grad).unwrap();

        let h = 1e-6;
        let mut idx_check = 0;
        let loss = |net: &Mlp| {
            let e = net.predict(&input).unwrap() - target;
            0.5 * e * e
        };
        #[allow(clippy::needless_range_loop)] // probe selects a parameter index
        for probe in 0..m.n_params() {
            let mut plus = m.clone();
            plus.apply_update(|i, v| if i == probe { v + h } else { v });
            let mut minus = m.clone();
            minus.apply_update(|i, v| if i == probe { v - h } else { v });
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * h);
            assert!(
                (numeric - grad[probe]).abs() < 1e-5,
                "param {probe}: numeric {numeric} vs analytic {}",
                grad[probe]
            );
            idx_check += 1;
        }
        assert_eq!(idx_check, m.n_params());
    }

    #[test]
    fn retired_activation_tags_are_bad_tags() {
        let m = Mlp::new(3, 4, 8).unwrap();
        let mut w = Writer::new();
        m.encode(&mut w);
        let mut bytes = w.into_bytes();
        assert_eq!(Mlp::decode(&mut Reader::new(&bytes)).unwrap(), m);
        // The tag byte follows the two dimension words.
        let at = 2 * std::mem::size_of::<u64>();
        assert_eq!(bytes[at], 0, "tan-sigmoid's tag");
        for tag in 1..=3 {
            bytes[at] = tag;
            assert_eq!(
                Mlp::decode(&mut Reader::new(&bytes)),
                Err(CodecError::BadTag { context: "Activation", tag: u64::from(tag) })
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The epoch kernel `epoch_kernel` picks (the fixed-width
        /// instance for inputs up to 8 wide and hidden layers 1..=16, the
        /// runtime-width kernel for the two shapes outside that set) matches
        /// the per-sample oracle (`accumulate_gradient` and `forward_into`,
        /// summed in sample order) bit for bit: summed squared error, every
        /// gradient entry, and the validation error. It starts from dirty
        /// scratch and a poisoned gradient buffer, and a second call on
        /// the same scratch repeats the first.
        #[test]
        fn epoch_batched_paths_match_per_sample_bitwise(
            shape in (1usize..=MAX_KERNEL_INPUT, 1usize..=16, 0usize..8),
            n in 1usize..=200,
            seed in 0u64..1_000,
        ) {
            // One case in four takes a shape outside the fixed-width set.
            let (dim, hid) = match shape {
                (_, _, 0) => (3, 17),
                (_, _, 1) => (MAX_KERNEL_INPUT + 1, 5),
                (dim, hid, _) => (dim, hid),
            };
            let m = Mlp::new(dim, hid, seed).unwrap();
            let flat: Vec<f64> =
                (0..n * dim).map(|k| ((k as f64 + seed as f64) * 0.37).sin() * 2.0).collect();
            let targets: Vec<f64> = (0..n).map(|k| (k as f64 * 0.21).cos()).collect();
            // Per-sample oracle.
            let mut hidden = Vec::new();
            let mut g_ref = vec![0.0; m.n_params()];
            let mut sse_ref = 0.0;
            let mut val_ref = 0.0;
            for (x, &y) in flat.chunks_exact(dim).zip(&targets) {
                sse_ref += m.accumulate_gradient(x, y, &mut g_ref).unwrap();
                let e = m.forward_into(x, &mut hidden).unwrap() - y;
                val_ref += e * e;
            }

            let kernel = m.epoch_kernel();
            let fixed = dim <= MAX_KERNEL_INPUT && hid <= 16;
            let runtime: EpochKernel = Mlp::epoch_runtime;
            prop_assert_eq!(std::ptr::fn_addr_eq(kernel, runtime), !fixed);
            let mut scratch = EpochScratch {
                acts: vec![99.0; 7],
                w1t: vec![-3.0; 5],
                gw1t: vec![7.0; 40],
                z: vec![1.0; 2],
            };
            for _ in 0..2 {
                let mut g = vec![f64::NAN; m.n_params()];
                let sse = kernel(&m, &flat, &targets, Some(&mut g), &mut scratch);
                let val = kernel(&m, &flat, &targets, None, &mut scratch);
                prop_assert_eq!(sse.to_bits(), sse_ref.to_bits());
                prop_assert_eq!(val.to_bits(), val_ref.to_bits());
                for (a, b) in g.iter().zip(&g_ref) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn accumulate_returns_squared_error() {
        let m = Mlp::new(1, 2, 4).unwrap();
        let mut grad = vec![0.0; m.n_params()];
        let out = m.predict(&[0.5]).unwrap();
        let se = m.accumulate_gradient(&[0.5], 1.0, &mut grad).unwrap();
        assert!((se - (out - 1.0).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn apply_update_touches_every_param() {
        let mut m = Mlp::new(2, 3, 5).unwrap();
        let before = m.clone();
        m.apply_update(|_, v| v + 1.0);
        let mut diffs = 0;
        // Re-run prediction difference as a proxy: all params shifted.
        let y0 = before.predict(&[0.1, 0.2]).unwrap();
        let y1 = m.predict(&[0.1, 0.2]).unwrap();
        if (y1 - y0).abs() > 1e-9 {
            diffs += 1;
        }
        assert_eq!(diffs, 1);
    }
}
