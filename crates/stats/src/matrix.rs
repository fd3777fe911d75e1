//! The least-squares kernel every regression fit in the workspace ends in.
//!
//! The models here only ever solve small systems (ARIMA lag regressions
//! with a handful of unknowns, regression-tree leaf designs with ≤ ~20
//! columns), all by least squares: [`lstsq_into`] solves a borrowed
//! row-major design by Householder QR into caller-owned buffers
//! ([`LstsqScratch`]), so hot callers amortize them across fits.

use crate::{Result, StatsError};

/// Lane width of the [`lstsq_into`] kernel's working rows.
///
/// Every working row is padded to a whole number of `LANES`-wide blocks,
/// so the kernel's inner loops run over fixed-size arrays the compiler
/// can unroll and vectorize. A 14-column leaf design plus its right-hand
/// side fits one block.
const LANES: usize = 16;

/// Reusable buffers for [`lstsq_into`]: the padded working rows
/// (`work`), the Householder vector (`v`), and the per-lane dot
/// products and update coefficients (`coef`). A default-constructed
/// scratch is valid for any problem size; buffers grow on first use and
/// are then reused allocation-free.
#[derive(Debug, Default)]
pub struct LstsqScratch {
    work: Vec<[f64; LANES]>,
    v: Vec<f64>,
    coef: Vec<[f64; LANES]>,
}

/// Least-squares solution of `design · beta ≈ b`, allocation-free once
/// `scratch` has grown.
///
/// `design` is `rows × cols` in row-major order; the solution is written
/// into `beta` (cleared and resized to `cols`). Hot callers
/// (regression-tree leaves, IRLS iterations) reuse one scratch and one
/// `beta` across many small solves.
///
/// The kernel is Householder QR applied row by row. Each working row
/// holds the design row, then the right-hand side, then zero padding to
/// a multiple of the lane width. Reflection `k` takes two passes over
/// rows `k..rows`: the first accumulates `vᵀv` and every lane's dot
/// product with `v`, the second applies the update to every lane and
/// accumulates the norm of column `k + 1`. Every sum still runs over the
/// rows in ascending order from the same starting value as a
/// column-at-a-time Householder QR, so the solution is bit-identical to
/// it. Lanes left of column `k` and the padding lanes receive updates
/// too; nothing reads them (back substitution reads only the upper
/// triangle and the right-hand side).
///
/// # Errors
///
/// * [`StatsError::DimensionMismatch`] for a wrong-length `b`.
/// * [`StatsError::TooShort`] when `rows < cols`.
/// * [`StatsError::SingularMatrix`] on rank deficiency, or when the
///   design is too ill-conditioned for a finite solution: finite inputs
///   large enough to overflow the factorization leave a non-finite
///   entry in `beta`, which is refused rather than returned.
pub fn lstsq_into(
    design: &[f64],
    rows: usize,
    cols: usize,
    b: &[f64],
    scratch: &mut LstsqScratch,
    beta: &mut Vec<f64>,
) -> Result<()> {
    debug_assert_eq!(design.len(), rows * cols, "design buffer must be rows*cols");
    if b.len() != rows {
        return Err(StatsError::DimensionMismatch {
            detail: format!("rhs length {} != {}", b.len(), rows),
        });
    }
    if rows < cols {
        return Err(StatsError::TooShort { required: cols, actual: rows });
    }
    beta.clear();
    if cols == 0 {
        return Ok(());
    }
    let (m, n) = (rows, cols);
    // Blocks per working row: the design row plus the right-hand side in
    // lane `n`, rounded up to whole blocks.
    let blocks = (n + 1).div_ceil(LANES);
    let stride = blocks * LANES;
    let LstsqScratch { work, v, coef } = scratch;
    work.clear();
    work.resize(m * blocks, [0.0; LANES]);
    v.clear();
    v.resize(m, 0.0);
    coef.clear();
    coef.resize(blocks, [0.0; LANES]);

    // Copy the rows in and accumulate column 0's norm.
    let mut norm = 0.0;
    let rows_in = design.chunks_exact(n).zip(b);
    for ((row, (src, &rhs)), vi) in work.chunks_exact_mut(blocks).zip(rows_in).zip(v.iter_mut()) {
        let lanes = row.as_flattened_mut();
        lanes[..n].copy_from_slice(src);
        lanes[n] = rhs;
        *vi = src[0];
        norm += *vi * *vi;
    }

    for k in 0..n {
        // Householder vector for column k (rows k..m); `v[k..]` already
        // holds the column and `norm` its squared norm.
        let norm_k = f64::sqrt(norm);
        if norm_k < 1e-14 {
            return Err(StatsError::SingularMatrix);
        }
        let alpha = if v[k] >= 0.0 { -norm_k } else { norm_k };
        v[k] -= alpha;
        let below = &mut work[k * blocks..];

        // Pass 1: vᵀv and every lane's dot product with v, one block of
        // lanes at a time so the accumulators stay in registers. Sums
        // start from -0.0, as `Iterator::sum` does.
        let mut vtv = -0.0;
        for (b, dots) in coef.iter_mut().enumerate() {
            let mut acc = [-0.0; LANES];
            let mut sq = -0.0;
            for (row, &vi) in below.chunks_exact(blocks).zip(&v[k..]) {
                sq += vi * vi;
                for (a, x) in acc.iter_mut().zip(&row[b]) {
                    *a += vi * x;
                }
            }
            if b == 0 {
                vtv = sq;
            }
            *dots = acc;
        }
        if vtv < 1e-28 {
            return Err(StatsError::SingularMatrix);
        }
        for dots in coef.iter_mut() {
            for a in dots.iter_mut() {
                *a = 2.0 * *a / vtv;
            }
        }

        // Pass 2: apply H = I − 2 v vᵀ / (vᵀ v) to every lane, block by
        // block. The block holding column k + 1 goes last: its pass also
        // loads that column (rows k+1..m) into v and accumulates its
        // norm, which must wait until every block has used the old v.
        // After the last reflection only row k is read again.
        let next = k + 1;
        let live = if next < n { m - k } else { 1 };
        let rows = &mut below[..live * blocks];
        let last = next.min(n) / LANES;
        // The coefficients are copied out of `coef` so the compiler can
        // keep them in registers across the stores to `work`.
        for (b, &c) in coef.iter().enumerate().filter(|&(b, _)| b != last) {
            for (row, &vi) in rows.chunks_exact_mut(blocks).zip(&v[k..]) {
                reflect(&mut row[b], &c, vi);
            }
        }
        let c = coef[last];
        let lane = next % LANES;
        norm = 0.0;
        let mut rows = rows.chunks_exact_mut(blocks).zip(&mut v[k..]);
        if let Some((row, vi)) = rows.next() {
            reflect(&mut row[last], &c, *vi);
        }
        for (row, vi) in rows {
            let lanes = &mut row[last];
            reflect(lanes, &c, *vi);
            *vi = lanes[lane];
            norm += *vi * *vi;
        }
    }

    // Back substitution on the top n×n triangle.
    let work = work.as_flattened();
    beta.resize(n, 0.0);
    for i in (0..n).rev() {
        let row = &work[i * stride..(i + 1) * stride];
        let mut s = row[n];
        for j in (i + 1)..n {
            s -= row[j] * beta[j];
        }
        let d = row[i];
        if d.abs() < 1e-10 {
            return Err(StatsError::SingularMatrix);
        }
        beta[i] = s / d;
    }
    if beta.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::SingularMatrix);
    }
    Ok(())
}

/// One row block's Householder update: `lanes -= c · vᵢ`, lane by lane.
#[inline(always)]
fn reflect(lanes: &mut [f64; LANES], c: &[f64; LANES], vi: f64) {
    for (x, ci) in lanes.iter_mut().zip(c) {
        *x -= ci * vi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The column-at-a-time Householder QR `lstsq_into` replaced, kept as
    /// the bit-identity oracle for the row-pass kernel.
    fn lstsq_reference(design: &[f64], rows: usize, cols: usize, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != rows {
            return Err(StatsError::DimensionMismatch {
                detail: format!("rhs length {} != {}", b.len(), rows),
            });
        }
        if rows < cols {
            return Err(StatsError::TooShort { required: cols, actual: rows });
        }
        let m = rows;
        let n = cols;
        let mut r = design.to_vec();
        let mut rhs = b.to_vec();
        let mut v = vec![0.0; m];
        for k in 0..n {
            let mut norm = 0.0;
            for (i, vi) in v.iter_mut().enumerate().take(m).skip(k) {
                *vi = r[i * n + k];
                norm += *vi * *vi;
            }
            let norm = norm.sqrt();
            if norm < 1e-14 {
                return Err(StatsError::SingularMatrix);
            }
            let alpha = if v[k] >= 0.0 { -norm } else { norm };
            v[k] -= alpha;
            let vtv: f64 = v[k..m].iter().map(|x| x * x).sum();
            if vtv < 1e-28 {
                return Err(StatsError::SingularMatrix);
            }
            for j in k..n {
                let dot: f64 = (k..m).map(|i| v[i] * r[i * n + j]).sum();
                let c = 2.0 * dot / vtv;
                for i in k..m {
                    r[i * n + j] -= c * v[i];
                }
            }
            let dot: f64 = (k..m).map(|i| v[i] * rhs[i]).sum();
            let c = 2.0 * dot / vtv;
            for i in k..m {
                rhs[i] -= c * v[i];
            }
        }
        let mut beta = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = rhs[i];
            for j in (i + 1)..n {
                s -= r[i * n + j] * beta[j];
            }
            let d = r[i * n + i];
            if d.abs() < 1e-10 {
                return Err(StatsError::SingularMatrix);
            }
            beta[i] = s / d;
        }
        Ok(beta)
    }

    /// A random `rows × cols` least-squares problem with `cols` in 1–20
    /// and `rows` from `cols` to 300. Column 0 is the intercept; `defect`
    /// overwrites one later column with a constant (1) or with a
    /// multiple of the column before it (2), the two ways a
    /// regression-tree leaf goes rank deficient.
    fn problem() -> impl Strategy<Value = (usize, usize, Vec<f64>, Vec<f64>)> {
        (1usize..=20, 0usize..=280, any_seed(), 0u8..3, 1usize..20, -3.0..3.0f64).prop_map(
            |(cols, extra, seed, defect, at, scale)| {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let rows = cols + extra;
                let mut cells: Vec<f64> =
                    (0..rows * cols).map(|_| rng.gen_range(-1.0e3..1.0e3)).collect();
                let b: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1.0e3..1.0e3)).collect();
                for row in cells.chunks_exact_mut(cols) {
                    row[0] = 1.0;
                    if at < cols {
                        match defect {
                            1 => row[at] = scale,
                            2 => row[at] = scale * row[at - 1],
                            _ => {}
                        }
                    }
                }
                (rows, cols, cells, b)
            },
        )
    }

    fn any_seed() -> std::ops::Range<u64> {
        0..u64::MAX
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn row_pass_kernel_matches_column_reference(case in problem()) {
            let (rows, cols, design, b) = case;
            let expected = lstsq_reference(&design, rows, cols, &b);
            let mut scratch = LstsqScratch::default();
            let mut beta = vec![f64::NAN; 3];
            // Twice through one scratch: reuse must not perturb a bit.
            for _ in 0..2 {
                let got = lstsq_into(&design, rows, cols, &b, &mut scratch, &mut beta);
                match (&expected, got) {
                    (Ok(want), Ok(())) => prop_assert_eq!(
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        beta.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    ),
                    (Err(want), Err(got)) => prop_assert_eq!(
                        std::mem::discriminant(want),
                        std::mem::discriminant(&got)
                    ),
                    (want, got) => prop_assert!(false, "reference {want:?}, kernel {got:?}"),
                }
            }
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// Solves a row-major `rows × cols` design through a fresh scratch.
    fn lstsq(design: &[f64], cols: usize, b: &[f64]) -> Result<Vec<f64>> {
        let mut beta = Vec::new();
        let rows = design.len() / cols;
        lstsq_into(design, rows, cols, b, &mut LstsqScratch::default(), &mut beta)?;
        Ok(beta)
    }

    #[test]
    fn lstsq_exact_fit() {
        // y = 1 + 2x, exactly representable.
        let beta = lstsq(&[1.0, 0.0, 1.0, 1.0, 1.0, 2.0], 2, &[1.0, 3.0, 5.0]).unwrap();
        assert!(close(beta[0], 1.0));
        assert!(close(beta[1], 2.0));
    }

    #[test]
    fn lstsq_overdetermined_minimizes() {
        // Noisy line; check the residual is orthogonal to the columns.
        let x: Vec<f64> = (0..10).flat_map(|i| [1.0, i as f64]).collect();
        let y: Vec<f64> =
            (0..10).map(|i| 2.0 + 0.5 * i as f64 + if i % 2 == 0 { 0.1 } else { -0.1 }).collect();
        let beta = lstsq(&x, 2, &y).unwrap();
        let resid: Vec<f64> = x
            .chunks_exact(2)
            .zip(&y)
            .map(|(row, y)| y - row.iter().zip(&beta).map(|(a, b)| a * b).sum::<f64>())
            .collect();
        for j in 0..2 {
            let dot: f64 = x.chunks_exact(2).zip(&resid).map(|(row, r)| row[j] * r).sum();
            assert!(dot.abs() < 1e-8, "residual not orthogonal: {dot}");
        }
    }

    #[test]
    fn lstsq_detects_rank_deficiency() {
        assert!(lstsq(&[1.0, 2.0, 2.0, 4.0, 3.0, 6.0], 2, &[1.0, 2.0, 3.0]).is_err());
    }
}
