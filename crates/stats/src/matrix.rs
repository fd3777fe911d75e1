//! Small dense linear algebra used by the regression fitters.
//!
//! The models in this workspace only ever solve systems with a handful of
//! unknowns (ARIMA orders ≤ ~6, regression designs with ≤ ~20 columns), so a
//! simple row-major [`Matrix`] with partial-pivot LU, Cholesky and
//! Householder QR is both sufficient and easy to audit.

use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major, heap-allocated `f64` matrix.
///
/// # Example
///
/// ```
/// use ddos_stats::matrix::Matrix;
///
/// # fn main() -> Result<(), ddos_stats::StatsError> {
/// let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]])?;
/// let b = vec![1.0, 2.0];
/// let x = a.solve(&b)?;
/// let r = a.mat_vec(&x)?;
/// assert!((r[0] - 1.0).abs() < 1e-10 && (r[1] - 2.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(StatsError::InvalidParameter {
                name: "dims",
                detail: format!("dimensions must be nonzero, got {rows}x{cols}"),
            });
        }
        Ok(Matrix { rows, cols, data: vec![0.0; rows * cols] })
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `n` is zero.
    pub fn identity(n: usize) -> Result<Self> {
        let mut m = Matrix::zeros(n, n)?;
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        Ok(m)
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `rows` is empty and
    /// [`StatsError::DimensionMismatch`] when rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(StatsError::DimensionMismatch {
                    detail: format!("row {i} has {} columns, expected {cols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `data.len() != rows * cols`
    /// and [`StatsError::InvalidParameter`] when a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(StatsError::InvalidParameter {
                name: "dims",
                detail: format!("dimensions must be nonzero, got {rows}x{cols}"),
            });
        }
        if data.len() != rows * cols {
            return Err(StatsError::DimensionMismatch {
                detail: format!("buffer length {} != {rows}x{cols}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics when `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix { rows: self.cols, cols: self.rows, data: vec![0.0; self.data.len()] };
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `v.len() != self.cols()`.
    pub fn mat_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(StatsError::DimensionMismatch {
                detail: format!("vector length {} != matrix cols {}", v.len(), self.cols),
            });
        }
        Ok((0..self.rows).map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum()).collect())
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] on inner-dimension mismatch.
    pub fn mat_mul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(StatsError::DimensionMismatch {
                detail: format!(
                    "cannot multiply {}x{} by {}x{}",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols)?;
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Solves `self * x = b` using partial-pivot Gaussian elimination.
    ///
    /// # Errors
    ///
    /// * [`StatsError::DimensionMismatch`] when the matrix is not square or
    ///   `b` has the wrong length.
    /// * [`StatsError::SingularMatrix`] when a pivot underflows.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch {
                detail: format!("solve requires square matrix, got {}x{}", self.rows, self.cols),
            });
        }
        if b.len() != self.rows {
            return Err(StatsError::DimensionMismatch {
                detail: format!("rhs length {} != {}", b.len(), self.rows),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivoting: find the largest-magnitude entry in this column.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(StatsError::SingularMatrix);
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= factor * a[col * n + j];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for j in (col + 1)..n {
                s -= a[col * n + j] * x[j];
            }
            x[col] = s / a[col * n + col];
        }
        Ok(x)
    }

    /// Cholesky factorization `self = L * Lᵀ` for a symmetric
    /// positive-definite matrix; returns the lower-triangular factor.
    ///
    /// # Errors
    ///
    /// * [`StatsError::DimensionMismatch`] when the matrix is not square.
    /// * [`StatsError::SingularMatrix`] when the matrix is not positive
    ///   definite.
    pub fn cholesky(&self) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch {
                detail: format!("cholesky requires square matrix, got {}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n)?;
        for i in 0..n {
            for j in 0..=i {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 1e-12 {
                        return Err(StatsError::SingularMatrix);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solves `self * x = b` via Cholesky, assuming `self` is symmetric
    /// positive definite (the normal-equations case).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Matrix::cholesky`]; additionally returns
    /// [`StatsError::DimensionMismatch`] for a wrong-length `b`.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows {
            return Err(StatsError::DimensionMismatch {
                detail: format!("rhs length {} != {}", b.len(), self.rows),
            });
        }
        let l = self.cholesky()?;
        let n = self.rows;
        // Forward solve L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[(i, k)] * y[k];
            }
            y[i] = s / l[(i, i)];
        }
        // Back solve Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= l[(k, i)] * x[k];
            }
            x[i] = s / l[(i, i)];
        }
        Ok(x)
    }

    /// Householder QR factorization; returns `(Q, R)` with `Q` orthonormal
    /// (`rows × rows`) and `R` upper-trapezoidal (`rows × cols`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::TooShort`] when `rows < cols` (the regression
    /// use case requires at least as many observations as parameters).
    pub fn qr(&self) -> Result<(Matrix, Matrix)> {
        if self.rows < self.cols {
            return Err(StatsError::TooShort { required: self.cols, actual: self.rows });
        }
        let m = self.rows;
        let n = self.cols;
        let mut r = self.clone();
        let mut q = Matrix::identity(m)?;

        for k in 0..n.min(m - 1) {
            // Householder vector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += r[(i, k)] * r[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-14 {
                continue;
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            v[k] = r[(k, k)] - alpha;
            for (i, vi) in v.iter_mut().enumerate().take(m).skip(k + 1) {
                *vi = r[(i, k)];
            }
            let vtv: f64 = v.iter().map(|x| x * x).sum();
            if vtv < 1e-28 {
                continue;
            }
            // Apply H = I - 2 v vᵀ / (vᵀ v) to R (left) and accumulate into Q.
            for j in 0..n {
                let dot: f64 = (k..m).map(|i| v[i] * r[(i, j)]).sum();
                let c = 2.0 * dot / vtv;
                for i in k..m {
                    r[(i, j)] -= c * v[i];
                }
            }
            for j in 0..m {
                let dot: f64 = (k..m).map(|i| v[i] * q[(j, i)]).sum();
                let c = 2.0 * dot / vtv;
                for i in k..m {
                    q[(j, i)] -= c * v[i];
                }
            }
        }
        Ok((q, r))
    }

    /// Least-squares solution of `self * x ≈ b` via Householder QR.
    ///
    /// Works for overdetermined systems (`rows >= cols`). The reflections
    /// are applied to a copy of `b` directly — `Q` is never materialized,
    /// so the cost is `O(rows · cols²)` time and `O(rows · cols)` memory
    /// even for very tall designs (regression-tree leaves see tens of
    /// thousands of rows).
    ///
    /// # Errors
    ///
    /// * [`StatsError::DimensionMismatch`] for a wrong-length `b`.
    /// * [`StatsError::TooShort`] when `rows < cols`.
    /// * [`StatsError::SingularMatrix`] when the design is rank deficient.
    pub fn lstsq(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        lstsq_into(&self.data, self.rows, self.cols, b, &mut LstsqScratch::default(), &mut x)?;
        Ok(x)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Gram matrix `selfᵀ * self` (used to form normal equations).
    pub fn gram(&self) -> Matrix {
        let mut g =
            Matrix { rows: self.cols, cols: self.cols, data: vec![0.0; self.cols * self.cols] };
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self[(r, i)] * self[(r, j)];
                }
                g[(i, j)] = s;
                g[(j, i)] = s;
            }
        }
        g
    }
}

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

/// Allocation-free [`Matrix::lstsq`] over a borrowed row-major design.
///
/// `design` is `rows × cols` in row-major order; the solution is written
/// into `beta` (cleared and resized to `cols`). The split from
/// [`Matrix::lstsq`] — which delegates here — exists for hot callers
/// (regression-tree leaves) that solve many small systems and want to
/// amortize the working buffers.
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
/// Exactly those of [`Matrix::lstsq`]: [`StatsError::DimensionMismatch`]
/// for a wrong-length `b`, [`StatsError::TooShort`] when `rows < cols`,
/// [`StatsError::SingularMatrix`] on rank deficiency.
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
    Ok(())
}

/// One row block's Householder update: `lanes -= c · vᵢ`, lane by lane.
#[inline(always)]
fn reflect(lanes: &mut [f64; LANES], c: &[f64; LANES], vi: f64) {
    for (x, ci) in lanes.iter_mut().zip(c) {
        *x -= ci * vi;
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch in add");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch in sub");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|a| a * s).collect() }
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

    #[test]
    fn zeros_has_right_shape() {
        let m = Matrix::zeros(3, 4).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zeros_rejects_zero_dims() {
        assert!(Matrix::zeros(0, 4).is_err());
        assert!(Matrix::zeros(4, 0).is_err());
    }

    #[test]
    fn identity_is_identity() {
        let i = Matrix::identity(3).unwrap();
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(i.mat_vec(&v).unwrap(), v);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn mat_mul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.mat_mul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn mat_mul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3).unwrap();
        let b = Matrix::zeros(2, 3).unwrap();
        assert!(a.mat_mul(&b).is_err());
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!(close(x[0], 0.8));
        assert!(close(x[1], 1.4));
    }

    #[test]
    fn solve_requires_pivoting() {
        // First pivot is zero; naive elimination would fail.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!(close(x[0], 3.0));
        assert!(close(x[1], 2.0));
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(StatsError::SingularMatrix));
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let l = a.cholesky().unwrap();
        let rec = l.mat_mul(&l.transpose()).unwrap();
        assert!((&rec - &a).frobenius_norm() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn solve_spd_matches_solve() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0, 0.0], vec![1.0, 5.0, 2.0], vec![0.0, 2.0, 6.0]])
            .unwrap();
        let b = [1.0, -2.0, 3.0];
        let x1 = a.solve(&b).unwrap();
        let x2 = a.solve_spd(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!(close(*u, *v));
        }
    }

    #[test]
    fn qr_orthogonality_and_reconstruction() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let (q, r) = a.qr().unwrap();
        let qtq = q.transpose().mat_mul(&q).unwrap();
        let eye = Matrix::identity(3).unwrap();
        assert!((&qtq - &eye).frobenius_norm() < 1e-9);
        let rec = q.mat_mul(&r).unwrap();
        assert!((&rec - &a).frobenius_norm() < 1e-9);
    }

    #[test]
    fn lstsq_exact_fit() {
        // y = 1 + 2x, exactly representable.
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let beta = x.lstsq(&[1.0, 3.0, 5.0]).unwrap();
        assert!(close(beta[0], 1.0));
        assert!(close(beta[1], 2.0));
    }

    #[test]
    fn lstsq_overdetermined_minimizes() {
        // Noisy line; check the residual is orthogonal to the columns.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0, i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> =
            (0..10).map(|i| 2.0 + 0.5 * i as f64 + if i % 2 == 0 { 0.1 } else { -0.1 }).collect();
        let beta = x.lstsq(&y).unwrap();
        let fitted = x.mat_vec(&beta).unwrap();
        let resid: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| a - b).collect();
        for j in 0..2 {
            let dot: f64 = (0..10).map(|i| x[(i, j)] * resid[i]).sum();
            assert!(dot.abs() < 1e-8, "residual not orthogonal: {dot}");
        }
    }

    #[test]
    fn lstsq_detects_rank_deficiency() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        assert!(x.lstsq(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn gram_is_symmetric() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let g = x.gram();
        assert_eq!(g.rows(), 2);
        assert_eq!(g[(0, 1)], g[(1, 0)]);
        assert_eq!(g[(0, 0)], 35.0);
    }

    #[test]
    fn operators_work() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn display_contains_entries() {
        let a = Matrix::from_rows(&[vec![1.5, 2.0]]).unwrap();
        let s = format!("{a}");
        assert!(s.contains("1.5"));
    }
}
