//! Row-major dense `f64` matrix with the kernel set used across the workspace.

use crate::aligned::AlignedBuf;
use crate::kernels;
use crate::mmap::Mmap;
use crate::storage::Storage;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Block edge for the cache-blocked matmul kernel. Matrices in this project
/// are small; 64 keeps the working set of a block pair within L1.
const MATMUL_BLOCK: usize = 64;

/// A dense, row-major matrix of `f64` values.
///
/// The element at row `i`, column `j` lives at `data[i * cols + j]`. All
/// shape-changing operations allocate a fresh matrix; in-place variants are
/// provided where the training loop is hot (`add_assign`, `scale_in_place`,
/// `zip_apply`).
///
/// Storage is a [`Storage`]: either an owned [`AlignedBuf`] (every
/// constructor below) or a read-only window into a shared file mapping
/// ([`Matrix::from_mapped`], the zero-copy checkpoint path). Owned data
/// always starts on a 32-byte boundary (the SIMD kernels' alignment
/// contract — see the [`kernels`] module docs); mapped data inherits the
/// same guarantee from the checkpoint format's 64-byte-aligned payload
/// offsets. The hot kernels (`matmul_into` and friends, `axpy`,
/// `add_into`/`sub_into`/`hadamard_into`, `scale_into`) dispatch through
/// [`kernels::active()`]; results are bit-identical on every backend and
/// across storage variants.
///
/// Mapped matrices are immutable serving views: mutating one panics, and
/// `clone()` always yields an owned matrix (see the [`crate::storage`]
/// module docs for the full contract).
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Storage,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: Storage::Owned(AlignedBuf::zeroed(rows * cols)),
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            rows,
            cols,
            data: Storage::Owned(AlignedBuf::from(data)),
        }
    }

    /// Builds a matrix whose elements are **borrowed** from a read-only file
    /// mapping: `rows * cols` little-endian `f64`s starting `byte_offset`
    /// bytes into `map`. No element data is copied — the matrix holds the
    /// map alive through the `Arc` and reads straight from the OS page
    /// cache.
    ///
    /// The resulting matrix is an immutable serving view: any mutable
    /// access panics, and `clone()` materializes an owned copy.
    ///
    /// # Errors
    /// Returns a message when `rows * cols` overflows, the window falls
    /// outside the map or the data pointer would be misaligned for `f64`.
    pub fn from_mapped(
        rows: usize,
        cols: usize,
        map: Arc<Mmap>,
        byte_offset: usize,
    ) -> Result<Self, String> {
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("mapped shape {rows}x{cols} overflows"))?;
        let data = Storage::mapped(map, byte_offset, len)?;
        Ok(Self { rows, cols, data })
    }

    /// True when this matrix borrows its elements from a file mapping.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Builds a matrix directly over an aligned buffer (pool recycle path:
    /// no copy, alignment already guaranteed).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_aligned(rows: usize, cols: usize, data: AlignedBuf) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            rows,
            cols,
            data: Storage::Owned(data),
        }
    }

    /// Consumes the matrix, returning an aligned backing buffer (pool
    /// recycle path: no copy for owned storage; mapped storage — which the
    /// pool never sees in practice — is copied out).
    pub(crate) fn into_aligned(self) -> AlignedBuf {
        self.data.into_aligned()
    }

    /// Builds a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut m = Self::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} but expected {cols}",
                r.len()
            );
            m.row_mut(i).copy_from_slice(r);
        }
        m
    }

    /// Builds a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for (j, v) in m.data[i * cols..(i + 1) * cols].iter_mut().enumerate() {
                *v = f(i, j);
            }
        }
        m
    }

    /// A `1 x n` row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// An `n x 1` column vector.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data slice (32-byte aligned).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable raw row-major data slice (32-byte aligned).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }

    /// Consumes the matrix, returning the row-major data as a plain vector
    /// (copies out of the aligned backing store).
    pub fn into_vec(self) -> Vec<f64> {
        self.data.to_vec()
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j` as a fresh vector. Allocates; hot callers should
    /// use [`Matrix::col_iter`] or [`Matrix::col_into`] instead.
    pub fn col(&self, j: usize) -> Vec<f64> {
        self.col_iter(j).collect()
    }

    /// Strided, allocation-free iterator over column `j` (top to bottom).
    ///
    /// # Panics
    /// Panics if `j >= self.cols()`.
    #[inline]
    pub fn col_iter(&self, j: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        assert!(
            j < self.cols,
            "column {j} out of bounds for {} columns",
            self.cols
        );
        self.data[j..].iter().step_by(self.cols.max(1)).copied()
    }

    /// Copies column `j` into `out` without allocating.
    ///
    /// # Panics
    /// Panics if `j >= self.cols()` or `out.len() != self.rows()`.
    pub fn col_into(&self, j: usize, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.rows,
            "col_into output length {} does not match {} rows",
            out.len(),
            self.rows
        );
        for (o, v) in out.iter_mut().zip(self.col_iter(j)) {
            *o = v;
        }
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (o, &v) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(v);
        }
        out
    }

    /// Elementwise combination of two equally-shaped matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        let mut out = Matrix::zeros(self.rows, self.cols);
        for ((o, &a), &b) in out
            .data
            .iter_mut()
            .zip(self.data.iter())
            .zip(other.data.iter())
        {
            *o = f(a, b);
        }
        out
    }

    /// In-place elementwise combination: `self[i] = f(self[i], other[i])`.
    pub fn zip_apply(&mut self, other: &Matrix, f: impl Fn(f64, f64) -> f64) {
        self.assert_same_shape(other, "zip_apply");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// Output-parameter elementwise combination:
    /// `out[i] = f(self[i], other[i])`. Bit-identical to [`Matrix::zip_map`].
    pub fn zip_apply_into(&self, other: &Matrix, out: &mut Matrix, f: impl Fn(f64, f64) -> f64) {
        self.assert_same_shape(other, "zip_apply_into");
        self.assert_same_shape(out, "zip_apply_into (out)");
        for ((o, &a), &b) in out
            .data
            .iter_mut()
            .zip(self.data.iter())
            .zip(other.data.iter())
        {
            *o = f(a, b);
        }
    }

    /// Output-parameter elementwise map: `out[i] = f(self[i])`. Bit-identical
    /// to [`Matrix::map`].
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f64) -> f64) {
        self.assert_same_shape(out, "map_into");
        for (o, &a) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(a);
        }
    }

    /// Overwrites `self` with `src` (same shape; no allocation).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.assert_same_shape(src, "copy_from");
        self.data.copy_from_slice(&src.data);
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Output-parameter elementwise sum. Bit-identical to [`Matrix::add`].
    pub fn add_into(&self, other: &Matrix, out: &mut Matrix) {
        self.assert_same_shape(other, "add_into");
        self.assert_same_shape(out, "add_into (out)");
        kernels::active().add(&self.data, &other.data, &mut out.data);
    }

    /// In-place elementwise sum.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "add_assign");
        kernels::active().axpy(1.0, &other.data, &mut self.data);
    }

    /// In-place `self += alpha * x` (BLAS axpy). The gradient-accumulation
    /// kernel: with `alpha = 1` it is bit-identical to [`Matrix::add_assign`].
    pub fn axpy(&mut self, alpha: f64, x: &Matrix) {
        self.assert_same_shape(x, "axpy");
        kernels::active().axpy(alpha, &x.data, &mut self.data);
    }

    /// In-place `self += alpha * other` ([`Matrix::axpy`] with its
    /// historical argument order).
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f64) {
        self.axpy(alpha, other);
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Output-parameter elementwise difference. Bit-identical to
    /// [`Matrix::sub`].
    pub fn sub_into(&self, other: &Matrix, out: &mut Matrix) {
        self.assert_same_shape(other, "sub_into");
        self.assert_same_shape(out, "sub_into (out)");
        kernels::active().sub(&self.data, &other.data, &mut out.data);
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Output-parameter Hadamard product. Bit-identical to
    /// [`Matrix::hadamard`].
    pub fn hadamard_into(&self, other: &Matrix, out: &mut Matrix) {
        self.assert_same_shape(other, "hadamard_into");
        self.assert_same_shape(out, "hadamard_into (out)");
        kernels::active().mul(&self.data, &other.data, &mut out.data);
    }

    /// Scalar multiple as a new matrix.
    pub fn scale(&self, alpha: f64) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Output-parameter scalar multiple. Bit-identical to [`Matrix::scale`].
    pub fn scale_into(&self, alpha: f64, out: &mut Matrix) {
        self.assert_same_shape(out, "scale_into");
        kernels::active().scale(&self.data, alpha, &mut out.data);
    }

    /// In-place scalar multiply.
    pub fn scale_in_place(&mut self, alpha: f64) {
        for v in self.data.iter_mut() {
            *v *= alpha;
        }
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias` is not `1 x self.cols()`.
    pub fn broadcast_add_row(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(
            bias.cols, self.cols,
            "bias has {} columns but matrix has {}",
            bias.cols, self.cols
        );
        let mut out = self.clone();
        for i in 0..out.rows {
            let row = out.row_mut(i);
            for (v, &b) in row.iter_mut().zip(bias.data.iter()) {
                *v += b;
            }
        }
        out
    }

    /// Output-parameter bias broadcast: `out = self + broadcast(bias)`.
    /// Bit-identical to [`Matrix::broadcast_add_row`].
    pub fn broadcast_add_row_into(&self, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(
            bias.cols, self.cols,
            "bias has {} columns but matrix has {}",
            bias.cols, self.cols
        );
        self.assert_same_shape(out, "broadcast_add_row_into");
        for i in 0..self.rows {
            let src = &self.data[i * self.cols..(i + 1) * self.cols];
            let dst = &mut out.data[i * self.cols..(i + 1) * self.cols];
            for ((o, &v), &b) in dst.iter_mut().zip(src.iter()).zip(bias.data.iter()) {
                *o = v + b;
            }
        }
    }

    /// Sum over rows, producing a `1 x cols` row vector. This is the adjoint
    /// of [`Matrix::broadcast_add_row`].
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.sum_rows_into(&mut out);
        out
    }

    /// Output-parameter row sum; `out` must be `1 x self.cols()` and is
    /// overwritten. Bit-identical to [`Matrix::sum_rows`].
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (1, self.cols),
            "sum_rows_into output shape mismatch"
        );
        out.data.fill(0.0);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &v) in out.data.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }

    /// Mean over rows, producing a `1 x cols` row vector.
    pub fn mean_rows(&self) -> Matrix {
        assert!(self.rows > 0, "mean_rows of an empty matrix");
        let mut out = self.sum_rows();
        out.scale_in_place(1.0 / self.rows as f64);
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of an empty matrix");
        self.sum() / self.data.len() as f64
    }

    /// Largest element. Returns `f64::NEG_INFINITY` for an empty matrix.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest element. Returns `f64::INFINITY` for an empty matrix.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Frobenius norm (`sqrt(sum of squares)`).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// True if every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Matrix product `self * other`.
    ///
    /// Uses a cache-blocked i-k-j kernel; dimensions in this workspace are
    /// small enough that this runs well within L1/L2.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Output-parameter matrix product. `out` must be
    /// `self.rows() x other.cols()`; its previous contents are overwritten.
    /// Bit-identical to [`Matrix::matmul`].
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        assert_eq!(
            (out.rows, out.cols),
            (m, n),
            "matmul_into output shape mismatch"
        );
        kernels::active().matmul(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// Fused linear-layer forward kernel: `out = finish(self * other + bias)`
    /// where `bias` (a `1 x n` row vector, optional) is broadcast over rows
    /// and `row_finish` is applied to each completed output row in place
    /// (the activation slice pass). The bias add and activation happen while
    /// the freshly computed row is still in registers/L1 — for the `n == 8`
    /// register kernel literally on the stack accumulator before it is
    /// stored — instead of as two further whole-matrix passes.
    ///
    /// Equivalent to `matmul_into` + `broadcast_add_row` + an elementwise
    /// map, bit-for-bit, since all three stages are elementwise per row.
    pub fn matmul_bias_rowapply_into(
        &self,
        other: &Matrix,
        bias: Option<&Matrix>,
        out: &mut Matrix,
        mut row_finish: impl FnMut(&mut [f64]),
    ) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        assert_eq!(
            (out.rows, out.cols),
            (m, n),
            "matmul_bias_rowapply_into output shape mismatch"
        );
        if let Some(b) = bias {
            assert_eq!(
                (b.rows, b.cols),
                (1, n),
                "bias must be 1x{n}, got {}x{}",
                b.rows,
                b.cols
            );
        }
        kernels::active().matmul_bias_rowapply(
            &self.data,
            &other.data,
            bias.map(|b| b.data.as_slice()),
            &mut out.data,
            m,
            k,
            n,
            &mut row_finish,
        );
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// This is the back-propagation kernel `dX = dY * W^T`.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_b_into(other, &mut out);
        out
    }

    /// Output-parameter `self * other^T`. `out` must be
    /// `self.rows() x other.rows()`; contents are overwritten. Bit-identical
    /// to [`Matrix::matmul_transpose_b`].
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        assert_eq!(
            (out.rows, out.cols),
            (m, n),
            "matmul_transpose_b_into output shape mismatch"
        );
        kernels::active().matmul_tb(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// This is the back-propagation kernel `dW = X^T * dY`.
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_a_matmul_into(other, &mut out);
        out
    }

    /// Output-parameter `self^T * other`. `out` must be
    /// `self.cols() x other.cols()`; contents are overwritten. Bit-identical
    /// to [`Matrix::transpose_a_matmul`].
    pub fn transpose_a_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_a_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        assert_eq!(
            (out.rows, out.cols),
            (m, n),
            "transpose_a_matmul_into output shape mismatch"
        );
        kernels::active().ta_matmul(&self.data, &other.data, &mut out.data, k, m, n);
    }

    /// The seed implementation's matmul kernel (cache-blocked i-k-j, no
    /// width specialization). Kept verbatim so the train-step benchmark can
    /// measure the original code as its baseline.
    #[doc(hidden)]
    #[allow(clippy::needless_range_loop)] // index-based blocking is the kernel's shape
    pub fn matmul_reference_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        assert_eq!((out.rows, out.cols), (m, n), "output shape mismatch");
        out.data.fill(0.0);
        for ib in (0..m).step_by(MATMUL_BLOCK) {
            let imax = (ib + MATMUL_BLOCK).min(m);
            for kb in (0..k).step_by(MATMUL_BLOCK) {
                let kmax = (kb + MATMUL_BLOCK).min(k);
                for i in ib..imax {
                    let arow = &self.data[i * k..(i + 1) * k];
                    let orow = &mut out.data[i * n..(i + 1) * n];
                    for kk in kb..kmax {
                        let a = arow[kk];
                        if a == 0.0 {
                            continue;
                        }
                        let brow = &other.data[kk * n..(kk + 1) * n];
                        for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
    }

    /// The seed implementation's `self * otherᵀ` kernel (one latency-bound
    /// dot product per output element). Benchmark baseline only.
    #[doc(hidden)]
    pub fn matmul_transpose_b_reference_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_transpose_b shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        assert_eq!((out.rows, out.cols), (m, n), "output shape mismatch");
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&a, &b) in arow.iter().zip(brow.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    }

    /// Matrix-vector product `self * v` where `v.len() == self.cols()`.
    #[allow(clippy::needless_range_loop)]
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec length mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Allocation-free matrix-vector product: `out = self * v`. Bit-identical
    /// to [`Matrix::matvec`].
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "matvec length mismatch");
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row(i).iter().zip(v.iter()).map(|(&a, &b)| a * b).sum();
        }
    }

    /// Allocation-free transposed matrix-vector product: `out = selfᵀ * v`
    /// (`v.len() == self.rows()`, `out.len() == self.cols()`), without
    /// materializing the transpose. Bit-identical to
    /// `self.transpose().matvec(v)` for the shapes the NNLS solver uses
    /// (each output element accumulates top-to-bottom over the rows in both
    /// formulations).
    pub fn transpose_matvec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.rows, "transpose_matvec length mismatch");
        assert_eq!(
            out.len(),
            self.cols,
            "transpose_matvec output length mismatch"
        );
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.col_iter(j).zip(v.iter()).map(|(a, &b)| a * b).sum();
        }
    }

    /// Horizontally concatenates matrices with equal row counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols of no matrices");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols row mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let orow = out.row_mut(i);
            let mut offset = 0;
            for p in parts {
                orow[offset..offset + p.cols].copy_from_slice(p.row(i));
                offset += p.cols;
            }
        }
        out
    }

    /// Vertically stacks matrices with equal column counts.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows of no matrices");
        let cols = parts[0].cols;
        let rows = parts
            .iter()
            .map(|p| {
                assert_eq!(p.cols, cols, "concat_rows column mismatch");
                p.rows
            })
            .sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for p in parts {
            out.data[offset..offset + p.data.len()].copy_from_slice(&p.data);
            offset += p.data.len();
        }
        out
    }

    /// Copies the half-open column range `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, end.saturating_sub(start));
        self.slice_cols_into(start, end, &mut out);
        out
    }

    /// Output-parameter column slice; `out` must be
    /// `self.rows() x (end - start)`. Bit-identical to
    /// [`Matrix::slice_cols`].
    pub fn slice_cols_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols range out of bounds"
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, end - start),
            "slice_cols_into output shape mismatch"
        );
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..end]);
        }
    }

    /// Copies the rows with the given indices into a new matrix (gather).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "row index {src} out of bounds");
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Maximum absolute difference from `other`; useful in tests.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d])
    }

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Matrix::filled(3, 2, 1.5);
        assert!(f.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let i = Matrix::eye(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]])
        );
    }

    #[test]
    fn matmul_transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f64 * 0.3 - 2.0);
        let b = Matrix::from_fn(4, 7, |i, j| (i as f64 - j as f64) * 0.11);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_transpose_b(&b);
        assert!(via_t.max_abs_diff(&direct) < 1e-12);

        let c = Matrix::from_fn(5, 3, |i, j| ((i + 2) * (j + 1)) as f64 * 0.05);
        let via_t2 = a.transpose().matmul(&c);
        let direct2 = a.transpose_a_matmul(&c);
        assert!(via_t2.max_abs_diff(&direct2) < 1e-12);
    }

    #[test]
    fn matmul_blocked_matches_naive_on_larger_sizes() {
        // Exercise the blocking logic across block boundaries.
        let a = Matrix::from_fn(130, 70, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(70, 90, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.25);
        let c = a.matmul(&b);
        // Naive reference.
        let mut r = Matrix::zeros(130, 90);
        for i in 0..130 {
            for j in 0..90 {
                let mut acc = 0.0;
                for k in 0..70 {
                    acc += a[(i, k)] * b[(k, j)];
                }
                r[(i, j)] = acc;
            }
        }
        assert!(c.max_abs_diff(&r) < 1e-9);
    }

    #[test]
    fn fused_linear_kernel_matches_unfused_chain_bitwise() {
        // Cover both the n == 8 register kernel and the general path, with
        // and without bias.
        for (m, k, n) in [(5, 3, 8), (64, 40, 8), (4, 8, 40), (7, 28, 16), (1, 8, 1)] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 13 + j * 7) % 19) as f64 * 0.21 - 1.7);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 11) % 17) as f64 * 0.13 - 0.9);
            let bias = Matrix::from_fn(1, n, |_, j| j as f64 * 0.3 - 1.0);
            let act = |v: f64| if v > 0.0 { 2.0 * v } else { v * v };

            for with_bias in [false, true] {
                let mut reference = a.matmul(&b);
                if with_bias {
                    reference = reference.broadcast_add_row(&bias);
                }
                reference = reference.map(act);

                let mut fused = Matrix::zeros(m, n);
                a.matmul_bias_rowapply_into(&b, with_bias.then_some(&bias), &mut fused, |row| {
                    for v in row.iter_mut() {
                        *v = act(*v);
                    }
                });
                assert_eq!(fused, reference, "m={m} k={k} n={n} bias={with_bias}");
            }
        }
    }

    #[test]
    fn broadcast_add_row_and_sum_rows_are_adjoint_shapes() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let y = x.broadcast_add_row(&b);
        assert_eq!(y[(0, 0)], 11.0);
        assert_eq!(y[(2, 1)], 26.0);
        let s = x.sum_rows();
        assert_eq!(s, Matrix::row_vector(&[9.0, 12.0]));
        let mr = x.mean_rows();
        assert_eq!(mr, Matrix::row_vector(&[3.0, 4.0]));
    }

    #[test]
    fn elementwise_ops() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        assert_eq!(a.add(&b), m22(6.0, 8.0, 10.0, 12.0));
        assert_eq!(b.sub(&a), m22(4.0, 4.0, 4.0, 4.0));
        assert_eq!(a.hadamard(&b), m22(5.0, 12.0, 21.0, 32.0));
        assert_eq!(a.scale(2.0), m22(2.0, 4.0, 6.0, 8.0));
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c, m22(3.5, 5.0, 6.5, 8.0));
    }

    #[test]
    fn reductions() {
        let a = m22(1.0, -2.0, 3.0, -4.0);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -4.0);
        assert!((a.frobenius_norm() - (30.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0], vec![6.0]]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);

        let v = Matrix::concat_rows(&[&a, &a]);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(3), &[3.0, 4.0]);
    }

    #[test]
    fn select_rows_gathers() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let g = a.select_rows(&[2, 0, 2]);
        assert_eq!(g, Matrix::from_rows(&[vec![3.0], vec![1.0], vec![3.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = a.matvec(&[10.0, 100.0]);
        assert_eq!(v, vec![210.0, 430.0]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    fn mapped_matrix_is_bit_identical_to_owned_under_kernels() {
        use std::io::Write;

        let owned = Matrix::from_fn(6, 8, |i, j| ((i * 8 + j) as f64).sin() * 3.7);
        let path = std::env::temp_dir().join(format!("bellamy-matrix-map-{}", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        for v in owned.as_slice() {
            f.write_all(&v.to_le_bytes()).unwrap();
        }
        f.sync_all().unwrap();
        let map = Arc::new(Mmap::map(&std::fs::File::open(&path).unwrap()).unwrap());
        // A shape whose element count wraps to 0 must not pass as an empty
        // window.
        assert!(Matrix::from_mapped(1 << 32, 1 << 32, Arc::clone(&map), 0).is_err());
        let mapped = Matrix::from_mapped(6, 8, map, 0).unwrap();

        assert!(mapped.is_mapped());
        assert_eq!(mapped, owned);

        // The kernels see a plain &[f64] either way; products must agree
        // bitwise.
        let rhs = Matrix::from_fn(8, 8, |i, j| ((i + 1) * (j + 2)) as f64 * 0.017 - 0.4);
        let prod_owned = owned.matmul(&rhs);
        let prod_mapped = mapped.matmul(&rhs);
        for (a, b) in prod_owned.as_slice().iter().zip(prod_mapped.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Clones materialize: mutating a clone of a mapped matrix is fine.
        let mut clone = mapped.clone();
        assert!(!clone.is_mapped());
        clone.fill(0.0);

        std::fs::remove_file(&path).ok();
    }
}
