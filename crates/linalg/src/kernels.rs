//! SIMD `f64x4` microkernels behind one-time runtime dispatch.
//!
//! # Dispatch table
//!
//! Every hot slice-level kernel (the matmul family, `axpy`, the elementwise
//! arithmetic) exists in two implementations: a scalar reference that is
//! always available and an AVX2 `__m256d` one on `x86_64`. A
//! [`KernelTable`] bundles one full set as plain function pointers; the
//! active table is resolved **once per process** (cached in a
//! [`OnceLock`]) from:
//!
//! 1. the `BELLAMY_KERNEL` environment variable — `scalar` forces the
//!    reference kernels, `auto` (or unset) picks the best available table;
//!    any other value is reported once on stderr and runs as `auto`;
//! 2. runtime CPU feature detection (`is_x86_feature_detected!("avx2")`).
//!    Without AVX2, and on every other architecture, `auto` runs the
//!    scalar kernels.
//!
//! [`resolution()`] records what was requested and what resolved.
//!
//! [`Matrix`](crate::Matrix) routes its kernels through [`active()`], so
//! every layer above — `nn::Linear`, the autograd tape's fused linear op,
//! `core::Predictor`, the `Pretrainer` — inherits the fast path with zero
//! call-site changes. Steady-state dispatch is one atomic load plus an
//! indirect call; nothing allocates.
//!
//! # Bit-identity contract
//!
//! The AVX2 kernels are **bit-identical** to their scalar counterparts, not
//! merely deterministic:
//!
//! - no FMA contraction — every `a * b + c` stays a rounded multiply
//!   followed by a rounded add, exactly as the scalar code computes it;
//! - identical per-element accumulation order — vector lanes span the
//!   *output* (columns) or replicate the scalar code's existing fixed
//!   4-way-split reduction, so each output element sees its additions in
//!   the same sequence on every backend;
//! - identical NaN and ±0 semantics, including the scalar kernels' sparse
//!   `a == 0.0` skips;
//! - ragged tails (`cols % 4 != 0`) run the scalar epilogue on the same
//!   values.
//!
//! Backend choice therefore never changes a single bit of any result: the
//! reproduction tests pass bit for bit under `BELLAMY_KERNEL=scalar` and
//! `=auto`, and which backend trained a checkpoint never shows in its
//! weights.
//!
//! # Alignment
//!
//! [`Matrix`](crate::Matrix) and [`BufferPool`](crate::BufferPool) back
//! their storage with [`AlignedBuf`](crate::AlignedBuf), so row 0 of every
//! operand starts on a 32-byte boundary. The kernels use unaligned
//! loads/stores (`loadu`/`storeu`) because interior rows of odd-width
//! matrices are not chunk-aligned, but thanks to the aligned base the
//! dominant shapes (the width-8 layer kernels) split no cache lines.

use std::sync::OnceLock;

/// Which kernel family is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernels (always available; the reproduction
    /// baseline).
    Scalar,
    /// AVX2 `f64x4` vector kernels, bit-identical to scalar.
    Simd,
}

impl Backend {
    /// Human-readable backend name, recorded in bench snapshots:
    /// `"scalar"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "avx2",
        }
    }
}

/// `out = a · b` for row-major `a: m×k`, `b: k×n`, `out: m×n`.
type MatmulFn = fn(&[f64], &[f64], &mut [f64], usize, usize, usize);
/// `out = finish(a · b + bias)` with the finish pass applied per row.
type MatmulBiasRowapplyFn =
    fn(&[f64], &[f64], Option<&[f64]>, &mut [f64], usize, usize, usize, &mut dyn FnMut(&mut [f64]));
/// `y += alpha · x`.
type AxpyFn = fn(f64, &[f64], &mut [f64]);
/// `out = lhs ∘ rhs` elementwise.
type BinaryFn = fn(&[f64], &[f64], &mut [f64]);
/// `out = alpha · a` elementwise.
type ScaleFn = fn(&[f64], f64, &mut [f64]);

/// One complete kernel set. Obtain via [`active()`], [`scalar()`], or
/// [`simd()`]; all entry points are bit-identical across tables (see the
/// module docs).
pub struct KernelTable {
    backend: Backend,
    matmul: MatmulFn,
    matmul_tb: MatmulFn,
    ta_matmul: MatmulFn,
    matmul_bias_rowapply: MatmulBiasRowapplyFn,
    axpy: AxpyFn,
    add: BinaryFn,
    sub: BinaryFn,
    mul: BinaryFn,
    scale: ScaleFn,
}

impl KernelTable {
    /// The backend this table executes on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `out = a · b` (`a: m×k`, `b: k×n`, `out: m×n`, all row-major).
    #[inline]
    pub fn matmul(&self, a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        check_shape(a.len(), m, k);
        check_shape(b.len(), k, n);
        check_shape(out.len(), m, n);
        (self.matmul)(a, b, out, m, k, n);
    }

    /// `out = a · bᵀ` (`a: m×k`, `b: n×k`, `out: m×n`).
    #[inline]
    pub fn matmul_tb(&self, a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        check_shape(a.len(), m, k);
        check_shape(b.len(), n, k);
        check_shape(out.len(), m, n);
        (self.matmul_tb)(a, b, out, m, k, n);
    }

    /// `out = aᵀ · b` (`a: k×m`, `b: k×n`, `out: m×n`).
    #[inline]
    pub fn ta_matmul(&self, a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        check_shape(a.len(), k, m);
        check_shape(b.len(), k, n);
        check_shape(out.len(), m, n);
        (self.ta_matmul)(a, b, out, k, m, n);
    }

    /// Fused `out = row_finish(a · b + bias)`: the broadcast bias add and the
    /// per-row finish pass happen while each output row is still hot.
    /// `row_finish` is invoked once per row, in row order.
    #[inline]
    #[allow(clippy::too_many_arguments)] // mirrors the kernel signature
    pub fn matmul_bias_rowapply(
        &self,
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        check_shape(a.len(), m, k);
        check_shape(b.len(), k, n);
        check_shape(out.len(), m, n);
        if let Some(bias) = bias {
            check_shape(bias.len(), 1, n);
        }
        (self.matmul_bias_rowapply)(a, b, bias, out, m, k, n, row_finish);
    }

    /// `y += alpha · x`. With `alpha == 1.0` no multiply is performed
    /// (bit-compatible with a plain add).
    #[inline]
    pub fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        check_same_len(x.len(), y.len(), y.len());
        (self.axpy)(alpha, x, y);
    }

    /// `out[i] = a[i] + b[i]`.
    #[inline]
    pub fn add(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        check_same_len(a.len(), b.len(), out.len());
        (self.add)(a, b, out);
    }

    /// `out[i] = a[i] - b[i]`.
    #[inline]
    pub fn sub(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        check_same_len(a.len(), b.len(), out.len());
        (self.sub)(a, b, out);
    }

    /// `out[i] = a[i] * b[i]` (Hadamard).
    #[inline]
    pub fn mul(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        check_same_len(a.len(), b.len(), out.len());
        (self.mul)(a, b, out);
    }

    /// `out[i] = a[i] * alpha`.
    #[inline]
    pub fn scale(&self, a: &[f64], alpha: f64, out: &mut [f64]) {
        check_same_len(a.len(), out.len(), out.len());
        (self.scale)(a, alpha, out);
    }
}

/// Panics unless an operand of `len` elements is `rows × cols`. The
/// product is checked, so a shape whose product wraps matches no length.
/// The AVX2 kernels address their operands through raw pointers derived
/// from the shape, so this check, in every build, is what keeps a safe
/// call with a wrong shape from reading or writing out of bounds.
#[inline]
#[track_caller]
fn check_shape(len: usize, rows: usize, cols: usize) {
    assert!(
        rows.checked_mul(cols) == Some(len),
        "kernel operand of length {len} is not {rows}x{cols}"
    );
}

/// Panics unless three elementwise operands have one length (the AVX2
/// kernels walk all three by the first one's length).
#[inline]
#[track_caller]
fn check_same_len(a: usize, b: usize, out: usize) {
    assert!(
        a == b && b == out,
        "kernel operand lengths differ: {a}, {b}, {out}"
    );
}

static SCALAR_TABLE: KernelTable = KernelTable {
    backend: Backend::Scalar,
    matmul: scalar::matmul,
    matmul_tb: scalar::matmul_tb,
    ta_matmul: scalar::ta_matmul,
    matmul_bias_rowapply: scalar::matmul_bias_rowapply,
    axpy: scalar::axpy,
    add: scalar::add,
    sub: scalar::sub,
    mul: scalar::mul,
    scale: scalar::scale,
};

#[cfg(target_arch = "x86_64")]
static SIMD_TABLE: KernelTable = KernelTable {
    backend: Backend::Simd,
    matmul: avx2::matmul,
    matmul_tb: avx2::matmul_tb,
    ta_matmul: avx2::ta_matmul,
    matmul_bias_rowapply: avx2::matmul_bias_rowapply,
    axpy: avx2::axpy,
    add: avx2::add,
    sub: avx2::sub,
    mul: avx2::mul,
    scale: avx2::scale,
};

/// The always-available scalar kernel set.
pub fn scalar() -> &'static KernelTable {
    &SCALAR_TABLE
}

/// The bit-identical AVX2 kernel set, when this CPU supports it (`None`
/// otherwise). Ignores `BELLAMY_KERNEL`; tests use this to exercise the
/// SIMD path explicitly regardless of the process-wide selection.
pub fn simd() -> Option<&'static KernelTable> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(&SIMD_TABLE);
        }
    }
    None
}

/// What `BELLAMY_KERNEL` asked the dispatch layer for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierRequest {
    /// The best available table (the default).
    Auto,
    /// Force the scalar reference kernels.
    Scalar,
}

impl TierRequest {
    /// The request's spelling, as accepted by `BELLAMY_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            TierRequest::Auto => "auto",
            TierRequest::Scalar => "scalar",
        }
    }

    /// Parses a `BELLAMY_KERNEL` value: `auto` or `scalar`; anything else
    /// is `None`.
    fn parse(value: &str) -> Option<TierRequest> {
        match value {
            "auto" => Some(TierRequest::Auto),
            "scalar" => Some(TierRequest::Scalar),
            _ => None,
        }
    }
}

/// Where the winning [`TierRequest`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestSource {
    /// Nothing was requested; auto-detection picked the backend.
    Default,
    /// The `BELLAMY_KERNEL` environment variable.
    Env,
}

/// The outcome of the one-time kernel dispatch: what was asked for, where
/// the request came from, and what actually resolved (surfaced through
/// `BatcherStats` and the bench snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The winning request.
    pub requested: TierRequest,
    /// Where the winning request came from.
    pub source: RequestSource,
    /// The backend that actually resolved.
    pub backend: Backend,
}

impl Resolution {
    /// The request's name (`"auto"` or `"scalar"`).
    pub fn requested_name(&self) -> &'static str {
        self.requested.name()
    }

    /// The resolved backend's name (see [`Backend::name`]).
    pub fn resolved_name(&self) -> &'static str {
        self.backend.name()
    }
}

struct Resolved {
    table: &'static KernelTable,
    resolution: Resolution,
}

static ACTIVE: OnceLock<Resolved> = OnceLock::new();

/// Resolves `BELLAMY_KERNEL` and the backend it lands on; runs exactly
/// once, so an unknown value is reported once.
fn resolve() -> Resolved {
    let (requested, source) = match std::env::var("BELLAMY_KERNEL") {
        Err(_) => (TierRequest::Auto, RequestSource::Default),
        Ok(value) => {
            let requested = TierRequest::parse(&value).unwrap_or_else(|| {
                eprintln!(
                    "unknown BELLAMY_KERNEL value {value:?} (expected auto|scalar); using auto"
                );
                TierRequest::Auto
            });
            (requested, RequestSource::Env)
        }
    };
    let table = match requested {
        TierRequest::Scalar => scalar(),
        TierRequest::Auto => simd().unwrap_or(scalar()),
    };
    Resolved {
        table,
        resolution: Resolution {
            requested,
            source,
            backend: table.backend,
        },
    }
}

/// The process-wide kernel table, resolved once from `BELLAMY_KERNEL` and
/// CPU feature detection (see the module docs). Steady-state cost: one
/// atomic load.
#[inline]
pub fn active() -> &'static KernelTable {
    ACTIVE.get_or_init(resolve).table
}

/// The one-time dispatch outcome: requested vs resolved (see
/// [`Resolution`]). Forces resolution on first call, like [`active()`].
pub fn resolution() -> Resolution {
    ACTIVE.get_or_init(resolve).resolution
}

/// The active backend (see [`active()`]).
#[inline]
pub fn active_backend() -> Backend {
    active().backend
}

/// The active backend's name: `"scalar"` or `"avx2"`. Recorded in every
/// `BENCH_*.json` so the perf trajectory distinguishes scalar-container
/// runs from vectorized hardware.
pub fn backend_name() -> &'static str {
    active_backend().name()
}

/// Block edge for the cache-blocked matmul kernels. Matrices in this
/// workspace are small; 64 keeps the working set of a block pair within L1.
const MATMUL_BLOCK: usize = 64;

/// Stack-buffer budget (in `f64`s) for materializing `bᵀ` in the
/// `a · bᵀ` kernels; covers every weight shape in this workspace.
const STACK_BT: usize = 4096;

/// The portable scalar kernels (the pre-SIMD `Matrix` loop bodies, moved
/// here verbatim so both backends live side by side).
mod scalar {
    use super::{MATMUL_BLOCK, STACK_BT};

    pub(super) fn matmul(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // Specialized register-accumulator kernel for the narrow outputs
        // that dominate this workspace (hidden width 8): the whole output
        // row lives in registers across the k loop.
        if n == 8 && k > 0 {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let mut acc = [0.0f64; 8];
                for (kk, &av) in arow.iter().enumerate() {
                    let brow = &b[kk * 8..kk * 8 + 8];
                    for j in 0..8 {
                        acc[j] += av * brow[j];
                    }
                }
                out[i * 8..i * 8 + 8].copy_from_slice(&acc);
            }
            return;
        }
        out.fill(0.0);
        for ib in (0..m).step_by(MATMUL_BLOCK) {
            let imax = (ib + MATMUL_BLOCK).min(m);
            for kb in (0..k).step_by(MATMUL_BLOCK) {
                let kmax = (kb + MATMUL_BLOCK).min(k);
                for i in ib..imax {
                    let arow = &a[i * k..(i + 1) * k];
                    let orow = &mut out[i * n..(i + 1) * n];
                    for kk in kb..kmax {
                        let av = arow[kk];
                        if av == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n..(kk + 1) * n];
                        for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    pub(super) fn matmul_bias_rowapply(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        if n == 8 && k > 0 {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let mut acc = [0.0f64; 8];
                for (kk, &av) in arow.iter().enumerate() {
                    let brow = &b[kk * 8..kk * 8 + 8];
                    for j in 0..8 {
                        acc[j] += av * brow[j];
                    }
                }
                if let Some(bv) = bias {
                    for (av, &biasv) in acc.iter_mut().zip(bv.iter()) {
                        *av += biasv;
                    }
                }
                row_finish(&mut acc);
                out[i * 8..i * 8 + 8].copy_from_slice(&acc);
            }
            return;
        }
        matmul(a, b, out, m, k, n);
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            if let Some(bv) = bias {
                for (o, &biasv) in orow.iter_mut().zip(bv.iter()) {
                    *o += biasv;
                }
            }
            row_finish(orow);
        }
    }

    pub(super) fn matmul_tb(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // This is the hottest backward kernel (dX = dY·Wᵀ). For the weight
        // shapes of this workspace, materialize Wᵀ in a stack buffer and run
        // the cache-friendly i-k-j row-axpy form: long independent adds
        // vectorize, unlike a latency-bound dot product per element.
        if k * n <= STACK_BT && k > 0 {
            let mut bt = [0.0f64; STACK_BT];
            for (j, brow) in b.chunks_exact(k).enumerate() {
                for (kk, &bv) in brow.iter().enumerate() {
                    bt[kk * n + j] = bv;
                }
            }
            if n == 8 {
                // Register-accumulator variant (as in `matmul`).
                for i in 0..m {
                    let arow = &a[i * k..(i + 1) * k];
                    let mut acc = [0.0f64; 8];
                    for (kk, &av) in arow.iter().enumerate() {
                        let btrow = &bt[kk * 8..kk * 8 + 8];
                        for j in 0..8 {
                            acc[j] += av * btrow[j];
                        }
                    }
                    out[i * 8..i * 8 + 8].copy_from_slice(&acc);
                }
                return;
            }
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                orow.fill(0.0);
                for (kk, &av) in arow.iter().enumerate() {
                    let btrow = &bt[kk * n..(kk + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(btrow.iter()) {
                        *o += av * bv;
                    }
                }
            }
            return;
        }
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                // Four independent accumulators break the FP add dependency
                // chain.
                let mut acc = [0.0f64; 4];
                let mut a4 = arow.chunks_exact(4);
                let mut b4 = brow.chunks_exact(4);
                for (ac, bc) in (&mut a4).zip(&mut b4) {
                    acc[0] += ac[0] * bc[0];
                    acc[1] += ac[1] * bc[1];
                    acc[2] += ac[2] * bc[2];
                    acc[3] += ac[3] * bc[3];
                }
                let mut tail = 0.0;
                for (&av, &bv) in a4.remainder().iter().zip(b4.remainder()) {
                    tail += av * bv;
                }
                *o = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
            }
        }
    }

    pub(super) fn ta_matmul(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        out.fill(0.0);
        // Tile the shared (row) dimension by 4: each pass over `out` folds
        // four rank-1 updates, quartering memory traffic on the hot
        // dW = Xᵀ·dY backward kernel.
        let tiles = k / 4 * 4;
        for r in (0..tiles).step_by(4) {
            let at = &a[r * m..(r + 4) * m];
            let bt = &b[r * n..(r + 4) * n];
            for i in 0..m {
                let (x0, x1, x2, x3) = (at[i], at[m + i], at[2 * m + i], at[3 * m + i]);
                let orow = &mut out[i * n..(i + 1) * n];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o += x0 * bt[j] + x1 * bt[n + j] + x2 * bt[2 * n + j] + x3 * bt[3 * n + j];
                }
            }
        }
        for r in tiles..k {
            let arow = &a[r * m..(r + 1) * m];
            let brow = &b[r * n..(r + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        if alpha == 1.0 {
            // Bit-compatibility with a plain add: no multiply by one.
            for (yv, &xv) in y.iter_mut().zip(x.iter()) {
                *yv += xv;
            }
        } else {
            for (yv, &xv) in y.iter_mut().zip(x.iter()) {
                *yv += alpha * xv;
            }
        }
    }

    pub(super) fn add(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, &av), &bv) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = av + bv;
        }
    }

    pub(super) fn sub(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, &av), &bv) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = av - bv;
        }
    }

    pub(super) fn mul(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((o, &av), &bv) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = av * bv;
        }
    }

    pub(super) fn scale(a: &[f64], alpha: f64, out: &mut [f64]) {
        for (o, &av) in out.iter_mut().zip(a.iter()) {
            *o = av * alpha;
        }
    }
}

/// AVX2 `f64x4` kernels. Every `pub(super)` function here is a safe wrapper
/// around a `#[target_feature(enable = "avx2")]` body, and the bodies rely
/// on two invariants:
///
/// 1. *AVX2 is present.* The wrappers are reachable only through
///    [`SIMD_TABLE`], which [`simd()`] hands out strictly after
///    `is_x86_feature_detected!("avx2")` succeeded.
/// 2. *Each slice is as long as its shape says* (`a: m×k`, `b: k×n`,
///    `out: m×n`, or equal lengths for the elementwise kernels). The bodies
///    form raw pointers from the dimension arguments. The [`KernelTable`]
///    entry points, the only way to reach these wrappers, `assert!` every
///    length against its shape with checked products, in release builds
///    too (`entry_points_reject_mismatched_lengths` drives each one).
///
/// See the module docs for the bit-identity argument (no FMA, scalar
/// accumulation order preserved).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MATMUL_BLOCK, STACK_BT};
    use std::arch::x86_64::*;

    pub(super) fn matmul(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // SAFETY: AVX2 is present and `a: m×k`, `b: k×n`, `out: m×n`
        // (invariants 1 and 2 of the module).
        unsafe { matmul_impl(a, b, out, m, k, n) }
    }

    pub(super) fn matmul_tb(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        // SAFETY: AVX2 is present and `a: m×k`, `b: n×k`, `out: m×n`
        // (invariants 1 and 2 of the module).
        unsafe { matmul_tb_impl(a, b, out, m, k, n) }
    }

    pub(super) fn ta_matmul(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        // SAFETY: AVX2 is present and `a: k×m`, `b: k×n`, `out: m×n`
        // (invariants 1 and 2 of the module).
        unsafe { ta_matmul_impl(a, b, out, k, m, n) }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    pub(super) fn matmul_bias_rowapply(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        // SAFETY: AVX2 is present, `a: m×k`, `b: k×n`, `out: m×n` and a
        // bias holds `n` values (invariants 1 and 2 of the module).
        unsafe { matmul_bias_rowapply_impl(a, b, bias, out, m, k, n, row_finish) }
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: AVX2 is present and `x.len() == y.len()` (invariants 1
        // and 2 of the module).
        unsafe { axpy_impl(alpha, x, y) }
    }

    pub(super) fn add(a: &[f64], b: &[f64], out: &mut [f64]) {
        // SAFETY: AVX2 is present and `a`, `b` and `out` have equal
        // lengths (invariants 1 and 2 of the module).
        unsafe { add_impl(a, b, out) }
    }

    pub(super) fn sub(a: &[f64], b: &[f64], out: &mut [f64]) {
        // SAFETY: AVX2 is present and `a`, `b` and `out` have equal
        // lengths (invariants 1 and 2 of the module).
        unsafe { sub_impl(a, b, out) }
    }

    pub(super) fn mul(a: &[f64], b: &[f64], out: &mut [f64]) {
        // SAFETY: AVX2 is present and `a`, `b` and `out` have equal
        // lengths (invariants 1 and 2 of the module).
        unsafe { mul_impl(a, b, out) }
    }

    pub(super) fn scale(a: &[f64], alpha: f64, out: &mut [f64]) {
        // SAFETY: AVX2 is present and `a.len() == out.len()` (invariants 1
        // and 2 of the module).
        unsafe { scale_impl(a, alpha, out) }
    }

    /// The width-8 register kernel shared by `matmul` and the stack-`bᵀ`
    /// path of `matmul_tb`: four output rows per pass reuse each loaded
    /// 8-wide `b` row, quartering load traffic (8 accumulators + 2 `b`
    /// halves + 1 broadcast stay within the 16 ymm registers).
    /// Accumulation per output element stays in ascending-`kk` order, so
    /// this is bit-identical to the scalar register kernel. `finish`
    /// post-processes each completed row (bias + activation) on a stack
    /// buffer before it is stored, in row order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `a.len() >= m * k` and `b.len() >= k * 8`
    /// (`out` is indexed through checked slices).
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_n8(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        m: usize,
        k: usize,
        mut finish: impl FnMut(&mut [f64; 8]),
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0;
        while i + 4 <= m {
            let ar0 = ap.add(i * k);
            let ar1 = ap.add((i + 1) * k);
            let ar2 = ap.add((i + 2) * k);
            let ar3 = ap.add((i + 3) * k);
            let mut acc00 = _mm256_setzero_pd();
            let mut acc01 = _mm256_setzero_pd();
            let mut acc10 = _mm256_setzero_pd();
            let mut acc11 = _mm256_setzero_pd();
            let mut acc20 = _mm256_setzero_pd();
            let mut acc21 = _mm256_setzero_pd();
            let mut acc30 = _mm256_setzero_pd();
            let mut acc31 = _mm256_setzero_pd();
            for kk in 0..k {
                let b0 = _mm256_loadu_pd(bp.add(kk * 8));
                let b1 = _mm256_loadu_pd(bp.add(kk * 8 + 4));
                let a0 = _mm256_set1_pd(*ar0.add(kk));
                acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(a0, b0));
                acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(a0, b1));
                let a1 = _mm256_set1_pd(*ar1.add(kk));
                acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(a1, b0));
                acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(a1, b1));
                let a2 = _mm256_set1_pd(*ar2.add(kk));
                acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(a2, b0));
                acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(a2, b1));
                let a3 = _mm256_set1_pd(*ar3.add(kk));
                acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(a3, b0));
                acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(a3, b1));
            }
            let mut row = [0.0f64; 8];
            for (r, (lo, hi)) in [
                (acc00, acc01),
                (acc10, acc11),
                (acc20, acc21),
                (acc30, acc31),
            ]
            .into_iter()
            .enumerate()
            {
                _mm256_storeu_pd(row.as_mut_ptr(), lo);
                _mm256_storeu_pd(row.as_mut_ptr().add(4), hi);
                finish(&mut row);
                out[(i + r) * 8..(i + r) * 8 + 8].copy_from_slice(&row);
            }
            i += 4;
        }
        while i + 2 <= m {
            let ar0 = ap.add(i * k);
            let ar1 = ap.add((i + 1) * k);
            let mut acc00 = _mm256_setzero_pd();
            let mut acc01 = _mm256_setzero_pd();
            let mut acc10 = _mm256_setzero_pd();
            let mut acc11 = _mm256_setzero_pd();
            for kk in 0..k {
                let b0 = _mm256_loadu_pd(bp.add(kk * 8));
                let b1 = _mm256_loadu_pd(bp.add(kk * 8 + 4));
                let a0 = _mm256_set1_pd(*ar0.add(kk));
                let a1 = _mm256_set1_pd(*ar1.add(kk));
                acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(a0, b0));
                acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(a0, b1));
                acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(a1, b0));
                acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(a1, b1));
            }
            let mut row = [0.0f64; 8];
            _mm256_storeu_pd(row.as_mut_ptr(), acc00);
            _mm256_storeu_pd(row.as_mut_ptr().add(4), acc01);
            finish(&mut row);
            out[i * 8..i * 8 + 8].copy_from_slice(&row);
            _mm256_storeu_pd(row.as_mut_ptr(), acc10);
            _mm256_storeu_pd(row.as_mut_ptr().add(4), acc11);
            finish(&mut row);
            out[(i + 1) * 8..(i + 1) * 8 + 8].copy_from_slice(&row);
            i += 2;
        }
        if i < m {
            let ar = ap.add(i * k);
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for kk in 0..k {
                let av = _mm256_set1_pd(*ar.add(kk));
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(bp.add(kk * 8))));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(av, _mm256_loadu_pd(bp.add(kk * 8 + 4))));
            }
            let mut row = [0.0f64; 8];
            _mm256_storeu_pd(row.as_mut_ptr(), acc0);
            _mm256_storeu_pd(row.as_mut_ptr().add(4), acc1);
            finish(&mut row);
            out[i * 8..i * 8 + 8].copy_from_slice(&row);
        }
    }

    /// `orow[j..] += av * brow[j..]` with a scalar ragged tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `brow` must be valid for `n` reads and
    /// `orow` for `n` reads and writes.
    #[target_feature(enable = "avx2")]
    unsafe fn row_axpy(av: f64, brow: *const f64, orow: *mut f64, n: usize) {
        let avv = _mm256_set1_pd(av);
        let mut j = 0;
        while j + 4 <= n {
            let o = _mm256_loadu_pd(orow.add(j));
            let bv = _mm256_loadu_pd(brow.add(j));
            _mm256_storeu_pd(orow.add(j), _mm256_add_pd(o, _mm256_mul_pd(avv, bv)));
            j += 4;
        }
        while j < n {
            *orow.add(j) += av * *brow.add(j);
            j += 1;
        }
    }

    /// Width-4 register kernel: one `__m256d` accumulator holds the whole
    /// output row, so the inner loop never touches `out` memory. The
    /// encoder matmuls (`batch x F` times `F x 4` property codes) dominate
    /// the predict forward and land exactly here. Replicates the scalar
    /// general path bit for bit: ascending-`kk` accumulation from a zeroed
    /// row, including the `av == 0.0` skip.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `a.len() >= m * k`, `b.len() >= k * 4`
    /// and `out.len() >= m * 4`.
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_n4(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for i in 0..m {
            let ar = ap.add(i * k);
            let mut acc = _mm256_setzero_pd();
            for kk in 0..k {
                let av = *ar.add(kk);
                if av == 0.0 {
                    continue;
                }
                let bv = _mm256_loadu_pd(bp.add(kk * 4));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(av), bv));
            }
            _mm256_storeu_pd(op.add(i * 4), acc);
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2, `a.len() >= m * k`, `b.len() >= k * n`
    /// and `out.len() >= m * n`.
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_impl(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if n == 8 && k > 0 {
            matmul_n8(a, b, out, m, k, |_| {});
            return;
        }
        if n == 4 && k > 0 {
            matmul_n4(a, b, out, m, k);
            return;
        }
        out.fill(0.0);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for ib in (0..m).step_by(MATMUL_BLOCK) {
            let imax = (ib + MATMUL_BLOCK).min(m);
            for kb in (0..k).step_by(MATMUL_BLOCK) {
                let kmax = (kb + MATMUL_BLOCK).min(k);
                for i in ib..imax {
                    for kk in kb..kmax {
                        let av = *ap.add(i * k + kk);
                        // Same sparse skip as the scalar kernel (also needed
                        // for bit-identity: skipping ±0·b ≠ adding it when
                        // the accumulator holds -0.0).
                        if av == 0.0 {
                            continue;
                        }
                        row_axpy(av, bp.add(kk * n), op.add(i * n), n);
                    }
                }
            }
        }
    }

    /// # Safety
    ///
    /// As [`matmul_impl`], and a `bias` must hold at least `n` values.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)] // mirrors the dispatch signature
    unsafe fn matmul_bias_rowapply_impl(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        row_finish: &mut dyn FnMut(&mut [f64]),
    ) {
        if n == 8 && k > 0 {
            matmul_n8(a, b, out, m, k, |row| {
                if let Some(bv) = bias {
                    for (rv, &biasv) in row.iter_mut().zip(bv.iter()) {
                        *rv += biasv;
                    }
                }
                row_finish(row);
            });
            return;
        }
        matmul_impl(a, b, out, m, k, n);
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            if let Some(bv) = bias {
                add_assign_impl(bv, orow);
            }
            row_finish(orow);
        }
    }

    /// `y[i] += x[i]` (the bias broadcast body).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and `x.len() >= y.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn add_assign_impl(x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut j = 0;
        while j + 4 <= n {
            let s = _mm256_add_pd(_mm256_loadu_pd(yp.add(j)), _mm256_loadu_pd(xp.add(j)));
            _mm256_storeu_pd(yp.add(j), s);
            j += 4;
        }
        while j < n {
            *yp.add(j) += *xp.add(j);
            j += 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2, `a.len() >= m * k`, `b.len() >= n * k`
    /// and `out.len() >= m * n`.
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_tb_impl(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        if k * n <= STACK_BT && k > 0 {
            let mut bt = [0.0f64; STACK_BT];
            for (j, brow) in b.chunks_exact(k).enumerate() {
                for (kk, &bv) in brow.iter().enumerate() {
                    bt[kk * n + j] = bv;
                }
            }
            if n == 8 {
                matmul_n8(a, &bt[..k * 8], out, m, k, |_| {});
                return;
            }
            let ap = a.as_ptr();
            let btp = bt.as_ptr();
            let op = out.as_mut_ptr();
            for i in 0..m {
                let orow = &mut out[i * n..(i + 1) * n];
                orow.fill(0.0);
                for kk in 0..k {
                    let av = *ap.add(i * k + kk);
                    row_axpy(av, btp.add(kk * n), op.add(i * n), n);
                }
            }
            return;
        }
        // Dot-product form: one f64x4 accumulator whose lanes replicate the
        // scalar kernel's four-way split, reduced in the same fixed order
        // (lane0+lane1) + (lane2+lane3) + tail — bit-identical.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = _mm256_setzero_pd();
                let quads = k / 4 * 4;
                let mut kk = 0;
                while kk < quads {
                    let av = _mm256_loadu_pd(arow.as_ptr().add(kk));
                    let bv = _mm256_loadu_pd(brow.as_ptr().add(kk));
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
                    kk += 4;
                }
                let mut tail = 0.0;
                for (&av, &bv) in arow[quads..].iter().zip(brow[quads..].iter()) {
                    tail += av * bv;
                }
                let lo = _mm256_castpd256_pd128(acc);
                let hi = _mm256_extractf128_pd(acc, 1);
                let l0 = _mm_cvtsd_f64(lo);
                let l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
                let l2 = _mm_cvtsd_f64(hi);
                let l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
                *o = (l0 + l1) + (l2 + l3) + tail;
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2, `a.len() >= k * m`, `b.len() >= k * n`
    /// and `out.len() >= m * n`.
    #[target_feature(enable = "avx2")]
    unsafe fn ta_matmul_impl(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
        out.fill(0.0);
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let tiles = k / 4 * 4;
        for r in (0..tiles).step_by(4) {
            let at = &a[r * m..(r + 4) * m];
            for i in 0..m {
                let x0 = _mm256_set1_pd(at[i]);
                let x1 = _mm256_set1_pd(at[m + i]);
                let x2 = _mm256_set1_pd(at[2 * m + i]);
                let x3 = _mm256_set1_pd(at[3 * m + i]);
                let orow = op.add(i * n);
                let b0 = bp.add(r * n);
                let mut j = 0;
                while j + 4 <= n {
                    // Same association as the scalar tile:
                    // ((x0·b0 + x1·b1) + x2·b2) + x3·b3, then += into out.
                    let m0 = _mm256_mul_pd(x0, _mm256_loadu_pd(b0.add(j)));
                    let m1 = _mm256_mul_pd(x1, _mm256_loadu_pd(b0.add(n + j)));
                    let m2 = _mm256_mul_pd(x2, _mm256_loadu_pd(b0.add(2 * n + j)));
                    let m3 = _mm256_mul_pd(x3, _mm256_loadu_pd(b0.add(3 * n + j)));
                    let s = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(m0, m1), m2), m3);
                    let o = _mm256_loadu_pd(orow.add(j));
                    _mm256_storeu_pd(orow.add(j), _mm256_add_pd(o, s));
                    j += 4;
                }
                while j < n {
                    let s = at[i] * *b0.add(j)
                        + at[m + i] * *b0.add(n + j)
                        + at[2 * m + i] * *b0.add(2 * n + j)
                        + at[3 * m + i] * *b0.add(3 * n + j);
                    *orow.add(j) += s;
                    j += 1;
                }
            }
        }
        for r in tiles..k {
            let arow = &a[r * m..(r + 1) * m];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                row_axpy(av, bp.add(r * n), op.add(i * n), n);
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and `x.len() >= y.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn axpy_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        if alpha == 1.0 {
            add_assign_impl(x, y);
            return;
        }
        let av = _mm256_set1_pd(alpha);
        let mut j = 0;
        while j + 4 <= n {
            let s = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(j)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(j))),
            );
            _mm256_storeu_pd(yp.add(j), s);
            j += 4;
        }
        while j < n {
            *yp.add(j) += alpha * *xp.add(j);
            j += 1;
        }
    }

    macro_rules! binary_impl {
        ($name:ident, $vop:ident, $sop:tt) => {
            /// # Safety
            ///
            /// The CPU must support AVX2, and `a` and `b` must be at least
            /// as long as `out`.
            #[target_feature(enable = "avx2")]
            unsafe fn $name(a: &[f64], b: &[f64], out: &mut [f64]) {
                let n = out.len();
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                let op = out.as_mut_ptr();
                let mut j = 0;
                while j + 4 <= n {
                    let v = $vop(_mm256_loadu_pd(ap.add(j)), _mm256_loadu_pd(bp.add(j)));
                    _mm256_storeu_pd(op.add(j), v);
                    j += 4;
                }
                while j < n {
                    *op.add(j) = *ap.add(j) $sop *bp.add(j);
                    j += 1;
                }
            }
        };
    }

    binary_impl!(add_impl, _mm256_add_pd, +);
    binary_impl!(sub_impl, _mm256_sub_pd, -);
    binary_impl!(mul_impl, _mm256_mul_pd, *);

    /// # Safety
    ///
    /// The CPU must support AVX2 and `a.len() >= out.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn scale_impl(a: &[f64], alpha: f64, out: &mut [f64]) {
        let n = out.len();
        let ap = a.as_ptr();
        let op = out.as_mut_ptr();
        let av = _mm256_set1_pd(alpha);
        let mut j = 0;
        while j + 4 <= n {
            _mm256_storeu_pd(op.add(j), _mm256_mul_pd(_mm256_loadu_pd(ap.add(j)), av));
            j += 4;
        }
        while j < n {
            *op.add(j) = *ap.add(j) * alpha;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Simd.name(), "avx2");
    }

    #[test]
    fn active_is_stable_and_consistent() {
        let first = active_backend();
        for _ in 0..4 {
            assert_eq!(active_backend(), first);
        }
        assert_eq!(backend_name(), first.name());
    }

    #[test]
    fn scalar_table_reports_scalar() {
        assert_eq!(scalar().backend(), Backend::Scalar);
        if let Some(table) = simd() {
            assert_eq!(table.backend(), Backend::Simd);
        }
    }

    #[test]
    fn resolution_is_stable_and_matches_active() {
        let res = resolution();
        assert_eq!(res.backend, active_backend());
        assert_eq!(res.resolved_name(), backend_name());
        for _ in 0..4 {
            assert_eq!(resolution(), res);
        }
        let expected = match res.requested {
            TierRequest::Scalar => Backend::Scalar,
            TierRequest::Auto => simd().unwrap_or(scalar()).backend(),
        };
        assert_eq!(res.backend, expected);
    }

    #[test]
    fn bellamy_kernel_accepts_only_auto_and_scalar() {
        assert_eq!(TierRequest::parse("auto"), Some(TierRequest::Auto));
        assert_eq!(TierRequest::parse("scalar"), Some(TierRequest::Scalar));
        // Everything else, the retired `simd` and `fma` included, takes
        // `resolve`'s unknown-value branch: one warning, then `auto`.
        for value in ["simd", "fma", "", "avx2"] {
            assert_eq!(TierRequest::parse(value), None, "{value:?}");
        }
    }

    /// Runs `call` and returns its panic message, or `None` if it returned.
    fn panic_message(call: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).err()?;
        Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        )
    }

    fn boxed(call: impl FnOnce() + 'static) -> Box<dyn FnOnce()> {
        Box::new(call)
    }

    #[test]
    fn entry_points_reject_mismatched_lengths() {
        // Each call passes one operand a length off, or a shape whose
        // product wraps to the operand's length (2^32 · 2^32 = 2^64 ≡ 0).
        // The panic must come from the entry point's own check, before any
        // kernel body runs. With 2×2×2 shapes every operand of all three
        // matmul variants holds 4 values.
        type Matmul = fn(&KernelTable, &[f64], &[f64], &mut [f64], usize, usize, usize);
        type Binary = fn(&KernelTable, &[f64], &[f64], &mut [f64]);
        let matmuls: [(&str, Matmul); 3] = [
            ("matmul", KernelTable::matmul),
            ("matmul_tb", KernelTable::matmul_tb),
            ("ta_matmul", KernelTable::ta_matmul),
        ];
        let binaries: [(&str, Binary); 3] = [
            ("add", KernelTable::add),
            ("sub", KernelTable::sub),
            ("mul", KernelTable::mul),
        ];
        let (x, short, wrap): ([f64; 4], &[f64], usize) = ([1.0; 4], &[1.0; 3], 1 << 32);
        for table in [Some(scalar()), simd()].into_iter().flatten() {
            let mut cases: Vec<(String, Box<dyn FnOnce()>)> = Vec::new();
            for (name, f) in matmuls {
                cases.extend([
                    (
                        format!("{name} a"),
                        boxed(move || f(table, short, &x, &mut [0.0; 4], 2, 2, 2)),
                    ),
                    (
                        format!("{name} b"),
                        boxed(move || f(table, &x, short, &mut [0.0; 4], 2, 2, 2)),
                    ),
                    (
                        format!("{name} out"),
                        boxed(move || f(table, &x, &x, &mut [0.0; 3], 2, 2, 2)),
                    ),
                    (
                        format!("{name} wrapped"),
                        boxed(move || f(table, &[], &[], &mut [], wrap, wrap, 0)),
                    ),
                ]);
            }
            let rowapply = move |a: &[f64], bias: Option<&[f64]>, out: &mut [f64], m, k, n| {
                table.matmul_bias_rowapply(a, &x, bias, out, m, k, n, &mut |_| {})
            };
            cases.extend([
                (
                    "matmul_bias_rowapply a".to_string(),
                    boxed(move || rowapply(short, None, &mut [0.0; 4], 2, 2, 2)),
                ),
                (
                    "matmul_bias_rowapply bias".to_string(),
                    boxed(move || rowapply(&x, Some(&[1.0]), &mut [0.0; 4], 2, 2, 2)),
                ),
                (
                    "matmul_bias_rowapply wrapped".to_string(),
                    boxed(move || rowapply(&[], None, &mut [0.0; 4], wrap, wrap, 2)),
                ),
                (
                    "axpy".to_string(),
                    boxed(move || table.axpy(2.0, short, &mut [0.0; 4])),
                ),
                (
                    "scale".to_string(),
                    boxed(move || table.scale(&x, 2.0, &mut [0.0; 3])),
                ),
            ]);
            for (name, f) in binaries {
                cases.extend([
                    (
                        format!("{name} b"),
                        boxed(move || f(table, &x, short, &mut [0.0; 4])),
                    ),
                    (
                        format!("{name} out"),
                        boxed(move || f(table, &x, &x, &mut [0.0; 3])),
                    ),
                ]);
            }
            for (case, call) in cases {
                let backend = table.backend().name();
                let msg =
                    panic_message(call).unwrap_or_else(|| panic!("{backend} {case}: no panic"));
                assert!(
                    msg.starts_with("kernel operand"),
                    "{backend} {case}: panicked elsewhere: {msg}"
                );
            }
        }
    }

    #[test]
    fn tier_request_names() {
        assert_eq!(TierRequest::Auto.name(), "auto");
        assert_eq!(TierRequest::Scalar.name(), "scalar");
    }
}
