//! Lane-parallel activation slice kernels (AVX2).
//!
//! The same Cephes-style polynomial cores as [`crate::ops`], evaluated four
//! lanes (`__m256d`) at a time. **Bit-identical** to the scalar slice
//! kernels per element:
//!
//! - the polynomial coefficients are the shared `ops::EXP_*` constants and
//!   every arithmetic step mirrors the scalar expression tree exactly — no
//!   FMA contraction, no reassociation;
//! - the exponent reconstruction is the same integer bit-manipulation
//!   (`mantissa & mask`, wrapping sub/add, `<< 52`) on each lane;
//! - clamp/max/select use the lane operations whose NaN semantics match the
//!   scalar code: `clamp` keeps the NaN operand (x86 `min/max` return the
//!   second operand on NaN, so the constant goes first), `f64::max`'s
//!   NaN-ignoring behaviour maps to the same operand ordering, and the final
//!   `v > 0.0` / `is_nan` selects are explicit masks, exactly like the
//!   scalar branches.
//!
//! Ragged tails (`len % 4 != 0`) fall through to the scalar loops in
//! [`crate::ops`], which compute the identical values.
//!
//! The `dispatch_*` functions consult the process-wide
//! [`bellamy_linalg::kernels`] backend so the activation path flips together
//! with the matmul path (`BELLAMY_KERNEL` covers both). The `force_*`
//! functions ignore the backend selection and are meant for tests that pin
//! the SIMD path explicitly. Without AVX2 (on any architecture) every entry
//! point returns `false` and the caller runs the scalar loops.

use bellamy_linalg::kernels::{active_backend, Backend};

/// Runs the vector exp slice kernel when the active backend is SIMD.
/// Returns `false` (slice untouched) otherwise.
#[inline]
pub fn dispatch_exp_slice(xs: &mut [f64]) -> bool {
    match active_backend() {
        Backend::Simd => force_exp_slice(xs),
        Backend::Scalar => false,
    }
}

/// Runs the vector tanh slice kernel when the active backend is SIMD.
/// Returns `false` (slice untouched) otherwise.
#[inline]
pub fn dispatch_tanh_slice(xs: &mut [f64]) -> bool {
    match active_backend() {
        Backend::Simd => force_tanh_slice(xs),
        Backend::Scalar => false,
    }
}

/// Runs the vector SELU slice kernel when the active backend is SIMD.
/// Returns `false` (slice untouched) otherwise.
#[inline]
pub fn dispatch_selu_slice(xs: &mut [f64]) -> bool {
    match active_backend() {
        Backend::Simd => force_selu_slice(xs),
        Backend::Scalar => false,
    }
}

/// Runs the AVX2 exp slice kernel whenever the CPU supports it, regardless
/// of `BELLAMY_KERNEL`. Returns `false` (slice untouched) when the CPU has
/// no AVX2. Bit-identical to [`crate::ops::fast_exp_slice_in_place`].
pub fn force_exp_slice(xs: &mut [f64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2::exp_slice` needs only AVX2, detected just above.
            unsafe { avx2::exp_slice(xs) };
            return true;
        }
    }
    let _ = xs;
    false
}

/// Runs the AVX2 tanh slice kernel whenever the CPU supports it (see
/// [`force_exp_slice`]). Bit-identical to
/// [`crate::ops::fast_tanh_slice_in_place`].
pub fn force_tanh_slice(xs: &mut [f64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2::tanh_slice` needs only AVX2, detected just above.
            unsafe { avx2::tanh_slice(xs) };
            return true;
        }
    }
    let _ = xs;
    false
}

/// Runs the AVX2 SELU slice kernel whenever the CPU supports it (see
/// [`force_exp_slice`]). Bit-identical to the scalar SELU slice kernel
/// behind `Activation::Selu.apply_slice_in_place`.
pub fn force_selu_slice(xs: &mut [f64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2::selu_slice` needs only AVX2, detected just above.
            unsafe { avx2::selu_slice(xs) };
            return true;
        }
    }
    let _ = xs;
    false
}

/// The AVX2 cores. Every function is `#[target_feature(enable = "avx2")]`,
/// so a caller must first detect AVX2, as the `force_*` wrappers do.
/// Pointer reads and writes stay inside the slice: the vector loops run
/// while `i + 4 <= xs.len()`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::ops::{
        self, EXP_C1, EXP_C2, EXP_LOG2E, EXP_MAGIC, EXP_P, EXP_Q, SELU_ALPHA, SELU_LAMBDA,
    };
    use std::arch::x86_64::*;

    /// Four-lane [`ops::fast_exp_core`]: same Cody–Waite reduction, same
    /// [2/3] Padé, same magic-constant rounding and integer exponent
    /// reconstruction — per-lane bit-identical to the scalar.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp_core_pd(x: __m256d) -> __m256d {
        let magic = _mm256_set1_pd(EXP_MAGIC);
        let t = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(EXP_LOG2E), x), magic);
        let n = _mm256_sub_pd(t, magic);
        // r = x - n*C1 - n*C2, left to right as the scalar parses it.
        let r = _mm256_sub_pd(
            _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(EXP_C1))),
            _mm256_mul_pd(n, _mm256_set1_pd(EXP_C2)),
        );
        let rr = _mm256_mul_pd(r, r);
        // p = r * ((P0*rr + P1)*rr + P2)
        let p = _mm256_mul_pd(
            r,
            _mm256_add_pd(
                _mm256_mul_pd(
                    _mm256_add_pd(
                        _mm256_mul_pd(_mm256_set1_pd(EXP_P[0]), rr),
                        _mm256_set1_pd(EXP_P[1]),
                    ),
                    rr,
                ),
                _mm256_set1_pd(EXP_P[2]),
            ),
        );
        // q = ((Q0*rr + Q1)*rr + Q2)*rr + Q3
        let q = _mm256_add_pd(
            _mm256_mul_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(
                        _mm256_add_pd(
                            _mm256_mul_pd(_mm256_set1_pd(EXP_Q[0]), rr),
                            _mm256_set1_pd(EXP_Q[1]),
                        ),
                        rr,
                    ),
                    _mm256_set1_pd(EXP_Q[2]),
                ),
                rr,
            ),
            _mm256_set1_pd(EXP_Q[3]),
        );
        // e = 1 + 2p/(q - p)
        let e = _mm256_add_pd(
            _mm256_set1_pd(1.0),
            _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), p), _mm256_sub_pd(q, p)),
        );
        // 2^n from the magic-rounded mantissa bits, per lane:
        // ((bits & (2^52 - 1)) - 2^51 + 1023) << 52.
        let bits = _mm256_castpd_si256(t);
        let mant = _mm256_and_si256(bits, _mm256_set1_epi64x(((1u64 << 52) - 1) as i64));
        let expn = _mm256_add_epi64(
            _mm256_sub_epi64(mant, _mm256_set1_epi64x(1i64 << 51)),
            _mm256_set1_epi64x(1023),
        );
        let scale = _mm256_castsi256_pd(_mm256_slli_epi64(expn, 52));
        _mm256_mul_pd(e, scale)
    }

    /// Rust-`clamp`-semantics lane clamp (NaN passes through with payload):
    /// the constant goes *first* in x86 `min/max`, which return the second
    /// operand on NaN.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clamp_pd(v: __m256d, lo: f64, hi: f64) -> __m256d {
        _mm256_min_pd(_mm256_set1_pd(hi), _mm256_max_pd(_mm256_set1_pd(lo), v))
    }

    /// Four-lane [`ops::fast_exp_slice_scalar`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exp_slice(xs: &mut [f64]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(p.add(i));
            _mm256_storeu_pd(p.add(i), exp_core_pd(clamp_pd(v, -708.0, 708.0)));
            i += 4;
        }
        ops::fast_exp_slice_scalar(&mut xs[i..]);
    }

    /// Four-lane [`ops::fast_tanh_slice_scalar`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tanh_slice(xs: &mut [f64]) {
        let sign = _mm256_set1_pd(-0.0);
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(p.add(i));
            // z = max(-2|x|, -40): f64::max returns the other operand on
            // NaN; so does x86 max_pd when the NaN is the *first* operand.
            let absx = _mm256_andnot_pd(sign, x);
            let z = _mm256_max_pd(
                _mm256_mul_pd(_mm256_set1_pd(-2.0), absx),
                _mm256_set1_pd(-40.0),
            );
            let magic = _mm256_set1_pd(EXP_MAGIC);
            let t = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(EXP_LOG2E), z), magic);
            let nn = _mm256_sub_pd(t, magic);
            let r = _mm256_sub_pd(
                _mm256_sub_pd(z, _mm256_mul_pd(nn, _mm256_set1_pd(EXP_C1))),
                _mm256_mul_pd(nn, _mm256_set1_pd(EXP_C2)),
            );
            let rr = _mm256_mul_pd(r, r);
            let pp = _mm256_mul_pd(
                r,
                _mm256_add_pd(
                    _mm256_mul_pd(
                        _mm256_add_pd(
                            _mm256_mul_pd(_mm256_set1_pd(EXP_P[0]), rr),
                            _mm256_set1_pd(EXP_P[1]),
                        ),
                        rr,
                    ),
                    _mm256_set1_pd(EXP_P[2]),
                ),
            );
            let q = _mm256_add_pd(
                _mm256_mul_pd(
                    _mm256_add_pd(
                        _mm256_mul_pd(
                            _mm256_add_pd(
                                _mm256_mul_pd(_mm256_set1_pd(EXP_Q[0]), rr),
                                _mm256_set1_pd(EXP_Q[1]),
                            ),
                            rr,
                        ),
                        _mm256_set1_pd(EXP_Q[2]),
                    ),
                    rr,
                ),
                _mm256_set1_pd(EXP_Q[3]),
            );
            let bits = _mm256_castpd_si256(t);
            let mant = _mm256_and_si256(bits, _mm256_set1_epi64x(((1u64 << 52) - 1) as i64));
            let expn = _mm256_add_epi64(
                _mm256_sub_epi64(mant, _mm256_set1_epi64x(1i64 << 51)),
                _mm256_set1_epi64x(1023),
            );
            let scale = _mm256_castsi256_pd(_mm256_slli_epi64(expn, 52));
            let den = _mm256_sub_pd(q, pp);
            let num = _mm256_mul_pd(scale, _mm256_add_pd(q, pp));
            let y = _mm256_div_pd(_mm256_sub_pd(den, num), _mm256_add_pd(den, num));
            // copysign(y, x), then the scalar's final NaN select: x if NaN.
            let signed = _mm256_or_pd(_mm256_andnot_pd(sign, y), _mm256_and_pd(sign, x));
            let is_nan = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
            _mm256_storeu_pd(p.add(i), _mm256_blendv_pd(signed, x, is_nan));
            i += 4;
        }
        ops::fast_tanh_slice_scalar(&mut xs[i..]);
    }

    /// Four-lane SELU, bit-identical to [`ops::selu_slice_scalar`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn selu_slice(xs: &mut [f64]) {
        // λα computed exactly as the scalar's `SELU_LAMBDA * SELU_ALPHA *
        // (e - 1.0)` left-associated parse: (λ·α) is one rounded product.
        let lambda_alpha = _mm256_set1_pd(SELU_LAMBDA * SELU_ALPHA);
        let lambda = _mm256_set1_pd(SELU_LAMBDA);
        let zero = _mm256_setzero_pd();
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(p.add(i));
            let e = exp_core_pd(clamp_pd(v, -708.0, 0.0));
            let neg = _mm256_mul_pd(lambda_alpha, _mm256_sub_pd(e, _mm256_set1_pd(1.0)));
            let pos = _mm256_mul_pd(lambda, v);
            // v > 0.0 select; NaN compares false and lands in the negative
            // branch, exactly like the scalar `if`.
            let gt = _mm256_cmp_pd(v, zero, _CMP_GT_OQ);
            _mm256_storeu_pd(p.add(i), _mm256_blendv_pd(neg, pos, gt));
            i += 4;
        }
        ops::selu_slice_scalar(&mut xs[i..]);
    }
}
