//! Scalar activation functions and their derivatives.
//!
//! The Bellamy prototype uses SELU everywhere except the decoder output,
//! which is tanh (§IV-A of the paper). The constants below are the exact
//! values from Klambauer et al., *Self-Normalizing Neural Networks* (2017).

/// SELU scale constant λ.
pub const SELU_LAMBDA: f64 = 1.0507009873554805;
/// SELU alpha constant α.
pub const SELU_ALPHA: f64 = 1.6732632423543772;

/// The fixed point that alpha-dropout pushes dropped activations towards:
/// `-λ·α`, the limit of SELU as its input goes to negative infinity.
pub const SELU_ALPHA_PRIME: f64 = -SELU_LAMBDA * SELU_ALPHA;

// Shared constants of the Cephes-style exp/tanh cores. Module-level so the
// lane-parallel kernels in [`crate::simd`] evaluate the *same* polynomial
// with the same coefficients — the bit-identity of the SIMD activations
// depends on it.
pub(crate) const EXP_LOG2E: f64 = std::f64::consts::LOG2_E;
pub(crate) const EXP_C1: f64 = 6.931_457_519_531_25e-1;
pub(crate) const EXP_C2: f64 = 1.428_606_820_309_417_2e-6;
pub(crate) const EXP_P: [f64; 3] = [
    1.261_771_930_748_105_9e-4,
    3.029_944_077_074_419_6e-2,
    9.999_999_999_999_999e-1,
];
pub(crate) const EXP_Q: [f64; 4] = [
    3.001_985_051_386_644_6e-6,
    2.524_483_403_496_841e-3,
    2.272_655_482_081_550_3e-1,
    2.0,
];
/// Round-to-nearest magic constant, `1.5 * 2^52`.
pub(crate) const EXP_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Polynomial `exp` after Cephes' `exp.c` (the algorithm Eigen and SLEEF
/// vectorize): Cody–Waite range reduction to `[-ln2/2, ln2/2]`, a [2/3]
/// Padé approximant, and an exponent-bit reconstruction. Accurate to ~2 ulp
/// across the finite range, and — unlike a libm call — fully inlineable, so
/// the elementwise activation loops stay open to the optimizer. The decoder
/// alone evaluates tens of thousands of these per training step.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if !(-708.0..=708.0).contains(&x) {
        // Overflow/underflow/NaN edges: defer to libm (rare).
        return x.exp();
    }
    fast_exp_core(x)
}

/// The branch-free polynomial core of [`fast_exp`]: valid only for
/// `x ∈ [-708, 708]` (callers clamp), which is what lets the slice kernels
/// below stay free of per-element range branches and auto-vectorize.
#[inline(always)]
pub(crate) fn fast_exp_core(x: f64) -> f64 {
    const LOG2E: f64 = EXP_LOG2E;
    const C1: f64 = EXP_C1;
    const C2: f64 = EXP_C2;
    const P: [f64; 3] = EXP_P;
    const Q: [f64; 4] = EXP_Q;
    // Round-to-nearest via the 2^52 magic constant — `f64::floor` would be
    // a libm call on baseline x86-64 and dominate the whole kernel.
    const MAGIC: f64 = EXP_MAGIC; // 1.5 * 2^52
    let t = LOG2E * x + MAGIC;
    let n = t - MAGIC;
    let r = x - n * C1 - n * C2;
    let rr = r * r;
    let p = r * ((P[0] * rr + P[1]) * rr + P[2]);
    let q = ((Q[0] * rr + Q[1]) * rr + Q[2]) * rr + Q[3];
    let e = 1.0 + 2.0 * p / (q - p);
    // 2^n straight from the magic-rounded value's mantissa bits (which hold
    // 2^51 + n): integer-only, no f64→i64 conversion in the hot loop.
    e * f64::from_bits(
        (t.to_bits() & ((1u64 << 52) - 1))
            .wrapping_sub(1 << 51)
            .wrapping_add(1023)
            << 52,
    )
}

/// In-place `exp` over a slice. The per-element range check of [`fast_exp`]
/// becomes a clamp, so the loop body is branch-free and vectorizes.
/// Bit-identical to `fast_exp` per element on `[-708, 708]`; outside it the
/// result saturates to `exp(±708)` (≈ 3.3e-308 / 3.0e+307) instead of
/// 0/∞ — callers that care about the extreme tails use the scalar.
/// NaN propagates.
///
/// When the SIMD kernel backend is active (see
/// [`bellamy_linalg::kernels`]) the loop runs four AVX2 lanes at a time —
/// still bit-identical, see [`crate::simd`].
pub fn fast_exp_slice_in_place(xs: &mut [f64]) {
    if crate::simd::dispatch_exp_slice(xs) {
        return;
    }
    fast_exp_slice_scalar(xs);
}

/// Scalar loop body of [`fast_exp_slice_in_place`] (always available; also
/// handles the SIMD path's ragged tail).
pub(crate) fn fast_exp_slice_scalar(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = fast_exp_core(x.clamp(-708.0, 708.0));
    }
}

/// In-place `tanh` over a slice; [`fast_tanh`] is already branch-free, so
/// this is the straightforward vectorizable loop (lane-parallel under the
/// SIMD backend). Bit-identical to `fast_tanh` per element, NaN propagates.
pub fn fast_tanh_slice_in_place(xs: &mut [f64]) {
    if crate::simd::dispatch_tanh_slice(xs) {
        return;
    }
    fast_tanh_slice_scalar(xs);
}

/// Scalar loop body of [`fast_tanh_slice_in_place`] (always available; also
/// handles the SIMD path's ragged tail).
pub(crate) fn fast_tanh_slice_scalar(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = fast_tanh(*x);
    }
}

/// In-place SELU over a slice, bit-identical to
/// `Activation::Selu.apply` per element: the negative branch clamps its
/// argument into the polynomial core's domain (for `x ≤ -37.7` the factor
/// `e^x - 1` is exactly `-1.0` in f64 either way) and the positive branch
/// is a select, so the loop body has no branches. NaN propagates (clamp
/// keeps NaN, and NaN fails the `> 0` select into the NaN branch).
/// Lane-parallel under the SIMD backend.
fn selu_slice_in_place(xs: &mut [f64]) {
    if crate::simd::dispatch_selu_slice(xs) {
        return;
    }
    selu_slice_scalar(xs);
}

/// Scalar loop body of the SELU slice kernel (always available; also
/// handles the SIMD path's ragged tail).
pub(crate) fn selu_slice_scalar(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        let v = *x;
        let e = fast_exp_core(v.clamp(-708.0, 0.0));
        let neg = SELU_LAMBDA * SELU_ALPHA * (e - 1.0);
        *x = if v > 0.0 { SELU_LAMBDA * v } else { neg };
    }
}

/// `tanh` via the same Padé `exp` core as [`fast_exp`], algebraically fused
/// so the whole function costs a **single** division:
/// with `e^z = 2^n (q+p)/(q-p)` for `z = -2|x|`,
/// `tanh(|x|) = (1 - e^z)/(1 + e^z) = ((q-p) - 2^n(q+p)) / ((q-p) + 2^n(q+p))`.
/// Agrees with libm tanh to ~1e-15 relative error at a fraction of the cost.
#[inline]
pub fn fast_tanh(x: f64) -> f64 {
    const LOG2E: f64 = EXP_LOG2E;
    const C1: f64 = EXP_C1;
    const C2: f64 = EXP_C2;
    const P: [f64; 3] = EXP_P;
    const Q: [f64; 4] = EXP_Q;
    // Branch-free body (NaN resolved by one final select): saturate the
    // argument instead of early-returning — at z = -40, e^z vanishes in f64
    // and the formula yields exactly ±1.
    let z = (-2.0 * x.abs()).max(-40.0);
    const MAGIC: f64 = EXP_MAGIC; // 1.5 * 2^52
    let t = LOG2E * z + MAGIC;
    let n = t - MAGIC;
    let r = z - n * C1 - n * C2;
    let rr = r * r;
    let p = r * ((P[0] * rr + P[1]) * rr + P[2]);
    let q = ((Q[0] * rr + Q[1]) * rr + Q[2]) * rr + Q[3];
    // 2^n from the magic-rounded value's mantissa bits (n ∈ [-58, 0], so
    // the low bits of `t` hold 2^51 + n): integer-only, no f64→i64 cast.
    let scale = f64::from_bits(
        (t.to_bits() & ((1u64 << 52) - 1))
            .wrapping_sub(1 << 51)
            .wrapping_add(1023)
            << 52,
    );
    let (den, num) = (q - p, scale * (q + p));
    let y = ((den - num) / (den + num)).copysign(x);
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// An elementwise activation with a closed-form derivative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no-op); useful for ablations and the final linear output.
    Identity,
    /// Scaled exponential linear unit.
    Selu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Selu => {
                if x > 0.0 {
                    SELU_LAMBDA * x
                } else {
                    SELU_LAMBDA * SELU_ALPHA * (fast_exp(x) - 1.0)
                }
            }
            Activation::Tanh => fast_tanh(x),
            Activation::Sigmoid => 1.0 / (1.0 + fast_exp(-x)),
            Activation::Relu => x.max(0.0),
        }
    }

    /// Applies the activation to a whole slice in place, routing through the
    /// branch-free slice kernels so the elementwise loops vectorize instead
    /// of paying a per-scalar range branch. Bit-identical to mapping
    /// [`Activation::apply`] over the slice (including NaN propagation).
    #[inline]
    pub fn apply_slice_in_place(self, xs: &mut [f64]) {
        match self {
            Activation::Identity => {}
            Activation::Selu => selu_slice_in_place(xs),
            Activation::Tanh => fast_tanh_slice_in_place(xs),
            Activation::Sigmoid | Activation::Relu => {
                for x in xs.iter_mut() {
                    *x = self.apply(*x);
                }
            }
        }
    }

    /// The activation exactly as the seed implementation computed it, on
    /// libm scalars. Kept (together with
    /// [`Activation::derivative_reference`]) so the train-step benchmark
    /// can measure the original math as its baseline.
    #[doc(hidden)]
    #[inline]
    pub fn apply_reference(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Selu => {
                if x > 0.0 {
                    SELU_LAMBDA * x
                } else {
                    SELU_LAMBDA * SELU_ALPHA * (x.exp() - 1.0)
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Relu => x.max(0.0),
        }
    }

    /// The derivative exactly as the seed implementation computed it:
    /// re-deriving the activation from the *input* with libm scalars.
    #[doc(hidden)]
    #[inline]
    pub fn derivative_reference(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Selu => {
                if x > 0.0 {
                    SELU_LAMBDA
                } else {
                    SELU_LAMBDA * SELU_ALPHA * x.exp()
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Derivative of the activation, expressed in terms of the *input* `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        self.derivative_from(x, self.apply(x))
    }

    /// Derivative expressed in terms of the input `x` *and* the already
    /// computed output `y = apply(x)`.
    ///
    /// Every activation here admits a transcendental-free form given `y`
    /// (e.g. `tanh' = 1 - y²`, `selu'|_{x<0} = y + λα`), so the backward
    /// pass — which has the forward value saved on the tape — pays no
    /// `exp`/`tanh` at all.
    #[inline]
    pub fn derivative_from(self, x: f64, y: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Selu => {
                if x > 0.0 {
                    SELU_LAMBDA
                } else {
                    // y = λα(eˣ - 1)  ⇒  λα·eˣ = y + λα.
                    y + SELU_LAMBDA * SELU_ALPHA
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Derivative expressed in terms of the *output* `y = apply(x)` alone —
    /// what the fused linear op uses, since it never materializes the
    /// pre-activation. Bit-identical to
    /// [`Activation::derivative_from`] for every activation here: the
    /// input-sign branches of SELU and ReLU are recoverable from the output
    /// sign (`selu(x) > 0 ⇔ x > 0`, and `relu(x) > 0 ⇔ x > 0` with the
    /// `x = 0` boundary landing on the same zero-derivative branch).
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Selu => {
                if y > 0.0 {
                    SELU_LAMBDA
                } else {
                    y + SELU_LAMBDA * SELU_ALPHA
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Human-readable name, used in checkpoint metadata.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Identity => "identity",
            Activation::Selu => "selu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
            Activation::Relu => "relu",
        }
    }

    /// Parses the name written by [`Activation::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "identity" => Some(Activation::Identity),
            "selu" => Some(Activation::Selu),
            "tanh" => Some(Activation::Tanh),
            "sigmoid" => Some(Activation::Sigmoid),
            "relu" => Some(Activation::Relu),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 5] = [
        Activation::Identity,
        Activation::Selu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Relu,
    ];

    #[test]
    fn selu_constants_match_paper() {
        assert!((SELU_LAMBDA - 1.0507).abs() < 1e-4);
        assert!((SELU_ALPHA - 1.6733).abs() < 1e-4);
        assert!((SELU_ALPHA_PRIME + 1.7581).abs() < 1e-4);
    }

    #[test]
    fn selu_is_continuous_at_zero() {
        let eps = 1e-9;
        let left = Activation::Selu.apply(-eps);
        let right = Activation::Selu.apply(eps);
        assert!((left - right).abs() < 1e-7);
        assert_eq!(Activation::Selu.apply(0.0), 0.0);
    }

    #[test]
    fn selu_positive_branch_is_scaled_identity() {
        for x in [0.1, 1.0, 3.7] {
            assert!((Activation::Selu.apply(x) - SELU_LAMBDA * x).abs() < 1e-12);
        }
    }

    #[test]
    fn selu_saturates_at_alpha_prime() {
        assert!((Activation::Selu.apply(-40.0) - SELU_ALPHA_PRIME).abs() < 1e-9);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in ACTS {
            for x in [-2.3, -0.7, -0.1, 0.2, 0.9, 2.5] {
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn tanh_bounded() {
        assert!(Activation::Tanh.apply(50.0) <= 1.0);
        assert!(Activation::Tanh.apply(-50.0) >= -1.0);
    }

    #[test]
    fn fast_exp_matches_libm() {
        let mut x = -707.0;
        while x < 707.0 {
            let (fast, reference) = (fast_exp(x), x.exp());
            let rel = (fast - reference).abs() / reference.max(f64::MIN_POSITIVE);
            assert!(rel < 1e-13, "exp({x}): {fast} vs {reference} (rel {rel:e})");
            x += 0.37;
        }
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert!(fast_exp(f64::NAN).is_nan());
        assert_eq!(fast_exp(0.0), 1.0);
    }

    #[test]
    fn fast_tanh_matches_libm() {
        let mut x = -30.0;
        while x < 30.0 {
            let (fast, reference) = (fast_tanh(x), x.tanh());
            assert!(
                (fast - reference).abs() < 1e-14,
                "tanh({x}): {fast} vs {reference}"
            );
            x += 0.013;
        }
        assert!(fast_tanh(f64::NAN).is_nan());
        assert_eq!(fast_tanh(1e9), 1.0);
        assert_eq!(fast_tanh(-1e9), -1.0);
    }

    #[test]
    fn derivative_from_output_matches_reference() {
        for act in ACTS {
            for x in [-3.1, -0.9, -0.2, 0.0, 0.4, 1.7, 4.2] {
                let y = act.apply(x);
                let via_output = act.derivative_from(x, y);
                let reference = act.derivative_reference(x);
                assert!(
                    (via_output - reference).abs() < 1e-12,
                    "{act:?} at {x}: {via_output} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn exp_slice_matches_scalar_bitwise_in_range() {
        let xs: Vec<f64> = (-7080..=7080).map(|i| i as f64 * 0.1).collect();
        let mut slice = xs.clone();
        fast_exp_slice_in_place(&mut slice);
        for (&x, &s) in xs.iter().zip(slice.iter()) {
            assert_eq!(s.to_bits(), fast_exp(x).to_bits(), "exp({x})");
        }
        let mut nan = [f64::NAN];
        fast_exp_slice_in_place(&mut nan);
        assert!(nan[0].is_nan());
    }

    #[test]
    fn tanh_slice_matches_scalar_bitwise() {
        let xs: Vec<f64> = (-4000..=4000).map(|i| i as f64 * 0.01).collect();
        let mut slice = xs.clone();
        fast_tanh_slice_in_place(&mut slice);
        for (&x, &s) in xs.iter().zip(slice.iter()) {
            assert_eq!(s.to_bits(), fast_tanh(x).to_bits(), "tanh({x})");
        }
    }

    #[test]
    fn apply_slice_matches_scalar_apply_bitwise() {
        let xs: Vec<f64> = (-2000..=2000)
            .map(|i| i as f64 * 0.013)
            .chain([0.0, -0.0, 1e-300, -1e-300, -50.0, -800.0, 800.0])
            .collect();
        for act in ACTS {
            let mut slice = xs.clone();
            act.apply_slice_in_place(&mut slice);
            for (&x, &s) in xs.iter().zip(slice.iter()) {
                assert_eq!(
                    s.to_bits(),
                    act.apply(x).to_bits(),
                    "{act:?} at {x}: {s} vs {}",
                    act.apply(x)
                );
            }
        }
        // NaN handling matches the scalar path exactly (SELU/tanh/sigmoid
        // propagate NaN; ReLU's `max` maps it to 0 in both paths).
        for act in ACTS {
            let mut nan = [f64::NAN];
            act.apply_slice_in_place(&mut nan);
            let scalar = act.apply(f64::NAN);
            assert_eq!(
                nan[0].to_bits(),
                scalar.to_bits(),
                "{act:?} on NaN: slice {} vs scalar {scalar}",
                nan[0]
            );
        }
    }

    #[test]
    fn derivative_from_output_matches_derivative_from() {
        for act in ACTS {
            for x in [-40.0, -3.1, -0.9, -0.2, 0.0, 1e-12, 0.4, 1.7, 4.2, 40.0] {
                let y = act.apply(x);
                assert_eq!(
                    act.derivative_from_output(y).to_bits(),
                    act.derivative_from(x, y).to_bits(),
                    "{act:?} at x = {x}"
                );
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for act in ACTS {
            assert_eq!(Activation::from_name(act.name()), Some(act));
        }
        assert_eq!(Activation::from_name("bogus"), None);
    }
}
