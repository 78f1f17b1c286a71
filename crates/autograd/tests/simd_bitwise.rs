//! Forced-SIMD bit-identity tests for the activation slice kernels.
//!
//! Unlike the unit tests in `ops`, which exercise whatever backend
//! `BELLAMY_KERNEL` selected, these call `simd::force_*` directly so the
//! vector path is validated even when the process-wide backend is scalar
//! (e.g. the `BELLAMY_KERNEL=scalar` CI job). Every assertion is exact bit
//! equality against the per-element scalar reference. On hardware without a
//! vector unit `force_*` returns `false` and the tests pass vacuously.

use bellamy_autograd::ops::{fast_exp, fast_tanh, Activation};
use bellamy_autograd::simd;
use proptest::prelude::*;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Lengths 0..=17 cover empty, sub-lane, exact-lane, and ragged tails of
/// the 4-lane (AVX2) kernels.
fn slices() -> impl Strategy<Value = Vec<f64>> {
    (0usize..18).prop_flat_map(|len| proptest::collection::vec(-750.0f64..750.0, len))
}

proptest! {
    #[test]
    fn exp_slice_forced_simd_is_bit_identical(xs in slices()) {
        // The slice kernel saturates outside [-708, 708] (documented on
        // `fast_exp_slice_in_place`); `fast_exp` itself defers to libm
        // there, so the reference clamps first.
        let want: Vec<f64> = xs.iter().map(|&x| fast_exp(x.clamp(-708.0, 708.0))).collect();
        let mut got = xs;
        if simd::force_exp_slice(&mut got) {
            prop_assert_eq!(bits(&want), bits(&got));
        }
    }

    #[test]
    fn tanh_slice_forced_simd_is_bit_identical(xs in slices()) {
        let want: Vec<f64> = xs.iter().map(|&x| fast_tanh(x)).collect();
        let mut got = xs;
        if simd::force_tanh_slice(&mut got) {
            prop_assert_eq!(bits(&want), bits(&got));
        }
    }

    #[test]
    fn selu_slice_forced_simd_is_bit_identical(xs in slices()) {
        let want: Vec<f64> = xs.iter().map(|&x| Activation::Selu.apply(x)).collect();
        let mut got = xs;
        if simd::force_selu_slice(&mut got) {
            prop_assert_eq!(bits(&want), bits(&got));
        }
    }
}

#[test]
fn special_values_are_bit_identical() {
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        -5e-324,
        708.0,
        -708.0,
        709.0, // beyond the exp clamp
        -709.0,
        1.0,
        -1.0,
        f64::MAX,
        f64::MIN,
        // One more element keeps the length ragged (17 = 4*4 + 1).
        0.5,
    ];

    // Slice-kernel semantics: saturating clamp to [-708, 708] before the
    // polynomial core (so ±inf and ±709 land on exp(±708), NaN propagates).
    let want_exp: Vec<f64> = specials
        .iter()
        .map(|&x| fast_exp(x.clamp(-708.0, 708.0)))
        .collect();
    let mut got = specials.to_vec();
    if simd::force_exp_slice(&mut got) {
        assert_eq!(bits(&want_exp), bits(&got), "exp: {specials:?}");
    }

    let want_tanh: Vec<f64> = specials.iter().map(|&x| fast_tanh(x)).collect();
    let mut got = specials.to_vec();
    if simd::force_tanh_slice(&mut got) {
        assert_eq!(bits(&want_tanh), bits(&got), "tanh: {specials:?}");
    }

    let want_selu: Vec<f64> = specials
        .iter()
        .map(|&x| Activation::Selu.apply(x))
        .collect();
    let mut got = specials.to_vec();
    if simd::force_selu_slice(&mut got) {
        assert_eq!(bits(&want_selu), bits(&got), "selu: {specials:?}");
    }
}

#[test]
fn dispatch_and_force_agree_when_backend_is_simd() {
    // Whatever path the public slice functions take, their results must
    // match the forced SIMD path bit for bit (identity is the whole
    // contract of the dispatch layer).
    let xs: Vec<f64> = (0..33).map(|i| (i as f64 - 16.0) * 1.37).collect();

    let mut via_public = xs.clone();
    bellamy_autograd::fast_exp_slice_in_place(&mut via_public);
    let mut via_forced = xs.clone();
    if simd::force_exp_slice(&mut via_forced) {
        assert_eq!(bits(&via_public), bits(&via_forced));
    }

    let mut via_public = xs.clone();
    bellamy_autograd::fast_tanh_slice_in_place(&mut via_public);
    let mut via_forced = xs;
    if simd::force_tanh_slice(&mut via_forced) {
        assert_eq!(bits(&via_public), bits(&via_forced));
    }
}
