//! Scalar-vs-SIMD agreement for every dispatched kernel.
//!
//! The SIMD kernels promise **bit identity** with the scalar reference (see
//! `bellamy_linalg::kernels` module docs), so every comparison here is exact
//! `==` on the f64 bit patterns — no epsilon. Shapes are property-driven and
//! deliberately include ragged tails (`n % 4 != 0`), single elements, and
//! empty operands. On hardware without a vector unit `kernels::simd()`
//! returns `None` and the whole suite passes vacuously.

use bellamy_linalg::kernels::{self, KernelTable};
use proptest::prelude::*;

fn tables() -> Option<(&'static KernelTable, &'static KernelTable)> {
    kernels::simd().map(|simd| (kernels::scalar(), simd))
}

/// Bounded data for an `m x k` operand.
fn operand(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, len)
}

/// Shapes up to 13 hit every `% 4` residue plus the width-8 fast path.
const DIM: std::ops::Range<usize> = 1..14;

proptest! {
    #[test]
    fn matmul_agrees_bitwise((m, k, n, a, b) in (DIM, DIM, DIM).prop_flat_map(|(m, k, n)| {
        (Just(m), Just(k), Just(n), operand(m * k), operand(k * n))
    })) {
        let Some((scalar, simd)) = tables() else { return Ok(()); };
        let mut want = vec![f64::MAX; m * n];
        let mut got = vec![f64::MIN; m * n];
        scalar.matmul(&a, &b, &mut want, m, k, n);
        simd.matmul(&a, &b, &mut got, m, k, n);
        prop_assert_eq!(want, got);
    }

    #[test]
    fn matmul_transpose_b_agrees_bitwise((m, k, n, a, b) in (DIM, DIM, DIM).prop_flat_map(|(m, k, n)| {
        (Just(m), Just(k), Just(n), operand(m * k), operand(n * k))
    })) {
        let Some((scalar, simd)) = tables() else { return Ok(()); };
        let mut want = vec![1.0; m * n];
        let mut got = vec![-1.0; m * n];
        scalar.matmul_tb(&a, &b, &mut want, m, k, n);
        simd.matmul_tb(&a, &b, &mut got, m, k, n);
        prop_assert_eq!(want, got);
    }

    #[test]
    fn transpose_a_matmul_agrees_bitwise((m, k, n, a, b) in (DIM, DIM, DIM).prop_flat_map(|(m, k, n)| {
        (Just(m), Just(k), Just(n), operand(k * m), operand(k * n))
    })) {
        let Some((scalar, simd)) = tables() else { return Ok(()); };
        let mut want = vec![7.0; m * n];
        let mut got = vec![-7.0; m * n];
        scalar.ta_matmul(&a, &b, &mut want, k, m, n);
        simd.ta_matmul(&a, &b, &mut got, k, m, n);
        prop_assert_eq!(want, got);
    }

    #[test]
    fn matmul_bias_rowapply_agrees_bitwise(((m, k, n), a, b, bias, with_bias) in
        (DIM, DIM, DIM).prop_flat_map(|(m, k, n)| {
            (Just((m, k, n)), operand(m * k), operand(k * n), operand(n), any::<bool>())
        })
    ) {
        let Some((scalar, simd)) = tables() else { return Ok(()); };
        let bias_opt = with_bias.then_some(bias.as_slice());
        let mut want = vec![0.5; m * n];
        let mut got = vec![-0.5; m * n];
        // Row finisher exercises a non-trivial per-row transform.
        scalar.matmul_bias_rowapply(&a, &b, bias_opt, &mut want, m, k, n, &mut |row| {
            for v in row.iter_mut() {
                *v = v.tanh() + 0.25 * *v;
            }
        });
        simd.matmul_bias_rowapply(&a, &b, bias_opt, &mut got, m, k, n, &mut |row| {
            for v in row.iter_mut() {
                *v = v.tanh() + 0.25 * *v;
            }
        });
        prop_assert_eq!(want, got);
    }

    #[test]
    fn elementwise_kernels_agree_bitwise((len, a, b) in (0usize..70).prop_flat_map(|len| {
        (Just(len), operand(len), operand(len))
    }), alpha in -5.0f64..5.0) {
        let Some((scalar, simd)) = tables() else { return Ok(()); };
        let _ = len;

        let mut want = vec![0.0; a.len()];
        let mut got = vec![9.0; a.len()];
        scalar.add(&a, &b, &mut want);
        simd.add(&a, &b, &mut got);
        prop_assert_eq!(&want, &got);

        scalar.sub(&a, &b, &mut want);
        simd.sub(&a, &b, &mut got);
        prop_assert_eq!(&want, &got);

        scalar.mul(&a, &b, &mut want);
        simd.mul(&a, &b, &mut got);
        prop_assert_eq!(&want, &got);

        scalar.scale(&a, alpha, &mut want);
        simd.scale(&a, alpha, &mut got);
        prop_assert_eq!(&want, &got);

        let mut want_y = b.clone();
        let mut got_y = b.clone();
        scalar.axpy(alpha, &a, &mut want_y);
        simd.axpy(alpha, &a, &mut got_y);
        prop_assert_eq!(&want_y, &got_y);

        // alpha == 1.0 takes the dedicated in-place add path.
        let mut want_y1 = b.clone();
        let mut got_y1 = b;
        scalar.axpy(1.0, &a, &mut want_y1);
        simd.axpy(1.0, &a, &mut got_y1);
        prop_assert_eq!(&want_y1, &got_y1);
    }
}

#[test]
fn one_by_one_and_empty_shapes_agree() {
    let Some((scalar, simd)) = tables() else {
        return;
    };
    // 1x1 matmul.
    let mut want = [0.0];
    let mut got = [1.0];
    scalar.matmul(&[3.0], &[-2.5], &mut want, 1, 1, 1);
    simd.matmul(&[3.0], &[-2.5], &mut got, 1, 1, 1);
    assert_eq!(want, got);
    // Inner dimension zero: pure zero-fill of the output.
    let mut want = [f64::MAX; 4];
    let mut got = [f64::MIN; 4];
    scalar.matmul(&[], &[], &mut want, 2, 0, 2);
    simd.matmul(&[], &[], &mut got, 2, 0, 2);
    assert_eq!(want, got);
    scalar.matmul_tb(&[], &[], &mut want, 2, 0, 2);
    simd.matmul_tb(&[], &[], &mut got, 2, 0, 2);
    assert_eq!(want, got);
    // Empty slices through every elementwise kernel.
    let mut w: [f64; 0] = [];
    let mut g: [f64; 0] = [];
    scalar.add(&[], &[], &mut w);
    simd.add(&[], &[], &mut g);
    scalar.scale(&[], 2.0, &mut w);
    simd.scale(&[], 2.0, &mut g);
    scalar.axpy(0.5, &[], &mut w);
    simd.axpy(0.5, &[], &mut g);
}

/// Shapes past the property range: `k = 80` crosses the 64-wide matmul
/// block, and `matmul_tb`'s dot-product path only engages when the
/// transposed `b` would overflow its stack buffer (`k * n > 4096`).
/// Non-integer operands round every product, so a changed accumulation
/// order shows in the low bits.
#[test]
fn large_shapes_agree_bitwise() {
    let Some((scalar, simd)) = tables() else {
        return;
    };
    let (m, k, n) = (3, 80, 60); // k * n = 4800 > 4096
    let a: Vec<f64> = (0..m * k)
        .map(|i| (i * 37 % 113) as f64 * 0.013 - 0.7)
        .collect();
    let b: Vec<f64> = (0..k * n)
        .map(|i| (i * 61 % 127) as f64 * 0.029 - 1.9)
        .collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut want = vec![0.0; m * n];
    let mut got = vec![1.0; m * n];
    scalar.matmul_tb(&a, &b, &mut want, m, k, n);
    simd.matmul_tb(&a, &b, &mut got, m, k, n);
    assert_eq!(bits(&want), bits(&got), "matmul_tb");
    scalar.matmul(&a, &b, &mut want, m, k, n);
    simd.matmul(&a, &b, &mut got, m, k, n);
    assert_eq!(bits(&want), bits(&got), "matmul");
    scalar.ta_matmul(&a, &b, &mut want, k, m, n);
    simd.ta_matmul(&a, &b, &mut got, k, m, n);
    assert_eq!(bits(&want), bits(&got), "ta_matmul");
}

#[test]
fn special_values_propagate_identically() {
    let Some((scalar, simd)) = tables() else {
        return;
    };
    // NaN, infinities, and signed zeros must flow through both paths the
    // same way — including the zero-skip in the scalar matmul, which the
    // SIMD path replicates.
    let a = [f64::NAN, 0.0, -0.0, f64::INFINITY, -3.5, 1.0e300];
    let b = [
        1.0,
        f64::NEG_INFINITY,
        2.0,
        -0.0,
        f64::NAN,
        4.0,
        0.5,
        -2.0,
        f64::INFINITY,
    ];
    let mut want = [0.0; 6];
    let mut got = [1.0; 6];
    scalar.matmul(&a, &b, &mut want, 2, 3, 3);
    simd.matmul(&a, &b, &mut got, 2, 3, 3);
    assert_eq!(
        want.map(f64::to_bits),
        got.map(f64::to_bits),
        "want {want:?}, got {got:?}"
    );

    let mut want = [0.0; 6];
    let mut got = [1.0; 6];
    scalar.mul(&a, &a, &mut want);
    simd.mul(&a, &a, &mut got);
    assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits));
}
