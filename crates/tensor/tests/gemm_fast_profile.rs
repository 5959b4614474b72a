//! The `Fast` kernel profile's GEMM contract, exercised at every reachable
//! dispatch level (own integration binary: `force_profile`/`force_level`
//! are process-global, so these tests serialize on one mutex and restore
//! state before releasing it).
//!
//! - `Exact` (the default) must stay bit-identical to the seed kernels at
//!   **any** forced SIMD level — the vector micro-kernel is never entered.
//! - `Fast` diverges from `Exact` only by FMA fusing (per-lane k-chains
//!   stay strictly sequential), so outputs stay within a tight relative
//!   tolerance of the reference at every level, and at the scalar level
//!   (where `mul_add` is the only change) the bound is tightest.
//! - Small/skinny products ride the strided fallback under both profiles
//!   and must remain bit-exact even under `Fast`.
//! - Row-band parallelism never changes bits within a profile.
//! - Strided operand layouts (the specialized packs) keep the same bound.

use qn_tensor::{gemm, reference, MatMut, MatRef, Rng, Tensor};
use std::sync::Mutex;

static STATE_LOCK: Mutex<()> = Mutex::new(());

fn with_profile_level<R>(
    profile: qn_simd::KernelProfile,
    level: qn_simd::SimdLevel,
    f: impl FnOnce() -> R,
) -> R {
    let prev_p = qn_simd::force_profile(profile);
    let prev_l = qn_simd::force_level(level);
    let r = f();
    qn_simd::force_level(prev_l);
    qn_simd::force_profile(prev_p);
    r
}

/// ResNet-20 im2col-shaped product (`matmul_transb`) plus a plain square
/// matmul, per closure.
fn products(rng: &mut Rng) -> Vec<(Tensor, Tensor, bool)> {
    vec![
        // stage-2 im2col shape (crosses packing + parallel thresholds)
        (
            Tensor::randn(&[256, 288], rng),
            Tensor::randn(&[32, 288], rng),
            true,
        ),
        // square attention-like product
        (
            Tensor::randn(&[64, 64], rng),
            Tensor::randn(&[64, 64], rng),
            false,
        ),
    ]
}

fn run(a: &Tensor, b: &Tensor, transb: bool) -> Tensor {
    if transb {
        a.matmul_transb(b)
    } else {
        a.matmul(b)
    }
}

fn seed(a: &Tensor, b: &Tensor, transb: bool) -> Tensor {
    if transb {
        reference::matmul_transb(a, b)
    } else {
        reference::matmul(a, b)
    }
}

#[test]
fn exact_profile_is_bit_identical_at_every_level() {
    let _g = STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(41);
    for (a, b, transb) in products(&mut rng) {
        let expect = seed(&a, &b, transb);
        for level in qn_simd::available_levels() {
            let got =
                with_profile_level(qn_simd::KernelProfile::Exact, level, || run(&a, &b, transb));
            assert!(
                got.bit_identical(&expect),
                "Exact profile must not depend on the SIMD level ({level:?})"
            );
        }
    }
}

#[test]
fn fast_profile_stays_within_tolerance_at_every_level() {
    let _g = STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(42);
    for (a, b, transb) in products(&mut rng) {
        let expect = seed(&a, &b, transb);
        for level in qn_simd::available_levels() {
            let got =
                with_profile_level(qn_simd::KernelProfile::Fast, level, || run(&a, &b, transb));
            for (g, e) in got.data().iter().zip(expect.data()) {
                assert!(
                    (g - e).abs() <= 1e-4 * (1.0 + e.abs()),
                    "Fast({level:?}) drifted beyond the tolerance tier: {g} vs {e}"
                );
            }
        }
    }
}

#[test]
fn fast_profile_fallback_products_stay_bit_exact() {
    let _g = STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(43);
    // below the packing threshold: both profiles take the strided fallback
    let a = Tensor::randn(&[3, 9], &mut rng);
    let b = Tensor::randn(&[9, 5], &mut rng);
    let expect = reference::matmul(&a, &b);
    for level in qn_simd::available_levels() {
        let got = with_profile_level(qn_simd::KernelProfile::Fast, level, || a.matmul(&b));
        assert!(
            got.bit_identical(&expect),
            "small products must be identical across profiles ({level:?})"
        );
    }
}

#[test]
fn fast_profile_is_thread_count_invariant() {
    let _g = STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(44);
    let a = Tensor::randn(&[192, 160], &mut rng);
    let b = Tensor::randn(&[160, 96], &mut rng);
    let level = qn_simd::SimdLevel::active();
    let (free, capped) = with_profile_level(qn_simd::KernelProfile::Fast, level, || {
        (
            a.matmul(&b),
            qn_parallel::with_max_threads(1, || a.matmul(&b)),
        )
    });
    assert!(
        free.bit_identical(&capped),
        "row-band split must not change bits under Fast"
    );
}

/// The operand layouts the packs specialize, under `Fast` at every level:
/// row-major B with a row stride past `n` starting at an offset,
/// column-major B with a column stride past `k`, each against row-major
/// and column-major A, with `n % 8 != 0` and an infinity planted in B next
/// to a zero-heavy A. Finite outputs stay within the tolerance tier of the
/// reference; non-finite ones match it exactly (NaN for NaN).
#[test]
fn fast_profile_strided_layouts_stay_within_tolerance() {
    let _g = STATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng::seed_from(45);
    let (m, k, n) = (20, 36, 29);
    let a = Tensor::randn(&[m, k], &mut rng).map(|v| if v > 0.5 { 0.0 } else { v });
    let mut b = Tensor::randn(&[k, n], &mut rng);
    b.data_mut()[7 * n + 3] = f32::INFINITY;
    let expect = reference::matmul(&a, &b);
    // row-major B: row stride n + 3, two elements in; the gaps hold NaN
    let mut b_rows = vec![f32::NAN; 2 + k * (n + 3)];
    // column-major B: column stride k + 5, one element in
    let mut b_cols = vec![f32::NAN; 1 + n * (k + 5)];
    for p in 0..k {
        for j in 0..n {
            let v = b.data()[p * n + j];
            b_rows[2 + p * (n + 3) + j] = v;
            b_cols[1 + j * (k + 5) + p] = v;
        }
    }
    let at = a.transpose2();
    let a_views = [a.mat(), at.mat().transpose()];
    let b_views = [
        MatRef::with_strides(&b_rows[2..], k, n, n + 3, 1),
        MatRef::with_strides(&b_cols[1..], k, n, 1, k + 5),
    ];
    for level in qn_simd::available_levels() {
        for (ai, &av) in a_views.iter().enumerate() {
            for (bi, &bv) in b_views.iter().enumerate() {
                let mut out = vec![0.0f32; m * n];
                with_profile_level(qn_simd::KernelProfile::Fast, level, || {
                    gemm(MatMut::new(&mut out, m, n), av, bv)
                });
                for (g, e) in out.iter().zip(expect.data()) {
                    let ok = if e.is_finite() {
                        (g - e).abs() <= 1e-4 * (1.0 + e.abs())
                    } else {
                        g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan())
                    };
                    assert!(
                        ok,
                        "Fast({level:?}) a layout {ai}, b layout {bi}: {g} vs {e}"
                    );
                }
            }
        }
    }
}
