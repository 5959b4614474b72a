//! The packed GEMM core vs. the retained seed kernels
//! (`qn_tensor::reference`), at the shapes the reproduction actually runs:
//! ResNet-20 im2col products, the per-image conv forward `W · colsᵀ`, the
//! quadratic conv's stacked weight gradient `[g_y | gf]ᵀ · cols`, and
//! transformer attention products (square `matmul`s per head).
//!
//! For every shape the bench times the naive seed kernel, the packed scalar
//! (`Exact`-profile) core at one thread and at the full pool, and the packed
//! vector (`Fast`-profile) core at the active SIMD level; on the im2col
//! shapes it also times `gemm_i8`, so f32 and int8 share one run. It fails
//! unless the exact outputs are bit-identical to the seed (the determinism
//! contract), the fast outputs are within the ULP tier, and `gemm_i8` is
//! bit-identical across thread counts. Writes `BENCH_gemm.json`; set
//! `QN_SIMD={scalar,sse2,avx2}` to pin the vector level.

mod common;

use qn_tensor::{gemm_i8, reference, MatMut, QTensor, Rng, Tensor};

/// How a product's operands are stored: `A [m, k]` or `Aᵀ [k, m]`, and
/// `B [k, n]` or `Bᵀ [n, k]`.
#[derive(Clone, Copy)]
enum Layout {
    /// `A [m, k] · B [k, n]` (`matmul`).
    Nn,
    /// `A [m, k] · Bᵀ` with `B` stored `[n, k]` (`matmul_transb`).
    Nt,
    /// `Aᵀ · B [k, n]` with `A` stored `[k, m]` (`matmul_transa`).
    Tn,
}

/// (label, m, k, n, layout):
/// - ResNet-20/CIFAR im2col products `[B·OH·OW, C·K²] × [OC, C·K²]ᵀ`
///   (the `_im2col` labels, which also time `gemm_i8`);
/// - the per-image conv forward `W [OC, C·K²] · colsᵀ`, with `cols`
///   `[OH·OW, C·K²]` (ResNet-20 width 8, stage 1, 16×16);
/// - the quadratic conv's stacked weight gradient `[g_y | gf]ᵀ · cols`
///   (`m = 1` neuron of rank 9 plus its 9 features, batch 32 at 16×16);
/// - attention products `[T, dh] × [dh, T]` per head.
const SHAPES: [(&str, usize, usize, usize, Layout); 8] = [
    ("resnet20_stage1_im2col", 1024, 144, 16, Layout::Nt),
    ("resnet20_stage2_im2col", 256, 288, 32, Layout::Nt),
    ("resnet20_stage3_im2col", 64, 576, 64, Layout::Nt),
    ("conv_forward_w_cols_t", 8, 72, 256, Layout::Nt),
    ("quad_weight_grad", 10, 8192, 90, Layout::Tn),
    ("attention_scores_t64", 64, 32, 64, Layout::Nn),
    ("attention_context_t64", 64, 64, 32, Layout::Nn),
    ("attention_scores_t128", 128, 64, 128, Layout::Nn),
];

fn main() {
    let mut bench = common::Bench::new("gemm");
    let samples = if bench.smoke { 5 } else { 40 };
    let pool = qn_parallel::pool_threads();
    let mut rng = Rng::seed_from(61);

    for &(label, m, k, n, layout) in &SHAPES {
        let a = match layout {
            Layout::Tn => Tensor::randn(&[k, m], &mut rng),
            Layout::Nn | Layout::Nt => Tensor::randn(&[m, k], &mut rng),
        };
        let b = match layout {
            Layout::Nt => Tensor::randn(&[n, k], &mut rng),
            Layout::Nn | Layout::Tn => Tensor::randn(&[k, n], &mut rng),
        };
        let packed = || match layout {
            Layout::Nn => a.matmul(&b),
            Layout::Nt => a.matmul_transb(&b),
            Layout::Tn => a.matmul_transa(&b),
        };
        let naive = || match layout {
            Layout::Nn => reference::matmul(&a, &b),
            Layout::Nt => reference::matmul_transb(&a, &b),
            Layout::Tn => reference::matmul_transa(&a, &b),
        };
        let exact_out = packed();
        assert!(
            exact_out.bit_identical(&naive()),
            "{label}: packed core must be bit-identical to the seed kernel"
        );
        let gflops = |median: f64| 2.0 * (m * n * k) as f64 / median / 1e9;

        let r = bench.time(format!("{label}/naive"), 1, samples, || {
            std::hint::black_box(naive().data()[0]);
        });
        let naive_s = r.median();
        r.metric("gflops", gflops(naive_s));
        let r = bench.time(format!("{label}/packed_1t"), 1, samples, || {
            std::hint::black_box(packed().data()[0]);
        });
        let packed_s = r.median();
        r.metric("gflops", gflops(packed_s))
            .metric("speedup_vs_naive", naive_s / packed_s);
        let r = bench.time(format!("{label}/packed_pool"), pool, samples, || {
            std::hint::black_box(packed().data()[0]);
        });
        let t = r.median();
        r.metric("gflops", gflops(t));

        let prev = qn_simd::force_profile(qn_simd::KernelProfile::Fast);
        let fast_out = packed();
        let r = bench.time(format!("{label}/fast_1t"), 1, samples, || {
            std::hint::black_box(packed().data()[0]);
        });
        qn_simd::force_profile(prev);
        let t = r.median();
        r.metric("gflops", gflops(t))
            .metric("speedup_vs_packed_1t", packed_s / t);
        for (f, e) in fast_out.data().iter().zip(exact_out.data()) {
            assert!(
                (f - e).abs() <= 1e-4 * (1.0 + e.abs()),
                "{label}: fast-profile output drifted beyond the ULP tier: {f} vs {e}"
            );
        }

        if !label.ends_with("_im2col") {
            continue;
        }
        // int8 twin of the same product: activations `a`, weights `b`
        let (qa, qb) = (QTensor::quantize(&a), QTensor::quantize(&b));
        let run_i8 = || {
            let mut out = vec![0.0f32; m * n];
            gemm_i8(
                MatMut::new(&mut out, m, n),
                qa.mat(),
                qb.mat().transpose(),
                qa.scales(),
                qb.scales(),
            );
            out
        };
        let one_thread = qn_parallel::with_max_threads(1, run_i8);
        assert!(
            run_i8()
                .iter()
                .zip(&one_thread)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{label}: gemm_i8 must be bit-identical across thread counts"
        );
        let r = bench.time(format!("{label}/int8_1t"), 1, samples, || {
            std::hint::black_box(run_i8()[0]);
        });
        let t = r.median();
        r.metric("gflops", gflops(t))
            .metric("speedup_vs_packed_1t", packed_s / t);
    }
    bench.write();
}
