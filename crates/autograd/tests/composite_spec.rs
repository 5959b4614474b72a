//! Executable specification of the single-node composite ops.
//!
//! `conv2d`, `quadratic_conv`, `weighted_square_sum`, `interleave_last`,
//! `rows_to_nchw` and `global_avg_pool` each record **one** tape node
//! computed by one fused kernel. Their definition is the chain of tape ops
//! kept here as the reference:
//!
//! - `weighted_square_sum`: reshape → square → `mul_bcast` → `sum_axis`
//! - `interleave_last`: reshape → concat → reshape
//! - `rows_to_nchw`: reshape → permute
//! - `conv2d`: im2col → `matmul_transb` → reshape → permute
//! - `quadratic_conv`: im2col → `matmul_transb(q)` → `weighted_square_sum`
//!   → `matmul_transb(w)` → `add_bcast(b)` → `add` → `interleave_last` →
//!   `rows_to_nchw` (the efficient neuron's dense layer on patch rows)
//! - `global_avg_pool`: `avg_pool2d` → reshape
//!
//! Under the `exact` kernel profile (forced here, so the suite means the
//! same thing in any environment), the single-node op must give
//! bit-identical values **and** bit-identical gradients for every input.

use proptest::prelude::*;
use qn_autograd::{Graph, Var};
use qn_tensor::{Conv2dSpec, PoolSpec, Rng, Tensor};

/// Builds `op` over leaves holding `inputs` on a fresh tape, backpropagates
/// `Σ out ⊙ probe` (a random probe so every output element carries a
/// distinct upstream gradient), and returns the output value, the input
/// gradients and the number of recorded nodes.
fn run(
    inputs: &[&Tensor],
    probe_seed: u64,
    op: impl Fn(&mut Graph, &[Var]) -> Var,
) -> (Tensor, Vec<Tensor>, usize) {
    qn_simd::force_profile(qn_simd::KernelProfile::Exact);
    let mut g = Graph::new();
    let leaves: Vec<Var> = inputs.iter().map(|t| g.leaf((*t).clone())).collect();
    let before = g.len();
    let out = op(&mut g, &leaves);
    let nodes = g.len() - before;
    let value = g.value(out).clone();
    let probe = g.leaf(Tensor::randn(
        value.shape().dims(),
        &mut Rng::seed_from(probe_seed),
    ));
    let weighted = g.mul(out, probe);
    let loss = g.sum_all(weighted);
    g.backward(loss);
    let grads = leaves
        .iter()
        .map(|&v| g.grad(v).expect("every input reaches the loss").clone())
        .collect();
    (value, grads, nodes)
}

/// Asserts the fused op equals its reference chain bit for bit, and that
/// the fused op records exactly one node.
fn assert_spec(
    inputs: &[&Tensor],
    seed: u64,
    fused: impl Fn(&mut Graph, &[Var]) -> Var,
    reference: impl Fn(&mut Graph, &[Var]) -> Var,
) -> Result<(), TestCaseError> {
    let (value, grads, nodes) = run(inputs, seed, fused);
    let (ref_value, ref_grads, _) = run(inputs, seed, reference);
    prop_assert_eq!(nodes, 1, "the composite must record one tape node");
    prop_assert!(value.bit_identical(&ref_value), "values differ");
    for (i, (got, want)) in grads.iter().zip(&ref_grads).enumerate() {
        prop_assert!(got.bit_identical(want), "gradient of input {} differs", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn weighted_square_sum_is_square_mul_bcast_sum_axis(
        rows in 1usize..9, m in 1usize..6, k in 1usize..7, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let f = Tensor::randn(&[rows, m * k], &mut rng);
        let lambda = Tensor::randn(&[m, k], &mut rng);
        assert_spec(
            &[&f, &lambda],
            seed,
            |g, v| g.weighted_square_sum(v[0], v[1], m, k),
            |g, v| {
                let f3 = g.reshape(v[0], &[rows, m, k]);
                let fsq = g.square(f3);
                let weighted = g.mul_bcast(fsq, v[1]);
                g.sum_axis(weighted, 2)
            },
        )?;
    }

    #[test]
    fn interleave_last_is_reshape_concat_reshape(
        rows in 1usize..9, m in 1usize..6, k in 1usize..7, seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let y = Tensor::randn(&[rows, m], &mut rng);
        let f = Tensor::randn(&[rows, m * k], &mut rng);
        assert_spec(
            &[&y, &f],
            seed,
            |g, v| g.interleave_last(v[0], v[1], k),
            |g, v| {
                let f3 = g.reshape(v[1], &[rows, m, k]);
                let y3 = g.reshape(v[0], &[rows, m, 1]);
                let out3 = g.concat(&[y3, f3], 2);
                g.reshape(out3, &[rows, m * (k + 1)])
            },
        )?;
    }

    #[test]
    fn rows_to_nchw_is_reshape_permute(
        b in 1usize..4, oh in 1usize..5, ow in 1usize..5, c in 1usize..6, seed in 0u64..1000,
    ) {
        let rows = Tensor::randn(&[b * oh * ow, c], &mut Rng::seed_from(seed));
        assert_spec(
            &[&rows],
            seed,
            |g, v| g.rows_to_nchw(v[0], b, oh, ow, c),
            |g, v| {
                let r = g.reshape(v[0], &[b, oh, ow, c]);
                g.permute(r, &[0, 3, 1, 2])
            },
        )?;
    }

    #[test]
    fn conv2d_is_im2col_matmul_transb_reshape_permute(
        b in 1usize..3, c in 1usize..4, oc in 1usize..5, res in 3usize..8,
        kernel in 1usize..4, stride in 1usize..3, padding in 0usize..2, seed in 0u64..1000,
    ) {
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[b, c, res, res], &mut rng);
        let w = Tensor::randn(&[oc, c, kernel, kernel], &mut rng);
        let (oh, ow) = spec.output_hw(res, res);
        assert_spec(
            &[&x, &w],
            seed,
            |g, v| g.conv2d(v[0], v[1], spec),
            |g, v| {
                let cols = g.im2col(v[0], spec);
                let wmat = g.reshape(v[1], &[oc, spec.patch_len(c)]);
                let out = g.matmul_transb(cols, wmat);
                let out = g.reshape(out, &[b, oh, ow, oc]);
                g.permute(out, &[0, 3, 1, 2])
            },
        )?;
    }

    #[test]
    fn quadratic_conv_is_the_dense_neuron_on_patch_rows(
        b in 1usize..3, c in 1usize..4, res in 3usize..8, kernel in 1usize..4,
        stride in 1usize..3, padding in 0usize..2, m in 1usize..4, kpick in 0usize..1000,
        seed in 0u64..1000,
    ) {
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let n = spec.patch_len(c);
        let k = 1 + kpick % n; // k in 1..=n
        assert_quadratic_conv_spec(b, c, res, spec, m, k, seed)?;
    }

    #[test]
    fn global_avg_pool_is_avg_pool_reshape(
        b in 1usize..4, c in 1usize..5, res in 1usize..7, seed in 0u64..1000,
    ) {
        let x = Tensor::randn(&[b, c, res, res], &mut Rng::seed_from(seed));
        assert_spec(
            &[&x],
            seed,
            |g, v| g.global_avg_pool(v[0]),
            |g, v| {
                let pooled = g.avg_pool2d(v[0], PoolSpec::new(res, 1));
                g.reshape(pooled, &[b, c])
            },
        )?;
    }
}

/// Checks `quadratic_conv` against its decomposition on random factors.
fn assert_quadratic_conv_spec(
    b: usize,
    c: usize,
    res: usize,
    spec: Conv2dSpec,
    m: usize,
    k: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = Rng::seed_from(seed);
    let n = spec.patch_len(c);
    let x = Tensor::randn(&[b, c, res, res], &mut rng);
    let q = Tensor::randn(&[m * k, n], &mut rng);
    let lambda = Tensor::randn(&[m, k], &mut rng);
    let w = Tensor::randn(&[m, n], &mut rng);
    let bias = Tensor::randn(&[m], &mut rng);
    let (oh, ow) = spec.output_hw(res, res);
    assert_spec(
        &[&x, &q, &lambda, &w, &bias],
        seed,
        |g, v| g.quadratic_conv(v[0], v[1], v[2], v[3], v[4], spec),
        |g, v| {
            let cols = g.im2col(v[0], spec);
            let f = g.matmul_transb(cols, v[1]);
            let y2 = g.weighted_square_sum(f, v[2], m, k);
            let xw = g.matmul_transb(cols, v[3]);
            let y1 = g.add_bcast(xw, v[4]);
            let y = g.add(y1, y2);
            let out = g.interleave_last(y, f, k);
            g.rows_to_nchw(out, b, oh, ow, m * (k + 1))
        },
    )
}

/// The quadratic conv at every stride × padding corner, at shapes large
/// enough for the packed GEMM path and with `k = n` (full rank).
#[test]
fn quadratic_conv_matches_reference_at_every_stride_and_padding() {
    for stride in [1, 2] {
        for padding in [0, 1] {
            let spec = Conv2dSpec::new(3, stride, padding);
            for (m, k) in [(3, 4), (2, 18)] {
                let result = assert_quadratic_conv_spec(2, 2, 9, spec, m, k, 11);
                assert!(
                    result.is_ok(),
                    "stride {stride} padding {padding} m {m} k {k}: {result:?}"
                );
            }
        }
    }
}

/// The benchmark model's own quadratic convs (CIFAR ResNet-20, base width
/// 8, rank 9, 16×16 input), batch 2: `(in channels, neurons, input side,
/// stride)` for the stem, each stage's first conv and the stage's repeated
/// conv. The `m = 1` layers have fewer neurons than the GEMM's register
/// block, the case the stacked `[dw; dq]` product exists for.
#[test]
fn quadratic_conv_matches_reference_at_the_benchmark_model_shapes() {
    let layers = [
        (3, 1, 16, 1),
        (10, 1, 16, 1),
        (10, 2, 16, 2),
        (20, 2, 8, 1),
        (20, 3, 8, 2),
        (30, 3, 4, 1),
    ];
    for (c, m, res, stride) in layers {
        let spec = Conv2dSpec::new(3, stride, 1);
        let result = assert_quadratic_conv_spec(2, c, res, spec, m, 9, 13);
        assert!(
            result.is_ok(),
            "c {c} m {m} {res}x{res} stride {stride}: {result:?}"
        );
    }
}

/// Every corner of the stride {1, 2} × padding {0, 1} grid, pinned (the
/// property above samples it).
#[test]
fn conv2d_matches_reference_at_every_stride_and_padding() {
    for stride in [1, 2] {
        for padding in [0, 1] {
            let spec = Conv2dSpec::new(3, stride, padding);
            let mut rng = Rng::seed_from((stride * 10 + padding) as u64);
            let x = Tensor::randn(&[2, 3, 7, 7], &mut rng);
            let w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
            let (oh, ow) = spec.output_hw(7, 7);
            let result = assert_spec(
                &[&x, &w],
                7,
                |g, v| g.conv2d(v[0], v[1], spec),
                |g, v| {
                    let cols = g.im2col(v[0], spec);
                    let wmat = g.reshape(v[1], &[4, 27]);
                    let out = g.matmul_transb(cols, wmat);
                    let out = g.reshape(out, &[2, oh, ow, 4]);
                    g.permute(out, &[0, 3, 1, 2])
                },
            );
            assert!(
                result.is_ok(),
                "stride {stride} padding {padding}: {result:?}"
            );
        }
    }
}
