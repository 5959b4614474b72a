//! Forward kernels: the one implementation of every op's forward value.
//!
//! Each kernel validates its operands, refits a caller-provided output
//! tensor to the op's result shape and fully overwrites it (recycled
//! buffers carry stale contents). [`EagerExec`](crate::EagerExec) passes
//! its recycled arena slot; [`Graph`](crate::Graph) passes a [`fresh`]
//! tensor and adds only the parent list, the backward closure and the
//! saved-for-backward flag around the same call. With one forward per op,
//! taped and eager values are bit-identical in every kernel profile — there
//! is no second implementation to drift from.

use crate::PAR_MIN_ELEMS;
use qn_simd::KernelProfile;
use qn_tensor::{
    avg_pool2d_into, gemm, gemm_batched, im2col_into, max_pool2d, Conv2dSpec, MatMut, MatRef,
    PoolSpec, Tensor, TensorError,
};
use std::ops::DerefMut;

/// An empty tensor for a kernel to refit: the tape's fresh output value.
pub(crate) fn fresh() -> Tensor {
    Tensor::zeros(&[0])
}

/// Runs `kernel` into a [`fresh`] output and returns it.
pub(crate) fn eval(kernel: impl FnOnce(&mut Tensor)) -> Tensor {
    let mut out = fresh();
    kernel(&mut out);
    out
}

/// `out = f(a)` elementwise, `f` being a slice kernel such as
/// `elemwise::relu_to`.
pub(crate) fn unary(out: &mut Tensor, a: &Tensor, f: impl FnOnce(&mut [f32], &[f32])) {
    out.refit(a.shape().dims());
    f(out.data_mut(), a.data());
}

/// `out = f(a, b)` elementwise over two same-shape operands.
///
/// # Panics
///
/// Panics if the shapes differ.
pub(crate) fn binary(
    out: &mut Tensor,
    a: &Tensor,
    b: &Tensor,
    f: impl FnOnce(&mut [f32], &[f32], &[f32]),
) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "zip shape mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    out.refit(a.shape().dims());
    f(out.data_mut(), a.data(), b.data());
}

/// `out[i] = f(a[i], b[i mod |b|])`: `b` broadcast over `a`'s leading dims.
///
/// # Panics
///
/// Panics if `b`'s shape is not a trailing suffix of `a`'s.
pub(crate) fn bcast(out: &mut Tensor, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) {
    let (ad, bd) = (a.shape().dims(), b.shape().dims());
    assert!(
        bd.len() <= ad.len() && ad[ad.len() - bd.len()..] == *bd,
        "broadcast shape {bd:?} is not a trailing suffix of {ad:?}"
    );
    out.refit(ad);
    let od = out.data_mut();
    od.copy_from_slice(a.data());
    for chunk in od.chunks_mut(b.numel()) {
        for (o, &x) in chunk.iter_mut().zip(b.data()) {
            *o = f(*o, x);
        }
    }
}

/// Copies `a` under new `dims` (same element count).
pub(crate) fn reshape(out: &mut Tensor, a: &Tensor, dims: &[usize]) {
    let numel: usize = dims.iter().product();
    if a.numel() != numel {
        panic!(
            "reshape: {}",
            TensorError::ReshapeMismatch {
                from: a.shape().dims().to_vec(),
                to: dims.to_vec(),
            }
        );
    }
    out.refit(dims);
    out.data_mut().copy_from_slice(a.data());
}

/// Permutes `a`'s axes.
pub(crate) fn permute(out: &mut Tensor, a: &Tensor, axes: &[usize]) {
    let nd = a.ndim();
    assert_eq!(axes.len(), nd, "permute needs {nd} axes");
    assert!(nd <= 16, "permute supports rank <= 16");
    let old_dims = a.shape().dims();
    let mut new_dims = [0usize; 16];
    for (i, &ax) in axes.iter().enumerate() {
        assert!(ax < nd, "axes must be a permutation of 0..{nd}");
        new_dims[i] = old_dims[ax];
    }
    out.refit(&new_dims[..nd]);
    a.permute_into(axes, out.data_mut());
}

/// Concatenates `n` parts (`part(i)` for `i < n`) along `axis`; the parts
/// come through an accessor so callers need no temporary list.
pub(crate) fn concat<'t>(
    out: &mut Tensor,
    n: usize,
    part: impl Fn(usize) -> &'t Tensor,
    axis: usize,
) {
    assert!(n > 0, "concat of zero vars");
    let first = part(0);
    let nd = first.ndim();
    assert!(axis < nd, "axis {axis} out of range for rank {nd}");
    assert!(nd <= 16, "concat supports rank <= 16");
    let dims = first.shape().dims();
    let mut total_mid = 0usize;
    for i in 0..n {
        let pv = part(i);
        assert_eq!(pv.ndim(), nd, "concat rank mismatch");
        for (a, &d) in dims.iter().enumerate() {
            if a != axis {
                assert_eq!(pv.shape().dim(a), d, "concat dim {a} mismatch");
            }
        }
        total_mid += pv.shape().dim(axis);
    }
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let mut out_dims = [0usize; 16];
    out_dims[..nd].copy_from_slice(dims);
    out_dims[axis] = total_mid;
    out.refit(&out_dims[..nd]);
    let od = out.data_mut();
    for o in 0..outer {
        let mut mid_off = 0usize;
        for i in 0..n {
            let pv = part(i);
            let mid = pv.shape().dim(axis);
            let src = &pv.data()[o * mid * inner..(o + 1) * mid * inner];
            let dst_base = (o * total_mid + mid_off) * inner;
            od[dst_base..dst_base + mid * inner].copy_from_slice(src);
            mid_off += mid;
        }
    }
}

/// Copies the half-open `[start, end)` range of `axis`.
pub(crate) fn slice_axis(out: &mut Tensor, a: &Tensor, axis: usize, start: usize, end: usize) {
    let nd = a.ndim();
    assert!(axis < nd, "axis {axis} out of range for rank {nd}");
    assert!(nd <= 16, "slice_axis supports rank <= 16");
    let dims = a.shape().dims();
    assert!(
        start <= end && end <= dims[axis],
        "slice [{start}, {end}) out of bounds for axis of size {}",
        dims[axis]
    );
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let mid = dims[axis];
    let new_mid = end - start;
    let mut out_dims = [0usize; 16];
    out_dims[..nd].copy_from_slice(dims);
    out_dims[axis] = new_mid;
    out.refit(&out_dims[..nd]);
    let od = out.data_mut();
    for o in 0..outer {
        let src_base = (o * mid + start) * inner;
        let dst_base = o * new_mid * inner;
        od[dst_base..dst_base + new_mid * inner]
            .copy_from_slice(&a.data()[src_base..src_base + new_mid * inner]);
    }
}

/// Sum of all elements into a `[1]` tensor.
pub(crate) fn sum_all(out: &mut Tensor, a: &Tensor) {
    let total: f32 = a.data().iter().sum();
    out.refit(&[1]);
    out.data_mut()[0] = total;
}

/// Sums over `axis`, removing it (a rank-1 input reduces to `[1]`).
pub(crate) fn sum_axis(out: &mut Tensor, a: &Tensor, axis: usize) {
    let nd = a.ndim();
    assert!(axis < nd, "axis {axis} out of range for rank {nd}");
    assert!(nd <= 16, "sum_axis supports rank <= 16");
    let mut out_dims = [0usize; 16];
    let mut odn = 0usize;
    for (i, &d) in a.shape().dims().iter().enumerate() {
        if i != axis {
            out_dims[odn] = d;
            odn += 1;
        }
    }
    if odn == 0 {
        out_dims[0] = 1;
        odn = 1;
    }
    out.refit(&out_dims[..odn]);
    a.sum_axis_into(axis, out.data_mut());
}

/// Matrix product `a @ b` of `[M, K] × [K, N]`.
pub(crate) fn matmul(out: &mut Tensor, a: &Tensor, b: &Tensor) {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
    let (m, k) = a.dims2();
    let (k2, n) = b.dims2();
    assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
    out.refit(&[m, n]);
    gemm(MatMut::new(out.data_mut(), m, n), a.mat(), b.mat());
}

/// Matrix product `a @ bᵀ` of `[M, K] × [N, K]ᵀ`; the transpose is a
/// stride swap.
pub(crate) fn matmul_transb(out: &mut Tensor, a: &Tensor, b: &Tensor) {
    assert_eq!(a.ndim(), 2, "matmul_transb lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_transb rhs must be 2-D");
    let (m, k) = a.dims2();
    let (n, k2) = b.dims2();
    assert_eq!(k, k2, "matmul_transb trailing dims differ: {k} vs {k2}");
    out.refit(&[m, n]);
    gemm(
        MatMut::new(out.data_mut(), m, n),
        a.mat(),
        b.mat().transpose(),
    );
}

/// Batched product `[N, M, K] × [N, K, P] -> [N, M, P]`: one zero-copy
/// `MatRef` subslice pair per batch element through the shared GEMM core.
pub(crate) fn bmm(out: &mut Tensor, a: &Tensor, b: &Tensor) {
    assert_eq!(a.ndim(), 3, "bmm lhs must be 3-D");
    assert_eq!(b.ndim(), 3, "bmm rhs must be 3-D");
    let (n, m, k) = (a.shape().dim(0), a.shape().dim(1), a.shape().dim(2));
    let (n2, k2, p) = (b.shape().dim(0), b.shape().dim(1), b.shape().dim(2));
    assert_eq!(n, n2, "bmm batch dims differ: {n} vs {n2}");
    assert_eq!(k, k2, "bmm inner dims differ: {k} vs {k2}");
    out.refit(&[n, m, p]);
    let (ad, bd) = (a.data(), b.data());
    gemm_batched(
        out.data_mut(),
        n,
        m,
        p,
        k,
        |ni| MatRef::new(&ad[ni * m * k..(ni + 1) * m * k], m, k),
        |ni| MatRef::new(&bd[ni * k * p..(ni + 1) * k * p], k, p),
    );
}

/// Lowers `[B, C, H, W]` to patch rows `[B·OH·OW, C·K·K]`.
pub(crate) fn im2col(out: &mut Tensor, x: &Tensor, spec: Conv2dSpec) {
    let (b, c, h, w) = x.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    out.refit(&[b * oh * ow, spec.patch_len(c)]);
    im2col_into(out.data_mut(), x, spec);
}

/// 2-D convolution of `[B, C, H, W]` with filters `[OC, C, K, K]` into
/// `[B, OC, OH, OW]` — see [`lowered_conv`]. The patch matrix lives in
/// scratch from `cols(len)` (pool-recycled on the eager path, kept for the
/// backward pass on the tape), which is returned.
pub(crate) fn conv2d<C: DerefMut<Target = [f32]>>(
    out: &mut Tensor,
    x: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    cols: impl FnOnce(usize) -> C,
) -> C {
    let (_, c, _, _) = x.dims4();
    let (oc, wc, kh, kw) = weight.dims4();
    assert_eq!(c, wc, "conv2d channel mismatch: input {c}, weight {wc}");
    assert_eq!(kh, spec.kernel, "conv2d kernel mismatch");
    assert_eq!(kw, spec.kernel, "conv2d kernel mismatch");
    lowered_conv(out, x, weight.data(), oc, spec, cols)
}

/// The im2col product behind every convolution: `x` lowered to patch rows
/// in scratch from `cols(len)` (returned), then per sample the output
/// plane block `[OC, OH·OW]` is `W [OC, n] @ colsᵀ [n, OH·OW]`, the im2col
/// transpose a stride swap. Each output element sums over `n` in the same
/// order as the row-major `cols @ Wᵀ` product, written straight into NCHW.
/// `wrows` is the row-major `[OC, n]` filter matrix.
fn lowered_conv<C: DerefMut<Target = [f32]>>(
    out: &mut Tensor,
    x: &Tensor,
    wrows: &[f32],
    oc: usize,
    spec: Conv2dSpec,
    cols: impl FnOnce(usize) -> C,
) -> C {
    let (b, c, h, w) = x.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    let n = spec.patch_len(c);
    let hw = oh * ow;
    let mut cols = cols(b * hw * n);
    im2col_into(&mut cols, x, spec);
    out.refit(&[b, oc, oh, ow]);
    let cd = &*cols;
    gemm_batched(
        out.data_mut(),
        b,
        oc,
        hw,
        n,
        |_| MatRef::new(wrows, oc, n),
        |bi| MatRef::new(&cd[bi * hw * n..(bi + 1) * hw * n], hw, n).transpose(),
    );
    cols
}

/// Output positions per epilogue block of [`quadratic_conv`] (the
/// quadratic-energy accumulators live on the stack).
const QUAD_BLOCK: usize = 64;

/// The paper's efficient quadratic neuron as a convolution: `m` neurons of
/// rank `k` over the patch rows of `x` (`[B, C, H, W]`), producing
/// `[B, m·(k+1), OH, OW]` with channel `j·(k+1)` holding neuron `j`'s
/// `y = (x·w + b) + Σᵢ (f·f)·λ` and the next `k` channels its features
/// `f = Qᵀx`. `q` is `[m·k, n]`, `lambda` `[m, k]`, `w` `[m, n]`, `b`
/// `[m]`.
///
/// One GEMM over the per-neuron interleaved stack `[w_j; Q_j]`
/// (`m·(k+1)` rows, built into scratch per call) writes `x·w` and `f` to
/// NCHW exactly as [`conv2d`] does, then one epilogue pass rewrites each
/// `y` plane with the bias and the Λ-weighted square sum. Stacking rows
/// never changes an output element's `n`-order, and the epilogue uses
/// `weighted_square_sum`'s expressions in its order (lane-wise over
/// positions, no reassociation, in both kernel profiles), so the result
/// equals the im2col → dense → `rows_to_nchw` decomposition bit for bit
/// under `exact`. Returns the scratch `(patch matrix, stack)` drawn from
/// `scratch(len)`.
///
/// # Panics
///
/// Panics if `m` or `k` is 0, or the factor shapes disagree with each other
/// or with the patch length.
#[allow(clippy::too_many_arguments)]
pub(crate) fn quadratic_conv<S: DerefMut<Target = [f32]>>(
    out: &mut Tensor,
    x: &Tensor,
    q: &Tensor,
    lambda: &Tensor,
    w: &Tensor,
    b: &Tensor,
    spec: Conv2dSpec,
    mut scratch: impl FnMut(usize) -> S,
) -> (S, S) {
    let (_, c, _, _) = x.dims4();
    let n = spec.patch_len(c);
    let (m, k) = lambda.dims2();
    assert!(
        m > 0 && k > 0,
        "quadratic_conv needs m, k >= 1, got {m}, {k}"
    );
    assert_eq!(q.dims2(), (m * k, n), "quadratic_conv q must be [m·k, n]");
    assert_eq!(w.dims2(), (m, n), "quadratic_conv w must be [m, n]");
    assert_eq!(b.numel(), m, "quadratic_conv b must hold m values");
    let (qd, wd) = (q.data(), w.data());
    let mut stack = scratch(m * (k + 1) * n);
    for (j, rows) in stack.chunks_mut((k + 1) * n).enumerate() {
        rows[..n].copy_from_slice(&wd[j * n..(j + 1) * n]);
        rows[n..].copy_from_slice(&qd[j * k * n..(j + 1) * k * n]);
    }
    let cols = lowered_conv(out, x, &stack, m * (k + 1), spec, &mut scratch);
    let hw = out.shape().dim(2) * out.shape().dim(3);
    let (ld, bd) = (lambda.data(), b.data());
    qn_parallel::par_chunks_mut_min(
        out.data_mut(),
        ((k + 1) * hw).max(1),
        PAR_MIN_ELEMS,
        |plane, group| {
            let j = plane % m;
            let (y, f) = group.split_at_mut(hw);
            let lam = &ld[j * k..(j + 1) * k];
            for p0 in (0..hw).step_by(QUAD_BLOCK) {
                let len = QUAD_BLOCK.min(hw - p0);
                let mut acc = [0.0f32; QUAD_BLOCK];
                let acc = &mut acc[..len];
                for (i, &l) in lam.iter().enumerate() {
                    let fi = &f[i * hw + p0..i * hw + p0 + len];
                    for (a, &v) in acc.iter_mut().zip(fi) {
                        *a += v * v * l;
                    }
                }
                for (o, &a) in y[p0..p0 + len].iter_mut().zip(acc.iter()) {
                    *o = (*o + bd[j]) + a;
                }
            }
        },
    );
    (cols, stack)
}

/// Max pooling; fills `argmax` (resized to the output length) with each
/// winner's flat input index when the caller needs it for a backward pass.
pub(crate) fn max_pool(
    out: &mut Tensor,
    x: &Tensor,
    spec: PoolSpec,
    argmax: Option<&mut Vec<usize>>,
) {
    let (b, c, h, w) = x.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    out.refit(&[b, c, oh, ow]);
    let argmax = argmax.map(|a| {
        a.resize(b * c * oh * ow, 0);
        a.as_mut_slice()
    });
    max_pool2d(out.data_mut(), x, spec, argmax);
}

/// Average pooling with a square window.
pub(crate) fn avg_pool(out: &mut Tensor, x: &Tensor, spec: PoolSpec) {
    let (b, c, h, w) = x.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    out.refit(&[b, c, oh, ow]);
    avg_pool2d_into(out.data_mut(), x, spec);
}

/// Global average pooling `[B, C, H, W] -> [B, C]`: the full-window
/// average pool, written without the trailing unit dims.
pub(crate) fn global_avg_pool(out: &mut Tensor, x: &Tensor) {
    let (b, c, h, w) = x.dims4();
    assert_eq!(h, w, "global_avg_pool expects square feature maps");
    out.refit(&[b, c]);
    avg_pool2d_into(out.data_mut(), x, PoolSpec::new(h, 1));
}

/// Normalizes each `last`-wide row of `data` in place with the stable
/// softmax. Under the `Fast` profile each row runs the vector kernel: same
/// max-shift algorithm with a polynomial `exp` and reassociated sum (≤ 32
/// ULP per probability — see `qn_simd::softmax_row_inplace`).
pub(crate) fn softmax_rows_inplace(data: &mut [f32], last: usize) {
    let fast = KernelProfile::active() == KernelProfile::Fast;
    qn_parallel::par_chunks_mut_min(data, last.max(1), PAR_MIN_ELEMS, |_, row| {
        if fast {
            qn_simd::softmax_row_inplace(row);
            return;
        }
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    });
}

/// Numerically-stable softmax over the last axis; rows normalize
/// independently, so results are bit-identical at any thread count.
pub(crate) fn softmax_last(out: &mut Tensor, x: &Tensor) {
    let last = *x.shape().dims().last().expect("non-empty shape");
    out.refit(x.shape().dims());
    out.data_mut().copy_from_slice(x.data());
    softmax_rows_inplace(out.data_mut(), last);
}

/// Per-row mean and `1/σ` of a layer-norm row under the `Exact` profile —
/// the statistics the forward kernel normalizes with and the tape's
/// backward pass recomputes `x̂` from.
pub(crate) fn layer_norm_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let d = row.len() as f32;
    let mean = row.iter().sum::<f32>() / d;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d;
    (mean, 1.0 / (var + eps).sqrt())
}

/// Layer normalization over the last axis with affine `gamma`/`beta`.
/// Rows are independent and normalize in parallel. Under the `Fast`
/// profile the row kernel vectorizes the mean/variance reductions
/// (reassociated, tolerance-bounded — see `qn_simd::layer_norm_row`).
pub(crate) fn layer_norm(out: &mut Tensor, x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) {
    let d = *x.shape().dims().last().expect("non-empty shape");
    assert_eq!(gamma.numel(), d, "gamma width {} != {d}", gamma.numel());
    assert_eq!(beta.numel(), d, "beta width {} != {d}", beta.numel());
    out.refit(x.shape().dims());
    let (gd, bd) = (gamma.data(), beta.data());
    let fast = KernelProfile::active() == KernelProfile::Fast;
    qn_parallel::par_chunks_mut_min(out.data_mut(), d.max(1), PAR_MIN_ELEMS, |r, orow| {
        let row = &x.data()[r * d..(r + 1) * d];
        if fast {
            qn_simd::layer_norm_row(orow, row, gd, bd, eps);
            return;
        }
        let (mean, istd) = layer_norm_stats(row, eps);
        for (j, o) in orow.iter_mut().enumerate() {
            *o = (row[j] - mean) * istd * gd[j] + bd[j];
        }
    });
}

/// Gathers rows of `weight` (`[V, D]`) by token id into `[ids.len(), D]`.
pub(crate) fn embedding(out: &mut Tensor, weight: &Tensor, ids: &[usize]) {
    let (v, d) = weight.dims2();
    for &id in ids {
        assert!(id < v, "token id {id} out of range for vocab {v}");
    }
    out.refit(&[ids.len(), d]);
    let od = out.data_mut();
    for (row, &id) in ids.iter().enumerate() {
        od[row * d..(row + 1) * d].copy_from_slice(&weight.data()[id * d..(id + 1) * d]);
    }
}

/// The quadratic energy `y₂[r, j] = Σᵢ λ[j, i] · f[r, j·k + i]²` of the
/// paper's efficient neuron in one pass over `f` (`[rows, m·k]`); under the
/// `Fast` profile each row runs `qn_simd::weighted_square_row`.
pub(crate) fn weighted_square_sum(
    out: &mut Tensor,
    f: &Tensor,
    lambda: &Tensor,
    neurons: usize,
    k: usize,
) {
    let (rows, mk) = f.dims2();
    assert_eq!(mk, neurons * k, "feature width {mk} != {neurons}·{k}");
    assert_eq!(lambda.numel(), neurons * k, "lambda size mismatch");
    let (fd, ld) = (f.data(), lambda.data());
    out.refit(&[rows, neurons]);
    let fast = KernelProfile::active() == KernelProfile::Fast;
    qn_parallel::par_chunks_mut_min(out.data_mut(), neurons.max(1), PAR_MIN_ELEMS, |r, orow| {
        if fast {
            qn_simd::weighted_square_row(orow, &fd[r * mk..(r + 1) * mk], ld, k);
            return;
        }
        for (j, o) in orow.iter_mut().enumerate() {
            let base = r * mk + j * k;
            let mut acc = 0.0f32;
            for i in 0..k {
                let x = fd[base + i];
                acc += x * x * ld[j * k + i];
            }
            *o = acc;
        }
    });
}

/// Interleaves scalar outputs `y` (`[rows, m]`) with their feature groups
/// `f` (`[rows, m·k]`) neuron-major into `[rows, m·(k+1)]`.
pub(crate) fn interleave_last(out: &mut Tensor, y: &Tensor, f: &Tensor, k: usize) {
    let (rows, m) = y.dims2();
    assert_eq!(f.numel(), rows * m * k, "feature size mismatch");
    let (yd, fd) = (y.data(), f.data());
    out.refit(&[rows, m * (k + 1)]);
    qn_parallel::par_chunks_mut_min(
        out.data_mut(),
        (m * (k + 1)).max(1),
        PAR_MIN_ELEMS,
        |r, orow| {
            for j in 0..m {
                let dst = j * (k + 1);
                orow[dst] = yd[r * m + j];
                orow[dst + 1..dst + 1 + k]
                    .copy_from_slice(&fd[r * m * k + j * k..r * m * k + (j + 1) * k]);
            }
        },
    );
}

/// Reorders patch-major rows `[B·OH·OW, C]` into a `[B, C, OH, OW]` map.
pub(crate) fn rows_to_nchw(out: &mut Tensor, v: &Tensor, b: usize, oh: usize, ow: usize, c: usize) {
    assert_eq!(v.numel(), b * oh * ow * c, "rows_to_nchw size mismatch");
    let hw = oh * ow;
    let vd = v.data();
    out.refit(&[b, c, oh, ow]);
    qn_parallel::par_chunks_mut_min(
        out.data_mut(),
        (c * hw).max(1),
        PAR_MIN_ELEMS,
        |bi, slab| {
            for pos in 0..hw {
                let row = &vd[(bi * hw + pos) * c..(bi * hw + pos + 1) * c];
                for (ci, &x) in row.iter().enumerate() {
                    slab[ci * hw + pos] = x;
                }
            }
        },
    );
}

/// One stage of [`chain`], resolved to raw slices.
#[derive(Clone, Copy)]
pub(crate) enum Stage<'p> {
    /// `v += bias[c]`.
    Bias(&'p [f32]),
    /// `v *= scale[c]`.
    Scale(&'p [f32]),
    /// `v = (v - mean[c]) · inv[c] · gamma[c] + beta[c]`, `inv = 1/σ`.
    Norm {
        mean: &'p [f32],
        inv: &'p [f32],
        gamma: &'p [f32],
        beta: &'p [f32],
    },
    /// `v = max(v, 0)`.
    Relu,
    /// `v += residual[i]`.
    Residual(&'p [f32]),
}

/// Checks that a per-channel operand is a 1-D tensor and returns its data.
pub(crate) fn channel_vec<'t>(t: &'t Tensor, what: &str) -> &'t [f32] {
    assert_eq!(t.ndim(), 1, "{what} must be 1-D");
    t.data()
}

/// Per-channel `1/√(var + eps)` — batch norm's hoisted inverse deviation.
pub(crate) fn inv_std_into(dst: &mut [f32], var: &[f32], eps: f32) {
    for (o, &v) in dst.iter_mut().zip(var) {
        *o = 1.0 / (v + eps).sqrt();
    }
}

/// Maximum number of stages in one [`chain`] pass.
pub(crate) const MAX_STAGES: usize = 8;

/// Elementwise pipeline over a `[B, C, H, W]` activation in **one** pass:
/// per element, the stages apply left to right with the same scalar
/// expressions as the standalone ops, so a fused chain is bit-identical to
/// running its stages one at a time. Parallel over disjoint (batch,
/// channel) planes. Every stage is a plain lane-wise add/sub/mul/max, so
/// the `Fast` profile's vector body computes the exact scalar expression
/// per lane and matches the scalar loop bit for bit.
///
/// # Panics
///
/// Panics if `x` is not 4-D, a per-channel operand's width differs from
/// the channel count, or a residual's length differs from `x`'s.
pub(crate) fn chain(out: &mut Tensor, x: &Tensor, stages: &[Stage<'_>]) {
    let (_b, c, h, w) = x.dims4();
    let hw = h * w;
    let width = |s: &[f32], what: &str| assert_eq!(s.len(), c, "{what} width {} != {c}", s.len());
    for stage in stages {
        match *stage {
            Stage::Bias(s) => width(s, "bias"),
            Stage::Scale(s) => width(s, "scale"),
            Stage::Norm {
                mean,
                inv,
                gamma,
                beta,
            } => {
                width(gamma, "gamma");
                width(beta, "beta");
                width(mean, "mean");
                width(inv, "inv");
            }
            Stage::Relu => {}
            Stage::Residual(r) => assert_eq!(r.len(), x.numel(), "residual length mismatch"),
        }
    }
    let xd = x.data();
    out.refit(x.shape().dims());
    #[inline(always)]
    unsafe fn run_plane<S: qn_simd::arch::SimdF32>(
        oplane: &mut [f32],
        xd: &[f32],
        stages: &[Stage<'_>],
        ci: usize,
        base: usize,
    ) {
        let n = oplane.len();
        let mut j = 0;
        while j + S::LANES <= n {
            let mut v = S::load(&xd[base + j..]);
            for stage in stages {
                match *stage {
                    Stage::Bias(bs) => v = v.add(S::splat(bs[ci])),
                    Stage::Scale(ss) => v = v.mul(S::splat(ss[ci])),
                    Stage::Norm {
                        mean,
                        inv,
                        gamma,
                        beta,
                    } => {
                        v = v
                            .sub(S::splat(mean[ci]))
                            .mul(S::splat(inv[ci]))
                            .mul(S::splat(gamma[ci]))
                            .add(S::splat(beta[ci]))
                    }
                    Stage::Relu => v = v.max(S::zero()),
                    Stage::Residual(r) => v = v.add(S::load(&r[base + j..])),
                }
            }
            v.store(&mut oplane[j..]);
            j += S::LANES;
        }
        run_scalar(&mut oplane[j..], xd, stages, ci, base + j);
    }
    fn run_scalar(oplane: &mut [f32], xd: &[f32], stages: &[Stage<'_>], ci: usize, base: usize) {
        for (j, o) in oplane.iter_mut().enumerate() {
            let mut v = xd[base + j];
            for stage in stages {
                match *stage {
                    Stage::Bias(bs) => v += bs[ci],
                    Stage::Scale(ss) => v *= ss[ci],
                    Stage::Norm {
                        mean,
                        inv,
                        gamma,
                        beta,
                    } => v = (v - mean[ci]) * inv[ci] * gamma[ci] + beta[ci],
                    Stage::Relu => v = v.max(0.0),
                    Stage::Residual(r) => v += r[base + j],
                }
            }
            *o = v;
        }
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn run_plane_avx2(
        oplane: &mut [f32],
        xd: &[f32],
        stages: &[Stage<'_>],
        ci: usize,
        base: usize,
    ) {
        run_plane::<qn_simd::arch::Avx2F32>(oplane, xd, stages, ci, base)
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    unsafe fn run_plane_sse2(
        oplane: &mut [f32],
        xd: &[f32],
        stages: &[Stage<'_>],
        ci: usize,
        base: usize,
    ) {
        run_plane::<qn_simd::arch::Sse2F32>(oplane, xd, stages, ci, base)
    }
    let fast = match KernelProfile::active() {
        KernelProfile::Fast => Some(qn_simd::SimdLevel::active()),
        KernelProfile::Exact => None,
    };
    qn_parallel::par_chunks_mut_min(out.data_mut(), hw.max(1), PAR_MIN_ELEMS, |plane, oplane| {
        let ci = plane % c;
        let base = plane * hw;
        match fast {
            // SAFETY: the dispatched level never exceeds the CPU's
            // detected features (`SimdLevel::active` clamps), and every
            // lane read stays inside `xd`/`r` because each `oplane`
            // chunk maps to the same-length `[base..)` window of the
            // equally-sized inputs.
            #[cfg(target_arch = "x86_64")]
            Some(qn_simd::SimdLevel::Avx2) => unsafe {
                run_plane_avx2(oplane, xd, stages, ci, base)
            },
            #[cfg(target_arch = "x86_64")]
            Some(qn_simd::SimdLevel::Sse2) => unsafe {
                run_plane_sse2(oplane, xd, stages, ci, base)
            },
            // SAFETY: `ScalarF32` has no ISA requirement.
            Some(_) => unsafe {
                run_plane::<qn_simd::arch::ScalarF32>(oplane, xd, stages, ci, base)
            },
            None => run_scalar(oplane, xd, stages, ci, base),
        }
    });
}
