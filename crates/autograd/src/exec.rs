//! Dual-mode execution: the [`Exec`] context abstraction and the tape-free
//! [`EagerExec`] arena.
//!
//! Every layer's forward pass is written once against [`Exec`], and every
//! op's forward value comes from one kernel (the crate-private `kernels`
//! module) that writes into a caller-provided output. Running a forward on
//! a [`Graph`] calls that kernel into a fresh tensor and records the
//! differentiation tape around it — parents, backward closure, and whether
//! the value is saved for backward (training). Running it on an
//! [`EagerExec`] calls the same kernel into a recycled arena slot with
//! **no** tape nodes, backward closures or operand clones (inference and
//! serving). Both contexts therefore produce bit-identical values in every
//! kernel profile.
//!
//! [`Var`] handles are indices into whichever context produced them; a `Var`
//! from one context is meaningless in another.
//!
//! # Example
//!
//! ```
//! use qn_autograd::{EagerExec, Exec, Graph};
//! use qn_tensor::Tensor;
//!
//! # fn main() -> Result<(), qn_tensor::TensorError> {
//! let x = Tensor::from_vec(vec![1.0, -2.0], &[2])?;
//! // taped
//! let mut g = Graph::new();
//! let v = g.leaf(x.clone());
//! let y = g.relu(v);
//! // tape-free
//! let mut e = EagerExec::new();
//! let v2 = e.leaf(x);
//! let y2 = e.relu(v2);
//! assert!(g.value(y).bit_identical(e.value(y2)));
//! # Ok(())
//! # }
//! ```

use crate::graph::{Graph, Var};
use crate::kernels::{self, channel_vec, Stage, MAX_STAGES};
use crate::Parameter;
use qn_tensor::{elemwise, BufferPool, Conv2dSpec, PoolSpec, Tensor};
use std::sync::Arc;

/// One stage of a fused elementwise pipeline over a `[B, C, H, W]`
/// activation — see [`Exec::elemwise_chain`].
///
/// Each stage is exactly one of the workspace's elementwise primitives,
/// with the **same per-element scalar expression**, so a fused chain is
/// bit-identical to running the stages as separate ops.
#[derive(Clone, Copy)]
pub enum ChainStage<'a> {
    /// `v += bias[c]` — a per-channel bias ([`Exec::add_channel`]). The
    /// `Var` must be a `[C]` tensor.
    AddChannel(Var),
    /// `v *= scale[c]` — a per-channel scale ([`Exec::mul_channel`]).
    MulChannel(Var),
    /// Inference batch normalization
    /// `v = (v - mean[c]) · 1/√(var[c] + eps) · gamma[c] + beta[c]`
    /// ([`Exec::batch_norm2d`] with running statistics). Inference-only:
    /// a training-mode [`Graph`] panics on it (training must go through the
    /// layer so running stats update).
    NormChannel {
        /// Per-channel scale parameter (`[C]`).
        gamma: Var,
        /// Per-channel shift parameter (`[C]`).
        beta: Var,
        /// Running mean (`[C]`).
        mean: &'a Tensor,
        /// Running variance (`[C]`).
        var: &'a Tensor,
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// `v = max(v, 0)` ([`Exec::relu`]).
    Relu,
    /// `v += residual[i]` — an elementwise residual add ([`Exec::add`]).
    /// The `Var` must have the same shape as the chain input.
    AddResidual(Var),
}

/// Execution context for a forward pass: either the differentiation tape
/// ([`Graph`]) or the allocation-light eager arena ([`EagerExec`]).
///
/// The op set mirrors [`Graph`]'s inherent forward ops one-to-one. Both
/// implementations compute each value with the same forward kernel, so
/// they agree **bit for bit** under either kernel profile (the
/// equivalence property suites in `qn-nn` and `qn-core` assert this for
/// every layer and neuron family). Ops panic on shape mismatch exactly like
/// their taped counterparts — see each [`Graph`] method for the per-op
/// contract.
///
/// Loss functions (`softmax_cross_entropy*`) and [`Graph::backward`] remain
/// tape-only: they exist to produce gradients.
pub trait Exec {
    /// Registers an input/constant tensor, returning its handle.
    fn leaf(&mut self, t: Tensor) -> Var;

    /// Registers a parameter's current value. On a [`Graph`] the leaf is
    /// bound so `backward` flushes its gradient; eagerly it is just a value.
    fn param(&mut self, p: &Parameter) -> Var;

    /// Value of a node.
    fn value(&self, v: Var) -> &Tensor;

    /// Whether stochastic/normalization layers should use training
    /// behaviour. Always `false` for [`EagerExec`].
    fn is_training(&self) -> bool;

    /// Elementwise sum of two same-shape nodes.
    fn add(&mut self, a: Var, b: Var) -> Var;
    /// Elementwise difference `a - b`.
    fn sub(&mut self, a: Var, b: Var) -> Var;
    /// Elementwise (Hadamard) product.
    fn mul(&mut self, a: Var, b: Var) -> Var;
    /// Multiplies every element by a constant.
    fn scale(&mut self, a: Var, s: f32) -> Var;
    /// Adds a constant to every element.
    fn add_scalar(&mut self, a: Var, s: f32) -> Var;
    /// Elementwise negation.
    fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }
    /// Elementwise square.
    fn square(&mut self, a: Var) -> Var;
    /// Elementwise integer power `xᵖ` (`p >= 1`).
    fn powi(&mut self, a: Var, p: i32) -> Var;
    /// Rectified linear unit.
    fn relu(&mut self, a: Var) -> Var;
    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Var) -> Var;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Var) -> Var;

    /// Adds `b` (a trailing-suffix shape of `a`) broadcast over leading dims.
    fn add_bcast(&mut self, a: Var, b: Var) -> Var;
    /// Multiplies by `b` broadcast over leading dims (suffix rule).
    fn mul_bcast(&mut self, a: Var, b: Var) -> Var;
    /// Adds a per-channel bias `[C]` to a `[B, C, H, W]` activation.
    fn add_channel(&mut self, a: Var, bias: Var) -> Var;
    /// Multiplies a `[B, C, H, W]` activation by a per-channel scale `[C]`.
    fn mul_channel(&mut self, a: Var, scale: Var) -> Var;

    /// Reshapes to `dims` (element count must match). Reshaping to the
    /// unchanged shape returns `a` itself.
    fn reshape(&mut self, a: Var, dims: &[usize]) -> Var;
    /// Permutes axes.
    fn permute(&mut self, a: Var, axes: &[usize]) -> Var;
    /// Concatenates nodes along `axis`.
    fn concat(&mut self, parts: &[Var], axis: usize) -> Var;
    /// Copies the half-open `[start, end)` range of `axis`.
    fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var;

    /// Sum of all elements, as a `[1]` tensor.
    fn sum_all(&mut self, a: Var) -> Var;
    /// Mean of all elements, as a `[1]` tensor.
    fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).numel() as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }
    /// Sums over `axis`, removing it.
    fn sum_axis(&mut self, a: Var, axis: usize) -> Var;
    /// Mean over `axis`, removing it.
    fn mean_axis(&mut self, a: Var, axis: usize) -> Var {
        let n = self.value(a).shape().dim(axis) as f32;
        let s = self.sum_axis(a, axis);
        self.scale(s, 1.0 / n)
    }

    /// Matrix product `a @ b` of `[M, K] × [K, N]`.
    fn matmul(&mut self, a: Var, b: Var) -> Var;
    /// Matrix product `a @ bᵀ` of `[M, K] × [N, K]ᵀ`.
    fn matmul_transb(&mut self, a: Var, b: Var) -> Var;
    /// Batched matrix product of `[N, M, K] × [N, K, P]`.
    fn bmm(&mut self, a: Var, b: Var) -> Var;

    /// Lowers `[B, C, H, W]` to patch rows `[B·OH·OW, C·K·K]`.
    fn im2col(&mut self, x: Var, spec: Conv2dSpec) -> Var;
    /// 2-D convolution of `[B, C, H, W]` with filters `[OC, C, K, K]`.
    fn conv2d(&mut self, x: Var, weight: Var, spec: Conv2dSpec) -> Var;
    /// Max pooling with a square window.
    fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var;
    /// Average pooling with a square window.
    fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var;
    /// Global average pooling: `[B, C, H, W] -> [B, C]`.
    fn global_avg_pool(&mut self, x: Var) -> Var;

    /// Numerically-stable softmax over the last axis.
    fn softmax_last(&mut self, x: Var) -> Var;
    /// Layer normalization over the last axis with affine `gamma`/`beta`.
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var;
    /// Batch normalization over `[B, C, H, W]`. In training mode (tape only)
    /// returns the batch statistics for the caller's running-stat update; in
    /// inference mode normalizes with the provided running statistics and
    /// returns `None`.
    fn batch_norm2d(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> (Var, Option<(Tensor, Tensor)>);
    /// Embedding lookup: gathers rows of `weight` (`[V, D]`) by token id.
    fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var;
    /// Inverted dropout; identity in inference mode.
    fn dropout(&mut self, x: Var, p: f32) -> Var;

    // ----- fused composites -----------------------------------------------
    //
    // Ops that would otherwise be chains of primitives. Each is one kernel
    // pass and — on a `Graph` — one tape node whose backward closure calls
    // the same backward primitives, in the same order, as the chain it
    // replaces, so values and gradients equal the decomposition's bit for
    // bit (`tests/composite_spec.rs` keeps the decompositions as the
    // executable reference).

    /// The quadratic energy `y₂[r, j] = Σᵢ λ[j, i] · f[r, j·k + i]²` of the
    /// paper's efficient neuron: `f` is `[rows, m·k]` (per-neuron feature
    /// groups of width `k`), `lambda` is `[m, k]`; returns `[rows, m]`.
    /// Equals `square → mul_bcast → sum_axis` over `f` viewed as
    /// `[rows, m, k]`.
    fn weighted_square_sum(&mut self, f: Var, lambda: Var, neurons: usize, k: usize) -> Var;

    /// Interleaves scalar outputs `y` (`[rows, m]`) with their feature
    /// groups `f` (`[rows, m·k]`) neuron-major into `[rows, m·(k+1)]`:
    /// `[y₀, f₀…, y₁, f₁…, …]` — the paper's vectorized output layout.
    fn interleave_last(&mut self, y: Var, f: Var, k: usize) -> Var;

    /// Reinterprets patch-major rows `[B·OH·OW, C]` (the output of a dense
    /// layer applied to im2col patches) as a `[B, C, OH, OW]` feature map.
    fn rows_to_nchw(&mut self, v: Var, b: usize, oh: usize, ow: usize, c: usize) -> Var;

    /// The paper's efficient quadratic neuron as a 2-D convolution: `m`
    /// neurons of rank `k` over the patches of `x` (`[B, C, H, W]`) with
    /// factors `q` (`[m·k, n]`), `lambda` (`[m, k]`), `w` (`[m, n]`) and `b`
    /// (`[m]`), `n = spec.patch_len(C)`. Returns `[B, m·(k+1), OH, OW]`:
    /// per neuron the output `y = xᵀQΛQᵀx + wᵀx + b`, then its `k` features
    /// `f = Qᵀx`. One GEMM over the stacked `[w_j; Q_j]` rows plus one
    /// epilogue pass, equal bit for bit under the `exact` kernel profile to
    /// `im2col` → `matmul_transb(q)` →
    /// [`weighted_square_sum`](Exec::weighted_square_sum) →
    /// `matmul_transb(w)` → `add_bcast(b)` → `add` →
    /// [`interleave_last`](Exec::interleave_last) →
    /// [`rows_to_nchw`](Exec::rows_to_nchw).
    fn quadratic_conv(
        &mut self,
        x: Var,
        q: Var,
        lambda: Var,
        w: Var,
        b: Var,
        spec: Conv2dSpec,
    ) -> Var;

    /// Elementwise pipeline over a `[B, C, H, W]` activation: applies the
    /// [`ChainStage`]s left to right. [`EagerExec`] runs the whole chain as
    /// a **single pass** over the activation — bias + norm + activation +
    /// residual in one sweep instead of one full memory pass per stage. A
    /// [`Graph`] records one node per stage (each stage owns its backward),
    /// computed by the same kernel one stage at a time; the values are
    /// bitwise-identical because each element sees the same scalar
    /// expressions in the same order.
    ///
    /// # Panics
    ///
    /// Panics on stage shape mismatches (each stage's primitive contract
    /// applies), and if a [`ChainStage::NormChannel`] stage runs in a
    /// training-mode context (running statistics would silently not
    /// update — use the normalization layer's training path instead).
    fn elemwise_chain(&mut self, x: Var, stages: &[ChainStage<'_>]) -> Var;

    /// Inference-only hook for kernels outside the op set (the int8 tier):
    /// `kernel` reads `x`'s value and fully overwrites the output, a tensor
    /// of shape `dims`. No gradient flows through the result — on a
    /// [`Graph`] it is a leaf; [`EagerExec`] writes it into a recycled slot,
    /// so a steady-state pass allocates nothing.
    fn detached(
        &mut self,
        x: Var,
        dims: &[usize],
        kernel: &mut dyn FnMut(&Tensor, &mut [f32]),
    ) -> Var;
}

impl Exec for Graph {
    fn leaf(&mut self, t: Tensor) -> Var {
        Graph::leaf(self, t)
    }
    fn param(&mut self, p: &Parameter) -> Var {
        Graph::param(self, p)
    }
    fn value(&self, v: Var) -> &Tensor {
        Graph::value(self, v)
    }
    fn is_training(&self) -> bool {
        Graph::is_training(self)
    }
    fn add(&mut self, a: Var, b: Var) -> Var {
        Graph::add(self, a, b)
    }
    fn sub(&mut self, a: Var, b: Var) -> Var {
        Graph::sub(self, a, b)
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        Graph::mul(self, a, b)
    }
    fn scale(&mut self, a: Var, s: f32) -> Var {
        Graph::scale(self, a, s)
    }
    fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        Graph::add_scalar(self, a, s)
    }
    fn square(&mut self, a: Var) -> Var {
        Graph::square(self, a)
    }
    fn powi(&mut self, a: Var, p: i32) -> Var {
        Graph::powi(self, a, p)
    }
    fn relu(&mut self, a: Var) -> Var {
        Graph::relu(self, a)
    }
    fn tanh(&mut self, a: Var) -> Var {
        Graph::tanh(self, a)
    }
    fn sigmoid(&mut self, a: Var) -> Var {
        Graph::sigmoid(self, a)
    }
    fn add_bcast(&mut self, a: Var, b: Var) -> Var {
        Graph::add_bcast(self, a, b)
    }
    fn mul_bcast(&mut self, a: Var, b: Var) -> Var {
        Graph::mul_bcast(self, a, b)
    }
    fn add_channel(&mut self, a: Var, bias: Var) -> Var {
        Graph::add_channel(self, a, bias)
    }
    fn mul_channel(&mut self, a: Var, scale: Var) -> Var {
        Graph::mul_channel(self, a, scale)
    }
    fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        Graph::reshape(self, a, dims)
    }
    fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        Graph::permute(self, a, axes)
    }
    fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        Graph::concat(self, parts, axis)
    }
    fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        Graph::slice_axis(self, a, axis, start, end)
    }
    fn sum_all(&mut self, a: Var) -> Var {
        Graph::sum_all(self, a)
    }
    fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        Graph::sum_axis(self, a, axis)
    }
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        Graph::matmul(self, a, b)
    }
    fn matmul_transb(&mut self, a: Var, b: Var) -> Var {
        Graph::matmul_transb(self, a, b)
    }
    fn bmm(&mut self, a: Var, b: Var) -> Var {
        Graph::bmm(self, a, b)
    }
    fn im2col(&mut self, x: Var, spec: Conv2dSpec) -> Var {
        Graph::im2col(self, x, spec)
    }
    fn conv2d(&mut self, x: Var, weight: Var, spec: Conv2dSpec) -> Var {
        Graph::conv2d(self, x, weight, spec)
    }
    fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        Graph::max_pool2d(self, x, spec)
    }
    fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        Graph::avg_pool2d(self, x, spec)
    }
    fn global_avg_pool(&mut self, x: Var) -> Var {
        Graph::global_avg_pool(self, x)
    }
    fn softmax_last(&mut self, x: Var) -> Var {
        Graph::softmax_last(self, x)
    }
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        Graph::layer_norm(self, x, gamma, beta, eps)
    }
    fn batch_norm2d(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> (Var, Option<(Tensor, Tensor)>) {
        Graph::batch_norm2d(self, x, gamma, beta, running_mean, running_var, eps)
    }
    fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var {
        Graph::embedding(self, weight, ids)
    }
    fn dropout(&mut self, x: Var, p: f32) -> Var {
        Graph::dropout(self, x, p)
    }
    fn weighted_square_sum(&mut self, f: Var, lambda: Var, neurons: usize, k: usize) -> Var {
        Graph::weighted_square_sum(self, f, lambda, neurons, k)
    }
    fn interleave_last(&mut self, y: Var, f: Var, k: usize) -> Var {
        Graph::interleave_last(self, y, f, k)
    }
    fn rows_to_nchw(&mut self, v: Var, b: usize, oh: usize, ow: usize, c: usize) -> Var {
        Graph::rows_to_nchw(self, v, b, oh, ow, c)
    }
    fn quadratic_conv(
        &mut self,
        x: Var,
        q: Var,
        lambda: Var,
        w: Var,
        b: Var,
        spec: Conv2dSpec,
    ) -> Var {
        Graph::quadratic_conv(self, x, q, lambda, w, b, spec)
    }
    fn elemwise_chain(&mut self, x: Var, stages: &[ChainStage<'_>]) -> Var {
        let mut v = x;
        for stage in stages {
            v = match *stage {
                ChainStage::AddChannel(bias) => self.add_channel(v, bias),
                ChainStage::MulChannel(scale) => self.mul_channel(v, scale),
                ChainStage::NormChannel {
                    gamma,
                    beta,
                    mean,
                    var,
                    eps,
                } => {
                    let (y, stats) = self.batch_norm2d(v, gamma, beta, mean, var, eps);
                    assert!(
                        stats.is_none(),
                        "elemwise_chain norm stages are inference-only"
                    );
                    y
                }
                ChainStage::Relu => self.relu(v),
                ChainStage::AddResidual(r) => self.add(v, r),
            };
        }
        v
    }
    fn detached(
        &mut self,
        x: Var,
        dims: &[usize],
        kernel: &mut dyn FnMut(&Tensor, &mut [f32]),
    ) -> Var {
        let mut out = Tensor::zeros(dims);
        kernel(self.value(x), out.data_mut());
        self.leaf(out)
    }
}

/// Tape-free eager execution arena for inference.
///
/// Holds only the computed activation tensors — no gradients, parents or
/// backward closures — and recycles **everything** across requests:
///
/// - **Slot recycling (high-water-mark arena):** [`EagerExec::reset`] does
///   not drop the computed tensors; it rewinds a cursor. The next pass
///   hands each op kernel its slot's tensor to refit in place, so a
///   steady-state serving loop that repeats the same op sequence (the
///   common case: one model, one request shape) performs **zero heap
///   allocations** — the `alloc` bench in `qn-bench` proves this with a
///   counting allocator.
/// - **Pooled scratch:** kernel workspace that is not an activation (the
///   im2col patch matrix inside `conv2d` and `quadratic_conv`, the latter's
///   stacked weight, per-channel `1/σ` vectors in batch norm) is drawn
///   from — and returned to — the arena's [`BufferPool`]
///   ([`EagerExec::with_pool`]; `new` uses the global pool).
/// - **Parameter snapshots** are recycled across resets exactly as before:
///   `param` moves a weight tensor out of an internal cache instead of
///   cloning the parameter storage, and `reset` moves it back. The cache is
///   keyed by parameter storage identity (holding the [`Parameter`] handle,
///   so identity cannot be recycled) and invalidated by
///   [`Parameter::version`], so a weight update between requests triggers
///   exactly one fresh snapshot.
///
/// Recycled buffers carry stale contents; every kernel fully overwrites
/// (or zero-fills) its output, and the `pool_equivalence` property suite
/// asserts pooled execution is bit-identical to fresh-allocation execution
/// even when the pool is pre-poisoned with NaN garbage.
///
/// Always in inference mode: dropout is the identity and batch norm uses
/// running statistics.
pub struct EagerExec {
    /// Arena slots. `values[..live]` are this pass's nodes; slots past
    /// `live` are spare tensors from the previous pass awaiting refit.
    /// `None` marks a slot whose tensor was moved out (`take`, or a
    /// parameter snapshot reclaimed by `reset`).
    values: Vec<Option<Tensor>>,
    /// Number of live nodes in the current pass.
    live: usize,
    /// Scratch-buffer pool (see the type-level docs).
    pool: Arc<BufferPool>,
    /// `(parameter handle, version, snapshot)` of parameters not currently
    /// in the arena. Holding the handle keeps the storage alive, so
    /// identity can never be recycled to a different parameter (no
    /// pointer-reuse aliasing). Linear scan: models hold tens of
    /// parameters, not thousands.
    param_cache: Vec<(Parameter, u64, Tensor)>,
    /// `(arena slot, parameter handle, version)` of parameters pushed
    /// since the last reset, so their snapshots can be reclaimed.
    param_slots: Vec<(usize, Parameter, u64)>,
}

impl Default for EagerExec {
    fn default() -> Self {
        EagerExec::new()
    }
}

/// The live prefix of an arena: the values op kernels read.
#[derive(Clone, Copy)]
struct Live<'a>(&'a [Option<Tensor>]);

impl<'a> Live<'a> {
    fn get(self, v: Var) -> &'a Tensor {
        self.0
            .get(v.id)
            .and_then(|slot| slot.as_ref())
            .expect("var is not live in this arena")
    }
}

impl EagerExec {
    /// Creates an empty arena backed by the global [`BufferPool`].
    pub fn new() -> Self {
        EagerExec::with_pool(Arc::clone(BufferPool::global()))
    }

    /// Creates an empty arena drawing kernel scratch from `pool` — used by
    /// `InferenceSession` to give every session (and every batch-shard
    /// worker) its own isolated pool.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        EagerExec {
            values: Vec::new(),
            live: 0,
            pool,
            param_cache: Vec::new(),
            param_slots: Vec::new(),
        }
    }

    /// The pool this arena recycles kernel scratch through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Rewinds the arena while keeping every slot's tensor for in-place
    /// reuse by the next pass; parameter snapshots move back into the
    /// recycle cache.
    pub fn reset(&mut self) {
        for (slot, param, version) in self.param_slots.drain(..) {
            if let Some(t) = self.values[slot].take() {
                self.param_cache.push((param, version, t));
            }
        }
        self.live = 0;
    }

    /// Number of live values in the current pass.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if the arena holds no live values.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Removes the value of `v` from the arena, transferring ownership to
    /// the caller (the slot refills on the next pass). Used by serving code
    /// to extract the output without a final copy; note that a serving loop
    /// gets a cheaper steady state by *copying* the output into a pooled
    /// tensor instead, which keeps the slot's buffer in the arena.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not live in this arena.
    pub fn take(&mut self, v: Var) -> Tensor {
        assert!(v.id < self.live, "var is not live in this arena");
        // if the caller extracts a parameter leaf, it must not be recycled
        self.param_slots.retain(|(slot, _, _)| *slot != v.id);
        self.values[v.id].take().expect("value already taken")
    }

    /// Registers an input by **copying** it into a recycled slot — the
    /// allocation-free counterpart of `leaf(x.clone())`.
    pub fn leaf_view(&mut self, t: &Tensor) -> Var {
        self.leaf_reshaped(t, t.shape().dims())
    }

    /// Registers an input by copying it into a recycled slot under a
    /// different shape (same element count) — lets `predict` add a batch
    /// dimension without materializing an intermediate reshape.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has a different element count than `t`.
    pub fn leaf_reshaped(&mut self, t: &Tensor, dims: &[usize]) -> Var {
        let numel: usize = dims.iter().product();
        assert_eq!(t.numel(), numel, "leaf_reshaped element count mismatch");
        self.emit(|out, _| kernels::reshape(out, t, dims))
    }

    /// Registers rows `[lo, hi)` of `t`'s leading axis by copying them into
    /// a recycled slot — the allocation-free counterpart of
    /// `leaf(t.slice_axis(0, lo, hi))`, used by sharded batch inference.
    ///
    /// # Panics
    ///
    /// Panics if `t` is rank 0, the range is out of bounds or inverted, or
    /// the rank exceeds 16.
    pub fn leaf_slice0(&mut self, t: &Tensor, lo: usize, hi: usize) -> Var {
        assert!(t.ndim() > 0, "leaf_slice0 needs a leading axis");
        self.emit(|out, _| kernels::slice_axis(out, t, 0, lo, hi))
    }

    /// Moves an owned tensor into the next slot (dropping any spare buffer
    /// the slot held). The op implementations use `emit`, which recycles
    /// instead.
    fn push(&mut self, value: Tensor) -> Var {
        if self.live == self.values.len() {
            self.values.push(Some(value));
        } else {
            self.values[self.live] = Some(value);
        }
        self.commit()
    }

    /// Runs an op kernel into the next slot's (possibly spare) tensor,
    /// reading its inputs from the live prefix, and makes the slot live.
    fn emit(&mut self, kernel: impl FnOnce(&mut Tensor, Live<'_>)) -> Var {
        if self.live == self.values.len() {
            self.values.push(None);
        }
        let (head, tail) = self.values.split_at_mut(self.live);
        kernel(tail[0].get_or_insert_with(kernels::fresh), Live(head));
        self.commit()
    }

    fn commit(&mut self) -> Var {
        let id = self.live;
        self.live += 1;
        Var { id }
    }
}

impl Exec for EagerExec {
    fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t)
    }

    fn param(&mut self, p: &Parameter) -> Var {
        let version = p.version();
        let snapshot = match self
            .param_cache
            .iter()
            .position(|(cp, v, _)| cp.same_storage(p) && *v == version)
        {
            Some(i) => self.param_cache.swap_remove(i).2,
            None => {
                // drop only *stale* snapshots of this parameter; same-version
                // copies stay cached (weight sharing uses several per pass)
                self.param_cache
                    .retain(|(cp, v, _)| !cp.same_storage(p) || *v == version);
                p.value()
            }
        };
        let var = self.push(snapshot);
        self.param_slots.push((var.id, p.clone(), version));
        var
    }

    fn value(&self, v: Var) -> &Tensor {
        assert!(v.id < self.live, "var is not live in this arena");
        self.values[v.id].as_ref().expect("value was taken")
    }

    fn is_training(&self) -> bool {
        false
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        self.emit(|o, v| kernels::binary(o, v.get(a), v.get(b), elemwise::add_to))
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        self.emit(|o, v| kernels::binary(o, v.get(a), v.get(b), elemwise::sub_to))
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        self.emit(|o, v| kernels::binary(o, v.get(a), v.get(b), elemwise::mul_to))
    }

    fn scale(&mut self, a: Var, s: f32) -> Var {
        self.emit(|o, v| kernels::unary(o, v.get(a), |d, x| elemwise::scale_to(d, x, s)))
    }

    fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        self.emit(|o, v| kernels::unary(o, v.get(a), |d, x| elemwise::add_scalar_to(d, x, s)))
    }

    fn square(&mut self, a: Var) -> Var {
        self.emit(|o, v| kernels::unary(o, v.get(a), elemwise::square_to))
    }

    fn powi(&mut self, a: Var, p: i32) -> Var {
        assert!(p >= 1, "powi requires p >= 1, got {p}");
        self.emit(|o, v| kernels::unary(o, v.get(a), |d, x| elemwise::map_to(d, x, |x| x.powi(p))))
    }

    fn relu(&mut self, a: Var) -> Var {
        self.emit(|o, v| kernels::unary(o, v.get(a), elemwise::relu_to))
    }

    fn tanh(&mut self, a: Var) -> Var {
        self.emit(|o, v| kernels::unary(o, v.get(a), |d, x| elemwise::map_to(d, x, f32::tanh)))
    }

    fn sigmoid(&mut self, a: Var) -> Var {
        self.emit(|o, v| kernels::unary(o, v.get(a), elemwise::sigmoid_to))
    }

    fn add_bcast(&mut self, a: Var, b: Var) -> Var {
        self.emit(|o, v| kernels::bcast(o, v.get(a), v.get(b), |x, y| x + y))
    }

    fn mul_bcast(&mut self, a: Var, b: Var) -> Var {
        self.emit(|o, v| kernels::bcast(o, v.get(a), v.get(b), |x, y| x * y))
    }

    fn add_channel(&mut self, a: Var, bias: Var) -> Var {
        self.elemwise_chain(a, &[ChainStage::AddChannel(bias)])
    }

    fn mul_channel(&mut self, a: Var, scale: Var) -> Var {
        self.elemwise_chain(a, &[ChainStage::MulChannel(scale)])
    }

    fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        if self.value(a).shape().dims() == dims {
            // shape is unchanged: reuse the node, no copy
            return a;
        }
        self.emit(|o, v| kernels::reshape(o, v.get(a), dims))
    }

    fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        self.emit(|o, v| kernels::permute(o, v.get(a), axes))
    }

    fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        self.emit(|o, v| kernels::concat(o, parts.len(), |i| v.get(parts[i]), axis))
    }

    fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        self.emit(|o, v| kernels::slice_axis(o, v.get(a), axis, start, end))
    }

    fn sum_all(&mut self, a: Var) -> Var {
        self.emit(|o, v| kernels::sum_all(o, v.get(a)))
    }

    fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        self.emit(|o, v| kernels::sum_axis(o, v.get(a), axis))
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.emit(|o, v| kernels::matmul(o, v.get(a), v.get(b)))
    }

    fn matmul_transb(&mut self, a: Var, b: Var) -> Var {
        self.emit(|o, v| kernels::matmul_transb(o, v.get(a), v.get(b)))
    }

    fn bmm(&mut self, a: Var, b: Var) -> Var {
        self.emit(|o, v| kernels::bmm(o, v.get(a), v.get(b)))
    }

    fn im2col(&mut self, x: Var, spec: Conv2dSpec) -> Var {
        self.emit(|o, v| kernels::im2col(o, v.get(x), spec))
    }

    fn conv2d(&mut self, x: Var, weight: Var, spec: Conv2dSpec) -> Var {
        // the patch matrix lives in pool scratch (an RAII handout that
        // returns to the pool when dropped, panic paths included), so the
        // steady state allocates nothing
        let pool = Arc::clone(&self.pool);
        self.emit(|o, v| {
            kernels::conv2d(o, v.get(x), v.get(weight), spec, |n| {
                BufferPool::take_ref(&pool, n)
            });
        })
    }

    fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        // values only: inference never needs the argmax indices
        self.emit(|o, v| kernels::max_pool(o, v.get(x), spec, None))
    }

    fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        self.emit(|o, v| kernels::avg_pool(o, v.get(x), spec))
    }

    fn global_avg_pool(&mut self, x: Var) -> Var {
        self.emit(|o, v| kernels::global_avg_pool(o, v.get(x)))
    }

    fn softmax_last(&mut self, x: Var) -> Var {
        self.emit(|o, v| kernels::softmax_last(o, v.get(x)))
    }

    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        self.emit(|o, v| kernels::layer_norm(o, v.get(x), v.get(gamma), v.get(beta), eps))
    }

    fn batch_norm2d(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> (Var, Option<(Tensor, Tensor)>) {
        // inference-only: normalize with running statistics through the
        // chain kernel (one pass, pooled 1/σ scratch, recycled output slot)
        let stages = [ChainStage::NormChannel {
            gamma,
            beta,
            mean: running_mean,
            var: running_var,
            eps,
        }];
        (self.elemwise_chain(x, &stages), None)
    }

    fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var {
        self.emit(|o, v| kernels::embedding(o, v.get(weight), ids))
    }

    fn dropout(&mut self, x: Var, p: f32) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0, 1), got {p}"
        );
        // inference mode: identity (no new node needed)
        x
    }

    fn weighted_square_sum(&mut self, f: Var, lambda: Var, neurons: usize, k: usize) -> Var {
        self.emit(|o, v| kernels::weighted_square_sum(o, v.get(f), v.get(lambda), neurons, k))
    }

    fn interleave_last(&mut self, y: Var, f: Var, k: usize) -> Var {
        self.emit(|o, v| kernels::interleave_last(o, v.get(y), v.get(f), k))
    }

    fn rows_to_nchw(&mut self, x: Var, b: usize, oh: usize, ow: usize, c: usize) -> Var {
        self.emit(|o, v| kernels::rows_to_nchw(o, v.get(x), b, oh, ow, c))
    }

    fn quadratic_conv(
        &mut self,
        x: Var,
        q: Var,
        lambda: Var,
        w: Var,
        b: Var,
        spec: Conv2dSpec,
    ) -> Var {
        // patch matrix and stacked weight are pool scratch, as in conv2d
        let pool = Arc::clone(&self.pool);
        self.emit(|o, v| {
            let (x, q, lambda) = (v.get(x), v.get(q), v.get(lambda));
            kernels::quadratic_conv(o, x, q, lambda, v.get(w), v.get(b), spec, |n| {
                BufferPool::take_ref(&pool, n)
            });
        })
    }

    fn elemwise_chain(&mut self, x: Var, stages: &[ChainStage<'_>]) -> Var {
        assert!(
            stages.len() <= MAX_STAGES,
            "elemwise_chain supports at most {MAX_STAGES} stages"
        );
        let pool = Arc::clone(&self.pool);
        // per-Norm-stage 1/σ scratch, drawn from the pool
        let mut inv_scratch: [Option<Vec<f32>>; MAX_STAGES] = Default::default();
        for (si, stage) in stages.iter().enumerate() {
            if let ChainStage::NormChannel { var, eps, .. } = stage {
                let mut inv = pool.take_f32(var.numel());
                kernels::inv_std_into(&mut inv, var.data(), *eps);
                inv_scratch[si] = Some(inv);
            }
        }
        let out = self.emit(|o, v| {
            let xv = v.get(x);
            let mut resolved = [Stage::Relu; MAX_STAGES];
            for (si, stage) in stages.iter().enumerate() {
                resolved[si] = match *stage {
                    ChainStage::AddChannel(bias) => Stage::Bias(channel_vec(v.get(bias), "bias")),
                    ChainStage::MulChannel(scale) => {
                        Stage::Scale(channel_vec(v.get(scale), "scale"))
                    }
                    ChainStage::NormChannel {
                        gamma, beta, mean, ..
                    } => Stage::Norm {
                        mean: mean.data(),
                        inv: inv_scratch[si].as_deref().expect("computed above"),
                        gamma: v.get(gamma).data(),
                        beta: v.get(beta).data(),
                    },
                    ChainStage::Relu => Stage::Relu,
                    ChainStage::AddResidual(r) => {
                        let rv = v.get(r);
                        assert_eq!(
                            rv.shape(),
                            xv.shape(),
                            "zip shape mismatch: {} vs {}",
                            rv.shape(),
                            xv.shape()
                        );
                        Stage::Residual(rv.data())
                    }
                };
            }
            kernels::chain(o, xv, &resolved[..stages.len()]);
        });
        for inv in inv_scratch.into_iter().flatten() {
            pool.give_f32(inv);
        }
        out
    }

    fn detached(
        &mut self,
        x: Var,
        dims: &[usize],
        kernel: &mut dyn FnMut(&Tensor, &mut [f32]),
    ) -> Var {
        self.emit(|o, v| {
            o.refit(dims);
            kernel(v.get(x), o.data_mut());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_tensor::Rng;

    /// Runs `f` on both contexts and asserts identical outputs.
    fn both(f: impl Fn(&mut dyn Exec) -> Var) -> (Tensor, Tensor) {
        let mut g = Graph::new();
        let tv = f(&mut g);
        let mut e = EagerExec::new();
        let ev = f(&mut e);
        (g.value(tv).clone(), e.value(ev).clone())
    }

    #[test]
    fn elementwise_ops_match_tape() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[3, 4], &mut rng);
        for op in [
            |cx: &mut dyn Exec, v: Var| cx.relu(v),
            |cx: &mut dyn Exec, v: Var| cx.tanh(v),
            |cx: &mut dyn Exec, v: Var| cx.sigmoid(v),
            |cx: &mut dyn Exec, v: Var| cx.square(v),
            |cx: &mut dyn Exec, v: Var| cx.powi(v, 3),
            |cx: &mut dyn Exec, v: Var| cx.scale(v, -2.5),
            |cx: &mut dyn Exec, v: Var| cx.add_scalar(v, 0.7),
            |cx: &mut dyn Exec, v: Var| cx.neg(v),
        ] {
            let (t, e) = both(|cx| {
                let v = cx.leaf(x.clone());
                op(cx, v)
            });
            assert!(t.allclose(&e, 0.0));
        }
    }

    #[test]
    fn conv2d_matches_tape_exactly() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let w = Tensor::randn(&[5, 3, 3, 3], &mut rng);
        for spec in [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(3, 2, 0)] {
            let (t, e) = both(|cx| {
                let xv = cx.leaf(x.clone());
                let wv = cx.leaf(w.clone());
                cx.conv2d(xv, wv, spec)
            });
            assert_eq!(t.shape().dims(), e.shape().dims());
            assert!(t.allclose(&e, 0.0), "fused conv must be bitwise equal");
        }
    }

    #[test]
    fn norms_and_softmax_match_tape() {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[2, 4, 8], &mut rng).scale(3.0);
        let gamma = Tensor::rand_uniform(&[8], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn(&[8], &mut rng);
        let (t, e) = both(|cx| {
            let xv = cx.leaf(x.clone());
            let gv = cx.leaf(gamma.clone());
            let bv = cx.leaf(beta.clone());
            cx.layer_norm(xv, gv, bv, 1e-5)
        });
        assert!(t.allclose(&e, 0.0));
        let (t, e) = both(|cx| {
            let xv = cx.leaf(x.clone());
            cx.softmax_last(xv)
        });
        assert!(t.allclose(&e, 0.0));
    }

    #[test]
    fn batch_norm_inference_matches_tape() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let gamma = Tensor::rand_uniform(&[3], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn(&[3], &mut rng);
        let rm = Tensor::randn(&[3], &mut rng);
        let rv = Tensor::rand_uniform(&[3], 0.5, 2.0, &mut rng);
        let (t, e) = both(|cx| {
            let xv = cx.leaf(x.clone());
            let gv = cx.leaf(gamma.clone());
            let bv = cx.leaf(beta.clone());
            let (y, stats) = cx.batch_norm2d(xv, gv, bv, &rm, &rv, 1e-5);
            assert!(stats.is_none());
            y
        });
        assert!(t.allclose(&e, 0.0));
    }

    #[test]
    fn pooling_and_shape_ops_match_tape() {
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        for op in [
            |cx: &mut dyn Exec, v: Var| cx.max_pool2d(v, PoolSpec::new(2, 2)),
            |cx: &mut dyn Exec, v: Var| cx.avg_pool2d(v, PoolSpec::new(3, 3)),
            |cx: &mut dyn Exec, v: Var| cx.global_avg_pool(v),
            |cx: &mut dyn Exec, v: Var| cx.reshape(v, &[6, 36]),
            |cx: &mut dyn Exec, v: Var| cx.permute(v, &[0, 2, 3, 1]),
            |cx: &mut dyn Exec, v: Var| cx.slice_axis(v, 1, 1, 3),
            |cx: &mut dyn Exec, v: Var| cx.im2col(v, Conv2dSpec::new(3, 1, 1)),
            |cx: &mut dyn Exec, v: Var| cx.sum_axis(v, 2),
            |cx: &mut dyn Exec, v: Var| cx.mean_axis(v, 1),
            |cx: &mut dyn Exec, v: Var| cx.sum_all(v),
            |cx: &mut dyn Exec, v: Var| cx.mean_all(v),
        ] {
            let (t, e) = both(|cx| {
                let v = cx.leaf(x.clone());
                op(cx, v)
            });
            assert!(t.allclose(&e, 0.0));
        }
    }

    #[test]
    fn matmuls_and_bcast_match_tape() {
        let mut rng = Rng::seed_from(6);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 5], &mut rng);
        let bt = Tensor::randn(&[5, 4], &mut rng);
        let bias = Tensor::randn(&[4], &mut rng);
        let (t, e) = both(|cx| {
            let av = cx.leaf(a.clone());
            let bv = cx.leaf(b.clone());
            cx.matmul(av, bv)
        });
        assert!(t.allclose(&e, 0.0));
        let (t, e) = both(|cx| {
            let av = cx.leaf(a.clone());
            let bv = cx.leaf(bt.clone());
            cx.matmul_transb(av, bv)
        });
        assert!(t.allclose(&e, 0.0));
        type BcastOp = fn(&mut dyn Exec, Var, Var) -> Var;
        let bcast_ops: [BcastOp; 2] =
            [|cx, a, b| cx.add_bcast(a, b), |cx, a, b| cx.mul_bcast(a, b)];
        for op in bcast_ops {
            let (t, e) = both(|cx| {
                let av = cx.leaf(a.clone());
                let bv = cx.leaf(bias.clone());
                op(cx, av, bv)
            });
            assert!(t.allclose(&e, 0.0));
        }
        let a3 = Tensor::randn(&[2, 3, 4], &mut rng);
        let b3 = Tensor::randn(&[2, 4, 2], &mut rng);
        let (t, e) = both(|cx| {
            let av = cx.leaf(a3.clone());
            let bv = cx.leaf(b3.clone());
            cx.bmm(av, bv)
        });
        assert!(t.allclose(&e, 0.0));
    }

    #[test]
    fn eager_dropout_and_embedding() {
        let mut rng = Rng::seed_from(7);
        let mut e = EagerExec::new();
        let x = e.leaf(Tensor::randn(&[2, 2], &mut rng));
        let y = e.dropout(x, 0.5);
        assert_eq!(x, y, "eager dropout is the identity");
        let w = e.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let emb = e.embedding(w, &[1, 0]);
        assert_eq!(e.value(emb).data(), &[3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn reset_retains_capacity_and_take_moves() {
        let mut e = EagerExec::new();
        let v = e.leaf(Tensor::ones(&[4]));
        let w = e.relu(v);
        assert_eq!(e.len(), 2);
        let out = e.take(w);
        assert_eq!(out.data(), &[1.0, 1.0, 1.0, 1.0]);
        e.reset();
        assert!(e.is_empty());
        // arena is reusable after reset
        let v2 = e.leaf(Tensor::zeros(&[2]));
        assert_eq!(v2.id, 0);
    }

    #[test]
    fn eager_param_is_not_bound() {
        let p = Parameter::new(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mut e = EagerExec::new();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[2.0]);
        assert!(!e.is_training());
    }

    #[test]
    fn eager_param_snapshots_recycle_and_invalidate() {
        let p = Parameter::new(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let mut e = EagerExec::new();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[1.0, 2.0]);
        // recycled across reset: same value, no stale data
        e.reset();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[1.0, 2.0]);
        // a weight update invalidates the cached snapshot
        e.reset();
        p.update(|value, _| value.map_inplace(|x| x + 10.0));
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[11.0, 12.0]);
        // weight sharing: the same parameter twice in one pass
        e.reset();
        let a = e.param(&p);
        let b = e.param(&p);
        assert_eq!(e.value(a).data(), &[11.0, 12.0]);
        assert_eq!(e.value(b).data(), &[11.0, 12.0]);
        e.reset();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[11.0, 12.0]);
        // taking a param leaf out of the arena must not poison the cache
        let t = e.take(v);
        assert_eq!(t.data(), &[11.0, 12.0]);
        e.reset();
        let v = e.param(&p);
        assert_eq!(e.value(v).data(), &[11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "token id 9 out of range")]
    fn eager_embedding_bounds_checked() {
        let mut e = EagerExec::new();
        let w = e.leaf(Tensor::zeros(&[3, 2]));
        e.embedding(w, &[9]);
    }
}
