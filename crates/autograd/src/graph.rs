use crate::Parameter;
use qn_tensor::{BufferPool, Rng, Tensor};
use std::sync::Arc;

/// Handle to a node on a [`Graph`] tape.
///
/// `Var` is a cheap copyable index; all operations live on [`Graph`]
/// (`g.add(a, b)`, `g.matmul(a, b)`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    pub(crate) id: usize,
}

/// Backward functions run **once**, consuming the node's upstream gradient
/// by value — so derivatives that only rescale or mask the gradient (the
/// activation family) rewrite it in place via `zip_inplace` instead of
/// allocating a fresh mask tensor.
pub(crate) type BackwardFn = Box<dyn FnOnce(Tensor) -> Vec<Tensor>>;

/// Source of an op's saved-for-backward buffers (see [`Graph::scratch`]):
/// pooled buffers carry unspecified contents and must be fully written;
/// [`Scratch::give`] hands them back once the backward pass is done.
#[derive(Clone)]
pub(crate) struct Scratch(Option<Arc<BufferPool>>);

impl Scratch {
    /// A buffer of `len` elements (zeroed only when freshly allocated).
    pub(crate) fn take(&self, len: usize) -> Vec<f32> {
        match &self.0 {
            Some(pool) => pool.take_f32(len),
            None => vec![0.0; len],
        }
    }

    /// Returns a spent buffer to the pool (a no-op without one).
    pub(crate) fn give(&self, buf: Vec<f32>) {
        if let Some(pool) = &self.0 {
            pool.give_f32(buf);
        }
    }
}

pub(crate) struct Node {
    /// Forward value. `None` once reclaimed into the attached buffer pool
    /// (only ever happens for ops pushed as *ephemeral*, during a pooled
    /// backward sweep).
    pub value: Option<Tensor>,
    pub grad: Option<Tensor>,
    pub parents: Vec<usize>,
    pub backward: Option<BackwardFn>,
    /// Whether the stored `value` must survive the backward sweep. `true`
    /// (the conservative default of [`Graph::push`]) for leaves, parameter
    /// bindings and any op that does not explicitly opt out;
    /// [`Graph::push_ephemeral`] marks ops whose backward closure captures
    /// everything it needs, letting a pooled sweep recycle the activation.
    pub keep_value: bool,
}

/// A single forward pass recorded as a differentiation tape.
///
/// Create one `Graph` per training step, feed inputs with [`Graph::leaf`]
/// and parameters with [`Graph::param`], build the computation through the
/// op methods, then call [`Graph::backward`] on a scalar output.
///
/// The graph carries a `training` flag (consulted by dropout and batch
/// norm) and its own [`Rng`] so stochastic layers are reproducible.
///
/// # Buffer recycling
///
/// With a [`BufferPool`] attached ([`Graph::set_pool`] /
/// [`Graph::training_pooled`]), the backward sweep returns to the pool:
/// each intermediate activation whose op declared its value *not* needed by
/// the backward pass (per-op saved-for-backward declarations — every
/// built-in op's closure captures its own operands, so all of them opt in;
/// the conservative default for new ops is to keep), and each distributed
/// gradient buffer once accumulated. Step `N+1`'s pooled consumers (the
/// GEMM packing scratch, `EagerExec` arenas, `Tensor::from_pooled` call
/// sites) then reuse step `N`'s buffers instead of hitting the allocator.
/// After a pooled backward, [`Graph::value`] of a reclaimed intermediate
/// panics — read intermediate values before calling `backward`, or leave
/// the pool unattached (the default, which reclaims nothing).
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    bindings: Vec<(usize, Parameter)>,
    training: bool,
    pool: Option<Arc<BufferPool>>,
    pub(crate) rng: Rng,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Graph {
    /// Creates an inference-mode graph (training features disabled).
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            bindings: Vec::new(),
            training: false,
            pool: None,
            rng: Rng::seed_from(0),
        }
    }

    /// Creates a training-mode graph with a seeded RNG for stochastic ops.
    pub fn training(seed: u64) -> Self {
        Graph {
            nodes: Vec::new(),
            bindings: Vec::new(),
            training: true,
            pool: None,
            rng: Rng::seed_from(seed),
        }
    }

    /// Creates a training-mode graph whose backward sweep recycles
    /// intermediate buffers into `pool` (see the type-level docs).
    pub fn training_pooled(seed: u64, pool: Arc<BufferPool>) -> Self {
        let mut g = Graph::training(seed);
        g.pool = Some(pool);
        g
    }

    /// Attaches a buffer pool: the backward sweep will reclaim ephemeral
    /// activation values and spent gradient buffers into it (see the
    /// type-level docs). Without a pool (the default), nothing is
    /// reclaimed and every value stays readable after `backward`.
    pub fn set_pool(&mut self, pool: Arc<BufferPool>) {
        self.pool = Some(pool);
    }

    /// Consumes the graph, returning **every** remaining tensor buffer —
    /// node values, gradients — to `pool`. Call at the end of a training
    /// step so the next step's pooled allocations reuse this step's
    /// storage.
    pub fn recycle_into(self, pool: &BufferPool) {
        for node in self.nodes {
            if let Some(v) = node.value {
                v.into_pool(pool);
            }
            if let Some(g) = node.grad {
                g.into_pool(pool);
            }
        }
    }

    /// Where an op draws the buffers its backward closure owns: the
    /// attached pool, or plain allocation when there is none.
    pub(crate) fn scratch(&self) -> Scratch {
        Scratch(self.pool.clone())
    }

    /// Whether stochastic/normalization layers should use training behaviour.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a leaf holding `value` (an input or constant).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, vec![], None)
    }

    /// Records a leaf bound to a persistent [`Parameter`]; after
    /// [`Graph::backward`] the leaf's gradient is accumulated into the
    /// parameter's `.grad()` storage.
    pub fn param(&mut self, p: &Parameter) -> Var {
        let v = self.leaf(p.value());
        self.bindings.push((v.id, p.clone()));
        v
    }

    /// Value of a node.
    ///
    /// # Panics
    ///
    /// Panics if the value was reclaimed into an attached buffer pool by a
    /// pooled backward sweep (see the type-level docs).
    pub fn value(&self, v: Var) -> &Tensor {
        self.nodes[v.id]
            .value
            .as_ref()
            .expect("node value was reclaimed into the buffer pool during backward")
    }

    /// Gradient of a node, if backward has reached it. After the sweep,
    /// gradients remain available for **leaves** (inputs and parameter
    /// bindings); an intermediate op's gradient is consumed by its own
    /// backward function.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.id].grad.as_ref()
    }

    /// Records a node whose `value` is kept through a pooled backward sweep
    /// — the conservative default for ops that do not declare otherwise.
    pub(crate) fn push(
        &mut self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        self.push_node(value, parents, backward, true)
    }

    /// Records a node declaring that its stored `value` is **not** read by
    /// its backward function (the closure captures everything it needs), so
    /// a pooled sweep may recycle the activation buffer.
    pub(crate) fn push_ephemeral(
        &mut self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        self.push_node(value, parents, backward, false)
    }

    fn push_node(
        &mut self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
        keep_value: bool,
    ) -> Var {
        let id = self.nodes.len();
        self.nodes.push(Node {
            value: Some(value),
            grad: None,
            parents,
            backward,
            keep_value,
        });
        Var { id }
    }

    /// Runs reverse-mode differentiation from a scalar output, then flushes
    /// gradients into every bound [`Parameter`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is not a single-element tensor.
    pub fn backward(&mut self, out: Var) {
        self.backward_sweep(out);
        for (id, p) in &self.bindings {
            if let Some(g) = &self.nodes[*id].grad {
                p.accumulate_grad(g);
            }
        }
    }

    /// Runs reverse-mode differentiation like [`Graph::backward`], but
    /// instead of flushing into the bound [`Parameter`]s, returns each
    /// binding's gradient as `(parameter, gradient)` pairs in binding
    /// order (a weight shared across several leaves yields one pair per
    /// leaf).
    ///
    /// This is the data-parallel training primitive: worker shards collect
    /// their gradients independently, and the caller accumulates them in a
    /// fixed shard order so the summation stays deterministic — flushing
    /// concurrently from several threads would make the floating-point
    /// accumulation order (and thus the result bits) depend on scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not a single-element tensor.
    pub fn backward_collect(&mut self, out: Var) -> Vec<(Parameter, Tensor)> {
        self.backward_sweep(out);
        self.bindings
            .iter()
            .filter_map(|(id, p)| self.nodes[*id].grad.clone().map(|g| (p.clone(), g)))
            .collect()
    }

    fn backward_sweep(&mut self, out: Var) {
        let out_value = self.value(out);
        assert_eq!(
            out_value.numel(),
            1,
            "backward requires a scalar output, got shape {}",
            out_value.shape()
        );
        let seed = Tensor::ones(out_value.shape().dims());
        self.nodes[out.id].grad = Some(seed);
        let pool = self.pool.clone();
        for i in (0..=out.id).rev() {
            if self.nodes[i].grad.is_none() {
                continue; // gradient never reached this node
            }
            let Some(bw) = self.nodes[i].backward.take() else {
                continue; // leaf: keep the grad for the user / bindings
            };
            // The backward fn consumes the upstream gradient by value: no
            // defensive clone, and in-place derivatives can reuse it.
            let grad = self.nodes[i].grad.take().expect("checked above");
            let parents = std::mem::take(&mut self.nodes[i].parents);
            let pgrads = bw(grad);
            assert_eq!(
                parents.len(),
                pgrads.len(),
                "backward fn returned {} grads for {} parents",
                pgrads.len(),
                parents.len()
            );
            for (&p, pg) in parents.iter().zip(pgrads) {
                match &mut self.nodes[p].grad {
                    Some(g) => {
                        g.add_assign(&pg);
                        // accumulated: the distributed buffer is spent
                        if let Some(pool) = &pool {
                            pg.into_pool(pool);
                        }
                    }
                    slot @ None => *slot = Some(pg),
                }
            }
            // Saved-for-backward declarations: ops pushed as ephemeral told
            // us their value is dead once their backward fn ran, so a
            // pooled sweep reclaims the activation (the sweep root's value
            // is the loss the caller reads — always kept).
            if let Some(pool) = &pool {
                if i != out.id && !self.nodes[i].keep_value {
                    if let Some(v) = self.nodes[i].value.take() {
                        v.into_pool(pool);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_value_roundtrip() {
        let mut g = Graph::new();
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let v = g.leaf(t.clone());
        assert!(g.value(v).allclose(&t, 0.0));
        assert!(g.grad(v).is_none());
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn backward_through_diamond_accumulates() {
        // y = x + x: dy/dx must be 2 (two paths)
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let y = g.add(x, x);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn param_binding_flushes_grad() {
        let p = Parameter::new(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mut g = Graph::new();
        let v = g.param(&p);
        let y = g.mul(v, v);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(p.grad().data(), &[4.0]); // d(x²)/dx = 2x = 4
    }

    #[test]
    fn param_used_twice_accumulates_once_per_use() {
        let p = Parameter::new(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let mut g = Graph::new();
        let a = g.param(&p);
        let b = g.param(&p); // weight sharing
        let y = g.mul(a, b); // x * x
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(p.grad().data(), &[6.0]);
    }

    #[test]
    #[should_panic(expected = "scalar output")]
    fn backward_non_scalar_panics() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2]));
        g.backward(x);
    }

    #[test]
    fn training_flag() {
        assert!(!Graph::new().is_training());
        assert!(Graph::training(0).is_training());
    }
}
