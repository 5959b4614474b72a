//! # qn-autograd
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`qn_tensor::Tensor`].
//!
//! A [`Graph`] records one forward pass as a flat tape of nodes; calling
//! [`Graph::backward`] on a scalar output propagates gradients to every
//! contributing node, including [`Parameter`] leaves whose gradients are
//! flushed back into persistent storage so an optimizer can consume them.
//!
//! Execution is **dual-mode**: the [`Exec`] trait abstracts over the op
//! set, implemented by both [`Graph`] (taped, differentiable) and
//! [`EagerExec`] (tape-free, allocation-light — the inference path).
//! Forward code written against `&mut dyn Exec` runs identically on
//! either context.
//!
//! The op set is exactly what the quadratic-neuron paper's models need:
//! dense and im2col convolution primitives, broadcast arithmetic, batched
//! matmul and softmax for attention, fused batch/layer norm, the elementwise
//! powers used by quadratic and kervolutional neurons, and a fused
//! softmax-cross-entropy loss.
//!
//! # Example
//!
//! ```
//! use qn_autograd::Graph;
//! use qn_tensor::Tensor;
//!
//! # fn main() -> Result<(), qn_tensor::TensorError> {
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![3.0], &[1])?);
//! let y = g.mul(x, x);            // y = x²
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! assert_eq!(g.grad(x).unwrap().data(), &[6.0]); // dy/dx = 2x
//! # Ok(())
//! # }
//! ```

pub(crate) use qn_parallel::PAR_MIN_ELEMS;

mod convops;
mod exec;
mod gradcheck;
mod graph;
mod kernels;
mod matops;
mod nnops;
mod ops;
mod param;

pub use exec::{ChainStage, EagerExec, Exec};
pub use gradcheck::{gradcheck, gradcheck_multi};
pub use graph::{Graph, Var};
pub use param::Parameter;
