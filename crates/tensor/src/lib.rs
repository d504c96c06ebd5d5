//! Minimal dense-tensor and reverse-mode automatic-differentiation library.
//!
//! This crate is the numerical substrate of the TabBiN reproduction. The paper
//! trains BERT-style encoders on GPUs with a mainstream deep-learning
//! framework; no such framework is assumed here, so this crate provides the
//! pieces those frameworks would have supplied:
//!
//! * [`Tensor`] — a row-major dense `f32` tensor with shape-checked linear
//!   algebra (matrix multiplication, reductions, elementwise maps).
//! * [`Graph`] — an append-only tape recording forward operations so that
//!   [`Graph::backward`] can propagate gradients in reverse topological order.
//! * [`ParamStore`] — named, persistent trainable parameters with gradient
//!   accumulators shared across training steps.
//! * [`nn`] — layers used by every model in the workspace (linear, layer
//!   normalization, embeddings, multi-head attention building blocks).
//! * [`optim`] — Adam and SGD optimizers.
//! * [`lanes`] — the workspace's one 8-lane SIMD abstraction (AVX2 and a
//!   bit-identical scalar twin), shared with `tabbin-core`'s fused inference.
//! * [`kernels`] — the tape's three matrix products (`A·B`, `A·Bᵀ`, `Aᵀ·B`),
//!   register-tiled over [`lanes`], reading both operands in place.
//!
//! Models in this reproduction are tiny (hidden sizes of 24–128), so the ops
//! stay simple and shape-checked; the products, which dominate training, are
//! vectorized under a bit-identity contract with the scalar loop they
//! replaced (see [`kernels`]), and split across `crossbeam` workers once
//! large enough.
//!
//! # Example
//!
//! ```
//! use tabbin_tensor::{Graph, ParamStore, Tensor, optim::Adam};
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Tensor::randn(&[4, 2], 0.1, 7));
//! let mut opt = Adam::new(1e-2);
//! for _ in 0..50 {
//!     let mut g = Graph::new();
//!     let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]));
//!     let wn = g.param(&store, w);
//!     let y = g.matmul(x, wn);
//!     // drive outputs towards zero
//!     let sq = g.mul(y, y);
//!     let loss = g.mean_all(sq);
//!     g.backward(loss);
//!     g.accumulate_grads(&mut store);
//!     opt.step(&mut store);
//!     store.zero_grads();
//! }
//! ```

mod graph;
pub mod init;
pub mod kernels;
pub mod lanes;
/// Scalar math shared by the autograd tape and no-tape inference kernels.
pub mod ops {
    pub use crate::graph::{gelu_fwd, softmax_row};
}
pub mod nn;
pub mod optim;
mod param;
pub mod serialize;
mod tensor;

pub use graph::{Graph, NodeId};
pub use param::{ParamId, ParamStore};
pub use tensor::Tensor;

/// Numerical tolerance used throughout tests of this crate.
pub const TEST_EPS: f32 = 1e-4;
