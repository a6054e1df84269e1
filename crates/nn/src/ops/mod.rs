//! Differentiable tensor operations, grouped by category.
//!
//! All operations are methods on [`crate::Tensor`]. Each records a backward
//! closure unless gradient tracking is disabled (see [`crate::no_grad`]) or
//! no input requires gradients.

mod activation;
mod conv;
mod elementwise;
mod embedding;
mod loss;
mod matmul;
mod norm;
mod reduce;
mod sdpa;
mod shape_ops;

pub use activation::Act;
pub use loss::{bce_with_logits, kl_standard_normal, masked_mse, mse};
pub use matmul::{mm_nn, mm_nt, mm_tn};
