//! `imdiff-nn` — a small, self-contained neural-network substrate.
//!
//! This crate replaces the PyTorch dependency of the original ImDiffusion
//! implementation with a pure-Rust stack:
//!
//! * a dense `f32` [`Tensor`] with NumPy-style broadcasting,
//! * reverse-mode automatic differentiation ([`backward`]),
//! * common layers ([`layers`]: linear, layer-norm, multi-head attention,
//!   transformer encoder blocks, GRU/LSTM cells, 1-D convolution,
//!   embeddings),
//! * the Adam optimizer ([`optim`]),
//! * deterministic, seedable random initialisation ([`rng`], [`init`]).
//!
//! # Design notes
//!
//! The autodiff engine is graph-based rather than tape-based: every tensor
//! produced by an operation holds reference-counted edges to its parents and
//! a backward closure. Calling [`backward`] on a scalar loss topologically
//! sorts the reachable graph and accumulates gradients into every tensor
//! created with `requires_grad = true`. Graphs are freed when the loss
//! tensor is dropped; leaf parameters persist across steps.
//!
//! Shape mismatches are treated as programmer errors and panic with a
//! descriptive message (the convention of every mainstream tensor library);
//! fallible *construction* APIs return [`NnError`].
//!
//! Inference code should run inside [`no_grad`], which skips graph
//! construction entirely:
//!
//! ```
//! use imdiff_nn::{no_grad, Tensor};
//! let w = Tensor::param_from_vec(vec![1.0, 2.0], &[2]).unwrap();
//! let y = no_grad(|| w.scale(3.0));
//! assert!(y.grad().is_none());
//! ```

mod arena;
mod autodiff;
mod error;
pub mod init;
mod lanes;
pub mod layers;
pub mod obs;
pub mod ops;
pub mod optim;
pub mod pool;
pub mod rng;
pub mod serialize;
mod shape;
pub mod simd;
mod tensor;

pub use autodiff::{backward, is_grad_enabled, no_grad};
pub use error::NnError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Runs `f` with thread-local buffer recycling: op outputs, autodiff tape
/// buffers and gradients dropped inside `f` are parked and reused by later
/// ops of the same size instead of going back to the allocator. Pool
/// workers spawned inside `f` are lent the buffers their predecessors
/// parked. Everything parked is freed when the outermost scope on this
/// thread exits.
///
/// Results are bit-identical to running `f` directly — the arena only
/// changes where buffers live, never what ops compute.
pub fn recycling<T>(f: impl FnOnce() -> T) -> T {
    arena::scope(f)
}

/// Runs `f` in tape-free forward-only mode: gradient tracking off (as in
/// [`no_grad`]) inside a [`recycling`] scope.
///
/// Results are bit-identical to `no_grad(f)` on the same dispatch tier.
pub fn forward_only<T>(f: impl FnOnce() -> T) -> T {
    if obs::enabled() {
        obs::counter("nn.forward_only", 1);
    }
    no_grad(|| recycling(f))
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
