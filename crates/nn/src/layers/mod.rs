//! Neural-network layers built on the tensor ops.
//!
//! Layers own their parameters and expose them via the [`Module`] trait so
//! optimizers can collect everything trainable with one call.

mod attention;
mod conv;
mod embedding;
mod linear;
mod norm;
mod positional;
mod rnn;

pub use attention::{FeedForward, MultiHeadAttention, TransformerEncoderLayer};
pub use conv::Conv1d;
pub use embedding::Embedding;
pub use linear::Linear;
pub use norm::LayerNorm;
pub use positional::{diffusion_step_embedding, sinusoidal_positions};
pub use rnn::{Gru, GruCell, Lstm, LstmCell};

use crate::Tensor;

/// Anything with trainable parameters.
pub trait Module {
    /// All trainable parameters, in a stable order.
    fn params(&self) -> Vec<Tensor>;

    /// Total number of trainable scalars.
    fn num_params(&self) -> usize {
        self.params().iter().map(Tensor::numel).sum()
    }
}

/// Convenience: a boxed list of modules is a module.
impl Module for Vec<Box<dyn Module>> {
    fn params(&self) -> Vec<Tensor> {
        self.iter().flat_map(|m| m.params()).collect()
    }
}
