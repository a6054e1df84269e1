//! Optimizers: Adam.

mod adam;

pub use adam::{Adam, AdamState};

use crate::Tensor;

/// Gradient-descent parameter updater.
pub trait Optimizer {
    /// Applies one update using each parameter's accumulated gradient.
    /// Parameters without gradients are skipped.
    fn step(&mut self);

    /// Clears all parameter gradients.
    fn zero_grad(&self);

    /// Clips the global gradient L2 norm to `max_norm` before stepping.
    ///
    /// Returns the pre-clip norm.
    fn clip_grad_norm(&self, max_norm: f32) -> f32;
}

/// Shared gradient clipping over a parameter list.
pub(crate) fn clip_grads(params: &[Tensor], max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for p in params {
        if let Some(g) = p.grad() {
            sq += g.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        }
    }
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(mut g) = p.grad() {
                for v in &mut g {
                    *v *= scale;
                }
                p.zero_grad();
                p.accumulate_grad(&g);
            }
        }
    }
    norm
}
