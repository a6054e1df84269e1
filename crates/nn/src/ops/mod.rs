//! Differentiable tensor operations, grouped by category.
//!
//! All operations are methods on [`crate::Tensor`]. Each records a backward
//! closure unless gradient tracking is disabled (see [`crate::forward_only`]) or
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

#[cfg(test)]
pub(crate) mod tests {
    use crate::simd::{self, with_tier, Tier};
    use crate::Tensor;

    /// A leaf of `dims` holding deterministic values in about `[-1.5, 1.5)`.
    pub(crate) fn leaf(dims: &[usize], phase: f32) -> Tensor {
        let n = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| 1.5 * (i as f32 * 0.731 + phase).sin()).collect(), dims).unwrap()
    }

    /// Guards, in release test runs too, an op whose output comes from
    /// `arena::overwrite`: inside `forward_only`, a buffer of the output's
    /// size full of NaN is parked first, so the op's output reuses it, and
    /// the op's bits must equal those of a call in a fresh scope, on each
    /// tier. `op` builds its inputs as leaves (no arena buffers) and runs
    /// the op once.
    pub(crate) fn assert_writes_every_element(op: impl Fn() -> Tensor) {
        let mut tiers = vec![Tier::Scalar];
        if simd::avx2_available() {
            tiers.push(Tier::Avx2Fma);
        }
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        for tier in tiers {
            let fresh = with_tier(tier, || crate::forward_only(|| op().to_vec()));
            let parked = with_tier(tier, || {
                crate::forward_only(|| {
                    crate::arena::recycle(vec![f32::NAN; fresh.len()]);
                    op().to_vec()
                })
            });
            assert!(fresh.iter().all(|v| !v.is_nan()), "{}: the op's own output holds NaN", tier.name());
            assert_eq!(bits(parked), bits(fresh), "{}: an element kept the parked NaN", tier.name());
        }
    }
}
