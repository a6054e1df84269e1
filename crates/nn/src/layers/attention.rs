//! Multi-head self-attention and transformer encoder blocks.

use rand::rngs::StdRng;

use super::{LayerNorm, Linear, Module};
use crate::Tensor;

/// Multi-head scaled-dot-product self-attention over `[B, L, D]` input.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block. `d_model` must be divisible by `heads`.
    pub fn new(rng: &mut StdRng, d_model: usize, heads: usize) -> Self {
        assert!(heads > 0 && d_model.is_multiple_of(heads), "d_model {d_model} not divisible by heads {heads}");
        MultiHeadAttention {
            wq: Linear::new_no_bias(rng, d_model, d_model),
            wk: Linear::new_no_bias(rng, d_model, d_model),
            wv: Linear::new_no_bias(rng, d_model, d_model),
            wo: Linear::new_no_bias(rng, d_model, d_model),
            heads,
            d_model,
        }
    }

    /// Splits `[B, L, D]` into `[B*H, L, Dh]` head-major layout.
    fn split_heads(&self, x: &Tensor, b: usize, l: usize) -> Tensor {
        let dh = self.d_model / self.heads;
        x.reshape(&[b, l, self.heads, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b * self.heads, l, dh])
    }

    /// Self-attention forward pass over `[B, L, D]`.
    ///
    /// Heads run through the fused [`Tensor::sdpa`], in training and
    /// inference alike: no score-matrix, softmax or transposed-K tensor
    /// is built, and its backward recomputes the probabilities. So a
    /// forward with gradient tracking on gives the same bits as one
    /// without, on a given dispatch tier.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 3, "attention expects [B, L, D]");
        let (b, l, d) = (dims[0], dims[1], dims[2]);
        assert_eq!(d, self.d_model, "attention d_model mismatch");
        let dh = self.d_model / self.heads;

        let q = self.split_heads(&self.wq.forward(x), b, l);
        let k = self.split_heads(&self.wk.forward(x), b, l);
        let v = self.split_heads(&self.wv.forward(x), b, l);

        let ctx = Tensor::sdpa(&q, &k, &v, 1.0 / (dh as f32).sqrt()); // [B*H, L, Dh]
        let merged = ctx
            .reshape(&[b, self.heads, l, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b, l, self.d_model]);
        self.wo.forward(&merged)
    }
}

impl Module for MultiHeadAttention {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.wq.params();
        p.extend(self.wk.params());
        p.extend(self.wv.params());
        p.extend(self.wo.params());
        p
    }
}

/// Two-layer position-wise feed-forward network with GELU.
pub struct FeedForward {
    fc1: Linear,
    fc2: Linear,
}

impl FeedForward {
    /// Creates an FFN expanding `d_model` to `d_hidden` and back.
    pub fn new(rng: &mut StdRng, d_model: usize, d_hidden: usize) -> Self {
        FeedForward {
            fc1: Linear::new(rng, d_model, d_hidden),
            fc2: Linear::new(rng, d_hidden, d_model),
        }
    }

    /// Applies the FFN to `[.., d_model]` input.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.fc2.forward(&self.fc1.forward(x).gelu())
    }
}

impl Module for FeedForward {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.fc1.params();
        p.extend(self.fc2.params());
        p
    }
}

/// Pre-norm transformer encoder layer:
/// `x + MHA(LN(x))` followed by `x + FFN(LN(x))`.
///
/// Pre-norm is used instead of the original post-norm because it trains
/// stably without a warm-up schedule at the small scales this
/// reproduction runs at.
pub struct TransformerEncoderLayer {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl TransformerEncoderLayer {
    /// Creates an encoder layer.
    pub fn new(rng: &mut StdRng, d_model: usize, heads: usize, d_hidden: usize) -> Self {
        TransformerEncoderLayer {
            attn: MultiHeadAttention::new(rng, d_model, heads),
            ffn: FeedForward::new(rng, d_model, d_hidden),
            ln1: LayerNorm::new(d_model),
            ln2: LayerNorm::new(d_model),
        }
    }

    /// Encoder forward pass over `[B, L, D]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let h = x.add(&self.attn.forward(&self.ln1.forward(x)));
        h.add(&self.ffn.forward(&self.ln2.forward(&h)))
    }
}

impl Module for TransformerEncoderLayer {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.attn.params();
        p.extend(self.ffn.params());
        p.extend(self.ln1.params());
        p.extend(self.ln2.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::simd::{self, with_tier, Tier};
    use crate::{backward, no_grad, ops, Tensor};

    #[test]
    fn attention_preserves_shape() {
        let mha = MultiHeadAttention::new(&mut seeded(1), 16, 4);
        let x = Tensor::randn(&mut seeded(2), &[2, 5, 16]);
        assert_eq!(mha.forward(&x).dims(), &[2, 5, 16]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn attention_rejects_bad_heads() {
        let _ = MultiHeadAttention::new(&mut seeded(1), 10, 3);
    }

    #[test]
    fn encoder_layer_preserves_shape_and_trains() {
        let mut rng = seeded(3);
        let layer = TransformerEncoderLayer::new(&mut rng, 8, 2, 16);
        let x = Tensor::randn(&mut rng, &[1, 4, 8]);
        let target = Tensor::zeros(&[1, 4, 8]);
        let y = layer.forward(&x);
        assert_eq!(y.dims(), &[1, 4, 8]);
        let loss0 = ops::mse(&y, &target);
        backward(&loss0);
        // All parameters should receive gradients.
        for p in layer.params() {
            assert!(p.grad().is_some(), "missing grad");
        }
        // One SGD step reduces loss.
        for p in layer.params() {
            let g = p.grad().unwrap();
            p.update_data(|d| {
                for (dv, gv) in d.iter_mut().zip(&g) {
                    *dv -= 0.05 * gv;
                }
            });
            p.zero_grad();
        }
        let loss1 = ops::mse(&layer.forward(&x), &target);
        assert!(loss1.item() < loss0.item());
    }

    #[test]
    fn attention_mixes_positions() {
        // Output at position 0 must depend on input at position 1.
        let mha = MultiHeadAttention::new(&mut seeded(5), 8, 2);
        let base = Tensor::randn(&mut seeded(6), &[1, 3, 8]);
        let y0 = mha.forward(&base).to_vec();
        let mut perturbed = base.to_vec();
        perturbed[8] += 1.0; // position 1, feature 0
        let xp = Tensor::from_vec(perturbed, &[1, 3, 8]).unwrap();
        let y1 = mha.forward(&xp).to_vec();
        let pos0_changed = y0[..8]
            .iter()
            .zip(&y1[..8])
            .any(|(a, b)| (a - b).abs() > 1e-6);
        assert!(pos0_changed, "attention failed to propagate across positions");
    }

    /// Training and serving run one attention path: a forward over
    /// parameters with gradients tracked gives the bits of a `no_grad`
    /// forward, on each tier.
    #[test]
    fn tracked_forward_matches_no_grad_bits_per_tier() {
        let mut tiers = vec![Tier::Scalar];
        if simd::avx2_available() {
            tiers.push(Tier::Avx2Fma);
        }
        for (d_model, heads, l) in [(8usize, 2usize, 19usize), (16, 2, 12)] {
            let mha = MultiHeadAttention::new(&mut seeded(7), d_model, heads);
            let x = Tensor::randn(&mut seeded(8), &[3, l, d_model]);
            for &tier in &tiers {
                let bits = |t: Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let tracked = with_tier(tier, || mha.forward(&x));
                assert!(tracked.requires_grad());
                let served = with_tier(tier, || no_grad(|| mha.forward(&x)));
                assert_eq!(bits(tracked), bits(served), "d_model={d_model} tier={tier:?}");
            }
        }
    }

    #[test]
    fn feed_forward_param_count() {
        let ff = FeedForward::new(&mut seeded(1), 4, 8);
        assert_eq!(ff.num_params(), 4 * 8 + 8 + 8 * 4 + 4);
    }
}
