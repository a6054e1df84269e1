//! Multi-head self-attention and transformer encoder blocks.

use rand::rngs::StdRng;

use super::{LayerNorm, Linear, Module};
use crate::ops::Act;
use crate::Tensor;

/// Multi-head scaled-dot-product self-attention along one axis of
/// `[.., D]` input.
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

    /// Self-attention forward pass along `axis` of `[.., D]` input.
    ///
    /// The Q, K and V projections feed [`Tensor::sdpa`] as they are: it
    /// attends along `axis` (below the last), reads head `h` from columns
    /// `h·Dh..(h + 1)·Dh` of the last axis, and treats every other axis as
    /// batch, so `[B, L, D]` takes `axis = 1` and the model's `[B, K, L, D]`
    /// takes 2 for time and 1 for channels, with no permute or reshape.
    /// Training and inference run this one kernel: no score-matrix,
    /// softmax or transposed-K tensor is built, and its backward
    /// recomputes the probabilities. So a forward with gradient tracking
    /// on gives the same bits as one without, on a given dispatch tier.
    pub fn forward(&self, x: &Tensor, axis: usize) -> Tensor {
        assert_eq!(x.dims().last(), Some(&self.d_model), "attention d_model mismatch");
        let scale = 1.0 / ((self.d_model / self.heads) as f32).sqrt();
        let [q, k, v] = [&self.wq, &self.wk, &self.wv].map(|w| w.forward(x));
        self.wo.forward(&Tensor::sdpa(&q, &k, &v, axis, self.heads, scale))
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

    /// Applies the FFN to `[.., d_model]` input; the GELU runs in `fc1`'s
    /// matmul epilogue.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.fc2.forward(&self.fc1.forward_act(x, Act::Gelu))
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

    /// Encoder forward pass over `[.., D]`, attending along `axis` (see
    /// [`MultiHeadAttention::forward`]).
    pub fn forward(&self, x: &Tensor, axis: usize) -> Tensor {
        let h = x.add(&self.attn.forward(&self.ln1.forward(x), axis));
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
        crate::obs::tests::with_exclusive_obs(|| {
            let mha = MultiHeadAttention::new(&mut seeded(1), 16, 4);
            let x = Tensor::randn(&mut seeded(2), &[2, 5, 16]);
            assert_eq!(mha.forward(&x, 1).dims(), &[2, 5, 16]);
        });
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn attention_rejects_bad_heads() {
        crate::obs::tests::with_exclusive_obs(|| {
            let _ = MultiHeadAttention::new(&mut seeded(1), 10, 3);
        });
    }

    #[test]
    fn encoder_layer_preserves_shape_and_trains() {
        crate::obs::tests::with_exclusive_obs(|| {
            let mut rng = seeded(3);
            let layer = TransformerEncoderLayer::new(&mut rng, 8, 2, 16);
            let x = Tensor::randn(&mut rng, &[1, 4, 8]);
            let target = Tensor::zeros(&[1, 4, 8]);
            let y = layer.forward(&x, 1);
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
            let loss1 = ops::mse(&layer.forward(&x, 1), &target);
            assert!(loss1.item() < loss0.item());
        });
    }

    #[test]
    fn attention_mixes_positions() {
        crate::obs::tests::with_exclusive_obs(|| {
            // Output at position 0 must depend on input at position 1.
            let mha = MultiHeadAttention::new(&mut seeded(5), 8, 2);
            let base = Tensor::randn(&mut seeded(6), &[1, 3, 8]);
            let y0 = mha.forward(&base, 1).to_vec();
            let mut perturbed = base.to_vec();
            perturbed[8] += 1.0; // position 1, feature 0
            let xp = Tensor::from_vec(perturbed, &[1, 3, 8]).unwrap();
            let y1 = mha.forward(&xp, 1).to_vec();
            let pos0_changed = y0[..8]
                .iter()
                .zip(&y1[..8])
                .any(|(a, b)| (a - b).abs() > 1e-6);
            assert!(pos0_changed, "attention failed to propagate across positions");
        });
    }

    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar];
        if simd::avx2_available() {
            tiers.push(Tier::Avx2Fma);
        }
        tiers
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    /// Training and serving run one attention path: a forward over
    /// parameters with gradients tracked gives the bits of a `no_grad`
    /// forward, on each tier, for `[B, L, D]` and for channel attention
    /// (axis 1) on `[B, K, L, D]`.
    #[test]
    fn tracked_forward_matches_no_grad_bits_per_tier() {
        crate::obs::tests::with_exclusive_obs(|| {
            for (d_model, heads, dims) in [
                (8usize, 2usize, vec![3usize, 19, 8]),
                (16, 2, vec![3, 12, 16]),
                (8, 2, vec![2, 5, 7, 8]),
            ] {
                let mha = MultiHeadAttention::new(&mut seeded(7), d_model, heads);
                let x = Tensor::randn(&mut seeded(8), &dims);
                for tier in tiers() {
                    let tracked = with_tier(tier, || mha.forward(&x, 1));
                    assert!(tracked.requires_grad());
                    let served = with_tier(tier, || no_grad(|| mha.forward(&x, 1)));
                    assert_eq!(bits(&tracked), bits(&served), "{dims:?} tier={tier:?}");
                }
            }
        });
    }

    /// Attending along axis 1 of `[B, K, L, d]` in place gives, on each
    /// tier, the bits of the permuted composition: `[B, L, K, d]` folded
    /// to `[B·L, K, d]`, attended along axis 1, and unfolded back. Each
    /// row's `Linear` and `layer_norm` arithmetic does not depend on the
    /// row's position, and each attention block sees the same rows.
    /// Parameter gradients sum the same rows in another order, so they
    /// agree to rounding.
    #[test]
    fn axis_attention_matches_permuted_composition_per_tier() {
        crate::obs::tests::with_exclusive_obs(|| {
            let (b, k, l) = (2usize, 5usize, 7usize);
            for (d, heads) in [(8usize, 2usize), (16, 2)] {
                let layer = TransformerEncoderLayer::new(&mut seeded(9), d, heads, 2 * d);
                let x = Tensor::randn(&mut seeded(10), &[b, k, l, d]);
                let w = Tensor::randn(&mut seeded(11), &[b, k, l, d]);
                let direct = |x: &Tensor| layer.forward(x, 1);
                let composed = |x: &Tensor| {
                    let folded = x.permute(&[0, 2, 1, 3]).reshape(&[b * l, k, d]);
                    layer.forward(&folded, 1).reshape(&[b, l, k, d]).permute(&[0, 2, 1, 3])
                };
                let grads = |f: &dyn Fn(&Tensor) -> Tensor| {
                    backward(&f(&x).mul(&w).sum_all());
                    let g: Vec<Vec<f32>> = layer.params().iter().map(|p| p.grad().unwrap()).collect();
                    layer.params().iter().for_each(|p| p.zero_grad());
                    g
                };
                for tier in tiers() {
                    let got = with_tier(tier, || no_grad(|| direct(&x)));
                    let want = with_tier(tier, || no_grad(|| composed(&x)));
                    assert_eq!(bits(&got), bits(&want), "d={d} tier={tier:?}");
                    let got = with_tier(tier, || grads(&direct));
                    let want = with_tier(tier, || grads(&composed));
                    for (n, (gs, ws)) in got.iter().zip(&want).enumerate() {
                        let norm = ws.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                        for (g, w) in gs.iter().zip(ws) {
                            let msg = format!("d={d} tier={tier:?} param {n}: {g} vs {w}");
                            assert!((g - w).abs() <= 1e-5 * norm, "{msg}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn feed_forward_param_count() {
        crate::obs::tests::with_exclusive_obs(|| {
            let ff = FeedForward::new(&mut seeded(1), 4, 8);
            assert_eq!(ff.num_params(), 4 * 8 + 8 + 8 * 4 + 4);
        });
    }
}
