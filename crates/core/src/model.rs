//! The ImTransformer denoiser (§4.4, Fig. 5 of the paper).
//!
//! A stack of residual blocks, each processing the feature and temporal
//! dimensions with separate transformer layers, conditioned on
//!
//! * the noisy input series and the unmasked-region reference
//!   (the two halves of `X^in`, §4.3),
//! * a diffusion-step embedding,
//! * a mask-policy embedding (`p ∈ {0, 1}`, §4.2), and
//! * complementary side information embedding the time position `l` and
//!   feature index `k`.
//!
//! The residual/skip wiring follows the DiffWave/CSDI family the paper
//! builds on: gated activations, `(h + res)/√2` residuals, and a summed
//! skip path feeding the output projection.

use imdiff_nn::layers::{
    diffusion_step_embedding, sinusoidal_positions, Embedding, Linear, Module,
    TransformerEncoderLayer,
};
use imdiff_nn::ops::Act;
use imdiff_nn::rng::seeded;
use imdiff_nn::Tensor;

use crate::config::ImDiffusionConfig;

/// Width of the raw sinusoidal diffusion-step code before projection.
const DIFF_EMB: usize = 32;
/// Side-information widths (time / feature halves).
const SIDE_T: usize = 8;
const SIDE_F: usize = 8;

struct ResidualBlock {
    diff_proj: Linear,
    temporal: Option<TransformerEncoderLayer>,
    spatial: Option<TransformerEncoderLayer>,
    mid: Linear,
    /// `None` in the final block: its residual output is discarded (only
    /// the skip path feeds the output head, as in CSDI/DiffWave).
    res_proj: Option<Linear>,
    skip_proj: Linear,
}

impl ResidualBlock {
    fn new(rng: &mut rand::rngs::StdRng, cfg: &ImDiffusionConfig, is_last: bool) -> Self {
        let d = cfg.hidden;
        ResidualBlock {
            diff_proj: Linear::new(rng, d, d),
            temporal: cfg
                .use_temporal
                .then(|| TransformerEncoderLayer::new(rng, d, cfg.heads, 2 * d)),
            spatial: cfg
                .use_spatial
                .then(|| TransformerEncoderLayer::new(rng, d, cfg.heads, 2 * d)),
            mid: Linear::new(rng, d, 2 * d),
            res_proj: (!is_last).then(|| Linear::new(rng, d, d)),
            skip_proj: Linear::new(rng, d, d),
        }
    }

    /// One block: returns `(next_h, skip)`, both `[B, K, L, d]`.
    fn forward(&self, h: &Tensor, demb: &Tensor) -> (Tensor, Tensor) {
        let mut y = h.add(&self.diff_proj.forward(demb)); // broadcast [B,1,1,d]
        // Both layers attend in place on [B, K, L, d]: along L, then K.
        if let Some(temporal) = &self.temporal {
            y = temporal.forward(&y, 2);
        }
        if let Some(spatial) = &self.spatial {
            y = spatial.forward(&y, 1);
        }
        // Gated activation tanh(filter) ⊙ σ(gate) over the two halves of
        // [B,K,L,2d].
        let act = self.mid.forward(&y).gated_tanh();
        let res = match &self.res_proj {
            Some(proj) => h
                .add(&proj.forward(&act))
                .scale(std::f32::consts::FRAC_1_SQRT_2),
            None => h.clone(),
        };
        let skip = self.skip_proj.forward(&act);
        (res, skip)
    }
}

impl Module for ResidualBlock {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.diff_proj.params();
        if let Some(t) = &self.temporal {
            p.extend(t.params());
        }
        if let Some(s) = &self.spatial {
            p.extend(s.params());
        }
        p.extend(self.mid.params());
        if let Some(r) = &self.res_proj {
            p.extend(r.params());
        }
        p.extend(self.skip_proj.params());
        p
    }
}

/// The denoising function `ε_Θ(X_t^{M0}, t | ε_t^{M1}, p)` of Eq. (11).
pub struct ImTransformer {
    k: usize,
    hidden: usize,
    use_temporal: bool,
    use_spatial: bool,
    input_proj: Linear,
    diff_fc1: Linear,
    diff_fc2: Linear,
    policy_embed: Embedding,
    feature_embed: Embedding,
    side_proj: Linear,
    blocks: Vec<ResidualBlock>,
    out_fc1: Linear,
    out_fc2: Linear,
    /// Inference-only cache of the broadcast side tensor `[1, K, L, d]`,
    /// keyed by `L` and the generations of the parameters it derives from
    /// (feature embedding + side projection) — an optimizer step on either
    /// invalidates it. Side info is input-independent, so the whole
    /// reverse chain reuses one tensor instead of recomputing per step.
    side_cache: std::cell::RefCell<Option<(usize, Vec<u64>, Tensor)>>,
}

impl ImTransformer {
    /// Builds the denoiser for series with `k` channels.
    pub fn new(cfg: &ImDiffusionConfig, k: usize, seed: u64) -> Self {
        cfg.validate();
        assert!(k >= 1, "need at least one channel");
        let mut rng = seeded(seed);
        let d = cfg.hidden;
        ImTransformer {
            k,
            hidden: d,
            use_temporal: cfg.use_temporal,
            use_spatial: cfg.use_spatial,
            input_proj: Linear::new(&mut rng, 2, d),
            diff_fc1: Linear::new(&mut rng, DIFF_EMB, d),
            diff_fc2: Linear::new(&mut rng, d, d),
            policy_embed: Embedding::new(&mut rng, 2, d),
            feature_embed: Embedding::new(&mut rng, k, SIDE_F),
            side_proj: Linear::new(&mut rng, SIDE_T + SIDE_F, d),
            blocks: (0..cfg.residual_blocks)
                .map(|i| ResidualBlock::new(&mut rng, cfg, i + 1 == cfg.residual_blocks))
                .collect(),
            out_fc1: Linear::new(&mut rng, d, d),
            out_fc2: Linear::new(&mut rng, d, 1),
            side_cache: std::cell::RefCell::new(None),
        }
    }

    /// Channel count the model was built for.
    pub fn channels(&self) -> usize {
        self.k
    }

    /// Whether the temporal transformer is active (ablation flag).
    pub fn has_temporal(&self) -> bool {
        self.use_temporal
    }

    /// Whether the spatial transformer is active (ablation flag).
    pub fn has_spatial(&self) -> bool {
        self.use_spatial
    }

    /// Side information `[K, L, d]`: sinusoidal time codes crossed with
    /// learned feature embeddings, projected to the hidden width.
    fn side_info(&self, l: usize) -> Tensor {
        let k = self.k;
        let time = sinusoidal_positions(l, SIDE_T); // [L, ST]
        let feat = self.feature_embed.forward(&(0..k).collect::<Vec<_>>()); // [K, SF]
        // Tile both to [K, L, *] via zero + broadcast-add.
        let time_tiled = Tensor::zeros(&[k, l, SIDE_T]).add(&time.reshape(&[1, l, SIDE_T]));
        let feat_tiled = Tensor::zeros(&[k, l, SIDE_F]).add(&feat.reshape(&[k, 1, SIDE_F]));
        let side = Tensor::concat(&[&feat_tiled, &time_tiled], 2); // [K, L, SF+ST]
        self.side_proj.forward(&side)
    }

    /// [`Self::side_info`] already reshaped to `[1, K, L, d]`, memoized for
    /// inference. The cache key carries the source parameters' generation
    /// counters, so a weight update (fine-tune step, checkpoint reload via
    /// `set_data`) recomputes instead of serving stale side info.
    fn side_info_cached(&self, l: usize) -> Tensor {
        let gens: Vec<u64> = self
            .feature_embed
            .params()
            .iter()
            .chain(self.side_proj.params().iter())
            .map(|p| p.generation())
            .collect();
        if let Some((cl, cgens, t)) = self.side_cache.borrow().as_ref() {
            if *cl == l && *cgens == gens {
                return t.clone();
            }
        }
        let side = self
            .side_info(l)
            .reshape(&[1, self.k, l, self.hidden]);
        *self.side_cache.borrow_mut() = Some((l, gens, side.clone()));
        side
    }

    /// Predicts the noise `ε̂` on the masked region.
    ///
    /// * `x_val` — `[B, K, L]`: the corrupted values `X_t^{M0}` (zeros on
    ///   the observed region);
    /// * `x_ref` — `[B, K, L]`: the reference for the observed region —
    ///   the forward noise `ε_t^{M1}` in the unconditional design, the raw
    ///   observed values in the conditional ablation (zeros on the masked
    ///   region either way);
    /// * `steps` — per-sample diffusion step `t` (1-based);
    /// * `policies` — per-sample mask-policy index `p ∈ {0, 1}`.
    ///
    /// Returns `ε̂` as `[B, K, L]`.
    pub fn forward(
        &self,
        x_val: &Tensor,
        x_ref: &Tensor,
        steps: &[usize],
        policies: &[usize],
    ) -> Tensor {
        let dims = x_val.dims().to_vec();
        assert_eq!(dims.len(), 3, "expected [B, K, L] input");
        let (b, k, l) = (dims[0], dims[1], dims[2]);
        assert_eq!(k, self.k, "channel mismatch: model built for {}", self.k);
        assert_eq!(x_ref.dims(), x_val.dims(), "x_ref shape mismatch");
        assert_eq!(steps.len(), b, "one diffusion step per sample");
        assert_eq!(policies.len(), b, "one mask policy per sample");
        let d = self.hidden;

        // Input projection: stack the two halves of X^in as features.
        let v = x_val.reshape(&[b, k, l, 1]);
        let r = x_ref.reshape(&[b, k, l, 1]);
        let stacked = Tensor::concat(&[&v, &r], 3); // [B,K,L,2]
        let mut h = self.input_proj.forward(&stacked); // [B,K,L,d]

        // Diffusion-step embedding -> [B,1,1,d].
        let zero_based: Vec<usize> = steps.iter().map(|&t| t.saturating_sub(1)).collect();
        let demb_raw = diffusion_step_embedding(&zero_based, DIFF_EMB);
        let demb = self
            .diff_fc2
            .forward_act(&self.diff_fc1.forward_act(&demb_raw, Act::Silu), Act::Silu)
            .reshape(&[b, 1, 1, d]);

        // Mask-policy embedding -> [B,1,1,d].
        let pemb = self.policy_embed.forward(policies).reshape(&[b, 1, 1, d]);
        h = h.add(&pemb);

        // Side information (time/feature) -> broadcast over batch. The
        // graph path rebuilds it (gradients must reach the embeddings);
        // inference serves it from the per-model cache.
        let side = if imdiff_nn::is_grad_enabled() {
            self.side_info(l).reshape(&[1, k, l, d])
        } else {
            self.side_info_cached(l)
        };
        h = h.add(&side);

        // Residual blocks with skip accumulation.
        let mut skip_sum: Option<Tensor> = None;
        for block in &self.blocks {
            let (next, skip) = block.forward(&h, &demb);
            h = next;
            skip_sum = Some(match skip_sum {
                Some(acc) => acc.add(&skip),
                None => skip,
            });
        }
        let mut skips = skip_sum.unwrap_or_else(|| h.clone());
        // Scaling by 1/√1 would be a pass that multiplies by 1.0.
        if self.blocks.len() > 1 {
            skips = skips.scale(1.0 / (self.blocks.len() as f32).sqrt());
        }

        let hidden = self.out_fc1.forward_act(&skips.relu(), Act::Relu);
        let out = self.out_fc2.forward(&hidden);
        out.reshape(&[b, k, l])
    }
}

impl Module for ImTransformer {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.input_proj.params();
        p.extend(self.diff_fc1.params());
        p.extend(self.diff_fc2.params());
        p.extend(self.policy_embed.params());
        p.extend(self.feature_embed.params());
        p.extend(self.side_proj.params());
        for blk in &self.blocks {
            p.extend(blk.params());
        }
        p.extend(self.out_fc1.params());
        p.extend(self.out_fc2.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_nn::{backward, no_grad};

    fn tiny_cfg() -> ImDiffusionConfig {
        ImDiffusionConfig {
            window: 12,
            hidden: 8,
            heads: 2,
            residual_blocks: 2,
            diffusion_steps: 4,
            ..ImDiffusionConfig::quick()
        }
    }

    #[test]
    fn forward_shape() {
        let cfg = tiny_cfg();
        let model = ImTransformer::new(&cfg, 3, 1);
        let x = Tensor::randn(&mut seeded(2), &[2, 3, 12]);
        let r = Tensor::randn(&mut seeded(3), &[2, 3, 12]);
        let out = model.forward(&x, &r, &[4, 1], &[0, 1]);
        assert_eq!(out.dims(), &[2, 3, 12]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn all_params_receive_gradients() {
        let cfg = tiny_cfg();
        let model = ImTransformer::new(&cfg, 2, 1);
        let x = Tensor::randn(&mut seeded(4), &[1, 2, 12]);
        let r = Tensor::randn(&mut seeded(5), &[1, 2, 12]);
        let out = model.forward(&x, &r, &[2], &[0]);
        backward(&out.square().sum_all());
        let missing = model
            .params()
            .iter()
            .filter(|p| p.grad().is_none())
            .count();
        assert_eq!(missing, 0, "{missing} params missing grads");
    }

    #[test]
    fn output_depends_on_step_and_policy() {
        let cfg = tiny_cfg();
        let model = ImTransformer::new(&cfg, 2, 7);
        let x = Tensor::randn(&mut seeded(6), &[1, 2, 12]);
        let r = Tensor::randn(&mut seeded(7), &[1, 2, 12]);
        let a = no_grad(|| model.forward(&x, &r, &[1], &[0])).to_vec();
        let b = no_grad(|| model.forward(&x, &r, &[4], &[0])).to_vec();
        let c = no_grad(|| model.forward(&x, &r, &[1], &[1])).to_vec();
        assert_ne!(a, b, "step embedding inert");
        assert_ne!(a, c, "policy embedding inert");
    }

    #[test]
    fn ablation_flags_reduce_params() {
        let full = ImTransformer::new(&tiny_cfg(), 2, 1);
        let no_spatial = ImTransformer::new(
            &ImDiffusionConfig {
                use_spatial: false,
                ..tiny_cfg()
            },
            2,
            1,
        );
        let no_temporal = ImTransformer::new(
            &ImDiffusionConfig {
                use_temporal: false,
                ..tiny_cfg()
            },
            2,
            1,
        );
        assert!(no_spatial.num_params() < full.num_params());
        assert!(no_temporal.num_params() < full.num_params());
        assert!(!no_spatial.has_spatial() && no_spatial.has_temporal());
        assert!(!no_temporal.has_temporal() && no_temporal.has_spatial());
    }

    #[test]
    fn deterministic_construction() {
        let cfg = tiny_cfg();
        let a = ImTransformer::new(&cfg, 2, 42);
        let b = ImTransformer::new(&cfg, 2, 42);
        for (pa, pb) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(pa.to_vec(), pb.to_vec());
        }
    }

    /// The full Table 1 architecture must construct and run a forward pass
    /// (at small K so the test stays fast on one core).
    #[test]
    fn paper_profile_architecture_smoke() {
        let cfg = ImDiffusionConfig::paper();
        let model = ImTransformer::new(&cfg, 4, 1);
        // 4 residual blocks at hidden 128: a multi-million-parameter model.
        assert!(model.num_params() > 1_000_000, "{}", model.num_params());
        let x = Tensor::randn(&mut seeded(2), &[1, 4, 100]);
        let r = Tensor::randn(&mut seeded(3), &[1, 4, 100]);
        let out = no_grad(|| model.forward(&x, &r, &[50], &[1]));
        assert_eq!(out.dims(), &[1, 4, 100]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let model = ImTransformer::new(&tiny_cfg(), 2, 1);
        let x = Tensor::zeros(&[1, 3, 12]);
        let _ = model.forward(&x, &x, &[1], &[0]);
    }
}
