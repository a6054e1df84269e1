//! BeatGAN (Zhou et al., IJCAI 2019) — reconstruction baseline (ii).
//!
//! An encoder–decoder reconstructs each window; a discriminator provides
//! adversarial regularization so reconstructions stay on the data manifold.
//! The anomaly score is the per-timestamp reconstruction error.

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Linear, Module};
use imdiff_nn::ops::{bce_with_logits, mse, Act};
use imdiff_nn::optim::{Adam, Optimizer};
use imdiff_nn::{backward, no_grad, Tensor};
use rand::rngs::StdRng;

use crate::common::{
    batch_windows, channel_mse, neural_lifecycle, require_len, rng_for, sample_starts,
    score_windows, Fitted, Network, NormState,
};

const WINDOW: usize = 24;
const LATENT: usize = 16;
const HIDDEN: usize = 64;
const TRAIN_STEPS: usize = 120;
const BATCH: usize = 16;
/// Weight of the adversarial feature-matching term in the generator loss.
const ADV_WEIGHT: f32 = 0.05;

struct AutoEncoder {
    enc1: Linear,
    enc2: Linear,
    dec1: Linear,
    dec2: Linear,
}

impl AutoEncoder {
    /// `[B, W*K]` flattened windows -> reconstructions of the same shape.
    fn forward(&self, flat: &Tensor) -> Tensor {
        let z = self
            .enc2
            .forward(&self.enc1.forward_act(flat, Act::Relu))
            .tanh();
        self.dec2.forward(&self.dec1.forward_act(&z, Act::Relu))
    }
}

impl Network for AutoEncoder {
    const TAG: u64 = 0xbea7;

    fn build(rng: &mut StdRng, k: usize) -> Self {
        let flat_dim = WINDOW * k;
        AutoEncoder {
            enc1: Linear::new(rng, flat_dim, HIDDEN),
            enc2: Linear::new(rng, HIDDEN, LATENT),
            dec1: Linear::new(rng, LATENT, HIDDEN),
            dec2: Linear::new(rng, HIDDEN, flat_dim),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.enc1.params();
        p.extend(self.enc2.params());
        p.extend(self.dec1.params());
        p.extend(self.dec2.params());
        p
    }
}

/// BeatGAN: adversarially regularized window autoencoder.
pub struct BeatGan {
    seed: u64,
    state: Option<Fitted<AutoEncoder>>,
}

impl BeatGan {
    /// Fewest rows [`Self::score_series`] accepts: one window.
    pub const MIN_WINDOW: usize = WINDOW;

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        score_windows(self.state.as_ref(), test, missing, WINDOW, |ae, x| {
            let b = x.dims()[0];
            let recon = no_grad(|| ae.forward(&x.reshape(&[b, x.numel() / b])));
            channel_mse(x, &recon)
        })
    }
}

neural_lifecycle!(BeatGan);

impl Detector for BeatGan {
    fn name(&self) -> &'static str {
        "BeatGAN"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 1)?;
        let k = train_n.dim();
        let flat_dim = WINDOW * k;
        let mut rng = rng_for(self.seed, AutoEncoder::TAG);

        let ae = AutoEncoder::build(&mut rng, k);
        // Discriminator: window -> real/fake logit.
        let d1 = Linear::new(&mut rng, flat_dim, HIDDEN / 2);
        let d2 = Linear::new(&mut rng, HIDDEN / 2, 1);

        let g_params = ae.params();
        let mut d_params = d1.params();
        d_params.extend(d2.params());
        let mut g_opt = Adam::new(g_params, 2e-3);
        let mut d_opt = Adam::new(d_params, 1e-3);

        for _ in 0..TRAIN_STEPS {
            let starts = sample_starts(&mut rng, train_n.len(), WINDOW, BATCH);
            let x = batch_windows(&train_n, &starts, WINDOW).reshape(&[BATCH, flat_dim]);

            // Discriminator step: real vs reconstructed.
            let recon = no_grad(|| ae.forward(&x));
            let real_logit = d2.forward(&d1.forward(&x).leaky_relu(0.2));
            let fake_logit = d2.forward(&d1.forward(&recon).leaky_relu(0.2));
            let ones = Tensor::ones(&[BATCH, 1]);
            let zeros = Tensor::zeros(&[BATCH, 1]);
            let d_loss = bce_with_logits(&real_logit, &ones)
                .add(&bce_with_logits(&fake_logit, &zeros))
                .scale(0.5);
            backward(&d_loss);
            d_opt.clip_grad_norm(1.0);
            d_opt.step();
            d_opt.zero_grad();

            // Generator step: reconstruction + fooling the discriminator.
            let recon_g = ae.forward(&x);
            let fake_logit_g = d2.forward(&d1.forward(&recon_g).leaky_relu(0.2));
            let g_loss =
                mse(&recon_g, &x).add(&bce_with_logits(&fake_logit_g, &ones).scale(ADV_WEIGHT));
            backward(&g_loss);
            g_opt.clip_grad_norm(1.0);
            g_opt.step();
            g_opt.zero_grad();
            // The discriminator gradients accumulated during the generator
            // pass must be discarded.
            d_opt.zero_grad();
        }

        self.state = Some(Fitted { norm, model: ae });
        Ok(())
    }

    fn detect(&mut self, test: &Mts) -> Result<Detection, DetectorError> {
        Ok(Detection::from_scores(self.score_series(test, None)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};

    #[test]
    fn reconstruction_error_flags_spikes() {
        let len = 300;
        let data: Vec<f32> = (0..len).map(|t| (t as f32 * 0.2).sin()).collect();
        let train = Mts::new(data.clone(), len, 1);
        let mut test = Mts::new(data, len, 1);
        for l in 150..154 {
            test.set(l, 0, 4.0);
        }
        let mut det = BeatGan::new(2);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let anom: f64 = d.scores[150..154].iter().cloned().fold(0.0, f64::max);
        let norm: f64 = d.scores[..140].iter().cloned().fold(0.0, f64::max);
        assert!(anom > norm, "anomaly {anom} vs normal {norm}");
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Psm,
            &SizeProfile {
                train_len: 120,
                test_len: 60,
            },
            3,
        );
        let mut det = BeatGan::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = BeatGan::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn runs_on_benchmark_shapes() {
        let ds = generate(
            Benchmark::Psm,
            &SizeProfile {
                train_len: 150,
                test_len: 90,
            },
            6,
        );
        let mut det = BeatGan::new(1);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 90);
        assert!(d.scores.iter().all(|s| s.is_finite()));
    }
}
