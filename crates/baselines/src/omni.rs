//! OmniAnomaly (Su et al., KDD 2019) — reconstruction baseline (v).
//!
//! A GRU encodes the window; a VAE head produces a stochastic latent whose
//! decoder reconstructs the window. The anomaly score is the reconstruction
//! error under the sampled latent (a Monte-Carlo estimate of the negative
//! reconstruction probability the original paper thresholds with POT).

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Gru, Linear, Module};
use imdiff_nn::ops::{kl_standard_normal, mse, Act};
use imdiff_nn::optim::Adam;
use imdiff_nn::rng::normal_vec;
use imdiff_nn::{no_grad, Tensor};
use rand::rngs::StdRng;

use crate::common::{
    batch_windows, channel_mse, neural_lifecycle, require_len, rng_for, run_training,
    sample_starts, score_windows, Fitted, Network, NormState,
};

const WINDOW: usize = 24;
const HIDDEN: usize = 32;
const LATENT: usize = 8;
const TRAIN_STEPS: usize = 120;
const BATCH: usize = 12;
const KL_WEIGHT: f32 = 0.05;

struct Vae {
    gru: Gru,
    mu_head: Linear,
    logvar_head: Linear,
    dec1: Linear,
    dec2: Linear,
}

impl Vae {
    /// Encodes a `[B, W, K]` batch; returns `(mu, logvar)` each `[B, Z]`.
    fn encode(&self, x: &Tensor) -> (Tensor, Tensor) {
        let h = self.gru.forward_last(x);
        (self.mu_head.forward(&h), self.logvar_head.forward(&h))
    }

    /// Decodes `[B, Z]` latents into `[B, W*K]` reconstructions.
    fn decode(&self, z: &Tensor) -> Tensor {
        self.dec2.forward(&self.dec1.forward_act(z, Act::Relu))
    }
}

impl Network for Vae {
    const TAG: u64 = 0x0a21;

    fn build(rng: &mut StdRng, k: usize) -> Self {
        Vae {
            gru: Gru::new(rng, k, HIDDEN),
            mu_head: Linear::new(rng, HIDDEN, LATENT),
            logvar_head: Linear::new(rng, HIDDEN, LATENT),
            dec1: Linear::new(rng, LATENT, HIDDEN),
            dec2: Linear::new(rng, HIDDEN, WINDOW * k),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.gru.params();
        p.extend(self.mu_head.params());
        p.extend(self.logvar_head.params());
        p.extend(self.dec1.params());
        p.extend(self.dec2.params());
        p
    }
}

/// GRU + VAE reconstruction detector.
pub struct OmniAnomaly {
    seed: u64,
    state: Option<Fitted<Vae>>,
}

impl OmniAnomaly {
    /// Fewest rows [`Self::score_series`] accepts: one window.
    pub const MIN_WINDOW: usize = WINDOW;

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        score_windows(self.state.as_ref(), test, missing, WINDOW, |vae, x| {
            // Mean-latent reconstruction (deterministic scoring pass).
            let recon = no_grad(|| vae.decode(&vae.encode(x).0));
            channel_mse(x, &recon)
        })
    }
}

neural_lifecycle!(OmniAnomaly);

impl Detector for OmniAnomaly {
    fn name(&self) -> &'static str {
        "OmniAnomaly"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 1)?;
        let k = train_n.dim();
        let mut rng = rng_for(self.seed, Vae::TAG);
        let vae = Vae::build(&mut rng, k);
        let mut opt = Adam::new(vae.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let starts = sample_starts(&mut rng, train_n.len(), WINDOW, BATCH);
            let x = batch_windows(&train_n, &starts, WINDOW);
            let flat = x.reshape(&[BATCH, WINDOW * k]);
            let (mu, logvar) = vae.encode(&x);
            // Reparameterization trick.
            let eps = Tensor::from_vec(normal_vec(&mut rng, BATCH * LATENT), &[BATCH, LATENT])
                .expect("eps shape");
            let z = mu.add(&logvar.scale(0.5).exp().mul(&eps));
            let recon = vae.decode(&z);
            mse(&recon, &flat).add(&kl_standard_normal(&mu, &logvar).scale(KL_WEIGHT))
        });
        self.state = Some(Fitted { norm, model: vae });
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
    fn flags_level_shift() {
        let len = 300;
        let data: Vec<f32> = (0..len).map(|t| (t as f32 * 0.25).sin() * 0.5).collect();
        let train = Mts::new(data.clone(), len, 1);
        let mut test = Mts::new(data, len, 1);
        for l in 180..220 {
            let v = test.get(l, 0);
            test.set(l, 0, v + 2.0);
        }
        let mut det = OmniAnomaly::new(5);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let anom: f64 =
            d.scores[185..215].iter().sum::<f64>() / 30.0;
        let norm: f64 = d.scores[..150].iter().sum::<f64>() / 150.0;
        assert!(anom > 2.0 * norm, "anomaly {anom} vs normal {norm}");
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Smd,
            &SizeProfile {
                train_len: 120,
                test_len: 60,
            },
            5,
        );
        let mut det = OmniAnomaly::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = OmniAnomaly::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn benchmark_shapes() {
        let ds = generate(
            Benchmark::Smd,
            &SizeProfile {
                train_len: 150,
                test_len: 80,
            },
            8,
        );
        let mut det = OmniAnomaly::new(2);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 80);
        assert!(d.scores.iter().all(|s| s.is_finite()));
    }
}
