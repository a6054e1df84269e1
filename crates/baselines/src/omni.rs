//! OmniAnomaly (Su et al., KDD 2019) — reconstruction baseline (v).
//!
//! A GRU encodes the window; a VAE head produces a stochastic latent whose
//! decoder reconstructs the window. The anomaly score is the reconstruction
//! error under the sampled latent (a Monte-Carlo estimate of the negative
//! reconstruction probability the original paper thresholds with POT).

use imdiff_data::{coverage_starts, Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Gru, Linear, Module};
use imdiff_nn::ops::{kl_standard_normal, mse};
use imdiff_nn::optim::Adam;
use imdiff_nn::rng::normal_vec;
use imdiff_nn::{no_grad, Tensor};
use imdiff_nn::serialize::{ByteReader, ByteWriter};

use crate::common::{
    batch_windows, require_len, rng_for, run_training, sample_starts, NormState,
    PointScores,
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
    fn new(rng: &mut rand::rngs::StdRng, k: usize) -> Self {
        Vae {
            gru: Gru::new(rng, k, HIDDEN),
            mu_head: Linear::new(rng, HIDDEN, LATENT),
            logvar_head: Linear::new(rng, HIDDEN, LATENT),
            dec1: Linear::new(rng, LATENT, HIDDEN),
            dec2: Linear::new(rng, HIDDEN, WINDOW * k),
        }
    }

    /// Encodes a `[B, W, K]` batch; returns `(mu, logvar)` each `[B, Z]`.
    fn encode(&self, x: &Tensor) -> (Tensor, Tensor) {
        let h = self.gru.forward_last(x);
        (self.mu_head.forward(&h), self.logvar_head.forward(&h))
    }

    /// Decodes `[B, Z]` latents into `[B, W*K]` reconstructions.
    fn decode(&self, z: &Tensor) -> Tensor {
        self.dec2.forward(&self.dec1.forward(z).relu())
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
    state: Option<Fitted>,
}

struct Fitted {
    norm: NormState,
    vae: Vae,
}

impl OmniAnomaly {
    /// Creates the detector.
    pub fn new(seed: u64) -> Self {
        OmniAnomaly { seed, state: None }
    }

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        let test_n = st.norm.transform_masked(test, missing)?;
        require_len(&test_n, WINDOW)?;
        let k = test_n.dim();
        let starts = coverage_starts(test_n.len(), WINDOW, WINDOW / 2);
        let mut ps = PointScores::new(test_n.len());
        for chunk in starts.chunks(32) {
            // Mean-latent reconstruction (deterministic scoring pass).
            let x = batch_windows(&test_n, chunk, WINDOW);
            let recon = no_grad(|| {
                let (mu, _) = st.vae.encode(&x);
                st.vae.decode(&mu)
            });
            let flat = x.reshape(&[chunk.len(), WINDOW * k]);
            let (xd, rd) = (flat.data(), recon.data());
            for (bi, &s) in chunk.iter().enumerate() {
                for l in 0..WINDOW {
                    let mut err = 0.0f64;
                    for c in 0..k {
                        let idx = bi * WINDOW * k + l * k + c;
                        err += ((xd[idx] - rd[idx]) as f64).powi(2);
                    }
                    ps.add(s + l, err / k as f64);
                }
            }
        }
        Ok(ps.finish())
    }

    /// Serializes the fitted state as the family's registry payload.
    pub fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        let mut w = ByteWriter::new();
        st.norm.encode(&mut w);
        w.tensors(&st.vae.params());
        Ok(w.finish())
    }

    /// Rebuilds a fitted detector from [`Self::snapshot_payload`] bytes.
    pub fn restore_from_payload(seed: u64, bytes: &[u8]) -> Result<Self, DetectorError> {
        let mut r = ByteReader::new(bytes);
        let norm = NormState::decode(&mut r)?;
        let mut rng = rng_for(seed, 0x0a21);
        let vae = Vae::new(&mut rng, norm.channels);
        r.tensors_into(&vae.params())?;
        r.finish()?;
        Ok(OmniAnomaly {
            seed,
            state: Some(Fitted { norm, vae }),
        })
    }
}

impl Detector for OmniAnomaly {
    fn name(&self) -> &'static str {
        "OmniAnomaly"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 1)?;
        let k = train_n.dim();
        let mut rng = rng_for(self.seed, 0x0a21);
        let vae = Vae::new(&mut rng, k);
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
        self.state = Some(Fitted { norm, vae });
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
