//! InterFusion (Li et al., KDD 2021) — reconstruction baseline (iv).
//!
//! Hierarchical VAE with two latent views: an *inter-metric* latent encoding
//! each timestamp's cross-channel pattern and a *temporal* latent encoding
//! the window dynamics (here via a GRU). The decoder fuses both views; the
//! anomaly score is the reconstruction error. Simplified from the original
//! two-stage training to a single joint objective (DESIGN.md).

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Gru, Linear, Module};
use imdiff_nn::ops::{kl_standard_normal, mse, Act};
use imdiff_nn::optim::Adam;
use imdiff_nn::rng::normal_vec;
use imdiff_nn::{forward_only, Tensor};
use rand::rngs::StdRng;

use crate::common::{
    batch_windows, channel_mse, neural_lifecycle, require_len, rng_for, run_training,
    sample_starts, score_windows, Fitted, Network, NormState,
};

const WINDOW: usize = 24;
const HIDDEN: usize = 32;
const Z_METRIC: usize = 6;
const Z_TEMPORAL: usize = 6;
const TRAIN_STEPS: usize = 120;
const BATCH: usize = 12;
const KL_WEIGHT: f32 = 0.05;

struct Model {
    // Inter-metric view: per-timestamp MLP encoder over the K channels.
    metric_enc: Linear,
    metric_mu: Linear,
    metric_logvar: Linear,
    // Temporal view: GRU over the window.
    temporal_gru: Gru,
    temporal_mu: Linear,
    temporal_logvar: Linear,
    // Fused decoder: [z_metric (per step) ++ z_temporal] -> channels.
    dec1: Linear,
    dec2: Linear,
}

impl Model {
    /// Returns `(recon [B,W,K], metric mu/logvar [B*W,Zm], temporal mu/logvar [B,Zt])`.
    fn forward(
        &self,
        x: &Tensor,
        eps_m: Option<&Tensor>,
        eps_t: Option<&Tensor>,
    ) -> (Tensor, Tensor, Tensor, Tensor, Tensor) {
        let dims = x.dims().to_vec();
        let (b, w, k) = (dims[0], dims[1], dims[2]);
        // Inter-metric latent per timestamp.
        let per_step = x.reshape(&[b * w, k]);
        let h_m = self.metric_enc.forward_act(&per_step, Act::Relu);
        let mu_m = self.metric_mu.forward(&h_m);
        let logvar_m = self.metric_logvar.forward(&h_m);
        let z_m = match eps_m {
            Some(e) => mu_m.add(&logvar_m.scale(0.5).exp().mul(e)),
            None => mu_m.clone(),
        };
        // Temporal latent per window.
        let h_t = self.temporal_gru.forward_last(x);
        let mu_t = self.temporal_mu.forward(&h_t);
        let logvar_t = self.temporal_logvar.forward(&h_t);
        let z_t = match eps_t {
            Some(e) => mu_t.add(&logvar_t.scale(0.5).exp().mul(e)),
            None => mu_t.clone(),
        };
        // Broadcast the temporal latent over the window and fuse.
        let z_t_tiled = Tensor::zeros(&[b, w, Z_TEMPORAL])
            .add(&z_t.reshape(&[b, 1, Z_TEMPORAL]))
            .reshape(&[b * w, Z_TEMPORAL]);
        let fused = Tensor::concat(&[&z_m, &z_t_tiled], 1);
        let recon = self
            .dec2
            .forward(&self.dec1.forward_act(&fused, Act::Relu))
            .reshape(&[b, w, k]);
        (recon, mu_m, logvar_m, mu_t, logvar_t)
    }
}

impl Network for Model {
    const TAG: u64 = 0x1f05;

    fn build(rng: &mut StdRng, k: usize) -> Self {
        Model {
            metric_enc: Linear::new(rng, k, HIDDEN),
            metric_mu: Linear::new(rng, HIDDEN, Z_METRIC),
            metric_logvar: Linear::new(rng, HIDDEN, Z_METRIC),
            temporal_gru: Gru::new(rng, k, HIDDEN),
            temporal_mu: Linear::new(rng, HIDDEN, Z_TEMPORAL),
            temporal_logvar: Linear::new(rng, HIDDEN, Z_TEMPORAL),
            dec1: Linear::new(rng, Z_METRIC + Z_TEMPORAL, HIDDEN),
            dec2: Linear::new(rng, HIDDEN, k),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.metric_enc.params();
        p.extend(self.metric_mu.params());
        p.extend(self.metric_logvar.params());
        p.extend(self.temporal_gru.params());
        p.extend(self.temporal_mu.params());
        p.extend(self.temporal_logvar.params());
        p.extend(self.dec1.params());
        p.extend(self.dec2.params());
        p
    }
}

/// Hierarchical inter-metric + temporal VAE.
pub struct InterFusion {
    seed: u64,
    state: Option<Fitted<Model>>,
}

impl InterFusion {
    /// Fewest rows [`Self::score_series`] accepts: one window.
    pub const MIN_WINDOW: usize = WINDOW;

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        score_windows(self.state.as_ref(), test, missing, WINDOW, |model, x| {
            channel_mse(x, &forward_only(|| model.forward(x, None, None).0))
        })
    }
}

neural_lifecycle!(InterFusion);

impl Detector for InterFusion {
    fn name(&self) -> &'static str {
        "InterFusion"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 1)?;
        let k = train_n.dim();
        let mut rng = rng_for(self.seed, Model::TAG);
        let model = Model::build(&mut rng, k);
        let mut opt = Adam::new(model.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let starts = sample_starts(&mut rng, train_n.len(), WINDOW, BATCH);
            let x = batch_windows(&train_n, &starts, WINDOW);
            let eps_m = Tensor::from_vec(
                normal_vec(&mut rng, BATCH * WINDOW * Z_METRIC),
                &[BATCH * WINDOW, Z_METRIC],
            )
            .expect("eps_m");
            let eps_t = Tensor::from_vec(
                normal_vec(&mut rng, BATCH * Z_TEMPORAL),
                &[BATCH, Z_TEMPORAL],
            )
            .expect("eps_t");
            let (recon, mu_m, logvar_m, mu_t, logvar_t) =
                model.forward(&x, Some(&eps_m), Some(&eps_t));
            mse(&recon, &x)
                .add(&kl_standard_normal(&mu_m, &logvar_m).scale(KL_WEIGHT / WINDOW as f32))
                .add(&kl_standard_normal(&mu_t, &logvar_t).scale(KL_WEIGHT))
        });
        self.state = Some(Fitted { norm, model });
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
    fn flags_correlation_break() {
        // Two perfectly correlated channels; the anomaly decouples them
        // while keeping values in range — exactly what the inter-metric
        // latent should catch.
        let len = 300;
        let mut data = Vec::with_capacity(len * 2);
        for t in 0..len {
            let v = (t as f32 * 0.2).sin();
            data.push(v);
            data.push(v); // perfectly correlated twin
        }
        let train = Mts::new(data.clone(), len, 2);
        let mut test = Mts::new(data, len, 2);
        for l in 180..220 {
            let v = test.get(l, 1);
            test.set(l, 1, -v); // flips correlation, same amplitude
        }
        let mut det = InterFusion::new(4);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let anom: f64 = d.scores[185..215].iter().sum::<f64>() / 30.0;
        let norm: f64 = d.scores[..150].iter().sum::<f64>() / 150.0;
        assert!(anom > 1.5 * norm, "anomaly {anom} vs normal {norm}");
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Msl,
            &SizeProfile {
                train_len: 120,
                test_len: 60,
            },
            3,
        );
        let mut det = InterFusion::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = InterFusion::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn benchmark_shapes() {
        let ds = generate(
            Benchmark::Msl,
            &SizeProfile {
                train_len: 120,
                test_len: 60,
            },
            3,
        );
        let mut det = InterFusion::new(1);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 60);
    }
}
