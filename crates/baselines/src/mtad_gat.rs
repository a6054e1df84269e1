//! MTAD-GAT (Zhao et al., ICDM 2020) — hybrid baseline (viii).
//!
//! Two graph-attention views — one over features, one over time — feed a
//! GRU; the model is trained with a *joint* objective combining next-step
//! forecasting and window reconstruction, and the anomaly score combines
//! both errors, exactly the structure of the original paper (attention
//! implemented with the shared transformer attention layers).

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Gru, Linear, Module, MultiHeadAttention};
use imdiff_nn::ops::mse;
use imdiff_nn::optim::Adam;
use imdiff_nn::{no_grad, Tensor};
use rand::rngs::StdRng;

use crate::common::{
    batch_windows, channel_mse, neural_lifecycle, next_rows, require_len, rng_for, run_training,
    sample_starts, score_next_rows, Fitted, Network, NormState,
};

const WINDOW: usize = 16;
const HIDDEN: usize = 32;
const TRAIN_STEPS: usize = 120;
const BATCH: usize = 8;
/// Forecast-vs-reconstruction blend in the anomaly score (γ of the paper).
const GAMMA: f64 = 0.5;

struct Model {
    in_proj: Linear,
    feature_attn: MultiHeadAttention,
    temporal_attn: MultiHeadAttention,
    gru: Gru,
    forecast_head: Linear,
    recon_head: Linear,
}

impl Model {
    /// `[B, W, K]` -> (forecast `[B, K]`, reconstruction `[B, W, K]`).
    fn forward(&self, x: &Tensor) -> (Tensor, Tensor) {
        let dims = x.dims().to_vec();
        let (b, w, k) = (dims[0], dims[1], dims[2]);
        let h = self.in_proj.forward(x); // [B, W, H] (proj over channels)
                                         // Temporal attention over the W axis.
        let ht = self.temporal_attn.forward(&h, 1);
        // Feature attention: attend over channels. Operate on the raw
        // series transposed to [B, K, W], projected to H.
        let xt = x.permute(&[0, 2, 1]); // [B, K, W]
        let hf_in = Tensor::concat(&[&xt, &Tensor::zeros(&[b, k, HIDDEN.saturating_sub(w)])], 2);
        let hf_in = if w >= HIDDEN {
            xt.slice_axis(2, 0, HIDDEN)
        } else {
            hf_in
        };
        let hf = self.feature_attn.forward(&hf_in, 1); // [B, K, H]
                                                       // Pool the feature view back per timestep (mean over channels).
        let hf_pooled = hf.mean_axis(1, true); // [B, 1, H]
        let fused = ht.add(&hf_pooled); // broadcast over W
        let g = self.gru.forward_seq(&fused); // [B, W, H]
        let last = g.slice_axis(1, w - 1, 1).reshape(&[b, HIDDEN]);
        let forecast = self.forecast_head.forward(&last);
        let recon = self.recon_head.forward(&g); // [B, W, K]
        (forecast, recon)
    }
}

impl Network for Model {
    const TAG: u64 = 0x3a7;

    fn build(rng: &mut StdRng, k: usize) -> Self {
        Model {
            in_proj: Linear::new(rng, k, HIDDEN),
            feature_attn: MultiHeadAttention::new(rng, HIDDEN, 4),
            temporal_attn: MultiHeadAttention::new(rng, HIDDEN, 4),
            gru: Gru::new(rng, HIDDEN, HIDDEN),
            forecast_head: Linear::new(rng, HIDDEN, k),
            recon_head: Linear::new(rng, HIDDEN, k),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.in_proj.params();
        p.extend(self.feature_attn.params());
        p.extend(self.temporal_attn.params());
        p.extend(self.gru.params());
        p.extend(self.forecast_head.params());
        p.extend(self.recon_head.params());
        p
    }
}

/// Feature + temporal graph-attention detector with joint objectives.
pub struct MtadGat {
    seed: u64,
    state: Option<Fitted<Model>>,
}

impl MtadGat {
    /// Fewest rows [`Self::score_series`] accepts: one context window and
    /// the row it forecasts.
    pub const MIN_WINDOW: usize = WINDOW + 1;

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        let state = self.state.as_ref();
        score_next_rows(
            state,
            test,
            missing,
            WINDOW,
            |m, data, starts| {
                let x = batch_windows(data, starts, WINDOW);
                let (forecast, recon) = no_grad(|| m.forward(&x));
                let f_err = channel_mse(&next_rows(data, starts, WINDOW), &forecast);
                // Reconstruction error of each window's final position.
                let r_err = channel_mse(&x, &recon);
                f_err
                    .iter()
                    .zip(r_err.chunks(WINDOW))
                    .map(|(&f, r)| GAMMA * f + (1.0 - GAMMA) * r[WINDOW - 1])
                    .collect()
            },
        )
    }
}

neural_lifecycle!(MtadGat);

impl Detector for MtadGat {
    fn name(&self) -> &'static str {
        "MTAD-GAT"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 2)?;
        let k = train_n.dim();
        let mut rng = rng_for(self.seed, Model::TAG);
        let model = Model::build(&mut rng, k);
        let mut opt = Adam::new(model.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let starts = sample_starts(&mut rng, train_n.len() - 1, WINDOW, BATCH);
            let x = batch_windows(&train_n, &starts, WINDOW);
            let (forecast, recon) = model.forward(&x);
            mse(&forecast, &next_rows(&train_n, &starts, WINDOW)).add(&mse(&recon, &x))
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
    fn benchmark_shapes() {
        let ds = generate(
            Benchmark::Psm,
            &SizeProfile {
                train_len: 150,
                test_len: 80,
            },
            5,
        );
        let mut det = MtadGat::new(2);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 80);
        assert!(d.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Psm,
            &SizeProfile {
                train_len: 120,
                test_len: 60,
            },
            6,
        );
        let mut det = MtadGat::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = MtadGat::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn joint_score_flags_spikes() {
        let len = 300;
        let data: Vec<f32> = (0..len)
            .flat_map(|t| {
                let v = (t as f32 * 0.25).sin();
                [v, -v]
            })
            .collect();
        let train = Mts::new(data.clone(), len, 2);
        let mut test = Mts::new(data, len, 2);
        for l in 200..204 {
            test.set(l, 0, 4.0);
        }
        let mut det = MtadGat::new(9);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let anom = d.scores[200..206].iter().cloned().fold(0.0, f64::max);
        let norm = d.scores[30..190].iter().cloned().fold(0.0, f64::max);
        assert!(anom > norm, "anomaly {anom} vs normal {norm}");
    }
}
