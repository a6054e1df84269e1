//! TranAD (Tuli et al., VLDB 2022) — reconstruction baseline (x).
//!
//! A transformer encoder with two decoders trained adversarially and
//! *self-conditioned*: phase 1 reconstructs the window from a zero focus
//! score; phase 2 feeds phase 1's deviation back as the focus input, and
//! the two decoders play an adversarial game on the phase-2 output. The
//! anomaly score is `½‖O1 − W‖² + ½‖Ô2 − W‖²`, as in the original.

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Linear, Module, TransformerEncoderLayer};
use imdiff_nn::ops::mse;
use imdiff_nn::optim::Adam;
use imdiff_nn::{forward_only, Tensor};
use rand::rngs::StdRng;

use crate::common::{
    batch_windows, neural_lifecycle, require_len, rng_for, run_training, sample_starts,
    score_windows, Fitted, Network, NormState,
};

const WINDOW: usize = 16;
const HIDDEN: usize = 32;
const TRAIN_STEPS: usize = 120;
const BATCH: usize = 8;

struct Model {
    in_proj: Linear,
    encoder: TransformerEncoderLayer,
    dec1: Linear,
    dec2: Linear,
}

impl Model {
    /// Encodes `[B, W, 2K]` (window ++ focus) and decodes with both heads.
    fn forward(&self, x: &Tensor, focus: &Tensor) -> (Tensor, Tensor) {
        let joint = Tensor::concat(&[x, focus], 2);
        let h = self.encoder.forward(&self.in_proj.forward(&joint), 1);
        (self.dec1.forward(&h), self.dec2.forward(&h))
    }
}

impl Network for Model {
    const TAG: u64 = 0x72a4;

    fn build(rng: &mut StdRng, k: usize) -> Self {
        Model {
            in_proj: Linear::new(rng, 2 * k, HIDDEN),
            encoder: TransformerEncoderLayer::new(rng, HIDDEN, 4, 2 * HIDDEN),
            dec1: Linear::new(rng, HIDDEN, k),
            dec2: Linear::new(rng, HIDDEN, k),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.in_proj.params();
        p.extend(self.encoder.params());
        p.extend(self.dec1.params());
        p.extend(self.dec2.params());
        p
    }
}

/// Two-phase adversarial transformer reconstructor.
pub struct TranAd {
    seed: u64,
    state: Option<Fitted<Model>>,
}

impl TranAd {
    /// Fewest rows [`Self::score_series`] accepts: one window.
    pub const MIN_WINDOW: usize = WINDOW;

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        score_windows(self.state.as_ref(), test, missing, WINDOW, |model, x| {
            let (o1, o2) = forward_only(|| {
                let (o1, _) = model.forward(x, &Tensor::zeros(x.dims()));
                let (_, o2) = model.forward(x, &o1.sub(x).square());
                (o1, o2)
            });
            let k = x.dims()[2];
            let (xd, o1d, o2d) = (x.data(), o1.data(), o2.data());
            (0..xd.len() / k)
                .map(|row| {
                    let mut err = 0.0f64;
                    for idx in row * k..(row + 1) * k {
                        let d1 = (xd[idx] - o1d[idx]) as f64;
                        let d2 = (xd[idx] - o2d[idx]) as f64;
                        err += 0.5 * d1 * d1 + 0.5 * d2 * d2;
                    }
                    err / k as f64
                })
                .collect()
        })
    }
}

neural_lifecycle!(TranAd);

impl Detector for TranAd {
    fn name(&self) -> &'static str {
        "TranAD"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 1)?;
        let k = train_n.dim();
        let mut rng = rng_for(self.seed, Model::TAG);
        let model = Model::build(&mut rng, k);
        let mut opt = Adam::new(model.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |step| {
            let starts = sample_starts(&mut rng, train_n.len(), WINDOW, BATCH);
            let x = batch_windows(&train_n, &starts, WINDOW);
            let zero_focus = Tensor::zeros(&[BATCH, WINDOW, k]);

            // Phase 1: plain reconstruction with zero focus.
            let (o1, _) = model.forward(&x, &zero_focus);
            // Phase 2: self-conditioning on the phase-1 deviation.
            let focus = forward_only(|| o1.sub(&x).square());
            let (_, o2) = model.forward(&x, &focus.detach());

            // Adversarial schedule (ε = 1 - 1/step decay from the paper):
            // decoder 1 minimises reconstruction; decoder 2 first mimics,
            // then maximises the phase-2 deviation via a weighted sign flip.
            let eps = 1.0f32 - 1.0 / (step as f32 / 10.0 + 1.0);
            let l1 = mse(&o1, &x);
            let l2 = mse(&o2, &x);
            l1.scale(1.0 - eps * 0.5).add(&l2.scale(0.5 + eps * 0.5))
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
    fn reconstructs_normal_flags_abnormal() {
        let len = 300;
        let data: Vec<f32> = (0..len)
            .flat_map(|t| {
                let v = (t as f32 * 0.3).sin();
                [v, v * v]
            })
            .collect();
        let train = Mts::new(data.clone(), len, 2);
        let mut test = Mts::new(data, len, 2);
        for l in 160..200 {
            let v = test.get(l, 0);
            test.set(l, 0, v + 2.5);
        }
        let mut det = TranAd::new(2);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let anom: f64 = d.scores[165..195].iter().sum::<f64>() / 30.0;
        let norm: f64 = d.scores[..150].iter().sum::<f64>() / 150.0;
        assert!(anom > 2.0 * norm, "anomaly {anom} vs normal {norm}");
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Swat,
            &SizeProfile {
                train_len: 120,
                test_len: 60,
            },
            6,
        );
        let mut det = TranAd::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = TranAd::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn benchmark_shapes() {
        let ds = generate(
            Benchmark::Swat,
            &SizeProfile {
                train_len: 150,
                test_len: 80,
            },
            6,
        );
        let mut det = TranAd::new(1);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 80);
        assert!(d.scores.iter().all(|s| s.is_finite()));
    }
}
