//! LSTM-AD (Malhotra et al., 2015) — forecasting baseline (iii).
//!
//! A stacked LSTM consumes a context window and predicts the next
//! observation; the squared prediction error is the anomaly score. This is
//! also the stand-in for the paper's "legacy deep-learning detector" in the
//! Table 7 production comparison.

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Linear, Lstm, Module};
use imdiff_nn::optim::Adam;
use imdiff_nn::{no_grad, ops, Tensor};
use rand::rngs::StdRng;

use crate::common::{
    batch_windows, channel_mse, neural_lifecycle, next_rows, require_len, rng_for, run_training,
    sample_starts, score_next_rows, Fitted, Network, NormState,
};

/// Context length fed to the LSTM.
const WINDOW: usize = 16;
const HIDDEN: usize = 32;
const TRAIN_STEPS: usize = 150;
const BATCH: usize = 16;

struct Forecaster {
    lstm: Lstm,
    head: Linear,
}

impl Forecaster {
    /// `[B, W, K]` windows -> `[B, K]` next-row forecasts.
    fn forward(&self, x: &Tensor) -> Tensor {
        self.head.forward(&self.lstm.forward_last(x))
    }
}

impl Network for Forecaster {
    const TAG: u64 = 0x15a;

    fn build(rng: &mut StdRng, k: usize) -> Self {
        Forecaster {
            lstm: Lstm::new(rng, k, HIDDEN),
            head: Linear::new(rng, HIDDEN, k),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.lstm.params();
        p.extend(self.head.params());
        p
    }
}

/// LSTM next-step forecaster scored by squared prediction error.
pub struct LstmAd {
    seed: u64,
    state: Option<Fitted<Forecaster>>,
}

impl LstmAd {
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
            Self::MIN_WINDOW,
            |f, data, starts| {
                let pred = no_grad(|| f.forward(&batch_windows(data, starts, WINDOW)));
                channel_mse(&next_rows(data, starts, WINDOW), &pred)
            },
        )
    }
}

neural_lifecycle!(LstmAd);

impl Detector for LstmAd {
    fn name(&self) -> &'static str {
        "LSTM-AD"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 2)?;
        let mut rng = rng_for(self.seed, Forecaster::TAG);
        let model = Forecaster::build(&mut rng, train_n.dim());
        let mut opt = Adam::new(model.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let starts = sample_starts(&mut rng, train_n.len() - 1, WINDOW, BATCH);
            let x = batch_windows(&train_n, &starts, WINDOW);
            ops::mse(&model.forward(&x), &next_rows(&train_n, &starts, WINDOW))
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
    fn detects_injected_spike_on_predictable_signal() {
        // Strongly periodic 2-channel signal.
        let len = 400;
        let data: Vec<f32> = (0..len)
            .flat_map(|t| {
                let v = (t as f32 * 0.3).sin();
                [v, v * 0.5 + 0.1]
            })
            .collect();
        let train = Mts::new(data.clone(), len, 2);
        let mut test = Mts::new(data, len, 2);
        test.set(200, 0, 5.0);
        test.set(201, 0, 5.0);

        let mut det = LstmAd::new(3);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let spike = d.scores[200].max(d.scores[201]);
        let normal_max = d
            .scores
            .iter()
            .enumerate()
            .filter(|(i, _)| !(198..=204).contains(i))
            .map(|(_, &s)| s)
            .fold(0.0f64, f64::max);
        assert!(spike > normal_max, "spike {spike} vs normal {normal_max}");
    }

    #[test]
    fn full_pipeline_on_synthetic_benchmark() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 200,
                test_len: 120,
            },
            4,
        );
        let mut det = LstmAd::new(1);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 120);
        assert!(d.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 150,
                test_len: 70,
            },
            2,
        );
        let mut det = LstmAd::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = LstmAd::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn errors_before_fit() {
        let mut det = LstmAd::new(1);
        assert!(matches!(
            det.detect(&Mts::zeros(50, 2)),
            Err(DetectorError::NotFitted)
        ));
    }
}
