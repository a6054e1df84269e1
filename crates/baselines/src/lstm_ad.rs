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
use imdiff_nn::serialize::{ByteReader, ByteWriter};

use crate::common::{
    batch_windows, require_len, rng_for, run_training, sample_starts, NormState,
};

/// Context length fed to the LSTM.
const WINDOW: usize = 16;
const HIDDEN: usize = 32;
const TRAIN_STEPS: usize = 150;
const BATCH: usize = 16;

/// LSTM next-step forecaster scored by squared prediction error.
pub struct LstmAd {
    seed: u64,
    state: Option<Fitted>,
}

struct Fitted {
    norm: NormState,
    lstm: Lstm,
    head: Linear,
}

impl Fitted {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.lstm.params();
        p.extend(self.head.params());
        p
    }
}

impl LstmAd {
    /// Creates the detector.
    pub fn new(seed: u64) -> Self {
        LstmAd { seed, state: None }
    }

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        let test_n = st.norm.transform_masked(test, missing)?;
        if test_n.len() <= WINDOW {
            return Err(DetectorError::InvalidTrainingData(
                "test series shorter than the context window".into(),
            ));
        }
        let k = test_n.dim();
        let mut scores = vec![0.0f64; test_n.len()];
        // Batched prediction over all forecastable positions.
        let positions: Vec<usize> = (0..test_n.len() - WINDOW).collect();
        for chunk in positions.chunks(64) {
            let x = batch_windows(&test_n, chunk, WINDOW);
            let pred = no_grad(|| st.head.forward(&st.lstm.forward_last(&x)));
            let pd = pred.data();
            for (bi, &s) in chunk.iter().enumerate() {
                let truth = test_n.row(s + WINDOW);
                let err: f64 = truth
                    .iter()
                    .enumerate()
                    .map(|(c, &t)| ((t - pd[bi * k + c]) as f64).powi(2))
                    .sum::<f64>()
                    / k as f64;
                scores[s + WINDOW] = err;
            }
        }
        // Warm-up positions inherit the first computed score.
        let first = scores[WINDOW];
        for s in scores.iter_mut().take(WINDOW) {
            *s = first;
        }
        Ok(scores)
    }

    /// Serializes the fitted state as the family's registry payload.
    pub fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        let mut w = ByteWriter::new();
        st.norm.encode(&mut w);
        w.tensors(&st.params());
        Ok(w.finish())
    }

    /// Rebuilds a fitted detector from [`Self::snapshot_payload`] bytes.
    pub fn restore_from_payload(seed: u64, bytes: &[u8]) -> Result<Self, DetectorError> {
        let mut r = ByteReader::new(bytes);
        let norm = NormState::decode(&mut r)?;
        let k = norm.channels;
        let mut rng = rng_for(seed, 0x15a);
        let st = Fitted {
            norm,
            lstm: Lstm::new(&mut rng, k, HIDDEN),
            head: Linear::new(&mut rng, HIDDEN, k),
        };
        r.tensors_into(&st.params())?;
        r.finish()?;
        Ok(LstmAd {
            seed,
            state: Some(st),
        })
    }
}

impl Detector for LstmAd {
    fn name(&self) -> &'static str {
        "LSTM-AD"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 2)?;
        let k = train_n.dim();
        let mut rng = rng_for(self.seed, 0x15a);
        let lstm = Lstm::new(&mut rng, k, HIDDEN);
        let head = Linear::new(&mut rng, HIDDEN, k);
        let mut params = lstm.params();
        params.extend(head.params());
        let mut opt = Adam::new(params, 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let starts = sample_starts(&mut rng, train_n.len() - 1, WINDOW, BATCH);
            let x = batch_windows(&train_n, &starts, WINDOW);
            let target_rows: Vec<f32> = starts
                .iter()
                .flat_map(|&s| train_n.row(s + WINDOW).to_vec())
                .collect();
            let target = Tensor::from_vec(target_rows, &[BATCH, k]).expect("target shape");
            let pred = head.forward(&lstm.forward_last(&x));
            ops::mse(&pred, &target)
        });
        self.state = Some(Fitted { norm, lstm, head });
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
