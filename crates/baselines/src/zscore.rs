//! Z-score detector — the statistical floor of the escalation ladder.
//!
//! Per-channel mean/std fitted on the training split; the anomaly score of
//! a row is the mean squared z-score across channels. Orders of magnitude
//! cheaper than any neural family, which makes it the default first rung
//! for tenants whose regime a linear profile explains well.

use imdiff_data::{check_finite, Detection, Detector, DetectorError, Mts};
use imdiff_nn::serialize::{ByteReader, ByteWriter};

use crate::common::corrupt;

/// Floor on the per-channel standard deviation so constant channels don't
/// blow up the score.
const MIN_STD: f64 = 1e-6;

/// Per-channel Gaussian profile scored by mean squared z-score.
pub struct ZScoreDetector {
    seed: u64,
    state: Option<Fitted>,
}

struct Fitted {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl ZScoreDetector {
    /// Creates the detector. The seed is unused (the fit is closed-form)
    /// but kept for the registry's uniform constructor shape.
    pub fn new(seed: u64) -> Self {
        ZScoreDetector { seed, state: None }
    }

    /// Read-only scoring with an optional declared-missing mask: declared
    /// cells contribute zero deviation (the channel mean).
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        let k = st.mean.len();
        if test.dim() != k {
            return Err(DetectorError::DimensionMismatch {
                expected: k,
                actual: test.dim(),
            });
        }
        check_finite(test, missing)?;
        let declared = |l: usize, c: usize| missing.is_some_and(|m| m[l * k + c]);
        let mut scores = Vec::with_capacity(test.len());
        for l in 0..test.len() {
            let mut acc = 0.0f64;
            for c in 0..k {
                if declared(l, c) {
                    continue;
                }
                let z = (test.get(l, c) as f64 - st.mean[c]) / st.std[c];
                acc += z * z;
            }
            scores.push(acc / k as f64);
        }
        Ok(scores)
    }

    /// Serializes the fitted profile as the family's registry payload.
    pub fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        let mut w = ByteWriter::new();
        w.u32(st.mean.len() as u32);
        w.f64s(&st.mean);
        w.f64s(&st.std);
        Ok(w.finish())
    }

    /// Rebuilds a fitted detector from [`Self::snapshot_payload`] bytes.
    pub fn restore_from_payload(seed: u64, bytes: &[u8]) -> Result<Self, DetectorError> {
        let mut r = ByteReader::new(bytes);
        let k = r.u32()? as usize;
        let mean = r.f64s()?;
        let std = r.f64s()?;
        r.finish()?;
        if k == 0 || mean.len() != k || std.len() != k {
            return Err(corrupt("z-score profile shape mismatch"));
        }
        if mean.iter().any(|m| !m.is_finite()) || std.iter().any(|s| !s.is_finite() || *s <= 0.0)
        {
            return Err(corrupt("non-finite z-score profile"));
        }
        Ok(ZScoreDetector {
            seed,
            state: Some(Fitted { mean, std }),
        })
    }
}

impl Detector for ZScoreDetector {
    fn name(&self) -> &'static str {
        "ZScore"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        if train.is_empty() || train.dim() == 0 {
            return Err(DetectorError::InvalidTrainingData(
                "empty training series".into(),
            ));
        }
        check_finite(train, None)?;
        let (len, k) = (train.len(), train.dim());
        let mut mean = vec![0.0f64; k];
        for l in 0..len {
            for (c, m) in mean.iter_mut().enumerate() {
                *m += train.get(l, c) as f64;
            }
        }
        for m in &mut mean {
            *m /= len as f64;
        }
        let mut var = vec![0.0f64; k];
        for l in 0..len {
            for c in 0..k {
                let d = train.get(l, c) as f64 - mean[c];
                var[c] += d * d;
            }
        }
        let std = var
            .into_iter()
            .map(|v| (v / len as f64).sqrt().max(MIN_STD))
            .collect();
        let _ = self.seed;
        self.state = Some(Fitted { mean, std });
        Ok(())
    }

    fn detect(&mut self, test: &Mts) -> Result<Detection, DetectorError> {
        Ok(Detection::from_scores(self.score_series(test, None)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(len: usize) -> Vec<f32> {
        (0..len)
            .flat_map(|t| {
                let v = (t as f32 * 0.3).sin();
                [v, v * 0.5 + 1.0]
            })
            .collect()
    }

    #[test]
    fn spikes_score_higher() {
        let train = Mts::new(sine(300), 300, 2);
        let mut test = Mts::new(sine(300), 300, 2);
        test.set(100, 0, 8.0);
        let mut det = ZScoreDetector::new(1);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let normal = d
            .scores
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 100)
            .map(|(_, &s)| s)
            .fold(0.0f64, f64::max);
        assert!(d.scores[100] > normal);
    }

    #[test]
    fn nan_input_is_typed_error() {
        let train = Mts::new(sine(100), 100, 2);
        let mut det = ZScoreDetector::new(1);
        det.fit(&train).unwrap();
        let mut test = Mts::new(sine(50), 50, 2);
        test.set(10, 1, f32::NAN);
        assert!(matches!(
            det.detect(&test),
            Err(DetectorError::NonFiniteInput {
                index: 10,
                channel: 1
            })
        ));
        // The same cell declared missing scores fine.
        let mut mask = vec![false; 50 * 2];
        mask[10 * 2 + 1] = true;
        let scores = det.score_series(&test, Some(&mask)).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let train = Mts::new(sine(200), 200, 2);
        let test = Mts::new(sine(80), 80, 2);
        let mut det = ZScoreDetector::new(7);
        det.fit(&train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&test, None).unwrap());
        assert_eq!(s1, s4);
        let bytes = det.snapshot_payload().unwrap();
        let restored = ZScoreDetector::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&test, None).unwrap());
    }

    #[test]
    fn not_fitted_error() {
        let mut det = ZScoreDetector::new(1);
        assert!(matches!(
            det.detect(&Mts::zeros(5, 2)),
            Err(DetectorError::NotFitted)
        ));
    }
}
