//! Shared plumbing for the neural baselines: normalization state, window
//! batching, a generic training loop, and window-to-point score merging.

use imdiff_data::{check_finite, DetectorError, Mts, NormMethod, Normalizer};
use imdiff_nn::optim::Optimizer;
use imdiff_nn::rng::seeded;
use imdiff_nn::serialize::{ByteReader, ByteWriter};
use imdiff_nn::{backward, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Normalization fitted at `fit` time and reused at `detect` time.
pub(crate) struct NormState {
    normalizer: Normalizer,
    pub(crate) channels: usize,
}

impl NormState {
    pub(crate) fn fit(train: &Mts) -> Result<(Self, Mts), DetectorError> {
        if train.is_empty() || train.dim() == 0 {
            return Err(DetectorError::InvalidTrainingData(
                "empty training series".into(),
            ));
        }
        // Finiteness boundary: a NaN/∞ would silently poison the min/max
        // statistics here and then every distance, split threshold and
        // gradient downstream — several families (IForest's `gen_range`
        // on NaN bounds, GDN's correlation sort) would outright panic.
        check_finite(train, None)?;
        let normalizer = Normalizer::fit(train, NormMethod::MinMax);
        let train_n = normalizer.transform(train);
        Ok((
            NormState {
                normalizer,
                channels: train.dim(),
            },
            train_n,
        ))
    }

    /// Mask-aware ingestion boundary shared by every baseline's scoring
    /// path: validates geometry, rejects non-finite values outside
    /// declared-missing cells with a typed error (the mask is row-major
    /// `[L, K]`, `true` = value absent — the convention of
    /// `imdiff_data::mask` and the streaming monitor), fills declared
    /// cells deterministically (carry-forward → backfill → channel
    /// mid-range), and normalizes. The baselines have no native notion of
    /// imputation, so a placeholder value keeps their arithmetic finite
    /// while staying inside the training data's value envelope.
    pub(crate) fn transform_masked(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Mts, DetectorError> {
        if test.dim() != self.channels {
            return Err(DetectorError::DimensionMismatch {
                expected: self.channels,
                actual: test.dim(),
            });
        }
        check_finite(test, missing)?;
        let missing = match missing {
            Some(m) if m.contains(&true) => m,
            _ => return Ok(self.normalizer.transform(test)),
        };
        let (len, k) = (test.len(), test.dim());
        let (offset, scale) = self.normalizer.stats();
        let mut filled = test.clone();
        for c in 0..k {
            // Carry-forward within the channel; leading holes backfill
            // from the first observation; a fully-missing channel sits at
            // the training mid-range (offset + scale/2 under min-max).
            let first_obs = (0..len).find(|&l| !missing[l * k + c]);
            let mut last: Option<f32> = None;
            for l in 0..len {
                if missing[l * k + c] {
                    let v = last
                        .or_else(|| first_obs.map(|f| test.get(f, c)))
                        .unwrap_or(offset[c] + 0.5 * scale[c]);
                    filled.set(l, c, v);
                } else {
                    last = Some(test.get(l, c));
                }
            }
        }
        Ok(self.normalizer.transform(&filled))
    }

    /// Serializes the normalization state (registry snapshot payloads).
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        let (offset, scale) = self.normalizer.stats();
        w.u32(self.channels as u32);
        w.f32s(&offset);
        w.f32s(&scale);
    }

    /// Inverse of [`Self::encode`].
    pub(crate) fn decode(r: &mut ByteReader) -> Result<Self, DetectorError> {
        let channels = r.u32()? as usize;
        let offset = r.f32s()?;
        let scale = r.f32s()?;
        if channels == 0 || offset.len() != channels || scale.len() != channels {
            return Err(corrupt("normalizer state shape mismatch"));
        }
        Ok(NormState {
            normalizer: Normalizer::from_stats(NormMethod::MinMax, offset, scale),
            channels,
        })
    }
}

/// Typed corruption error for snapshot payload decoding.
pub(crate) fn corrupt(msg: &str) -> DetectorError {
    DetectorError::CorruptCheckpoint(format!("baseline payload: {msg}"))
}

/// Validates the series is long enough for windowed training.
pub(crate) fn require_len(series: &Mts, min: usize) -> Result<(), DetectorError> {
    if series.len() < min {
        return Err(DetectorError::InvalidTrainingData(format!(
            "series length {} below required {min}",
            series.len()
        )));
    }
    Ok(())
}

/// Time-major `[B, W, K]` batch tensor from window start offsets.
pub(crate) fn batch_windows(data: &Mts, starts: &[usize], w: usize) -> Tensor {
    let k = data.dim();
    let mut buf = Vec::with_capacity(starts.len() * w * k);
    for &s in starts {
        for l in 0..w {
            buf.extend_from_slice(data.row(s + l));
        }
    }
    Tensor::from_vec(buf, &[starts.len(), w, k]).expect("batch window shape")
}

/// Uniformly sampled window start offsets for training.
pub(crate) fn sample_starts(rng: &mut StdRng, len: usize, w: usize, batch: usize) -> Vec<usize> {
    assert!(len >= w, "series shorter than window");
    (0..batch).map(|_| rng.gen_range(0..=len - w)).collect()
}

/// Generic training loop: `step_fn` builds the loss for each step; the
/// loop backprops, clips and applies the optimizer.
pub(crate) fn run_training<O: Optimizer>(
    opt: &mut O,
    steps: usize,
    grad_clip: f32,
    mut step_fn: impl FnMut(usize) -> Tensor,
) -> Vec<f32> {
    let mut losses = Vec::with_capacity(steps);
    for s in 0..steps {
        let loss = step_fn(s);
        losses.push(loss.item());
        backward(&loss);
        opt.clip_grad_norm(grad_clip);
        opt.step();
        opt.zero_grad();
    }
    losses
}

/// Accumulates per-window, per-position errors back onto the timeline,
/// averaging where windows overlap. `cell_err[b][l]` is the error window
/// `b` assigns to its local position `l`.
pub(crate) struct PointScores {
    sum: Vec<f64>,
    count: Vec<f64>,
}

impl PointScores {
    pub(crate) fn new(len: usize) -> Self {
        PointScores {
            sum: vec![0.0; len],
            count: vec![0.0; len],
        }
    }

    pub(crate) fn add(&mut self, global_pos: usize, err: f64) {
        self.sum[global_pos] += err;
        self.count[global_pos] += 1.0;
    }

    /// Final per-point scores; uncovered points receive the mean score.
    pub(crate) fn finish(self) -> Vec<f64> {
        let covered: f64 = self.count.iter().filter(|&&c| c > 0.0).count() as f64;
        let mean = if covered > 0.0 {
            self.sum
                .iter()
                .zip(&self.count)
                .filter(|(_, &c)| c > 0.0)
                .map(|(&s, &c)| s / c)
                .sum::<f64>()
                / covered
        } else {
            0.0
        };
        self.sum
            .iter()
            .zip(&self.count)
            .map(|(&s, &c)| if c > 0.0 { s / c } else { mean })
            .collect()
    }
}

/// Deterministic RNG derived from a detector seed and a role tag.
pub(crate) fn rng_for(seed: u64, tag: u64) -> StdRng {
    seeded(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_scores_average_overlaps() {
        let mut ps = PointScores::new(4);
        ps.add(1, 2.0);
        ps.add(1, 4.0);
        ps.add(2, 6.0);
        let out = ps.finish();
        assert_eq!(out[1], 3.0);
        assert_eq!(out[2], 6.0);
        // Uncovered points get the mean of covered ones: (3 + 6) / 2.
        assert_eq!(out[0], 4.5);
        assert_eq!(out[3], 4.5);
    }

    #[test]
    fn batch_windows_layout() {
        let m = Mts::new((0..12).map(|v| v as f32).collect(), 6, 2);
        let t = batch_windows(&m, &[0, 3], 2);
        assert_eq!(t.dims(), &[2, 2, 2]);
        let d = t.to_vec();
        assert_eq!(&d[..4], &[0.0, 1.0, 2.0, 3.0]); // window at 0
        assert_eq!(&d[4..], &[6.0, 7.0, 8.0, 9.0]); // window at 3
    }

    #[test]
    fn norm_state_roundtrip() {
        let train = Mts::new(vec![0.0, 10.0, 1.0, 20.0], 2, 2);
        let (ns, train_n) = NormState::fit(&train).unwrap();
        assert_eq!(train_n.dim(), 2);
        assert!(ns.transform_masked(&Mts::zeros(3, 3), None).is_err());
        assert!(ns.transform_masked(&Mts::zeros(3, 2), None).is_ok());
    }

    #[test]
    fn fit_rejects_non_finite_training_data() {
        let train = Mts::new(vec![0.0, 1.0, f32::INFINITY, 2.0], 2, 2);
        assert!(matches!(
            NormState::fit(&train),
            Err(DetectorError::NonFiniteInput {
                index: 1,
                channel: 0
            })
        ));
    }

    #[test]
    fn transform_masked_rejects_undeclared_nan_and_fills_declared() {
        let train = Mts::new(vec![0.0, 0.0, 10.0, 10.0, 5.0, 5.0], 3, 2);
        let (ns, _) = NormState::fit(&train).unwrap();

        // Undeclared NaN is a typed error naming the cell.
        let mut test = Mts::new(vec![1.0; 8], 4, 2);
        test.set(2, 1, f32::NAN);
        assert!(matches!(
            ns.transform_masked(&test, None),
            Err(DetectorError::NonFiniteInput {
                index: 2,
                channel: 1
            })
        ));

        // Declared missing: carry-forward fills the hole, so the filled
        // series transforms exactly like the series without the hole.
        let mut mask = vec![false; 8];
        mask[2 * 2 + 1] = true;
        let filled = ns.transform_masked(&test, Some(&mask)).unwrap();
        let mut reference = test.clone();
        reference.set(2, 1, reference.get(1, 1));
        let expected = ns.transform_masked(&reference, None).unwrap();
        for l in 0..4 {
            for c in 0..2 {
                assert_eq!(filled.get(l, c), expected.get(l, c));
            }
        }

        // Leading hole backfills from the first observation.
        let mut lead = Mts::new(vec![f32::NAN, 1.0, 3.0, 1.0], 2, 2);
        let mut lead_mask = vec![false; 4];
        lead_mask[0] = true;
        let out = ns.transform_masked(&lead, Some(&lead_mask)).unwrap();
        lead.set(0, 0, 3.0);
        let expect = ns.transform_masked(&lead, None).unwrap();
        assert_eq!(out.get(0, 0), expect.get(0, 0));

        // A mask of the wrong geometry is rejected.
        let short_mask = vec![false; 3];
        assert!(ns.transform_masked(&test, Some(&short_mask)).is_err());
    }
}
