//! The lifecycle every neural baseline shares (see the crate doc):
//! normalization state, window batching, a generic training loop, the
//! window and next-row scoring drivers and the payload codec.

use imdiff_data::{check_finite, coverage_starts, DetectorError, Mts, NormMethod, Normalizer};
use imdiff_nn::optim::Optimizer;
use imdiff_nn::rng::seeded;
use imdiff_nn::serialize::{ByteReader, ByteWriter};
use imdiff_nn::{backward, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Windows per batch of [`score_windows`]. MAD-GAN's latent inversion
/// optimises `z` against the batch's mean loss, so its scores (and the
/// train-score τ in its envelope) depend on this number.
const WINDOW_BATCH: usize = 32;
/// Windows per batch of [`score_next_rows`] (and of GDN's training-error
/// pass); no family's scores depend on it.
pub(crate) const NEXT_ROW_BATCH: usize = 64;

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
    fn encode(&self, w: &mut ByteWriter) {
        let (offset, scale) = self.normalizer.stats();
        w.u32(self.channels as u32);
        w.f32s(&offset);
        w.f32s(&scale);
    }

    /// Inverse of [`Self::encode`].
    fn decode(r: &mut ByteReader) -> Result<Self, DetectorError> {
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

/// A neural baseline's model: how to build it and what its payload holds.
pub(crate) trait Network: Sized {
    /// Role tag of the family's RNG stream ([`rng_for`]).
    const TAG: u64;

    /// A freshly initialised model for `k` channels: the skeleton a
    /// payload is read into.
    fn build(rng: &mut StdRng, k: usize) -> Self;

    /// The trained tensors, in payload order.
    fn params(&self) -> Vec<Tensor>;

    /// Writes the model's part of the payload. Most families store only
    /// their tensors; GDN and MSCRED add data-derived state.
    fn encode(&self, w: &mut ByteWriter) {
        w.tensors(&self.params());
    }

    /// Inverse of [`Self::encode`], into a model from [`Self::build`].
    fn decode(&mut self, r: &mut ByteReader) -> Result<(), DetectorError> {
        Ok(r.tensors_into(&self.params())?)
    }
}

/// A fitted neural baseline: its normalizer and its trained model.
pub(crate) struct Fitted<M> {
    pub(crate) norm: NormState,
    pub(crate) model: M,
}

/// A family's registry payload: the [`NormState`], then what `body`
/// writes.
pub(crate) fn write_payload(norm: &NormState, body: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    norm.encode(&mut w);
    body(&mut w);
    w.finish()
}

/// Inverse of [`write_payload`]: `body` reads the rest given the channel
/// count, and must consume every byte.
pub(crate) fn read_payload<T>(
    bytes: &[u8],
    body: impl FnOnce(&mut ByteReader, usize) -> Result<T, DetectorError>,
) -> Result<(NormState, T), DetectorError> {
    let mut r = ByteReader::new(bytes);
    let norm = NormState::decode(&mut r)?;
    let rest = body(&mut r, norm.channels)?;
    r.finish()?;
    Ok((norm, rest))
}

/// A neural family's payload: the [`NormState`], then the model's part.
pub(crate) fn encode_payload<M: Network>(
    state: Option<&Fitted<M>>,
) -> Result<Vec<u8>, DetectorError> {
    let st = state.ok_or(DetectorError::NotFitted)?;
    Ok(write_payload(&st.norm, |w| st.model.encode(w)))
}

/// Inverse of [`encode_payload`]. The model skeleton is rebuilt from the
/// seed and the stored channel count, and the payload overwrites it.
pub(crate) fn decode_payload<M: Network>(
    seed: u64,
    bytes: &[u8],
) -> Result<Fitted<M>, DetectorError> {
    let (norm, model) = read_payload(bytes, |r, k| {
        let mut model = M::build(&mut rng_for(seed, M::TAG), k);
        model.decode(r)?;
        Ok(model)
    })?;
    Ok(Fitted { norm, model })
}

/// The inherent lifecycle every neural family shares, for a
/// `struct $family { seed: u64, state: Option<Fitted<_>> }`: `new`,
/// `snapshot_payload` and `restore_from_payload` (the payload codec).
macro_rules! neural_lifecycle {
    ($family:ident) => {
        impl $family {
            /// Creates the detector.
            pub fn new(seed: u64) -> Self {
                $family { seed, state: None }
            }

            /// Serializes the fitted state as the family's registry
            /// payload.
            pub fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError> {
                $crate::common::encode_payload(self.state.as_ref())
            }

            /// Rebuilds a fitted detector from [`Self::snapshot_payload`]
            /// bytes. The model skeleton is rebuilt from the seed and the
            /// stored channel count, and the payload overwrites it.
            pub fn restore_from_payload(seed: u64, bytes: &[u8]) -> Result<Self, DetectorError> {
                let state = Some($crate::common::decode_payload(seed, bytes)?);
                Ok($family { seed, state })
            }
        }
    };
}
pub(crate) use neural_lifecycle;

/// The checks both scoring drivers start with: fitted, masked and
/// normalized, and at least `min_len` rows long.
fn ingest<'a, M>(
    state: Option<&'a Fitted<M>>,
    test: &Mts,
    missing: Option<&[bool]>,
    min_len: usize,
) -> Result<(&'a M, Mts), DetectorError> {
    let st = state.ok_or(DetectorError::NotFitted)?;
    let data = st.norm.transform_masked(test, missing)?;
    require_len(&data, min_len)?;
    Ok((&st.model, data))
}

/// Reconstruction scoring: covers the series with windows of `w` rows at
/// stride `w / 2`, hands `errors` each `[B, w, K]` batch and averages the
/// returned per-(window, position) errors (`B * w` of them, window-major)
/// where windows overlap. Any series of at least `w` rows is scored.
pub(crate) fn score_windows<M>(
    state: Option<&Fitted<M>>,
    test: &Mts,
    missing: Option<&[bool]>,
    w: usize,
    mut errors: impl FnMut(&M, &Tensor) -> Vec<f64>,
) -> Result<Vec<f64>, DetectorError> {
    let (model, data) = ingest(state, test, missing, w)?;
    Ok(merge_windows(&data, w, WINDOW_BATCH, |x| errors(model, x)))
}

fn merge_windows(
    data: &Mts,
    w: usize,
    batch: usize,
    mut errors: impl FnMut(&Tensor) -> Vec<f64>,
) -> Vec<f64> {
    let mut ps = PointScores::new(data.len());
    for chunk in coverage_starts(data.len(), w, w / 2).chunks(batch) {
        let errs = errors(&batch_windows(data, chunk, w));
        debug_assert_eq!(errs.len(), chunk.len() * w, "one error per window position");
        for (&s, window) in chunk.iter().zip(errs.chunks(w)) {
            for (l, &e) in window.iter().enumerate() {
                ps.add(s + l, e);
            }
        }
    }
    ps.finish()
}

/// Next-row scoring: for every window start `s` (windows of `w` rows),
/// `score` gets the normalized series and a batch of starts and returns
/// one score per start, which lands on row `s + w`. The first `w` rows
/// take the first score. Any series of at least `w + 1` rows, one window
/// and the row after it, is scored.
pub(crate) fn score_next_rows<M>(
    state: Option<&Fitted<M>>,
    test: &Mts,
    missing: Option<&[bool]>,
    w: usize,
    mut score: impl FnMut(&M, &Mts, &[usize]) -> Vec<f64>,
) -> Result<Vec<f64>, DetectorError> {
    let (model, data) = ingest(state, test, missing, w + 1)?;
    Ok(fill_next_rows(&data, w, NEXT_ROW_BATCH, |starts| {
        score(model, &data, starts)
    }))
}

fn fill_next_rows(
    data: &Mts,
    w: usize,
    batch: usize,
    mut score: impl FnMut(&[usize]) -> Vec<f64>,
) -> Vec<f64> {
    let mut scores = vec![0.0f64; data.len()];
    let starts: Vec<usize> = (0..data.len() - w).collect();
    for chunk in starts.chunks(batch) {
        let row_scores = score(chunk);
        debug_assert_eq!(row_scores.len(), chunk.len(), "one score per start");
        for (&s, e) in chunk.iter().zip(row_scores) {
            scores[s + w] = e;
        }
    }
    let first = scores[w];
    scores[..w].fill(first);
    scores
}

/// Per-row mean over the last axis of `a` of `(a - b)²`, in `f64`: one
/// value per (window, position) of a `[B, W, K]` batch, or per window of a
/// `[B, K]` forecast. `b` holds the same elements in any shape.
pub(crate) fn channel_mse(a: &Tensor, b: &Tensor) -> Vec<f64> {
    let k = *a.dims().last().expect("rank ≥ 1");
    let (ad, bd) = (a.data(), b.data());
    debug_assert_eq!(ad.len(), bd.len());
    ad.chunks(k)
        .zip(bd.chunks(k))
        .map(|(ar, br)| {
            ar.iter()
                .zip(br)
                .map(|(&x, &y)| ((x - y) as f64).powi(2))
                .sum::<f64>()
                / k as f64
        })
        .collect()
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

/// `[B, K]` forecast targets: the row after each window of `w` rows.
pub(crate) fn next_rows(data: &Mts, starts: &[usize], w: usize) -> Tensor {
    let rows: Vec<f32> = starts
        .iter()
        .flat_map(|&s| data.row(s + w).to_vec())
        .collect();
    Tensor::from_vec(rows, &[starts.len(), data.dim()]).expect("next-row shape")
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
/// averaging where windows overlap.
struct PointScores {
    sum: Vec<f64>,
    count: Vec<f64>,
}

impl PointScores {
    fn new(len: usize) -> Self {
        PointScores {
            sum: vec![0.0; len],
            count: vec![0.0; len],
        }
    }

    fn add(&mut self, global_pos: usize, err: f64) {
        self.sum[global_pos] += err;
        self.count[global_pos] += 1.0;
    }

    /// Final per-point scores. `coverage_starts` covers every row of a
    /// series at least one window long, so no count is zero.
    fn finish(self) -> Vec<f64> {
        debug_assert!(
            self.count.iter().all(|&c| c > 0.0),
            "a row no window covers"
        );
        self.sum
            .iter()
            .zip(&self.count)
            .map(|(&s, &c)| s / c)
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

    /// A fitted state whose normalizer is the identity on `[0, 1]`, so
    /// the drivers hand the closures the raw series.
    fn identity_state() -> Fitted<()> {
        let normalizer = Normalizer::from_stats(NormMethod::MinMax, vec![0.0; 2], vec![1.0; 2]);
        Fitted {
            norm: NormState {
                normalizer,
                channels: 2,
            },
            model: (),
        }
    }

    /// Row `r` holds `r / 64` in channel 0. The values are dyadic, so the
    /// driver's overlap averages of equal values are exact.
    fn ramp(len: usize) -> Mts {
        Mts::new(
            (0..len).flat_map(|r| [r as f32 / 64.0, 0.5]).collect(),
            len,
            2,
        )
    }

    /// Each window position's error is its row's channel-0 value, so every
    /// row must score its own value whatever covers it.
    fn own_values(x: &Tensor) -> Vec<f64> {
        x.data().chunks(2).map(|row| row[0] as f64).collect()
    }

    #[test]
    fn window_driver_covers_and_merges_at_any_batch_size() {
        let w = 6;
        // One window, one window plus a row, and a length whose last
        // window is off the stride-3 grid.
        for len in [w, w + 1, 23] {
            let data = ramp(len);
            let expected: Vec<f64> = (0..len).map(|r| r as f64 / 64.0).collect();
            for batch in [1, 3, WINDOW_BATCH] {
                let mut windows = 0;
                let scores = merge_windows(&data, w, batch, |x| {
                    assert!(x.dims()[0] <= batch);
                    windows += x.dims()[0];
                    own_values(x)
                });
                assert_eq!(windows, coverage_starts(len, w, w / 2).len());
                let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                let want: Vec<u64> = expected.iter().map(|s| s.to_bits()).collect();
                assert_eq!(bits, want, "len {len}, batch {batch}");
            }
        }
    }

    #[test]
    fn next_row_driver_scores_the_row_after_each_window_at_any_batch_size() {
        let w = 5;
        for len in [w + 1, w + 2, 23] {
            let data = ramp(len);
            // Rows after the first window score themselves; the warm-up
            // rows take the first score.
            let expected: Vec<f64> = (0..len).map(|r| r.max(w) as f64 / 64.0).collect();
            for batch in [1, 3, NEXT_ROW_BATCH] {
                let scores = fill_next_rows(&data, w, batch, |starts| {
                    assert!(starts.len() <= batch);
                    own_values(&next_rows(&data, starts, w))
                });
                let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                let want: Vec<u64> = expected.iter().map(|s| s.to_bits()).collect();
                assert_eq!(bits, want, "len {len}, batch {batch}");
            }
        }
    }

    #[test]
    fn drivers_own_the_fitted_and_length_checks() {
        let st = identity_state();
        let windows = |state, len| score_windows(state, &ramp(len), None, 6, |_, x| own_values(x));
        let next = |state, len| {
            score_next_rows(state, &ramp(len), None, 5, |_, data, starts| {
                own_values(&next_rows(data, starts, 5))
            })
        };
        assert!(matches!(windows(None, 6), Err(DetectorError::NotFitted)));
        assert!(matches!(next(None, 6), Err(DetectorError::NotFitted)));
        assert_eq!(windows(Some(&st), 6).unwrap().len(), 6);
        assert_eq!(next(Some(&st), 6).unwrap().len(), 6);
        assert!(matches!(
            windows(Some(&st), 5),
            Err(DetectorError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            next(Some(&st), 5),
            Err(DetectorError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn point_scores_average_overlaps() {
        let mut ps = PointScores::new(2);
        ps.add(0, 2.0);
        ps.add(0, 4.0);
        ps.add(1, 6.0);
        assert_eq!(ps.finish(), vec![3.0, 6.0]);
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
