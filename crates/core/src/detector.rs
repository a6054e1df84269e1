//! The end-to-end ImDiffusion detector.

use imdiff_data::{check_finite, Detection, Detector, DetectorError, Mts, NormMethod, Normalizer};
use imdiff_diffusion::NoiseSchedule;
use imdiff_nn::layers::Module;

use crate::config::ImDiffusionConfig;
use crate::infer::{ensemble_infer, EnsembleOutput};
use crate::model::ImTransformer;
use crate::streaming::DriftReference;
use crate::trainer::{Trainer, TrainerOptions, TrainReport};

/// ImDiffusion as a [`Detector`]: min-max normalization fitted on training
/// data, a trained [`ImTransformer`] diffusion denoiser, and ensemble
/// anomaly inference producing both continuous scores and native voted
/// labels.
pub struct ImDiffusionDetector {
    cfg: ImDiffusionConfig,
    seed: u64,
    fitted: Option<Fitted>,
    last_output: Option<EnsembleOutput>,
    last_report: Option<TrainReport>,
    /// Training-time per-channel statistics for streaming drift
    /// detection; captured by `fit`, persisted in the IMDE envelope's
    /// drift field.
    drift_ref: Option<DriftReference>,
}

struct Fitted {
    model: ImTransformer,
    schedule: NoiseSchedule,
    normalizer: Normalizer,
    channels: usize,
}

impl ImDiffusionDetector {
    /// Creates an (unfitted) detector.
    pub fn new(cfg: ImDiffusionConfig, seed: u64) -> Self {
        cfg.validate();
        ImDiffusionDetector {
            cfg,
            seed,
            fitted: None,
            last_output: None,
            last_report: None,
            drift_ref: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ImDiffusionConfig {
        &self.cfg
    }

    /// The construction seed (checkpoint reload must reuse it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Training-time reference statistics for drift detection (`None`
    /// before fit, or when restored from a checkpoint without one — drift
    /// detection stays unarmed there).
    pub fn drift_reference(&self) -> Option<&DriftReference> {
        self.drift_ref.as_ref()
    }

    /// Overwrites the drift reference (checkpoint loading; fine-tuning,
    /// which re-baselines "normal" on the corpus it adapted to).
    pub fn set_drift_reference(&mut self, reference: Option<DriftReference>) {
        self.drift_ref = reference;
    }

    /// The ensemble trace of the most recent [`Detector::detect`] call
    /// (used by the figure-reproduction binaries and examples).
    pub fn last_output(&self) -> Option<&EnsembleOutput> {
        self.last_output.as_ref()
    }

    /// The loss curve of the most recent [`Detector::fit`] call.
    pub fn last_train_report(&self) -> Option<&TrainReport> {
        self.last_report.as_ref()
    }

    /// Internal access for checkpointing: the fitted model and normalizer.
    pub(crate) fn fitted_parts(&self) -> Option<(&ImTransformer, &Normalizer)> {
        self.fitted
            .as_ref()
            .map(|f| (&f.model, &f.normalizer))
    }

    /// Initialises an untrained skeleton with identity normalization —
    /// used by checkpoint loading, which overwrites everything afterwards.
    pub(crate) fn init_untrained(&mut self, channels: usize) {
        assert!(channels >= 1, "need at least one channel");
        let model = ImTransformer::new(&self.cfg, channels, self.seed);
        let schedule = NoiseSchedule::new(self.cfg.schedule, self.cfg.diffusion_steps);
        let normalizer = Normalizer::from_stats(
            NormMethod::MinMax,
            vec![0.0; channels],
            vec![1.0; channels],
        );
        self.fitted = Some(Fitted {
            model,
            schedule,
            normalizer,
            channels,
        });
    }

    /// Overwrites the fitted normalizer statistics (checkpoint loading).
    pub(crate) fn set_normalizer_vectors(&mut self, offset: &[f32], scale: &[f32]) {
        let fitted = self.fitted.as_mut().expect("init_untrained first");
        fitted.normalizer =
            Normalizer::from_stats(NormMethod::MinMax, offset.to_vec(), scale.to_vec());
    }

    /// Whether the detector holds a usable model — via [`Detector::fit`]
    /// **or** a checkpoint restore (which never populates a train report).
    pub fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    /// Channel count of the fitted model (`None` before fit/restore).
    pub fn channels(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.channels)
    }

    /// [`Detector::fit`] driven by a configurable [`Trainer`]: with a
    /// [`TrainerOptions::checkpoint_path`], training state is persisted
    /// periodically and — when the path already holds an `IMTS` file from
    /// an interrupted run — resumed from it, producing the same fitted
    /// model as an uninterrupted fit. A crash loses at most one
    /// checkpoint interval of work.
    pub fn fit_resumable(
        &mut self,
        train_data: &Mts,
        opts: TrainerOptions,
    ) -> Result<(), DetectorError> {
        self.fit_with(train_data, &Trainer::new(opts))
    }

    fn fit_with(
        &mut self,
        train_data: &Mts,
        trainer: &Trainer,
    ) -> Result<(), DetectorError> {
        if train_data.len() < self.cfg.window {
            return Err(DetectorError::InvalidTrainingData(format!(
                "need at least {} steps, got {}",
                self.cfg.window,
                train_data.len()
            )));
        }
        if train_data.dim() == 0 {
            return Err(DetectorError::InvalidTrainingData(
                "zero-dimensional series".into(),
            ));
        }
        // Finiteness boundary: a NaN/∞ in training data would silently
        // corrupt the normalizer statistics and every gradient after it.
        check_finite(train_data, None)?;
        let normalizer = Normalizer::fit(train_data, NormMethod::MinMax);
        let train_n = normalizer.transform(train_data);
        let model = ImTransformer::new(&self.cfg, train_n.dim(), self.seed);
        let schedule = NoiseSchedule::new(self.cfg.schedule, self.cfg.diffusion_steps);
        let seed = self.seed ^ 0xA5A5;
        let resume = trainer
            .options()
            .checkpoint_path
            .as_ref()
            .is_some_and(|p| p.exists());
        let report = if resume {
            trainer.resume(&model, &self.cfg, &schedule, &train_n, seed)?
        } else {
            trainer.run(&model, &self.cfg, &schedule, &train_n, seed)?
        };
        self.last_report = Some(report);
        // Drift baseline over the *raw* series: the live stream is
        // compared in original units, normalizer-independent.
        self.drift_ref = Some(DriftReference::from_series(train_data, self.cfg.window));
        self.fitted = Some(Fitted {
            model,
            schedule,
            normalizer,
            channels: train_n.dim(),
        });
        Ok(())
    }

    /// [`Detector::detect`] with an explicit missing-cell mask (row-major
    /// `[L, K]`, `true` = value absent/unreliable). Missing cells are
    /// imputed natively by the diffusion model — they are forced to be
    /// targets under both grating policies — and excluded from the error
    /// signal. NaN is accepted *only* in declared-missing cells; any other
    /// non-finite value is rejected with [`DetectorError::NonFiniteInput`]
    /// before it can reach (and poison) the inference chain.
    pub fn detect_with_missing(
        &mut self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Detection, DetectorError> {
        let w = self.cfg.window;
        let out = self
            .score(&[(test, missing)], |len| {
                if len < w {
                    return Err(DetectorError::InvalidTrainingData(format!(
                        "test series shorter than window {w}"
                    )));
                }
                Ok(())
            })?
            .remove(0);
        let detection = Detection {
            scores: out.scores.clone(),
            labels: Some(out.labels.clone()),
        };
        self.last_output = Some(out);
        Ok(detection)
    }

    /// Scores a batch of independent single-window requests in one
    /// ensemble pass — the serving layer's micro-batching hook. Each
    /// window must be exactly `cfg.window` rows; its optional mask is
    /// row-major `[W, K]`. Validation matches [`Self::detect_with_missing`]
    /// (NaN accepted only in declared-missing cells), and the results are
    /// bit-identical to scoring each window alone: both paths reach
    /// [`ensemble_infer`] with the same inference seed, and each window is
    /// a one-window series of the batch.
    ///
    /// `&self`, not `&mut self`: batched scoring never touches the
    /// `last_output` trace, so concurrent read-only sharing is safe.
    pub fn detect_windows(
        &self,
        windows: &[(&Mts, Option<&[bool]>)],
    ) -> Result<Vec<EnsembleOutput>, DetectorError> {
        let w = self.cfg.window;
        self.score(windows, |len| {
            if len != w {
                return Err(DetectorError::InvalidTrainingData(format!(
                    "batched request must be exactly one window ({w} rows), got {len}"
                )));
            }
            Ok(())
        })
    }

    /// The one ImDiffusion scoring path: validates each series in turn
    /// (channel count, the caller's row-count rule, [`check_finite`]),
    /// normalises with the training statistics and runs
    /// [`ensemble_infer`] over the whole batch.
    fn score(
        &self,
        batch: &[(&Mts, Option<&[bool]>)],
        check_len: impl Fn(usize) -> Result<(), DetectorError>,
    ) -> Result<Vec<EnsembleOutput>, DetectorError> {
        let fitted = self.fitted.as_ref().ok_or(DetectorError::NotFitted)?;
        for &(series, missing) in batch {
            if series.dim() != fitted.channels {
                return Err(DetectorError::DimensionMismatch {
                    expected: fitted.channels,
                    actual: series.dim(),
                });
            }
            check_len(series.len())?;
            check_finite(series, missing)?;
        }
        let normed: Vec<Mts> = batch
            .iter()
            .map(|(series, _)| fitted.normalizer.transform(series))
            .collect();
        let reqs: Vec<(&Mts, Option<&[bool]>)> = normed
            .iter()
            .zip(batch)
            .map(|(n, &(_, missing))| (n, missing))
            .collect();
        Ok(ensemble_infer(
            &fitted.model,
            &self.cfg,
            &fitted.schedule,
            &reqs,
            self.seed ^ 0x5A5A,
        ))
    }

    /// A plain-data copy of the fitted weights (equality checks and
    /// digests), or `None` before fit/restore.
    pub fn to_spec(&self) -> Option<DetectorSpec> {
        let params = self.fitted.as_ref()?.model.params();
        Some(DetectorSpec {
            params: params.iter().map(|p| p.to_vec()).collect(),
        })
    }
}

/// The fitted weights of an [`ImDiffusionDetector`] as plain `f32` data.
/// It cannot rebuild a detector: the `Send`-safe snapshot that does is the
/// registry's `AnySpec`, the IMDE envelope bytes.
#[derive(Debug, Clone)]
pub struct DetectorSpec {
    params: Vec<Vec<f32>>,
}

impl DetectorSpec {
    /// One flat vector per parameter tensor, in model order.
    pub fn weights(&self) -> &[Vec<f32>] {
        &self.params
    }
}

impl Detector for ImDiffusionDetector {
    fn name(&self) -> &'static str {
        "ImDiffusion"
    }

    fn fit(&mut self, train_data: &Mts) -> Result<(), DetectorError> {
        self.fit_with(train_data, &Trainer::default())
    }

    fn detect(&mut self, test: &Mts) -> Result<Detection, DetectorError> {
        self.detect_with_missing(test, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};

    fn tiny_cfg() -> ImDiffusionConfig {
        ImDiffusionConfig {
            window: 16,
            train_stride: 8,
            hidden: 8,
            heads: 2,
            residual_blocks: 1,
            diffusion_steps: 6,
            train_steps: 15,
            batch_size: 2,
            vote_span: 6,
            vote_every: 2,
            ..ImDiffusionConfig::quick()
        }
    }

    #[test]
    fn full_lifecycle() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 96,
                test_len: 48,
            },
            21,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 21);
        assert!(matches!(det.detect(&ds.test), Err(DetectorError::NotFitted)));
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 48);
        assert!(d.labels.is_some());
        assert!(det.last_output().is_some());
        assert!(det.last_train_report().is_some());
    }

    #[test]
    fn rejects_short_training_data() {
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 1);
        let err = det.fit(&Mts::zeros(4, 2)).unwrap_err();
        assert!(matches!(err, DetectorError::InvalidTrainingData(_)));
    }

    #[test]
    fn rejects_mismatched_test_channels() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            2,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 2);
        det.fit(&ds.train).unwrap();
        let bad = Mts::zeros(32, ds.train.dim() + 1);
        assert!(matches!(
            det.detect(&bad),
            Err(DetectorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn detection_is_deterministic() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            8,
        );
        let run = || {
            let mut det = ImDiffusionDetector::new(tiny_cfg(), 4);
            det.fit(&ds.train).unwrap();
            det.detect(&ds.test).unwrap().scores
        };
        assert_eq!(run(), run());
    }
}
