//! [`AnyDetector`] — one concrete type over every detector family.
//!
//! The serving stack is generic over [`WindowScorer`], but tenant specs,
//! checkpoint files and hot-reload plumbing need a single *concrete* type
//! that can be any family at runtime. `AnyDetector` is that type: an enum
//! over ImDiffusion and the eleven baseline families behind a uniform
//! `fit → snapshot → persist → restore` lifecycle (the IMDE envelope of
//! [`crate::envelope`]).
//!
//! For baseline families — whose native output is a per-row score vector,
//! not an ensemble trace — `score_windows` synthesizes a degenerate
//! single-step [`EnsembleOutput`]: one `StepTrace` with `ratio = 1.0`,
//! errors equal to the scores, and a train-calibrated τ (the 99th
//! percentile of the family's training scores), so `revote` reduces to
//! plain thresholding and the monitor's verdict machinery works unchanged.

use imdiff_baselines::{
    BeatGan, Gdn, InterFusion, IsolationForest, LstmAd, MadGan, Mscred, MtadGat, OmniAnomaly,
    TranAd, ZScoreDetector,
};
use imdiff_data::{check_finite, coverage_starts, Detection, Detector, DetectorError, Mts};
use imdiff_metrics::threshold_at_percentile;
use imdiffusion::{
    DriftReference, EnsembleOutput, ImDiffusionConfig, ImDiffusionDetector, StepTrace,
    WindowScorer,
};

use crate::kind::DetectorKind;

/// Percentile of the training-score distribution used as the synthesized
/// vote threshold τ for baseline families.
const TAU_PERCENTILE: f64 = 99.0;

/// The wrapped family model. ImDiffusion keeps its full detector (ensemble
/// trace, fine-tuning), boxed because it dwarfs every baseline struct;
/// each baseline keeps its fitted family struct.
pub(crate) enum Model {
    ZScore(ZScoreDetector),
    IForest(IsolationForest),
    BeatGan(BeatGan),
    LstmAd(LstmAd),
    InterFusion(InterFusion),
    OmniAnomaly(OmniAnomaly),
    Gdn(Gdn),
    MadGan(MadGan),
    MtadGat(MtadGat),
    Mscred(Mscred),
    TranAd(TranAd),
    ImDiffusion(Box<ImDiffusionDetector>),
}

/// Dispatches over the eleven baseline arms with one body, with a separate
/// body for the ImDiffusion arm (whose API differs).
macro_rules! dispatch {
    ($model:expr, |$d:ident| $body:expr, |$im:ident| $ibody:expr) => {
        match $model {
            Model::ZScore($d) => $body,
            Model::IForest($d) => $body,
            Model::BeatGan($d) => $body,
            Model::LstmAd($d) => $body,
            Model::InterFusion($d) => $body,
            Model::OmniAnomaly($d) => $body,
            Model::Gdn($d) => $body,
            Model::MadGan($d) => $body,
            Model::MtadGat($d) => $body,
            Model::Mscred($d) => $body,
            Model::TranAd($d) => $body,
            Model::ImDiffusion($im) => $ibody,
        }
    };
}

/// A detector of any registered family, with a uniform lifecycle.
pub struct AnyDetector {
    kind: DetectorKind,
    cfg: ImDiffusionConfig,
    seed: u64,
    serving_window: usize,
    /// Synthesized vote threshold for baseline families (train-score 99th
    /// percentile). Unused by ImDiffusion, whose ensemble carries its own.
    tau: f64,
    /// Drift reference for baseline families; ImDiffusion's lives inside
    /// its own detector (fit and fine-tuning set it there). Either way the
    /// envelope's drift field persists it.
    drift_ref: Option<DriftReference>,
    /// Channel count once fitted or restored.
    channels: Option<usize>,
    model: Model,
}

impl AnyDetector {
    /// Creates an unfitted detector of the given family.
    ///
    /// `cfg` is the full ImDiffusion configuration: the diffusion families
    /// use all of it; baseline families use only `cfg.window` as the
    /// *requested* serving window, clamped up to the family's
    /// [`DetectorKind::min_serving_window`]. `seed` drives every RNG the
    /// family owns, making fit and scoring bit-reproducible.
    pub fn new(kind: DetectorKind, cfg: ImDiffusionConfig, seed: u64) -> Self {
        let serving_window = if kind == DetectorKind::ImDiffusion {
            cfg.window
        } else {
            cfg.window.max(kind.min_serving_window())
        };
        let model = match kind {
            DetectorKind::ZScore => Model::ZScore(ZScoreDetector::new(seed)),
            DetectorKind::IForest => Model::IForest(IsolationForest::new(seed)),
            DetectorKind::BeatGan => Model::BeatGan(BeatGan::new(seed)),
            DetectorKind::LstmAd => Model::LstmAd(LstmAd::new(seed)),
            DetectorKind::InterFusion => Model::InterFusion(InterFusion::new(seed)),
            DetectorKind::OmniAnomaly => Model::OmniAnomaly(OmniAnomaly::new(seed)),
            DetectorKind::Gdn => Model::Gdn(Gdn::new(seed)),
            DetectorKind::MadGan => Model::MadGan(MadGan::new(seed)),
            DetectorKind::MtadGat => Model::MtadGat(MtadGat::new(seed)),
            DetectorKind::Mscred => Model::Mscred(Mscred::new(seed)),
            DetectorKind::TranAd => Model::TranAd(TranAd::new(seed)),
            DetectorKind::ImDiffusion => {
                Model::ImDiffusion(Box::new(ImDiffusionDetector::new(cfg.clone(), seed)))
            }
        };
        AnyDetector {
            kind,
            cfg,
            seed,
            serving_window,
            tau: 0.0,
            drift_ref: None,
            channels: None,
            model,
        }
    }

    /// Rebuilds a restored detector from its envelope-decoded parts
    /// (crate-internal: [`crate::envelope`] is the public entry). The drift
    /// reference goes where [`WindowScorer::drift_reference`] reads it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        kind: DetectorKind,
        cfg: ImDiffusionConfig,
        seed: u64,
        serving_window: usize,
        tau: f64,
        mut drift_ref: Option<DriftReference>,
        channels: usize,
        mut model: Model,
    ) -> Self {
        if let Model::ImDiffusion(d) = &mut model {
            d.set_drift_reference(drift_ref.take());
        }
        AnyDetector {
            kind,
            cfg,
            seed,
            serving_window,
            tau,
            drift_ref,
            channels: Some(channels),
            model,
        }
    }

    /// The family of this detector.
    pub fn kind(&self) -> DetectorKind {
        self.kind
    }

    /// The construction seed (envelope restore reuses it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configuration in use (fully meaningful for ImDiffusion; the
    /// serving window source for baselines).
    pub fn config(&self) -> &ImDiffusionConfig {
        &self.cfg
    }

    /// The synthesized vote threshold (baseline families; 0 before fit).
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The wrapped ImDiffusion detector, when this is one (fine-tuning
    /// needs the concrete type).
    pub fn as_imdiffusion(&self) -> Option<&ImDiffusionDetector> {
        match &self.model {
            Model::ImDiffusion(d) => Some(d.as_ref()),
            _ => None,
        }
    }

    /// Mutable access to the wrapped ImDiffusion detector.
    pub fn as_imdiffusion_mut(&mut self) -> Option<&mut ImDiffusionDetector> {
        match &mut self.model {
            Model::ImDiffusion(d) => Some(d.as_mut()),
            _ => None,
        }
    }

    /// Whole-series, read-only, mask-aware scoring — the path the
    /// escalation evaluator replays holdout slices through. For baselines
    /// this is the family's native `score_series`; for ImDiffusion the
    /// series is covered with serving-window slices (stride = window, the
    /// final slice aligned to the end) scored via the batched window path,
    /// and overlapping rows average their scores.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        dispatch!(&self.model, |d| d.score_series(test, missing), |im| {
            let w = self.serving_window;
            let (n, k) = (test.len(), test.dim());
            if n < w {
                return Err(DetectorError::InvalidTrainingData(format!(
                    "series has {n} rows, need at least the serving window {w}"
                )));
            }
            check_finite(test, missing)?;
            let starts = coverage_starts(n, w, w);
            let slices: Vec<Mts> = starts.iter().map(|&s| test.slice_time(s, w)).collect();
            let masks: Vec<Option<Vec<bool>>> = starts
                .iter()
                .map(|&s| missing.map(|m| m[s * k..(s + w) * k].to_vec()))
                .collect();
            let windows: Vec<(&Mts, Option<&[bool]>)> = slices
                .iter()
                .zip(&masks)
                .map(|(sl, ma)| (sl, ma.as_deref()))
                .collect();
            let outputs = im.detect_windows(&windows)?;
            let mut sum = vec![0.0f64; n];
            let mut cnt = vec![0u32; n];
            for (&s, out) in starts.iter().zip(&outputs) {
                for (l, &sc) in out.scores.iter().enumerate() {
                    sum[s + l] += sc;
                    cnt[s + l] += 1;
                }
            }
            Ok(sum
                .iter()
                .zip(&cnt)
                .map(|(&acc, &c)| acc / c.max(1) as f64)
                .collect())
        })
    }

    /// The family's `snapshot_payload` bytes — what the IMDE envelope
    /// wraps.
    pub(crate) fn native_payload(&self) -> Result<Vec<u8>, DetectorError> {
        dispatch!(&self.model, |d| d.snapshot_payload(), |im| im.snapshot_payload())
    }

    /// Synthesizes the degenerate single-step [`EnsembleOutput`] for a
    /// baseline window score vector.
    fn synthesize_output(
        &self,
        window: &Mts,
        missing: Option<&[bool]>,
        scores: Vec<f64>,
    ) -> EnsembleOutput {
        let (w, k) = (window.len(), window.dim());
        let labels: Vec<bool> = scores.iter().map(|&s| s >= self.tau).collect();
        let votes: Vec<u32> = labels.iter().map(|&b| b as u32).collect();
        let mut cell_error = vec![0.0f64; w * k];
        for (l, &s) in scores.iter().enumerate() {
            let row = s / k.max(1) as f64;
            for c in 0..k {
                cell_error[l * k + c] = row;
            }
        }
        EnsembleOutput {
            scores: scores.clone(),
            votes,
            labels: labels.clone(),
            steps: vec![StepTrace {
                t: 1,
                error: scores,
                tau: self.tau,
                ratio: 1.0,
                labels,
                imputed: window.clone(),
            }],
            tau_base: self.tau,
            vote_threshold: 0,
            cell_error,
            channels: k,
            missing_cells: missing.map_or(0, |m| m.iter().filter(|&&b| b).count()),
        }
    }
}

/// Wraps an ImDiffusion detector built outside the registry — e.g. a
/// [`imdiffusion::FineTuner`] candidate — so it can be persisted as an
/// IMDE envelope and served.
impl From<ImDiffusionDetector> for AnyDetector {
    fn from(d: ImDiffusionDetector) -> Self {
        AnyDetector {
            kind: DetectorKind::ImDiffusion,
            cfg: d.config().clone(),
            seed: d.seed(),
            serving_window: d.config().window,
            tau: 0.0,
            drift_ref: None,
            channels: d.channels(),
            model: Model::ImDiffusion(Box::new(d)),
        }
    }
}

impl Model {
    /// Rebuilds a fitted family model from its native payload bytes.
    pub(crate) fn restore(
        kind: DetectorKind,
        cfg: &ImDiffusionConfig,
        seed: u64,
        channels: usize,
        payload: &[u8],
    ) -> Result<Model, DetectorError> {
        Ok(match kind {
            DetectorKind::ZScore => {
                Model::ZScore(ZScoreDetector::restore_from_payload(seed, payload)?)
            }
            DetectorKind::IForest => {
                Model::IForest(IsolationForest::restore_from_payload(seed, payload)?)
            }
            DetectorKind::BeatGan => Model::BeatGan(BeatGan::restore_from_payload(seed, payload)?),
            DetectorKind::LstmAd => Model::LstmAd(LstmAd::restore_from_payload(seed, payload)?),
            DetectorKind::InterFusion => {
                Model::InterFusion(InterFusion::restore_from_payload(seed, payload)?)
            }
            DetectorKind::OmniAnomaly => {
                Model::OmniAnomaly(OmniAnomaly::restore_from_payload(seed, payload)?)
            }
            DetectorKind::Gdn => Model::Gdn(Gdn::restore_from_payload(seed, payload)?),
            DetectorKind::MadGan => Model::MadGan(MadGan::restore_from_payload(seed, payload)?),
            DetectorKind::MtadGat => Model::MtadGat(MtadGat::restore_from_payload(seed, payload)?),
            DetectorKind::Mscred => Model::Mscred(Mscred::restore_from_payload(seed, payload)?),
            DetectorKind::TranAd => Model::TranAd(TranAd::restore_from_payload(seed, payload)?),
            DetectorKind::ImDiffusion => Model::ImDiffusion(Box::new(
                ImDiffusionDetector::restore_from_payload(cfg.clone(), seed, channels, payload)?,
            )),
        })
    }
}

impl Detector for AnyDetector {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        dispatch!(
            &mut self.model,
            |d| {
                d.fit(train)?;
                // Calibrate the synthesized τ on the training scores and
                // arm drift detection from the same split — the uniform
                // metadata every family carries in its envelope.
                let train_scores = d.score_series(train, None)?;
                self.tau = threshold_at_percentile(&train_scores, TAU_PERCENTILE);
                self.drift_ref = Some(DriftReference::from_series(train, self.serving_window));
                self.channels = Some(train.dim());
                Ok(())
            },
            |im| {
                im.fit(train)?;
                self.channels = Some(train.dim());
                Ok(())
            }
        )
    }

    fn detect(&mut self, test: &Mts) -> Result<Detection, DetectorError> {
        dispatch!(&mut self.model, |d| d.detect(test), |im| im.detect(test))
    }
}

impl WindowScorer for AnyDetector {
    fn family(&self) -> &'static str {
        self.kind.name()
    }

    fn is_fitted(&self) -> bool {
        match &self.model {
            Model::ImDiffusion(d) => d.is_fitted(),
            _ => self.channels.is_some(),
        }
    }

    fn window(&self) -> usize {
        self.serving_window
    }

    fn channels(&self) -> Option<usize> {
        match &self.model {
            Model::ImDiffusion(d) => d.channels(),
            _ => self.channels,
        }
    }

    fn drift_reference(&self) -> Option<&DriftReference> {
        match &self.model {
            Model::ImDiffusion(d) => d.drift_reference(),
            _ => self.drift_ref.as_ref(),
        }
    }

    fn score_windows(
        &self,
        windows: &[(&Mts, Option<&[bool]>)],
    ) -> Result<Vec<EnsembleOutput>, DetectorError> {
        dispatch!(&self.model, |d| {
            let mut out = Vec::with_capacity(windows.len());
            for &(series, missing) in windows {
                if series.len() != self.serving_window {
                    return Err(DetectorError::InvalidTrainingData(format!(
                        "window has {} rows, serving window is {}",
                        series.len(),
                        self.serving_window
                    )));
                }
                let scores = d.score_series(series, missing)?;
                out.push(self.synthesize_output(series, missing, scores));
            }
            Ok(out)
        }, |im| im.detect_windows(windows))
    }
}
