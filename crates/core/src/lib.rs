//! `imdiffusion` — the paper's contribution: imputed diffusion models for
//! multivariate time-series anomaly detection.
//!
//! The pipeline (§4 of the paper):
//!
//! 1. **Grating masking** (`imdiff_data::mask`) splits each detection
//!    window into alternating masked/unmasked chunks, producing two
//!    complementary mask policies so every cell is imputed exactly once.
//! 2. An **unconditional imputed diffusion model** is trained to denoise
//!    the masked region given the *forward noise* of the unmasked region
//!    (never its raw values — §4.1), using the [`ImTransformer`] denoiser
//!    (§4.4) and the DDPM objective of Eq. (11).
//! 3. **Ensemble anomaly inference** (§4.5, Algorithm 1) runs the reverse
//!    process, collects the imputation error at several denoising steps,
//!    thresholds each step with the rescaled rule of Eq. (12) and votes.
//!
//! The [`ImDiffusionDetector`] wires the pieces into the shared
//! `imdiff_data::Detector` interface; [`AblationVariant`] exposes every
//! ablation of §5.3 (forecasting / reconstruction task modes, conditional
//! diffusion, random masking, non-ensemble inference, and removal of the
//! spatial or temporal transformer).
//!
//! # Quickstart
//!
//! ```no_run
//! use imdiff_data::{synthetic, Detector};
//! use imdiffusion::{ImDiffusionConfig, ImDiffusionDetector};
//!
//! let ds = synthetic::generate(
//!     synthetic::Benchmark::Smd,
//!     &synthetic::SizeProfile::quick(),
//!     42,
//! );
//! let mut det = ImDiffusionDetector::new(ImDiffusionConfig::quick(), 42);
//! det.fit(&ds.train).unwrap();
//! let detection = det.detect(&ds.test).unwrap();
//! assert_eq!(detection.scores.len(), ds.test.len());
//! ```

mod ablation;
mod config;
mod detector;
mod finetune;
mod infer;
mod model;
mod persist;
mod scorer;
mod streaming;
mod trainer;

pub use ablation::AblationVariant;
pub use config::{ImDiffusionConfig, SentinelConfig, TaskMode};
pub use detector::{DetectorSpec, ImDiffusionDetector};
pub use finetune::{FineTuneOptions, FineTuneOutcome, FineTuneReport, FineTuner};
pub use infer::{ensemble_infer, EnsembleOutput, StepTrace};
pub use model::ImTransformer;
pub use persist::stream_path;
pub use scorer::WindowScorer;
pub use streaming::{
    BatchItem, BatchReply, DriftReference, DriftStatus, HealthState, MonitorHealth,
    PointVerdict, StreamingMonitor,
};
pub use trainer::{
    train, train_resume, IncidentKind, TrainIncident, TrainReport, Trainer,
    TrainerOptions,
};
