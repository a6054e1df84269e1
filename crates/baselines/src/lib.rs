//! `imdiff-baselines` — the ten MTS anomaly-detection baselines of the
//! paper's offline evaluation (§5.1).
//!
//! Every baseline implements the shared [`imdiff_data::Detector`] trait so
//! the evaluation harness can drive them interchangeably with ImDiffusion.
//! Each follows the *method* of its original paper (forecasting vs
//! reconstruction vs isolation, the model family, the scoring rule) at a
//! reduced scale sized for single-core CPU runs; simplifications are noted
//! per module and in DESIGN.md.
//!
//! | Detector | Family | Core model |
//! |---|---|---|
//! | [`IsolationForest`] | isolation | randomized isolation trees |
//! | [`BeatGan`] | reconstruction | adversarially-regularized autoencoder |
//! | [`LstmAd`] | forecasting | stacked LSTM next-step predictor |
//! | [`InterFusion`] | reconstruction | hierarchical inter-metric + temporal VAE |
//! | [`OmniAnomaly`] | reconstruction | GRU + VAE |
//! | [`Gdn`] | forecasting | sensor-embedding graph attention |
//! | [`MadGan`] | reconstruction | LSTM GAN with latent-search scoring |
//! | [`MtadGat`] | hybrid | feature + temporal attention, joint objectives |
//! | [`Mscred`] | reconstruction | signature correlation matrices + conv AE |
//! | [`TranAd`] | reconstruction | two-phase adversarial transformer |
//!
//! [`ZScoreDetector`] is an extra statistical family (not part of the
//! paper's table): the cheapest rung of the serving layer's escalation
//! ladder.
//!
//! Every family additionally exposes `score_series` (read-only, mask-aware
//! scoring) and `snapshot_payload`/`restore_from_payload` (the family's
//! native byte payload inside the registry's checkpoint envelope).
//!
//! The nine neural families share one lifecycle (`common.rs`); each keeps
//! only its model, its training objective and its per-window error rule:
//!
//! - **Window driver** (BeatGAN, InterFusion, OmniAnomaly, TranAD,
//!   MAD-GAN): covers the series with windows at half-window stride, in
//!   batches of 32, takes one error per (window, position) from the family
//!   and averages overlaps per row. A series of one window is enough.
//! - **Next-row driver** (LSTM-AD, GDN, MTAD-GAT, MSCRED): scores the row
//!   after every context window; the warm-up rows take the first score.
//!   MSCRED's signature of its largest scale scores its own last row, so
//!   its context window is that scale minus one.
//! - **Payload codec**: the normalizer state, then the model's tensors,
//!   plus GDN's neighbour graph and error scales and MSCRED's signature
//!   projections. Restore rebuilds the model skeleton from the seed and
//!   the stored channel count, and the payload overwrites it.
//!
//! Each windowed family's `MIN_WINDOW` (the fewest rows `score_series`
//! accepts) follows from its context window and its driver.

mod beatgan;
mod common;
mod gdn;
mod iforest;
mod interfusion;
mod lstm_ad;
mod madgan;
mod mscred;
mod mtad_gat;
mod omni;
mod tranad;
mod zscore;

pub use beatgan::BeatGan;
pub use gdn::Gdn;
pub use iforest::IsolationForest;
pub use interfusion::InterFusion;
pub use lstm_ad::LstmAd;
pub use madgan::MadGan;
pub use mscred::Mscred;
pub use mtad_gat::MtadGat;
pub use omni::OmniAnomaly;
pub use tranad::TranAd;
pub use zscore::ZScoreDetector;
