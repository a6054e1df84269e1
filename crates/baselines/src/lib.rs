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

use imdiff_data::Detector;

/// Instantiates all ten baselines with a common seed, in the paper's table
/// order.
pub fn all_baselines(seed: u64) -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(IsolationForest::new(seed)),
        Box::new(BeatGan::new(seed)),
        Box::new(LstmAd::new(seed)),
        Box::new(InterFusion::new(seed)),
        Box::new(OmniAnomaly::new(seed)),
        Box::new(Gdn::new(seed)),
        Box::new(MadGan::new(seed)),
        Box::new(MtadGat::new(seed)),
        Box::new(Mscred::new(seed)),
        Box::new(TranAd::new(seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_distinct_baselines() {
        let bs = all_baselines(1);
        assert_eq!(bs.len(), 10);
        let mut names: Vec<_> = bs.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn non_finite_training_data_is_a_typed_error_for_every_family() {
        use imdiff_data::{DetectorError, Mts};
        let mut data: Vec<f32> = (0..200).map(|t| (t as f32 * 0.1).sin()).collect();
        data[41] = f32::NAN;
        let train = Mts::new(data, 100, 2);
        let mut families = all_baselines(1);
        families.push(Box::new(ZScoreDetector::new(1)));
        for mut det in families {
            let name = det.name();
            assert!(
                matches!(
                    det.fit(&train),
                    Err(DetectorError::NonFiniteInput {
                        index: 20,
                        channel: 1
                    })
                ),
                "{name} must reject NaN training input with NonFiniteInput"
            );
        }
    }
}
