//! Detector-family identifiers.
//!
//! One tag per family, shared by the checkpoint envelope (a single byte on
//! disk), the serving wire protocol (family strings in `Health`/`Reload`
//! responses) and tenant configuration (parsing family names from specs).

use imdiff_baselines::{
    BeatGan, Gdn, InterFusion, LstmAd, MadGan, Mscred, MtadGat, OmniAnomaly, TranAd,
};

/// Every detector family the registry can construct, persist and serve.
///
/// Order matters only for documentation; the on-disk identity of a family
/// is its [`tag`](Self::tag) byte and its wire identity is its
/// [`name`](Self::name) string, both stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// Per-channel Gaussian profile (statistical floor of the ladder).
    ZScore,
    /// Randomized isolation trees.
    IForest,
    /// Adversarially-regularized autoencoder.
    BeatGan,
    /// Stacked LSTM next-step predictor.
    LstmAd,
    /// Hierarchical inter-metric + temporal VAE.
    InterFusion,
    /// GRU + VAE reconstructor.
    OmniAnomaly,
    /// Sensor-embedding graph attention forecaster.
    Gdn,
    /// LSTM GAN with latent-search scoring.
    MadGan,
    /// Feature + temporal attention hybrid.
    MtadGat,
    /// Signature correlation matrices + conv AE.
    Mscred,
    /// Two-phase adversarial transformer.
    TranAd,
    /// The paper's imputed-diffusion ensemble detector.
    ImDiffusion,
}

impl DetectorKind {
    /// All families, cheapest-first (the canonical escalation order).
    pub const ALL: [DetectorKind; 12] = [
        DetectorKind::ZScore,
        DetectorKind::IForest,
        DetectorKind::BeatGan,
        DetectorKind::LstmAd,
        DetectorKind::InterFusion,
        DetectorKind::OmniAnomaly,
        DetectorKind::Gdn,
        DetectorKind::MadGan,
        DetectorKind::MtadGat,
        DetectorKind::Mscred,
        DetectorKind::TranAd,
        DetectorKind::ImDiffusion,
    ];

    /// The stable single-byte envelope tag of this family.
    pub fn tag(self) -> u8 {
        match self {
            DetectorKind::ZScore => 1,
            DetectorKind::IForest => 2,
            DetectorKind::BeatGan => 3,
            DetectorKind::LstmAd => 4,
            DetectorKind::InterFusion => 5,
            DetectorKind::OmniAnomaly => 6,
            DetectorKind::Gdn => 7,
            DetectorKind::MadGan => 8,
            DetectorKind::MtadGat => 9,
            DetectorKind::Mscred => 10,
            DetectorKind::TranAd => 11,
            DetectorKind::ImDiffusion => 12,
        }
    }

    /// Inverse of [`Self::tag`]; `None` for unknown bytes (corrupt or
    /// future envelopes).
    pub fn from_tag(tag: u8) -> Option<Self> {
        DetectorKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// The family name — identical to the wrapped detector's
    /// `Detector::name()` so health endpoints, benchmark rows and logs
    /// agree on spelling.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::ZScore => "ZScore",
            DetectorKind::IForest => "IForest",
            DetectorKind::BeatGan => "BeatGAN",
            DetectorKind::LstmAd => "LSTM-AD",
            DetectorKind::InterFusion => "InterFusion",
            DetectorKind::OmniAnomaly => "OmniAnomaly",
            DetectorKind::Gdn => "GDN",
            DetectorKind::MadGan => "MAD-GAN",
            DetectorKind::MtadGat => "MTAD-GAT",
            DetectorKind::Mscred => "MSCRED",
            DetectorKind::TranAd => "TranAD",
            DetectorKind::ImDiffusion => "ImDiffusion",
        }
    }

    /// Inverse of [`Self::name`] (exact match).
    pub fn parse(name: &str) -> Option<Self> {
        DetectorKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The smallest serving window (rows per evaluation) the family can
    /// score: each neural baseline's own `MIN_WINDOW`, which its scoring
    /// driver derives from the family's context window. For
    /// `ImDiffusion` the serving window must equal the configured
    /// diffusion window, so the floor here is just 1.
    pub fn min_serving_window(self) -> usize {
        match self {
            DetectorKind::ZScore | DetectorKind::IForest | DetectorKind::ImDiffusion => 1,
            DetectorKind::BeatGan => BeatGan::MIN_WINDOW,
            DetectorKind::LstmAd => LstmAd::MIN_WINDOW,
            DetectorKind::InterFusion => InterFusion::MIN_WINDOW,
            DetectorKind::OmniAnomaly => OmniAnomaly::MIN_WINDOW,
            DetectorKind::Gdn => Gdn::MIN_WINDOW,
            DetectorKind::MadGan => MadGan::MIN_WINDOW,
            DetectorKind::MtadGat => MtadGat::MIN_WINDOW,
            DetectorKind::Mscred => Mscred::MIN_WINDOW,
            DetectorKind::TranAd => TranAd::MIN_WINDOW,
        }
    }
}

impl std::fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_names_roundtrip_and_are_unique() {
        let mut tags: Vec<u8> = DetectorKind::ALL.iter().map(|k| k.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), DetectorKind::ALL.len());
        for k in DetectorKind::ALL {
            assert_eq!(DetectorKind::from_tag(k.tag()), Some(k));
            assert_eq!(DetectorKind::parse(k.name()), Some(k));
        }
        assert_eq!(DetectorKind::from_tag(0), None);
        assert_eq!(DetectorKind::from_tag(200), None);
        assert_eq!(DetectorKind::parse("NoSuchFamily"), None);
    }
}
