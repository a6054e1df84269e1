//! The shared detector interface driven by the evaluation harness.

use std::fmt;

use imdiff_nn::NnError;

use crate::Mts;

/// Errors surfaced by detectors.
///
/// Marked `#[non_exhaustive]`: downstream code must keep a wildcard arm so
/// new failure modes (the streaming robustness work keeps adding them) are
/// not breaking changes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DetectorError {
    /// Training data was unusable (too short, wrong dimensionality, ...).
    InvalidTrainingData(String),
    /// `detect` was called before `fit`.
    NotFitted,
    /// The test series is incompatible with the fitted model.
    DimensionMismatch {
        /// Channel count seen during fit.
        expected: usize,
        /// Channel count of the offending series.
        actual: usize,
    },
    /// Input contained NaN/±∞ values that were not declared missing. The
    /// streaming monitor accepts NaN as "missing, please impute"; anything
    /// else non-finite is a corrupt reading the caller must handle.
    NonFiniteInput {
        /// Row index of the first offending value (stream-global for
        /// streaming ingestion, series-local for batch detection).
        index: usize,
        /// Channel of the first offending value.
        channel: usize,
    },
    /// An internal invariant failed during inference. Replaces what used
    /// to be panics inside the streaming path; carries a description of
    /// the broken invariant.
    Internal(String),
    /// The filesystem failed while reading or writing a checkpoint
    /// (missing file, permissions, disk full). The persisted artifact, if
    /// any, is intact — atomic writes never leave half-written files.
    Io(String),
    /// A checkpoint file exists but its contents are damaged: bad magic,
    /// truncation, or a CRC32 mismatch. Damaged state is never loaded as
    /// weights or monitor state; delete the file and retrain/re-warm.
    CorruptCheckpoint(String),
    /// A scoring request missed its deadline before a detector could
    /// serve it (serving-layer admission control). The request was
    /// dropped without touching detector state; re-submit or widen the
    /// deadline.
    Timeout {
        /// How long the request waited before being abandoned.
        waited_ms: u64,
    },
    /// The serving layer's bounded request queue was full and the
    /// request was refused at admission — explicit backpressure, not a
    /// silent drop. Retry with backoff.
    Overloaded {
        /// Queue depth observed at admission time.
        queued: usize,
        /// The configured queue capacity that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorError::InvalidTrainingData(msg) => {
                write!(f, "invalid training data: {msg}")
            }
            DetectorError::NotFitted => write!(f, "detector used before fit()"),
            DetectorError::DimensionMismatch { expected, actual } => {
                write!(f, "series has {actual} channels, model expects {expected}")
            }
            DetectorError::NonFiniteInput { index, channel } => {
                write!(
                    f,
                    "non-finite value at row {index}, channel {channel} \
                     (use NaN only for declared-missing cells)"
                )
            }
            DetectorError::Internal(msg) => write!(f, "internal detector error: {msg}"),
            DetectorError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            DetectorError::CorruptCheckpoint(msg) => {
                write!(f, "corrupt checkpoint: {msg}")
            }
            DetectorError::Timeout { waited_ms } => {
                write!(f, "request timed out after {waited_ms} ms in queue")
            }
            DetectorError::Overloaded { queued, limit } => {
                write!(
                    f,
                    "request queue full ({queued}/{limit}); retry with backoff"
                )
            }
        }
    }
}

impl DetectorError {
    /// Whether retrying the exact same request can succeed.
    ///
    /// Retryable errors are *transient refusals*: the request never
    /// touched detector state ([`DetectorError::Timeout`],
    /// [`DetectorError::Overloaded`]) and the condition clears on its own.
    /// Everything else is either a caller bug (bad input, wrong shape), a
    /// lifecycle error, or damaged persistent state
    /// ([`DetectorError::CorruptCheckpoint`]) — resending the identical
    /// request deterministically fails again, so clients must not burn
    /// backoff budget on it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DetectorError::Timeout { .. } | DetectorError::Overloaded { .. }
        )
    }
}

impl std::error::Error for DetectorError {}

/// Maps an [`NnError`] from the record codec (`imdiff_nn::serialize`)
/// onto the detector taxonomy: I/O stays I/O, damage stays damage, and an
/// intact checkpoint that does not fit the model is a mismatch.
impl From<NnError> for DetectorError {
    fn from(e: NnError) -> Self {
        match e {
            NnError::Io(msg) => DetectorError::Io(msg),
            NnError::Corrupt(msg) => DetectorError::CorruptCheckpoint(msg),
            other => DetectorError::InvalidTrainingData(format!("checkpoint mismatch: {other}")),
        }
    }
}

/// The input rule every detector enforces before scoring or fitting: the
/// missing mask, when given, is row-major `[L, K]` (`true` = value
/// absent), and every cell is finite unless the mask declares it missing.
/// Fit paths pass `None`. A mask of the wrong length is
/// [`DetectorError::InvalidTrainingData`]; the first undeclared
/// non-finite cell, in row-major order, is
/// [`DetectorError::NonFiniteInput`] with its series-local position.
pub fn check_finite(series: &Mts, missing: Option<&[bool]>) -> Result<(), DetectorError> {
    let cells = series.len() * series.dim();
    if let Some(m) = missing {
        if m.len() != cells {
            return Err(DetectorError::InvalidTrainingData(format!(
                "missing mask has {} cells, series has {cells}",
                m.len()
            )));
        }
    }
    let bad = series
        .values()
        .iter()
        .enumerate()
        .position(|(i, v)| !v.is_finite() && !missing.is_some_and(|m| m[i]));
    match bad {
        Some(i) => Err(DetectorError::NonFiniteInput {
            index: i / series.dim(),
            channel: i % series.dim(),
        }),
        None => Ok(()),
    }
}

/// The output of a detector on a test series.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Continuous anomaly score per timestamp — higher means more
    /// anomalous. Always the same length as the test series.
    pub scores: Vec<f64>,
    /// Native thresholded labels, when the detector has its own decision
    /// rule (ImDiffusion's ensemble voting, Eq. 12). `None` means the
    /// harness should threshold `scores` itself (the paper grid-searches
    /// thresholds for such baselines).
    pub labels: Option<Vec<bool>>,
}

impl Detection {
    /// A score-only detection.
    pub fn from_scores(scores: Vec<f64>) -> Self {
        Detection {
            scores,
            labels: None,
        }
    }
}

/// A multivariate time-series anomaly detector.
///
/// The lifecycle is `fit` on an (assumed mostly normal, unlabelled)
/// training split followed by `detect` on a labelled test split. Detectors
/// are seeded at construction; repeated fit/detect with the same seed must
/// be deterministic.
pub trait Detector {
    /// Short identifier used in result tables (e.g. `"TranAD"`).
    fn name(&self) -> &'static str;

    /// Learns the normal behaviour of the series.
    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError>;

    /// Scores every timestamp of the test series.
    fn detect(&mut self, test: &Mts) -> Result<Detection, DetectorError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial detector used to exercise the trait object path.
    struct MeanShift {
        mean: Option<Vec<f32>>,
    }

    impl Detector for MeanShift {
        fn name(&self) -> &'static str {
            "MeanShift"
        }

        fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
            if train.is_empty() {
                return Err(DetectorError::InvalidTrainingData("empty".into()));
            }
            let k = train.dim();
            let mut mean = vec![0.0f32; k];
            for l in 0..train.len() {
                for (m, v) in mean.iter_mut().zip(train.row(l)) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= train.len() as f32;
            }
            self.mean = Some(mean);
            Ok(())
        }

        fn detect(&mut self, test: &Mts) -> Result<Detection, DetectorError> {
            let mean = self.mean.as_ref().ok_or(DetectorError::NotFitted)?;
            if mean.len() != test.dim() {
                return Err(DetectorError::DimensionMismatch {
                    expected: mean.len(),
                    actual: test.dim(),
                });
            }
            let scores = (0..test.len())
                .map(|l| {
                    test.row(l)
                        .iter()
                        .zip(mean)
                        .map(|(&v, &m)| ((v - m) as f64).powi(2))
                        .sum::<f64>()
                })
                .collect();
            Ok(Detection::from_scores(scores))
        }
    }

    #[test]
    fn trait_object_lifecycle() {
        let mut d: Box<dyn Detector> = Box::new(MeanShift { mean: None });
        assert_eq!(d.name(), "MeanShift");
        assert!(matches!(
            d.detect(&Mts::zeros(3, 2)),
            Err(DetectorError::NotFitted)
        ));
        d.fit(&Mts::zeros(10, 2)).unwrap();
        let det = d.detect(&Mts::new(vec![1.0; 6], 3, 2)).unwrap();
        assert_eq!(det.scores.len(), 3);
        assert!(det.labels.is_none());
        assert!(det.scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let mut d = MeanShift { mean: None };
        d.fit(&Mts::zeros(5, 2)).unwrap();
        assert!(matches!(
            d.detect(&Mts::zeros(5, 3)),
            Err(DetectorError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        ));
    }

    #[test]
    fn check_finite_honours_the_mask_and_names_the_first_cell() {
        let mut s = Mts::new(vec![1.0; 6], 3, 2);
        assert_eq!(check_finite(&s, None), Ok(()));
        s.set(1, 1, f32::NAN);
        s.set(2, 0, f32::INFINITY);
        assert_eq!(
            check_finite(&s, None),
            Err(DetectorError::NonFiniteInput {
                index: 1,
                channel: 1
            })
        );
        let mut mask = vec![false; 6];
        mask[3] = true;
        assert_eq!(
            check_finite(&s, Some(&mask)),
            Err(DetectorError::NonFiniteInput {
                index: 2,
                channel: 0
            })
        );
        mask[4] = true;
        assert_eq!(check_finite(&s, Some(&mask)), Ok(()));
        assert!(matches!(
            check_finite(&s, Some(&mask[1..])),
            Err(DetectorError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(DetectorError::NotFitted.to_string().contains("before fit"));
    }

    /// Every variant has an explicit retryability classification; the
    /// match is exhaustive on today's variants so adding one forces a
    /// decision here.
    #[test]
    fn retryable_classification_covers_every_variant() {
        let cases = [
            (DetectorError::InvalidTrainingData("x".into()), false),
            (DetectorError::NotFitted, false),
            (
                DetectorError::DimensionMismatch {
                    expected: 2,
                    actual: 3,
                },
                false,
            ),
            (
                DetectorError::NonFiniteInput {
                    index: 0,
                    channel: 1,
                },
                false,
            ),
            (DetectorError::Internal("x".into()), false),
            (DetectorError::Io("x".into()), false),
            (DetectorError::CorruptCheckpoint("x".into()), false),
            (DetectorError::Timeout { waited_ms: 100 }, true),
            (
                DetectorError::Overloaded {
                    queued: 64,
                    limit: 64,
                },
                true,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(
                err.is_retryable(),
                want,
                "wrong retryability for {err:?}"
            );
            // Deliberately no wildcard arm: adding a DetectorError
            // variant fails this match until the variant is classified
            // (and the `cases` table above is extended).
            match &err {
                DetectorError::InvalidTrainingData(_)
                | DetectorError::NotFitted
                | DetectorError::DimensionMismatch { .. }
                | DetectorError::NonFiniteInput { .. }
                | DetectorError::Internal(_)
                | DetectorError::Io(_)
                | DetectorError::CorruptCheckpoint(_)
                | DetectorError::Timeout { .. }
                | DetectorError::Overloaded { .. } => {}
            }
        }
    }
}
