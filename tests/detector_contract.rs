//! Contract tests: every detector family in the registry (ImDiffusion,
//! the ten baselines and the z-score rung) must honour the `Detector`
//! trait's lifecycle semantics.

use imdiffusion_repro::core::ImDiffusionConfig;
use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
use imdiffusion_repro::data::{Detector, DetectorError, Mts};
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};

fn tiny_config() -> ImDiffusionConfig {
    ImDiffusionConfig {
        window: 16,
        train_stride: 8,
        hidden: 8,
        heads: 2,
        residual_blocks: 1,
        diffusion_steps: 5,
        train_steps: 8,
        batch_size: 2,
        vote_span: 5,
        vote_every: 2,
        ..ImDiffusionConfig::quick()
    }
}

fn all_detectors(seed: u64) -> Vec<AnyDetector> {
    DetectorKind::ALL
        .into_iter()
        .map(|kind| AnyDetector::new(kind, tiny_config(), seed))
        .collect()
}

fn small_dataset() -> imdiffusion_repro::data::synthetic::LabeledDataset {
    generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: 120,
            test_len: 80,
        },
        5,
    )
}

#[test]
fn detect_before_fit_is_an_error() {
    let ds = small_dataset();
    for mut det in all_detectors(1) {
        let err = det.detect(&ds.test).expect_err(det.name());
        assert!(
            matches!(err, DetectorError::NotFitted),
            "{} returned {err:?}",
            det.name()
        );
    }
}

#[test]
fn scores_cover_every_timestamp_and_are_finite() {
    let ds = small_dataset();
    for mut det in all_detectors(2) {
        det.fit(&ds.train).unwrap_or_else(|e| panic!("{} fit: {e}", det.name()));
        let d = det
            .detect(&ds.test)
            .unwrap_or_else(|e| panic!("{} detect: {e}", det.name()));
        assert_eq!(d.scores.len(), ds.test.len(), "{}", det.name());
        assert!(
            d.scores.iter().all(|s| s.is_finite()),
            "{} produced non-finite scores",
            det.name()
        );
        if let Some(labels) = &d.labels {
            assert_eq!(labels.len(), ds.test.len(), "{}", det.name());
        }
    }
}

#[test]
fn channel_mismatch_is_an_error() {
    let ds = small_dataset();
    let wrong = Mts::zeros(80, ds.train.dim() + 1);
    for mut det in all_detectors(3) {
        det.fit(&ds.train).unwrap();
        let err = det.detect(&wrong).expect_err(det.name());
        assert!(
            matches!(err, DetectorError::DimensionMismatch { .. }),
            "{} returned {err:?}",
            det.name()
        );
    }
}

#[test]
fn same_seed_same_scores() {
    let ds = small_dataset();
    for (a, b) in all_detectors(4).into_iter().zip(all_detectors(4)) {
        let mut a = a;
        let mut b = b;
        a.fit(&ds.train).unwrap();
        b.fit(&ds.train).unwrap();
        let da = a.detect(&ds.test).unwrap();
        let db = b.detect(&ds.test).unwrap();
        assert_eq!(da.scores, db.scores, "{} is nondeterministic", a.name());
    }
}

#[test]
fn empty_training_data_is_rejected() {
    for mut det in all_detectors(5) {
        let err = det.fit(&Mts::zeros(0, 3)).expect_err(det.name());
        assert!(
            matches!(err, DetectorError::InvalidTrainingData(_)),
            "{} returned {err:?}",
            det.name()
        );
    }
}

/// A copy of `series` with one cell overwritten.
fn with_cell(series: &Mts, index: usize, channel: usize, v: f32) -> Mts {
    let mut s = series.clone();
    s.set(index, channel, v);
    s
}

#[test]
fn undeclared_non_finite_cell_is_rejected_at_its_position() {
    let ds = small_dataset();
    let channel = ds.train.dim() - 1;
    for mut det in all_detectors(6) {
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let err = det
                .fit(&with_cell(&ds.train, 37, channel, bad))
                .expect_err(det.name());
            assert_eq!(
                err,
                DetectorError::NonFiniteInput { index: 37, channel },
                "{} fit with {bad}",
                det.name()
            );
        }
        det.fit(&ds.train)
            .unwrap_or_else(|e| panic!("{} fit: {e}", det.name()));
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let err = det
                .detect(&with_cell(&ds.test, 23, channel, bad))
                .expect_err(det.name());
            assert_eq!(
                err,
                DetectorError::NonFiniteInput { index: 23, channel },
                "{} detect with {bad}",
                det.name()
            );
        }
    }
}

#[test]
fn every_family_scores_declared_missing_cells_and_checks_the_mask() {
    let ds = small_dataset();
    let (n, k) = (ds.test.len(), ds.test.dim());
    let test = with_cell(&ds.test, 23, k - 1, f32::NAN);
    let mut mask = vec![false; n * k];
    mask[23 * k + k - 1] = true;
    for kind in DetectorKind::ALL {
        let mut det = AnyDetector::new(kind, tiny_config(), 7);
        det.fit(&ds.train)
            .unwrap_or_else(|e| panic!("{kind} fit: {e}"));
        let scores = det
            .score_series(&test, Some(&mask))
            .unwrap_or_else(|e| panic!("{kind} score: {e}"));
        assert_eq!(scores.len(), n, "{kind}");
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "{kind}: non-finite score"
        );
        let err = det
            .score_series(&test, Some(&mask[1..]))
            .expect_err(kind.name());
        assert!(
            matches!(err, DetectorError::InvalidTrainingData(_)),
            "{kind} returned {err:?}"
        );
    }
}
