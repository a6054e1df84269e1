//! Envelope integrity properties: every family round-trips bit-exactly
//! through its IMDE envelope, and *any* single-byte flip, truncation or
//! trailing-garbage corruption is detected as a typed error — mirroring
//! the IMSM/IMTS corruption suites.

use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
use imdiff_data::{Detector, DetectorError, Mts};
use imdiff_registry::{sniff_family, AnyDetector, DetectorKind};
use imdiffusion::{ImDiffusionConfig, WindowScorer};
use proptest::prelude::*;

const SEED: u64 = 41;

fn tiny_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        window: 16,
        train_stride: 8,
        hidden: 8,
        heads: 2,
        residual_blocks: 1,
        diffusion_steps: 5,
        train_steps: 10,
        batch_size: 2,
        vote_span: 5,
        vote_every: 2,
        ..ImDiffusionConfig::quick()
    }
}

fn dataset() -> imdiff_data::synthetic::LabeledDataset {
    generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: 150,
            test_len: 80,
        },
        SEED,
    )
}

fn fitted(kind: DetectorKind) -> (AnyDetector, Mts) {
    let ds = dataset();
    let mut det = AnyDetector::new(kind, tiny_cfg(), SEED);
    det.fit(&ds.train).expect("fit");
    (det, ds.test)
}

#[test]
fn every_family_roundtrips_bit_exactly() {
    for kind in DetectorKind::ALL {
        let (det, test) = fitted(kind);
        let before = det.score_series(&test, None).expect("score before");
        let bytes = det.save_bytes().expect("envelope");
        assert_eq!(sniff_family(&bytes), Some(kind), "{kind}: sniffed family");

        let restored =
            AnyDetector::load_bytes(&tiny_cfg(), SEED, test.dim(), &bytes).expect("restore");
        assert_eq!(restored.kind(), kind);
        assert_eq!(restored.family(), kind.name());
        assert_eq!(restored.window(), det.window(), "{kind}: serving window");
        assert_eq!(restored.channels(), det.channels(), "{kind}: channels");
        assert!(
            restored.drift_reference().is_some(),
            "{kind}: drift reference must survive the envelope"
        );
        let after = restored.score_series(&test, None).expect("score after");
        assert_eq!(before, after, "{kind}: restored scores must be bit-identical");
    }
}

#[test]
fn windowed_scoring_survives_the_roundtrip() {
    // The serving-facing path: score_windows on exact serving windows.
    let (det, test) = fitted(DetectorKind::IForest);
    let w = det.window();
    let win = test.slice_time(0, w);
    let out_before = det.score_windows(&[(&win, None)]).expect("windows before");
    let bytes = det.save_bytes().unwrap();
    let restored = AnyDetector::load_bytes(&tiny_cfg(), SEED, test.dim(), &bytes).unwrap();
    let out_after = restored.score_windows(&[(&win, None)]).expect("windows after");
    assert_eq!(out_before[0].scores, out_after[0].scores);
    assert_eq!(out_before[0].labels, out_after[0].labels);
    assert_eq!(out_before[0].tau_base, out_after[0].tau_base);
}

/// The envelope's drift field is ImDiffusion's only persisted drift
/// reference: it restores exactly, and an envelope written without one
/// loads fine with drift detection unarmed.
#[test]
fn imdiffusion_drift_reference_roundtrips_and_absent_stays_unarmed() {
    let (mut det, test) = fitted(DetectorKind::ImDiffusion);
    let reference = det.drift_reference().cloned().expect("fit computes it");
    let bytes = det.save_bytes().unwrap();
    let loaded = AnyDetector::load_bytes(&tiny_cfg(), SEED, test.dim(), &bytes).unwrap();
    assert_eq!(loaded.drift_reference(), Some(&reference));

    det.as_imdiffusion_mut().unwrap().set_drift_reference(None);
    let bytes = det.save_bytes().unwrap();
    let mut unarmed = AnyDetector::load_bytes(&tiny_cfg(), SEED, test.dim(), &bytes).unwrap();
    assert!(unarmed.drift_reference().is_none());
    assert!(unarmed.detect(&test).is_ok());
}

#[test]
fn spec_rebuilds_on_another_thread() {
    let (det, test) = fitted(DetectorKind::ZScore);
    let spec = det.to_spec().expect("spec");
    assert_eq!(spec.kind(), Some(DetectorKind::ZScore));
    let before = det.score_series(&test, None).unwrap();
    let after = std::thread::spawn(move || {
        let rebuilt = spec.build().expect("build on thread");
        rebuilt.score_series(&test, None).unwrap()
    })
    .join()
    .expect("thread");
    assert_eq!(before, after);
}

/// One cheap fitted envelope reused by the corruption properties.
fn zscore_envelope() -> (Vec<u8>, usize) {
    let (det, test) = fitted(DetectorKind::ZScore);
    (det.save_bytes().expect("envelope"), test.dim())
}

fn is_typed_rejection(err: DetectorError) -> bool {
    matches!(
        err,
        DetectorError::CorruptCheckpoint(_)
            | DetectorError::InvalidTrainingData(_)
            | DetectorError::Io(_)
    )
}

proptest! {
    #[test]
    fn any_byte_flip_is_detected(pos in 0usize..256, bit in 0u8..8) {
        let (mut bytes, channels) = zscore_envelope();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let res = AnyDetector::load_bytes(&tiny_cfg(), SEED, channels, &bytes);
        let err = res.err().expect("flipped envelope must not load");
        prop_assert!(is_typed_rejection(err));
    }

    #[test]
    fn any_truncation_is_detected(cut in 0usize..256) {
        let (bytes, channels) = zscore_envelope();
        let cut = cut % bytes.len();
        let res = AnyDetector::load_bytes(&tiny_cfg(), SEED, channels, &bytes[..cut]);
        let err = res.err().expect("truncated envelope must not load");
        prop_assert!(is_typed_rejection(err));
    }

    #[test]
    fn trailing_garbage_is_detected(extra in 1usize..32) {
        let (mut bytes, channels) = zscore_envelope();
        bytes.extend(std::iter::repeat_n(0xAB, extra));
        let res = AnyDetector::load_bytes(&tiny_cfg(), SEED, channels, &bytes);
        let err = res.err().expect("padded envelope must not load");
        prop_assert!(is_typed_rejection(err));
    }
}
