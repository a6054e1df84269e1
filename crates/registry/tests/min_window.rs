//! Every baseline family's `min_serving_window` is the length its own
//! scoring path accepts: a series of exactly that many rows scores, and a
//! windowed family refuses one row fewer with a typed error. ZScore and
//! IForest score row by row (minimum 1) and map an empty series to an
//! empty score vector.

use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
use imdiff_data::{Detector, DetectorError};
use imdiff_registry::{AnyDetector, DetectorKind};
use imdiffusion::ImDiffusionConfig;

#[test]
fn every_baseline_scores_its_minimum_window_and_refuses_one_row_fewer() {
    let ds = generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: 150,
            test_len: 64,
        },
        5,
    );
    for kind in DetectorKind::ALL {
        if kind == DetectorKind::ImDiffusion {
            continue;
        }
        let min = kind.min_serving_window();
        let mut det = AnyDetector::new(kind, ImDiffusionConfig::quick(), 5);
        det.fit(&ds.train).expect("fit");
        let scores = det
            .score_series(&ds.test.slice_time(0, min), None)
            .unwrap_or_else(|e| panic!("{kind}: {min} rows must score: {e}"));
        assert_eq!(scores.len(), min, "{kind}");
        let shorter = det.score_series(&ds.test.slice_time(0, min - 1), None);
        if min == 1 {
            assert_eq!(shorter.expect("empty series").len(), 0, "{kind}");
        } else {
            assert!(
                matches!(shorter, Err(DetectorError::InvalidTrainingData(_))),
                "{kind}: {} rows must be refused",
                min - 1
            );
        }
    }
}
