//! Property-based tests on the evaluation metrics (proptest).

use imdiffusion_repro::metrics::{
    average_detection_delay, best_f1_threshold, point, range_auc_pr, threshold_at_percentile,
};
use proptest::prelude::*;

fn labels_strategy(n: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(proptest::bool::weighted(0.15), n)
}

fn scores_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..10.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn point_adjustment_never_hurts(
        pred in labels_strategy(200),
        truth in labels_strategy(200),
    ) {
        let raw = point::raw_prf1(&pred, &truth);
        let pa = point::pa_prf1(&pred, &truth);
        // PA only flips negatives inside detected true segments to
        // positives, which can only increase recall; F1 must not decrease.
        prop_assert!(pa.recall >= raw.recall - 1e-12);
        prop_assert!(pa.f1 >= raw.f1 - 1e-12);
    }

    #[test]
    fn pa_is_idempotent(
        pred in labels_strategy(150),
        truth in labels_strategy(150),
    ) {
        let once = point::point_adjust(&pred, &truth);
        let twice = point::point_adjust(&once, &truth);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn metric_ranges(
        pred in labels_strategy(150),
        truth in labels_strategy(150),
        scores in scores_strategy(150),
    ) {
        let m = point::pa_prf1(&pred, &truth);
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        prop_assert!((0.0..=1.0).contains(&m.f1));
        let auc = range_auc_pr(&scores, &truth, None);
        prop_assert!((0.0..=1.0).contains(&auc));
        let add = average_detection_delay(&pred, &truth);
        prop_assert!(add >= 0.0);
    }

    #[test]
    fn best_threshold_is_at_least_as_good_as_any_percentile(
        scores in scores_strategy(200),
        truth in labels_strategy(200),
        q in 0.0f64..100.0,
    ) {
        let (_, best) = best_f1_threshold(&scores, &truth);
        let th = threshold_at_percentile(&scores, q);
        let pred: Vec<bool> = scores.iter().map(|&s| s > th).collect();
        let m = point::pa_prf1(&pred, &truth);
        prop_assert!(best.f1 >= m.f1 - 1e-9,
            "best {} < percentile {} at q={q}", best.f1, m.f1);
    }

    #[test]
    fn perfect_detector_has_perfect_metrics(truth in labels_strategy(120)) {
        prop_assume!(truth.iter().any(|&b| b));
        let m = point::pa_prf1(&truth, &truth);
        prop_assert_eq!(m.f1, 1.0);
        prop_assert_eq!(average_detection_delay(&truth, &truth), 0.0);
    }

    #[test]
    fn percentile_is_monotone(scores in scores_strategy(100), a in 0.0f64..100.0, b in 0.0f64..100.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(threshold_at_percentile(&scores, lo) <= threshold_at_percentile(&scores, hi));
    }

    #[test]
    fn constant_scores_never_yield_infinite_thresholds(
        v in -5.0f64..5.0,
        truth in labels_strategy(120),
    ) {
        let scores = vec![v; truth.len()];
        let (th, m) = best_f1_threshold(&scores, &truth);
        // A constant series separates nothing: F1 is 0 and the fallback
        // threshold is the (finite) constant itself, never ±∞.
        prop_assert_eq!(m.f1, 0.0);
        prop_assert_eq!(th, v);
        prop_assert_eq!(threshold_at_percentile(&scores, 50.0), v);
    }

    #[test]
    fn all_anomalous_truth_is_fully_detectable(scores in scores_strategy(120)) {
        // At least two distinct scores, so some threshold predicts a
        // non-empty positive set.
        prop_assume!(scores.iter().any(|&s| s != scores[0]));
        let truth = vec![true; scores.len()];
        // One true segment spans the series: any hit point-adjusts to
        // full recall at precision 1.
        let (_, m) = best_f1_threshold(&scores, &truth);
        prop_assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn nan_heavy_series_stay_finite_and_unbiased(
        scores in scores_strategy(150),
        nan_mask in proptest::collection::vec(proptest::bool::weighted(0.4), 150),
        truth in labels_strategy(150),
    ) {
        let mixed: Vec<f64> = scores
            .iter()
            .zip(&nan_mask)
            .map(|(&s, &m)| if m { f64::NAN } else { s })
            .collect();
        prop_assume!(mixed.iter().any(|s| s.is_finite()));
        let (th, _) = best_f1_threshold(&mixed, &truth);
        prop_assert!(th.is_finite());
        prop_assert!(threshold_at_percentile(&mixed, 99.0).is_finite());
    }

    #[test]
    fn best_f1_invariant_under_affine_rescaling(
        raw in proptest::collection::vec(0usize..1000, 120),
        truth in labels_strategy(120),
        a in 0.5f64..4.0,
        b in -5.0f64..5.0,
    ) {
        // Scores on a 0.01 grid keep inter-score gaps far above f64
        // rounding error, so the scaled comparisons decide identically.
        let scores: Vec<f64> = raw.iter().map(|&r| r as f64 / 100.0).collect();
        let scaled: Vec<f64> = scores.iter().map(|&s| a * s + b).collect();
        let (_, m0) = best_f1_threshold(&scores, &truth);
        let (_, m1) = best_f1_threshold(&scaled, &truth);
        // A positive affine map preserves score order, hence the
        // reachable prediction sets and the optimal F1.
        prop_assert!((m0.f1 - m1.f1).abs() < 1e-12,
            "affine rescaling changed best F1: {} vs {}", m0.f1, m1.f1);
    }

    #[test]
    fn add_bounded_by_detection_window(truth in labels_strategy(200)) {
        // With an all-negative prediction every event is penalized by at
        // most twice its own duration.
        let pred = vec![false; truth.len()];
        let add = average_detection_delay(&pred, &truth);
        let max_dur = {
            let mut max = 0usize;
            let mut cur = 0usize;
            for &l in &truth {
                if l { cur += 1; max = max.max(cur); } else { cur = 0; }
            }
            max
        };
        prop_assert!(add <= 2.0 * max_dur as f64 + 1e-9);
    }
}
