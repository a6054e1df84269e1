//! Threshold selection over continuous anomaly scores.

use crate::point::{pa_prf1, PrF1};

/// The score value at percentile `q` (0–100) of `scores`.
///
/// Convention: the sorted finite scores are indexed at
/// `round(q/100 · (n − 1))` — the nearest *position* on the 0–100 scale
/// stretched over the sample (NumPy's `interpolation="nearest"`), **not**
/// classic nearest-rank `⌈q/100 · n⌉`. So `q = 0` is the minimum,
/// `q = 100` the maximum, and with two samples the upper one is selected
/// from `q = 50` upward (half rounds away from zero). Non-finite scores
/// are ignored; an all-non-finite (or empty) input returns 0.0.
///
/// The rank is selected, not sorted for: the value is the one a sort would
/// put there. Of values that compare equal but differ in bits (`-0.0` and
/// `+0.0`), either may come back.
pub fn threshold_at_percentile(scores: &[f64], q: f64) -> f64 {
    assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
    let mut finite: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
    if finite.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * (finite.len() - 1) as f64).round() as usize;
    let rank = rank.min(finite.len() - 1);
    *finite.select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("finite scores")).1
}

/// Grid-searches the threshold maximising point-adjusted F1.
///
/// Mirrors the protocol the paper applies to baselines whose original
/// papers do not specify a threshold. Candidates are drawn from evenly
/// spaced score quantiles. Returns `(threshold, metrics)` at the optimum.
pub fn best_f1_threshold(scores: &[f64], truth: &[bool]) -> (f64, PrF1) {
    assert_eq!(scores.len(), truth.len(), "score/label length mismatch");
    // When no candidate beats F1 = 0 (0 predicted positives is a valid
    // all-negative baseline), fall back to the max finite score — a usable
    // "alarm on nothing seen so far" threshold — never ±∞.
    let fallback = scores
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    let fallback = if fallback.is_finite() { fallback } else { 0.0 };
    let mut best = (fallback, PrF1::default());
    // Candidates span the full 0–100 quantile range: an optimal cut below
    // the median (e.g. when anomalies are the majority) is reachable.
    let candidates: Vec<f64> = (0..=200)
        .map(|i| threshold_at_percentile(scores, 100.0 * i as f64 / 200.0))
        .collect();
    let mut last = f64::NAN;
    for th in candidates {
        if th == last {
            continue; // Skip duplicate quantiles.
        }
        last = th;
        let pred: Vec<bool> = scores.iter().map(|&s| s > th).collect();
        let m = pa_prf1(&pred, truth);
        if m.f1 > best.1.f1 {
            best = (th, m);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_bounds() {
        let s = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(threshold_at_percentile(&s, 0.0), 1.0);
        assert_eq!(threshold_at_percentile(&s, 100.0), 5.0);
        assert_eq!(threshold_at_percentile(&s, 50.0), 3.0);
    }

    #[test]
    fn percentile_ignores_nan() {
        let s = vec![1.0, f64::NAN, 3.0];
        assert_eq!(threshold_at_percentile(&s, 100.0), 3.0);
    }

    #[test]
    fn percentile_single_sample_any_quantile() {
        let s = vec![7.0];
        for q in [0.0, 37.3, 50.0, 100.0] {
            assert_eq!(threshold_at_percentile(&s, q), 7.0);
        }
    }

    #[test]
    fn percentile_two_samples_pins_rounding_convention() {
        // index = round(q/100 · 1): below q = 50 the lower sample, from
        // q = 50 (half rounds away from zero) the upper one.
        let s = vec![1.0, 2.0];
        assert_eq!(threshold_at_percentile(&s, 0.0), 1.0);
        assert_eq!(threshold_at_percentile(&s, 49.9), 1.0);
        assert_eq!(threshold_at_percentile(&s, 50.0), 2.0);
        assert_eq!(threshold_at_percentile(&s, 100.0), 2.0);
    }

    #[test]
    fn percentile_duplicated_values() {
        let s = vec![2.0, 2.0, 2.0];
        for q in [0.0, 33.0, 66.0, 100.0] {
            assert_eq!(threshold_at_percentile(&s, q), 2.0);
        }
    }

    #[test]
    fn percentile_selects_what_a_sort_would() {
        // The sort-based rule this replaced, on random inputs with ties and
        // repeated values (non-negative, as sums of squares are) and a few
        // non-finite ones.
        let reference = |scores: &[f64], q: f64| {
            let mut finite: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
            if finite.is_empty() {
                return 0.0;
            }
            finite.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((q / 100.0) * (finite.len() - 1) as f64).round() as usize;
            finite[rank.min(finite.len() - 1)]
        };
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..300 {
            let n = (next() % 70) as usize;
            let levels = 1 + next() % 12;
            let scores: Vec<f64> = (0..n)
                .map(|_| match next() % 20 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => (next() % levels) as f64 * 0.37 + (next() % 3) as f64 * 1e-9,
                })
                .collect();
            for q in [0.0, 12.5, 49.9, 50.0, 98.0, 99.5, 100.0, (next() % 1001) as f64 / 10.0] {
                let (got, want) = (threshold_at_percentile(&scores, q), reference(&scores, q));
                assert_eq!(got, want, "case {case} q {q}");
                assert_eq!(got.to_bits(), want.to_bits(), "case {case} q {q}");
            }
        }
    }

    #[test]
    fn best_threshold_separable_scores() {
        // Scores perfectly separate anomalies.
        let truth: Vec<bool> = (0..100).map(|i| (40..50).contains(&i)).collect();
        let scores: Vec<f64> = (0..100)
            .map(|i| if (40..50).contains(&i) { 10.0 } else { 1.0 })
            .collect();
        let (th, m) = best_f1_threshold(&scores, &truth);
        assert!((1.0..10.0).contains(&th));
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn best_threshold_handles_constant_scores() {
        let truth = vec![false, true, false];
        let scores = vec![1.0, 1.0, 1.0];
        let (th, m) = best_f1_threshold(&scores, &truth);
        // Constant scores can never separate anything: F1 is 0, and the
        // returned threshold is the (finite) max score, not ∞.
        assert_eq!(m.f1, 0.0);
        assert_eq!(th, 1.0);
    }

    #[test]
    fn best_threshold_reaches_optimum_below_median() {
        // Anomalies are the majority, so the optimal cut (between 1.0 and
        // 10.0) sits at the 20th percentile — below the median, which the
        // old 50–100 candidate grid could never reach.
        let truth: Vec<bool> = (0..100).map(|i| i < 80).collect();
        let scores: Vec<f64> = (0..100)
            .map(|i| if i < 80 { 10.0 } else { 1.0 })
            .collect();
        let (th, m) = best_f1_threshold(&scores, &truth);
        assert_eq!(m.f1, 1.0, "optimum below the median must be reachable");
        assert!((1.0..10.0).contains(&th), "threshold {th}");
    }

    #[test]
    fn best_threshold_never_returns_infinity() {
        // No threshold beats F1 = 0 here (no true anomalies): fall back to
        // the max finite score instead of ∞.
        let truth = vec![false; 4];
        let scores = vec![3.0, 1.0, f64::NAN, 2.0];
        let (th, m) = best_f1_threshold(&scores, &truth);
        assert_eq!(m.f1, 0.0);
        assert_eq!(th, 3.0);
    }

    #[test]
    fn best_threshold_uses_point_adjustment() {
        // One hit inside a long segment should yield F1 = 1 after PA.
        let truth: Vec<bool> = (0..50).map(|i| (10..30).contains(&i)).collect();
        let mut scores = vec![0.0f64; 50];
        scores[15] = 5.0;
        let (_, m) = best_f1_threshold(&scores, &truth);
        assert_eq!(m.f1, 1.0);
    }
}
