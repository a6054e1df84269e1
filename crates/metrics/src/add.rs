//! Average Detection Delay (ADD), Eq. (13) of the paper.

/// Contiguous `true` runs of a label vector as `(start, end_exclusive)`.
pub fn events(labels: &[bool]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, &l) in labels.iter().enumerate() {
        match (l, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                out.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, labels.len()));
    }
    out
}

/// Average Detection Delay over the ground-truth anomalous events:
/// `ADD = (1/S) Σ (T_i − ρ_i)` where `ρ_i` is the event start and `T_i`
/// the first detection.
///
/// Conventions (reward-once / penalize-once, following the paper's
/// citation \[17\]):
/// * the detection window for event `i` extends past its end up to the
///   next event's start (a late alarm still counts, with its full delay);
/// * an event with no detection at all is penalized with the length of
///   that window, capped at twice the event duration.
///
/// Returns 0 when there are no events.
pub fn average_detection_delay(pred: &[bool], truth: &[bool]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "label length mismatch");
    let evs = events(truth);
    if evs.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for (i, &(start, end)) in evs.iter().enumerate() {
        let window_end = {
            let next_start = evs.get(i + 1).map(|&(s, _)| s).unwrap_or(truth.len());
            let cap = end + (end - start); // at most one event-length past end
            next_start.min(cap).max(end)
        };
        let detected = (start..window_end).find(|&l| pred[l]);
        let delay = match detected {
            Some(l) => (l - start) as f64,
            None => (window_end - start) as f64,
        };
        total += delay;
    }
    total / evs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_detection_zero_delay() {
        let truth = vec![false, true, true, false];
        let pred = vec![false, true, false, false];
        assert_eq!(average_detection_delay(&pred, &truth), 0.0);
    }

    #[test]
    fn late_detection_counts_steps() {
        let truth: Vec<bool> = (0..20).map(|i| (5..15).contains(&i)).collect();
        let mut pred = vec![false; 20];
        pred[9] = true;
        assert_eq!(average_detection_delay(&pred, &truth), 4.0);
    }

    #[test]
    fn detection_after_event_end_still_counts() {
        let truth: Vec<bool> = (0..30).map(|i| (5..10).contains(&i)).collect();
        let mut pred = vec![false; 30];
        pred[12] = true; // 2 steps after the event ends, inside the window
        assert_eq!(average_detection_delay(&pred, &truth), 7.0);
    }

    #[test]
    fn missed_event_penalized_with_window() {
        let truth: Vec<bool> = (0..40).map(|i| (5..15).contains(&i)).collect();
        let pred = vec![false; 40];
        // Window = min(next_start=len, end + dur=25) => 25; delay 20.
        assert_eq!(average_detection_delay(&pred, &truth), 20.0);
    }

    #[test]
    fn window_stops_at_next_event() {
        let mut truth = vec![false; 30];
        for t in truth.iter_mut().take(8).skip(5) {
            *t = true;
        }
        for t in truth.iter_mut().take(13).skip(10) {
            *t = true;
        }
        let mut pred = vec![false; 30];
        pred[11] = true; // detects the *second* event at delay 1
        let add = average_detection_delay(&pred, &truth);
        // First event: window [5, min(10, 8+3=11)=10) => missed, delay 5.
        // Second event: delay 1.
        assert_eq!(add, 3.0);
    }

    #[test]
    fn averages_over_events() {
        let mut truth = vec![false; 100];
        for t in truth.iter_mut().take(20).skip(10) {
            *t = true;
        }
        for t in truth.iter_mut().take(70).skip(60) {
            *t = true;
        }
        let mut pred = vec![false; 100];
        pred[12] = true; // delay 2
        pred[66] = true; // delay 6
        assert_eq!(average_detection_delay(&pred, &truth), 4.0);
    }

    #[test]
    fn no_events_zero() {
        assert_eq!(average_detection_delay(&[false; 5], &[false; 5]), 0.0);
    }

    #[test]
    fn events_extraction() {
        assert_eq!(
            events(&[true, false, true, true]),
            vec![(0, 1), (2, 4)]
        );
    }
}
