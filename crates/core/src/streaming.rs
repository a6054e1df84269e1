//! Online monitoring wrapper: ImDiffusion as a streaming detector.
//!
//! The production deployment of §6 scores latency telemetry arriving every
//! 30 seconds. [`StreamingMonitor`] wraps a fitted [`ImDiffusionDetector`]
//! with a rolling window: each arriving observation is buffered, and every
//! `hop` arrivals the ensemble inference re-runs on the most recent window,
//! emitting verdicts for the points that just became old enough to judge.
//! Verdicts follow the paper's own decision rule, the Eq. (12) τ and
//! Algorithm 1's vote; the monitor has no other thresholding policy.
//!
//! # Fault tolerance
//!
//! Real telemetry is not clean, so the monitor is built to *degrade*, not
//! die:
//!
//! * **Missing cells** — NaN entries in a pushed row are accepted as
//!   "value absent": they are folded into the grating mask so the
//!   diffusion model imputes them natively (§4.1/§4.2 semantics extended
//!   to genuinely lost data). Any other non-finite value is rejected with
//!   a typed error at the ingestion boundary.
//! * **Gaps** — the transport tells the monitor about dropped rows via
//!   [`StreamingMonitor::notify_gap`]. Short gaps (up to a quarter
//!   window) are bridged on the next arrival by linear interpolation,
//!   with every bridged cell marked missing so the model treats the
//!   interpolation as a placeholder, not an observation. Long gaps flush
//!   the buffer and re-warm.
//! * **Degraded mode** — when ensemble inference fails or produces
//!   non-finite scores, the monitor falls back to a cheap per-channel
//!   z-score detector (running Welford statistics) thresholded at the
//!   last threshold calibrated while healthy, and keeps emitting verdicts
//!   flagged [`PointVerdict::degraded`]. The next successful inference
//!   recovers automatically.
//!
//! The `Healthy → Degraded → Warming` state machine and all fault
//! counters are exposed via [`StreamingMonitor::health`], and the entire
//! mutable state checkpoints/restores across process restarts (see
//! [`StreamingMonitor::checkpoint_stream`] in the persistence module).

use std::collections::VecDeque;

use imdiff_data::{DetectorError, Mts};
use imdiff_metrics::threshold_at_percentile;
use imdiff_nn::obs;

use crate::detector::ImDiffusionDetector;
use crate::infer::EnsembleOutput;
use crate::scorer::WindowScorer;

/// Maximum fallback-score history length (threshold calibration).
const HISTORY_CAP: usize = 4096;

/// Minimum healthy-score history before the z-score fallback trusts its
/// own calibrated threshold.
const FALLBACK_MIN_HISTORY: usize = 32;

/// Minimum per-channel sample count before z-scores are considered
/// meaningful.
const FALLBACK_MIN_COUNT: u64 = 8;

/// Fraction of window cells that may be missing before the monitor skips
/// full inference for that evaluation (too little context to impute).
const MAX_MISSING_FRACTION: f64 = 0.5;

/// Default drift score above which an evaluation counts toward a trip
/// (units: training-time standard deviations of the worst channel).
const DRIFT_DEFAULT_THRESHOLD: f64 = 3.0;

/// Default number of consecutive over-threshold evaluations before the
/// Drifted signal latches (and of under-threshold ones before it clears).
const DRIFT_DEFAULT_DEBOUNCE: u32 = 3;

/// Training-time per-channel reference statistics for distribution-drift
/// detection. Captured by [`crate::ImDiffusionDetector`] at fit time from
/// the **raw** (un-normalized) training series and persisted alongside the
/// weights, so a restored detector keeps the same drift baseline the
/// training data defined.
///
/// Rather than a single global quartile pair, the reference records the
/// **envelope** of block-level quartiles over the training series: the
/// lowest and highest lower/upper quartile seen in any sliding block of
/// the drift ring's length. Seasonal series swing their short-window
/// quartiles with phase; the envelope calibrates "normal swing" per
/// channel so the drift score only reacts to excursions the training data
/// never exhibited.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReference {
    /// Per-channel minimum block-level lower quartile.
    pub q25_lo: Vec<f32>,
    /// Per-channel maximum block-level lower quartile.
    pub q25_hi: Vec<f32>,
    /// Per-channel minimum block-level upper quartile.
    pub q75_lo: Vec<f32>,
    /// Per-channel maximum block-level upper quartile.
    pub q75_hi: Vec<f32>,
}

impl DriftReference {
    /// Computes the block-quartile envelope over a series. `window` is the
    /// detector window; blocks match the tracker ring length
    /// (`DriftTracker::ring_capacity`) and slide by a quarter-block so
    /// every seasonal phase contributes. Quartiles are nearest-rank.
    pub fn from_series(series: &Mts, window: usize) -> Self {
        let (n, k) = (series.len(), series.dim());
        let block = DriftTracker::ring_capacity(window).min(n.max(1));
        let stride = (block / 4).max(1);
        let mut q25_lo = vec![f32::INFINITY; k];
        let mut q25_hi = vec![f32::NEG_INFINITY; k];
        let mut q75_lo = vec![f32::INFINITY; k];
        let mut q75_hi = vec![f32::NEG_INFINITY; k];
        let mut start = 0usize;
        loop {
            let end = (start + block).min(n);
            let begin = end.saturating_sub(block);
            for c in 0..k {
                let mut vals: Vec<f32> =
                    (begin..end).map(|l| series.get(l, c)).collect();
                if vals.is_empty() {
                    continue;
                }
                vals.sort_by(f32::total_cmp);
                let q = |p: f64| {
                    vals[((vals.len() - 1) as f64 * p).round() as usize]
                };
                let (a, b) = (q(0.25), q(0.75));
                q25_lo[c] = q25_lo[c].min(a);
                q25_hi[c] = q25_hi[c].max(a);
                q75_lo[c] = q75_lo[c].min(b);
                q75_hi[c] = q75_hi[c].max(b);
            }
            if end >= n {
                break;
            }
            start += stride;
        }
        for c in 0..k {
            if !q25_lo[c].is_finite() {
                q25_lo[c] = 0.0;
                q25_hi[c] = 0.0;
                q75_lo[c] = 0.0;
                q75_hi[c] = 0.0;
            }
        }
        DriftReference {
            q25_lo,
            q25_hi,
            q75_lo,
            q75_hi,
        }
    }

    /// Channel count the reference was computed for.
    pub fn channels(&self) -> usize {
        self.q25_lo.len()
    }

    /// Flattens to `[q25_lo.., q25_hi.., q75_lo.., q75_hi..]` (checkpoint
    /// layout: one `[4, K]` tensor; also the registry envelope layout).
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(4 * self.q25_lo.len());
        out.extend_from_slice(&self.q25_lo);
        out.extend_from_slice(&self.q25_hi);
        out.extend_from_slice(&self.q75_lo);
        out.extend_from_slice(&self.q75_hi);
        out
    }

    /// Inverse of [`Self::to_flat`]; `None` when the length is not `4*k`.
    pub fn from_flat(data: &[f32], channels: usize) -> Option<Self> {
        if data.len() != 4 * channels {
            return None;
        }
        Some(DriftReference {
            q25_lo: data[..channels].to_vec(),
            q25_hi: data[channels..2 * channels].to_vec(),
            q75_lo: data[2 * channels..3 * channels].to_vec(),
            q75_hi: data[3 * channels..].to_vec(),
        })
    }
}

/// Streaming drift detector: a sliding window of recent rows whose
/// per-channel statistics are compared against a [`DriftReference`], with
/// debounce on both edges so one noisy evaluation neither trips nor clears
/// the latched signal.
#[derive(Debug, Clone)]
pub(crate) struct DriftTracker {
    /// Training-time baseline.
    pub(crate) reference: DriftReference,
    /// Recent rows plus their missing flags (missing cells are excluded
    /// from the live statistics — placeholders must not look like data).
    pub(crate) ring: VecDeque<(Vec<f32>, Vec<bool>)>,
    /// Ring capacity in rows; the score is `None` until the ring fills.
    pub(crate) capacity: usize,
    /// Score above which an evaluation counts toward a trip.
    pub(crate) threshold: f64,
    /// Consecutive over-threshold evaluations required to latch (and
    /// under-threshold ones to clear).
    pub(crate) debounce: u32,
    /// Current over-threshold streak.
    pub(crate) consecutive: u32,
    /// Current under-threshold streak while latched.
    pub(crate) clear_streak: u32,
    /// The debounced Drifted signal.
    pub(crate) latched: bool,
    /// Evaluations that produced a drift score (ring full).
    pub(crate) evals: u64,
    /// Times the signal latched.
    pub(crate) trips: u64,
    /// Most recent drift score.
    pub(crate) last_score: f64,
}

impl DriftTracker {
    /// Ring length for a detector window: two windows of rows, floor 8.
    /// [`DriftReference::from_series`] uses the same length for its
    /// training blocks so live and reference statistics are comparable.
    pub(crate) fn ring_capacity(window: usize) -> usize {
        (2 * window).max(8)
    }

    pub(crate) fn new(reference: DriftReference, window: usize) -> Self {
        let capacity = Self::ring_capacity(window);
        DriftTracker {
            reference,
            ring: VecDeque::with_capacity(capacity),
            capacity,
            threshold: DRIFT_DEFAULT_THRESHOLD,
            debounce: DRIFT_DEFAULT_DEBOUNCE,
            consecutive: 0,
            clear_streak: 0,
            latched: false,
            evals: 0,
            trips: 0,
            last_score: 0.0,
        }
    }

    /// Folds one ingested row into the sliding window (stream order).
    pub(crate) fn push_row(&mut self, row: &[f32], miss: &[bool]) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back((row.to_vec(), miss.to_vec()));
    }

    /// The current drift score: over the ring, the worst per-channel
    /// excursion of the live quartiles **outside** the training-time
    /// block-quartile envelope, in units of that channel's typical robust
    /// spread (envelope-midpoint IQR / 1.349). Quartiles are used instead
    /// of mean/variance on purpose: point anomalies — the thing the
    /// detector exists to flag — barely move them, so an
    /// anomalous-but-undrifted stream stays quiet while a level shift or
    /// scale change pushes a quartile past anything the training data
    /// exhibited. `None` until the ring fills; channels with too few
    /// observed cells are skipped.
    pub(crate) fn score(&self) -> Option<f64> {
        if self.ring.len() < self.capacity {
            return None;
        }
        let r = &self.reference;
        let k = r.channels();
        let min_count = (self.capacity / 2).max(4);
        let mut worst = 0.0f64;
        for c in 0..k {
            let mut vals: Vec<f32> = self
                .ring
                .iter()
                .filter(|(_, miss)| !miss[c])
                .map(|(row, _)| row[c])
                .collect();
            if vals.len() < min_count {
                continue;
            }
            vals.sort_by(f32::total_cmp);
            let q =
                |p: f64| vals[((vals.len() - 1) as f64 * p).round() as usize] as f64;
            let mid_iqr = ((r.q75_hi[c] + r.q75_lo[c]) as f64
                - (r.q25_hi[c] + r.q25_lo[c]) as f64)
                / 2.0;
            let sigma = (mid_iqr / 1.349).max(1e-6);
            let exceed = |v: f64, lo: f32, hi: f32| {
                (lo as f64 - v).max(v - hi as f64).max(0.0)
            };
            let e25 = exceed(q(0.25), r.q25_lo[c], r.q25_hi[c]) / sigma;
            let e75 = exceed(q(0.75), r.q75_lo[c], r.q75_hi[c]) / sigma;
            worst = worst.max(e25).max(e75);
        }
        Some(worst)
    }

    /// Applies one evaluation's drift score (completion order). Returns
    /// `true` when this observation latched the Drifted signal.
    pub(crate) fn observe(&mut self, score: f64) -> bool {
        self.evals += 1;
        self.last_score = score;
        if score > self.threshold {
            self.consecutive += 1;
            self.clear_streak = 0;
            if !self.latched && self.consecutive >= self.debounce {
                self.latched = true;
                self.trips += 1;
                return true;
            }
        } else {
            self.consecutive = 0;
            if self.latched {
                self.clear_streak += 1;
                if self.clear_streak >= self.debounce {
                    self.latched = false;
                    self.clear_streak = 0;
                }
            }
        }
        false
    }

    /// Clears the latched signal and both streaks (detector swap: the new
    /// model's reference now defines normal). Ring and counters persist.
    pub(crate) fn reset_signal(&mut self) {
        self.latched = false;
        self.consecutive = 0;
        self.clear_streak = 0;
    }
}

/// Read-only snapshot of the drift detector's state (operator surface).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftStatus {
    /// Whether drift detection is armed (the detector carries a
    /// [`DriftReference`]).
    pub armed: bool,
    /// The debounced Drifted signal.
    pub drifted: bool,
    /// Most recent drift score (0.0 before the first scored evaluation).
    pub last_score: f64,
    /// Evaluations that produced a drift score.
    pub evals: u64,
    /// Times the signal latched.
    pub trips: u64,
}

/// Health of the streaming monitor's inference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Full ensemble inference is producing trusted verdicts.
    Healthy,
    /// Inference failed or was untrustworthy at the last evaluation;
    /// verdicts come from the z-score fallback detector.
    Degraded,
    /// The window buffer is (re)filling — after construction, a restore,
    /// or a long gap — and no evaluation has succeeded yet.
    Warming,
}

/// Operational report: current state plus monotonic fault counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorHealth {
    /// Current position in the health state machine.
    pub state: HealthState,
    /// Observations consumed (including bridged rows and rows lost to
    /// long gaps, which consume stream indices without being judged).
    pub rows_seen: u64,
    /// Rows rejected at the ingestion boundary (undeclared ±∞).
    pub rows_rejected: u64,
    /// Cells accepted as missing and handed to native imputation.
    pub cells_imputed: u64,
    /// Gap events bridged by interpolation.
    pub gaps_bridged: u64,
    /// Synthetic rows inserted by gap bridging.
    pub rows_bridged: u64,
    /// Long gaps that flushed the buffer and forced a re-warm.
    pub rewarms: u64,
    /// Evaluations served by the z-score fallback.
    pub degraded_evals: u64,
    /// Degraded → Healthy transitions.
    pub recoveries: u64,
    /// Whether the debounced distribution-drift signal is latched.
    pub drifted: bool,
    /// Times the drift signal latched since monitor creation.
    pub drift_trips: u64,
}

/// Verdict for one streamed observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointVerdict {
    /// Global index of the observation (0-based since monitor creation).
    pub index: u64,
    /// ImDiffusion's voted anomaly label (or the fallback detector's
    /// threshold decision when `degraded`).
    pub anomalous: bool,
    /// Continuous anomaly score (higher = more suspicious).
    pub score: f64,
    /// Number of ensemble votes received (0 in degraded mode).
    pub votes: u32,
    /// `true` when this verdict came from the z-score fallback rather
    /// than full ensemble inference.
    pub degraded: bool,
}

/// One client score request inside a [`StreamingMonitor::push_batch`]
/// call: `gap_before` rows were lost by the transport immediately before
/// `rows` (the wire protocol's declared-gap field).
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Consecutive rows dropped before this request (0 = none); applied
    /// exactly like [`StreamingMonitor::notify_gap`].
    pub gap_before: usize,
    /// The observed rows, in stream order. NaN cells = declared missing.
    pub rows: Vec<Vec<f32>>,
    /// Load-shed marker: the rows still advance the stream and feed the
    /// fallback statistics, but any evaluation they trigger is served by
    /// the degraded path instead of ensemble inference.
    pub shed: bool,
}

/// Outcome of one [`BatchItem`]: the verdicts its rows earned, plus the
/// error that voided the rest of the request, if any. Verdicts earned
/// before the error are kept — they were computed from valid rows.
#[derive(Debug, Clone)]
pub struct BatchReply {
    /// Verdicts triggered while processing this item's rows.
    pub verdicts: Vec<PointVerdict>,
    /// Why processing stopped early (`None` = the whole item ingested).
    pub error: Option<DetectorError>,
}

/// A due evaluation captured at trigger time (see
/// [`StreamingMonitor::prepare_eval`] for the fidelity argument).
struct EvalRequest {
    /// Snapshot of the buffered window.
    window_data: Mts,
    /// Row-major missing flags for the snapshot.
    miss_flat: Vec<bool>,
    /// Global index of the first point this evaluation judges.
    first_global: u64,
    /// Fallback scores of the newest `hop` rows, captured before later
    /// arrivals could mutate the Welford statistics.
    fallback_scores: Vec<f64>,
    /// The fallback threshold the history supported at trigger time
    /// (`None` while the history is too short to calibrate).
    prepared_tau: Option<f64>,
    /// Set when inference must be skipped (sparse window / load shed).
    skip_reason: Option<String>,
    /// Drift score at trigger time (`None` when unarmed or the drift ring
    /// has not filled yet). Captured here — not at completion — so later
    /// rows in the same batch cannot move the score (bit-fidelity).
    drift_score: Option<f64>,
    /// Index of the [`BatchItem`] that triggered this evaluation.
    item: usize,
}

/// Running per-channel mean/variance (Welford) for the fallback detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChannelStats {
    pub(crate) count: u64,
    pub(crate) mean: f64,
    pub(crate) m2: f64,
}

impl ChannelStats {
    fn new() -> Self {
        ChannelStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    fn update(&mut self, v: f64) {
        self.count += 1;
        let d = v - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (v - self.mean);
    }

    fn z(&self, v: f64) -> Option<f64> {
        if self.count < FALLBACK_MIN_COUNT {
            return None;
        }
        let var = self.m2 / (self.count - 1) as f64;
        Some((v - self.mean) / var.sqrt().max(1e-9))
    }
}

/// A rolling-window online anomaly monitor.
///
/// Generic over the wrapped model: any [`WindowScorer`] — ImDiffusion or
/// a registry-wrapped baseline — gets the same buffering, gap handling,
/// fallback, drift detection and checkpointing. The default type keeps
/// the original concrete `StreamingMonitor` spelling working unchanged.
pub struct StreamingMonitor<D = ImDiffusionDetector> {
    pub(crate) detector: D,
    pub(crate) buffer: VecDeque<Vec<f32>>,
    /// Per-row missing flags, parallel to `buffer`.
    pub(crate) missing: VecDeque<Vec<bool>>,
    pub(crate) window: usize,
    pub(crate) hop: usize,
    pub(crate) channels: usize,
    pub(crate) seen: u64,
    pub(crate) since_eval: usize,
    pub(crate) health: HealthState,
    /// Gap length reported by `notify_gap`, applied on the next push.
    pub(crate) pending_gap: usize,
    /// Per-channel running statistics for the z-score fallback.
    pub(crate) fallback_stats: Vec<ChannelStats>,
    /// Rolling history of fallback scores (threshold calibration).
    pub(crate) fallback_history: VecDeque<f64>,
    /// Fallback threshold last calibrated while Healthy.
    pub(crate) fallback_tau: Option<f64>,
    /// Why the most recent evaluation degraded, for operators.
    pub(crate) last_degraded_reason: Option<String>,
    pub(crate) rows_rejected: u64,
    pub(crate) cells_imputed: u64,
    pub(crate) gaps_bridged: u64,
    pub(crate) rows_bridged: u64,
    pub(crate) rewarms: u64,
    pub(crate) degraded_evals: u64,
    pub(crate) recoveries: u64,
    /// Rows between automatic sidecar snapshots (`None` = caller-driven
    /// only). Serving policy, not stream state: never persisted.
    pub(crate) snapshot_every: Option<u64>,
    /// `seen` at the last snapshot, so [`Self::snapshot_due`] measures
    /// progress since the sidecar was last written.
    pub(crate) rows_at_snapshot: u64,
    /// Distribution-drift detector; armed by [`Self::set_drift_policy`]
    /// (requires the wrapped detector to carry a [`DriftReference`]).
    pub(crate) drift: Option<DriftTracker>,
}

impl<D: WindowScorer> StreamingMonitor<D> {
    /// Wraps a **fitted** detector (trained in-process or restored from a
    /// checkpoint). `hop` controls how often inference re-runs (1 = every
    /// point, `window` = non-overlapping batches); smaller hops reduce
    /// detection delay at proportional compute cost.
    pub fn new(
        detector: D,
        channels: usize,
        hop: usize,
    ) -> Result<Self, DetectorError> {
        if !detector.is_fitted() {
            return Err(DetectorError::NotFitted);
        }
        let window = detector.window();
        if hop == 0 || hop > window {
            return Err(DetectorError::InvalidTrainingData(format!(
                "hop must be in 1..={window}"
            )));
        }
        Ok(StreamingMonitor {
            detector,
            buffer: VecDeque::with_capacity(window),
            missing: VecDeque::with_capacity(window),
            window,
            hop,
            channels,
            seen: 0,
            since_eval: 0,
            health: HealthState::Warming,
            pending_gap: 0,
            fallback_stats: vec![ChannelStats::new(); channels],
            fallback_history: VecDeque::with_capacity(HISTORY_CAP),
            fallback_tau: None,
            last_degraded_reason: None,
            rows_rejected: 0,
            cells_imputed: 0,
            gaps_bridged: 0,
            rows_bridged: 0,
            rewarms: 0,
            degraded_evals: 0,
            recoveries: 0,
            snapshot_every: None,
            rows_at_snapshot: 0,
            drift: None,
        })
    }

    /// Arms the snapshot cadence: after every `rows` consumed
    /// observations, [`Self::snapshot_due`] turns true until the caller
    /// writes the sidecar and calls [`Self::mark_snapshotted`]. Cadence is
    /// serving policy, not stream state — it is never persisted, and a
    /// restored monitor starts with the cadence its host configures.
    pub fn set_snapshot_cadence(&mut self, rows: Option<u64>) {
        self.snapshot_every = rows.filter(|&r| r > 0);
        self.rows_at_snapshot = self.seen;
    }

    /// Whether enough rows arrived since the last snapshot that the
    /// sidecar should be rewritten (see [`Self::set_snapshot_cadence`]).
    pub fn snapshot_due(&self) -> bool {
        match self.snapshot_every {
            Some(every) => self.seen.saturating_sub(self.rows_at_snapshot) >= every,
            None => false,
        }
    }

    /// Records that the sidecar now reflects the current stream position;
    /// resets the [`Self::snapshot_due`] trigger.
    pub fn mark_snapshotted(&mut self) {
        self.rows_at_snapshot = self.seen;
    }

    /// Number of observations consumed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The evaluation window length, in rows.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Rows between evaluations (see [`Self::new`]).
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Channel count of the monitored stream.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Read-only access to the wrapped detector (spec extraction, health
    /// endpoints). Scoring through the monitor never needs `&mut` access
    /// to the detector — see [`WindowScorer::score_windows`].
    pub fn detector(&self) -> &D {
        &self.detector
    }

    /// Atomically replaces the wrapped detector with a freshly loaded one
    /// (hot checkpoint reload), preserving *all* stream state: the rolling
    /// buffer, fallback statistics, thresholds, health machine and
    /// counters. The stream does not re-warm — the next evaluation simply
    /// scores through the new weights. The replacement must be fitted and
    /// match the monitor's window/channel geometry.
    pub fn swap_detector(&mut self, replacement: D) -> Result<(), DetectorError> {
        if !replacement.is_fitted() {
            return Err(DetectorError::NotFitted);
        }
        if replacement.window() != self.window {
            return Err(DetectorError::InvalidTrainingData(format!(
                "replacement detector window {} != monitor window {}",
                replacement.window(),
                self.window
            )));
        }
        if let Some(k) = replacement.channels() {
            if k != self.channels {
                return Err(DetectorError::DimensionMismatch {
                    expected: self.channels,
                    actual: k,
                });
            }
        }
        self.detector = replacement;
        // When drift detection is armed, the new model's training
        // distribution now defines "normal": the latched Drifted signal
        // clears (debounced re-evaluation resumes against the
        // replacement's reference), while the ring and trip counters
        // survive — history, not policy. A replacement without a reference
        // disarms; an unarmed monitor stays unarmed.
        if self.drift.is_some() {
            match self.detector.drift_reference() {
                Some(r) if r.channels() == self.channels => {
                    let t = self.drift.as_mut().expect("checked above");
                    t.reference = r.clone();
                    t.reset_signal();
                }
                _ => self.drift = None,
            }
        }
        obs::counter("stream.detector_swaps", 1);
        Ok(())
    }

    /// Arms distribution-drift detection with the given trip policy:
    /// `threshold` is the score (in robust training-time spread units —
    /// see `DriftTracker::score`) above which an evaluation counts
    /// toward a trip; `debounce` is the consecutive-evaluation count
    /// required to latch (and to clear) the signal. Returns `false` — and
    /// stays unarmed — when the wrapped detector carries no
    /// [`DriftReference`] for this channel count. Re-arming an armed
    /// monitor just updates the policy; the ring and signal survive.
    ///
    /// Drift detection is opt-in: a monitor that never calls this behaves
    /// exactly as before the drift subsystem existed.
    pub fn set_drift_policy(&mut self, threshold: f64, debounce: u32) -> bool {
        if let Some(t) = &mut self.drift {
            t.threshold = threshold;
            t.debounce = debounce.max(1);
            return true;
        }
        match self.detector.drift_reference() {
            Some(r) if r.channels() == self.channels => {
                let mut t = DriftTracker::new(r.clone(), self.window);
                t.threshold = threshold;
                t.debounce = debounce.max(1);
                self.drift = Some(t);
                true
            }
            _ => false,
        }
    }

    /// The drift detector's current state (see [`DriftStatus`]).
    pub fn drift_status(&self) -> DriftStatus {
        match &self.drift {
            Some(t) => DriftStatus {
                armed: true,
                drifted: t.latched,
                last_score: t.last_score,
                evals: t.evals,
                trips: t.trips,
            },
            None => DriftStatus {
                armed: false,
                drifted: false,
                last_score: 0.0,
                evals: 0,
                trips: 0,
            },
        }
    }

    /// The current health report (state machine position + counters).
    pub fn health(&self) -> MonitorHealth {
        MonitorHealth {
            state: self.health,
            rows_seen: self.seen,
            rows_rejected: self.rows_rejected,
            cells_imputed: self.cells_imputed,
            gaps_bridged: self.gaps_bridged,
            rows_bridged: self.rows_bridged,
            rewarms: self.rewarms,
            degraded_evals: self.degraded_evals,
            recoveries: self.recoveries,
            drifted: self.drift.as_ref().is_some_and(|t| t.latched),
            drift_trips: self.drift.as_ref().map_or(0, |t| t.trips),
        }
    }

    /// Why the monitor last entered degraded mode (operator diagnostics);
    /// cleared on recovery.
    pub fn last_degraded_reason(&self) -> Option<&str> {
        self.last_degraded_reason.as_deref()
    }

    /// Tells the monitor that `missed` consecutive rows were lost by the
    /// transport *before* the next pushed row. Short gaps
    /// (≤ a quarter window) are bridged on the next arrival by linear
    /// interpolation, with every bridged cell marked missing so inference
    /// treats it as absent data; longer gaps flush the buffer and re-warm
    /// (stale context must not be stitched to post-gap data).
    pub fn notify_gap(&mut self, missed: usize) {
        self.pending_gap += missed;
    }

    /// Feeds one observation — a one-row, one-item [`Self::push_batch`].
    /// Returns verdicts for the `hop` newest points whenever an evaluation
    /// triggers (the window must fill first, so the earliest
    /// `window - hop` points are only judged once enough context exists).
    ///
    /// NaN entries mean "value missing — impute it". Any other non-finite
    /// entry rejects the whole row with [`DetectorError::NonFiniteInput`]
    /// (the row is not buffered; the stream position does not advance).
    pub fn push(&mut self, row: &[f32]) -> Result<Vec<PointVerdict>, DetectorError> {
        let item = BatchItem {
            gap_before: 0,
            rows: vec![row.to_vec()],
            shed: false,
        };
        let reply = self.push_batch(std::slice::from_ref(&item)).remove(0);
        match reply.error {
            Some(e) => Err(e),
            None => Ok(reply.verdicts),
        }
    }

    /// Feeds a pre-assembled batch of score requests, coalescing every
    /// evaluation they trigger into (at most) one batched ensemble pass —
    /// the serving layer's micro-batching entry point.
    ///
    /// Each item is processed exactly as the equivalent
    /// [`Self::notify_gap`] + [`Self::push`]-per-row sequence would be, and
    /// the verdicts are **bit-identical** to that sequence: evaluations are
    /// *prepared* in stream order (window snapshot plus all
    /// order-sensitive fallback statistics captured at trigger time),
    /// scored together through the window-batched ensemble (whose
    /// arithmetic is batch-size-invariant), and *completed* in stream
    /// order so threshold recalibration and the health state machine see
    /// the same history either way. The only divergence is cost: one
    /// model forward per window group instead of one per evaluation.
    ///
    /// An item that fails validation (wrong width, undeclared ±∞) reports
    /// the error in its reply, keeps any verdicts its earlier rows
    /// already earned, and does not disturb later items — requests from
    /// different clients must not poison each other.
    pub fn push_batch(&mut self, items: &[BatchItem]) -> Vec<BatchReply> {
        let _span = obs::span("stream.push_batch");
        let mut replies: Vec<BatchReply> = items
            .iter()
            .map(|_| BatchReply {
                verdicts: Vec::new(),
                error: None,
            })
            .collect();
        let mut due: Vec<EvalRequest> = Vec::new();
        for (ii, item) in items.iter().enumerate() {
            if item.gap_before > 0 {
                self.notify_gap(item.gap_before);
            }
            for row in &item.rows {
                // A long gap re-warms the monitor, which moves the health
                // state machine — complete the evaluations prepared so far
                // first, so the machine sees transitions in stream order.
                if self.gap_would_rewarm() && !due.is_empty() {
                    self.flush_due(&mut due, &mut replies);
                }
                if let Err(e) = self.absorb(row, ii, item.shed, &mut due) {
                    replies[ii].error = Some(e);
                    break; // rest of this request is void; next item continues
                }
            }
        }
        self.flush_due(&mut due, &mut replies);
        replies
    }

    /// Whether applying the pending gap on the next arrival would flush
    /// the buffer and re-warm (mirrors the branch in [`Self::absorb`]).
    fn gap_would_rewarm(&self) -> bool {
        self.pending_gap > 0
            && (self.pending_gap > self.max_bridge() || self.buffer.is_empty())
    }

    /// The longest gap (in rows) bridged by interpolation: a quarter
    /// window. Longer gaps flush the buffer and re-warm.
    fn max_bridge(&self) -> usize {
        (self.window / 4).max(1)
    }

    /// Scores and completes every prepared evaluation, in order. All
    /// non-shed, non-skipped windows share one
    /// [`WindowScorer::score_windows`] call — this is where batching pays.
    fn flush_due(&mut self, due: &mut Vec<EvalRequest>, replies: &mut [BatchReply]) {
        if due.is_empty() {
            return;
        }
        let _eval = obs::span("stream.evaluate");
        let reqs: Vec<(&Mts, Option<&[bool]>)> = due
            .iter()
            .filter(|r| r.skip_reason.is_none())
            .map(|r| (&r.window_data, Some(r.miss_flat.as_slice())))
            .collect();
        obs::histogram("stream.batch_evals", reqs.len() as f64);
        let mut outs: VecDeque<Result<EnsembleOutput, String>> = if reqs.is_empty() {
            VecDeque::new()
        } else {
            match self.detector.score_windows(&reqs) {
                Ok(v) => v.into_iter().map(Ok).collect(),
                Err(e) => (0..reqs.len())
                    .map(|_| Err(format!("inference error: {e}")))
                    .collect(),
            }
        };
        for req in due.drain(..) {
            let item = req.item;
            let out = match &req.skip_reason {
                Some(reason) => Err(reason.clone()),
                None => outs.pop_front().expect("one output per scored request"),
            };
            let verdicts = self.complete_eval(req, out);
            replies[item].verdicts.extend(verdicts);
        }
    }

    /// Validates one arriving row, applies any pending gap, buffers the
    /// row, and records an [`EvalRequest`] in `due` for every evaluation
    /// that becomes due (gap bridging can trigger several). `item` tags
    /// the requests for batched completion; `shed` forces their verdicts
    /// onto the degraded path without ensemble inference.
    fn absorb(
        &mut self,
        row: &[f32],
        item: usize,
        shed: bool,
        due: &mut Vec<EvalRequest>,
    ) -> Result<(), DetectorError> {
        if row.len() != self.channels {
            return Err(DetectorError::DimensionMismatch {
                expected: self.channels,
                actual: row.len(),
            });
        }
        // Ingestion boundary: NaN = declared missing; ±∞ = corrupt.
        let miss: Vec<bool> = row.iter().map(|v| v.is_nan()).collect();
        if let Some(c) = row.iter().position(|v| v.is_infinite()) {
            self.rows_rejected += 1;
            obs::counter("stream.rows_rejected", 1);
            return Err(DetectorError::NonFiniteInput {
                index: self.seen as usize,
                channel: c,
            });
        }

        if self.pending_gap > 0 {
            let gap = self.pending_gap;
            self.pending_gap = 0;
            if gap <= self.max_bridge() && !self.buffer.is_empty() {
                // Bridge: straight line from the last buffered row to the
                // arriving one, every cell marked missing (the model must
                // treat the interpolation as a placeholder, not data).
                let last = self.buffer.back().cloned().expect("buffer non-empty");
                self.gaps_bridged += 1;
                obs::counter("stream.gaps_bridged", 1);
                for g in 0..gap {
                    let frac = (g + 1) as f32 / (gap + 1) as f32;
                    let synth: Vec<f32> = last
                        .iter()
                        .zip(row)
                        .map(|(&a, &b)| {
                            let b = if b.is_nan() { a } else { b };
                            a + (b - a) * frac
                        })
                        .collect();
                    self.rows_bridged += 1;
                    obs::counter("stream.rows_bridged", 1);
                    if self.ingest_row(synth, vec![true; self.channels]) {
                        due.push(self.prepare_eval(item, shed));
                    }
                }
            } else {
                // Too long to interpolate honestly: drop the stale
                // context and re-warm. The lost rows still consume
                // stream indices so verdict indices match the source.
                self.buffer.clear();
                self.missing.clear();
                self.seen += gap as u64;
                self.since_eval = 0;
                self.rewarms += 1;
                obs::counter("stream.rewarms", 1);
                self.set_health(HealthState::Warming);
            }
        }

        if self.ingest_row(row.to_vec(), miss) {
            due.push(self.prepare_eval(item, shed));
        }
        Ok(())
    }

    /// Buffers one (possibly partially missing) row; returns whether an
    /// evaluation is now due.
    fn ingest_row(&mut self, mut row: Vec<f32>, miss: Vec<bool>) -> bool {
        // Update fallback statistics and score *before* folding this row
        // in, so a wildly anomalous row cannot vouch for itself.
        let score = self.fallback_score(&row, &miss);
        if self.fallback_history.len() == HISTORY_CAP {
            self.fallback_history.pop_front();
        }
        self.fallback_history.push_back(score);
        for c in 0..self.channels {
            if !miss[c] && row[c].is_finite() {
                self.fallback_stats[c].update(row[c] as f64);
            }
        }

        let n_missing = miss.iter().filter(|&&m| m).count();
        self.cells_imputed += n_missing as u64;
        if n_missing > 0 {
            obs::counter("stream.cells_imputed", n_missing as u64);
        }
        // Keep the buffered values finite: the stored value of a missing
        // cell is irrelevant to inference (it is always an imputation
        // target) but NaN must not leak into interpolation or snapshots.
        for c in 0..self.channels {
            if miss[c] {
                row[c] = self
                    .buffer
                    .back()
                    .map(|prev| prev[c])
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
            }
        }

        if self.buffer.len() == self.window {
            self.buffer.pop_front();
            self.missing.pop_front();
        }
        if let Some(tracker) = &mut self.drift {
            tracker.push_row(&row, &miss);
        }
        self.buffer.push_back(row);
        self.missing.push_back(miss);
        self.seen += 1;
        self.since_eval += 1;
        if self.buffer.len() < self.window || self.since_eval < self.hop {
            return false;
        }
        self.since_eval = 0;
        true
    }

    /// Moves the monitor to `to`, recording an observability counter per
    /// actual state transition (surfaced alongside [`MonitorHealth`]).
    fn set_health(&mut self, to: HealthState) {
        if self.health != to {
            obs::counter(
                match to {
                    HealthState::Healthy => "stream.to_healthy",
                    HealthState::Degraded => "stream.to_degraded",
                    HealthState::Warming => "stream.to_warming",
                },
                1,
            );
        }
        self.health = to;
    }

    /// Snapshots everything one due evaluation needs, *at trigger time*.
    ///
    /// This is the heart of batched/sequential bit-fidelity: a deferred
    /// evaluation must see exactly the state an immediate one would, but
    /// later rows in the same batch keep mutating the fallback statistics
    /// and rolling histories. So the window contents, the newest-hop
    /// fallback scores, and the fallback-threshold percentile are all
    /// captured here; only the state written by evaluation *completions*
    /// (`fallback_tau`, the drift tracker, the health machine) is resolved
    /// later, in completion order — matching the sequential interleaving.
    fn prepare_eval(&mut self, item: usize, shed: bool) -> EvalRequest {
        let flat: Vec<f32> = self.buffer.iter().flatten().copied().collect();
        let miss_flat: Vec<bool> = self.missing.iter().flatten().copied().collect();
        let n_missing = miss_flat.iter().filter(|&&m| m).count();
        let fallback_scores: Vec<f64> = (0..self.hop)
            .map(|i| {
                let pos = self.window - self.hop + i;
                self.fallback_score(&self.buffer[pos], &self.missing[pos])
            })
            .collect();
        let prepared_tau = (self.fallback_history.len() >= FALLBACK_MIN_HISTORY).then(|| {
            let hist: Vec<f64> = self.fallback_history.iter().copied().collect();
            threshold_at_percentile(&hist, 99.0)
        });
        // Skip inference outright when the window is mostly holes — an
        // imputation model conditioned on almost nothing hallucinates —
        // or when the serving layer sheds this evaluation under load.
        let skip_reason = if shed {
            Some("load shed: queue latency over budget".to_string())
        } else if (n_missing as f64) > MAX_MISSING_FRACTION * (self.window * self.channels) as f64
        {
            Some(format!(
                "window too sparse for inference: {n_missing}/{} cells missing",
                self.window * self.channels
            ))
        } else {
            None
        };
        EvalRequest {
            window_data: Mts::new(flat, self.window, self.channels),
            miss_flat,
            first_global: self.seen - self.hop as u64,
            fallback_scores,
            prepared_tau,
            skip_reason,
            drift_score: self.drift.as_ref().and_then(|t| t.score()),
            item,
        }
    }

    /// Applies one evaluation's outcome to the monitor — threshold
    /// recalibration, health transitions, fault counters — and emits the
    /// verdicts for its newest `hop` points. Completions must run in
    /// stream order; see [`Self::prepare_eval`].
    fn complete_eval(
        &mut self,
        req: EvalRequest,
        out: Result<EnsembleOutput, String>,
    ) -> Vec<PointVerdict> {
        let out = match out {
            Ok(o) if o.scores.iter().all(|s| s.is_finite()) => o,
            Ok(_) => {
                self.last_degraded_reason =
                    Some("inference produced non-finite scores".into());
                return self.degraded_verdicts(&req);
            }
            Err(reason) => {
                self.last_degraded_reason = Some(reason);
                return self.degraded_verdicts(&req);
            }
        };

        // Drift bookkeeping resolves now, in completion order, on the
        // score captured at trigger time — exactly the state a sequential
        // push-per-row interleaving would have seen (bit-fidelity).
        if let Some(tracker) = &mut self.drift {
            if let Some(score) = req.drift_score {
                obs::counter("stream.drift.evals", 1);
                obs::histogram("stream.drift.score", score);
                if tracker.observe(score) {
                    obs::counter("stream.drift.trips", 1);
                }
            }
        }
        let drifted = self.drift.as_ref().is_some_and(|t| t.latched);

        if drifted {
            // The ensemble still runs and its verdicts are emitted, but
            // the model no longer matches the stream's distribution, so
            // the health machine flags the tenant for retraining. The
            // signal clears on a detector swap (retrain promoted) or a
            // debounced return below the threshold (transient drift).
            let t = self.drift.as_ref().expect("latched implies tracker");
            self.last_degraded_reason = Some(format!(
                "distribution drift: score {:.3} over threshold {:.3}",
                t.last_score, t.threshold
            ));
            self.set_health(HealthState::Degraded);
        } else {
            // Successful full inference with no drift latch: (re)calibrate
            // the fallback threshold while the ensemble vouches for the
            // stream, and recover if we were degraded.
            if self.health == HealthState::Degraded {
                self.recoveries += 1;
                obs::counter("stream.recoveries", 1);
            }
            self.set_health(HealthState::Healthy);
            self.last_degraded_reason = None;
        }
        if let Some(tau) = req.prepared_tau {
            self.fallback_tau = Some(tau);
        }

        // Emit the newest `hop` positions of the window, labelled by the
        // paper's own rule: the Eq. (12) τ and Algorithm 1's vote.
        (0..self.hop)
            .map(|i| {
                let pos = self.window - self.hop + i;
                PointVerdict {
                    index: req.first_global + i as u64,
                    anomalous: out.labels[pos],
                    score: out.scores[pos],
                    votes: out.votes[pos],
                    degraded: false,
                }
            })
            .collect()
    }

    /// Verdicts for the newest `hop` rows from the z-score fallback, using
    /// the last threshold calibrated while healthy (resolved *now*, in
    /// completion order, so an earlier evaluation in the same batch that
    /// just recalibrated is honoured — exactly as sequential pushes would).
    fn degraded_verdicts(&mut self, req: &EvalRequest) -> Vec<PointVerdict> {
        self.degraded_evals += 1;
        obs::counter("stream.degraded_evals", 1);
        self.set_health(HealthState::Degraded);
        // No calibration yet (both None): infinite τ — never alarm blindly.
        let tau = self
            .fallback_tau
            .or(req.prepared_tau)
            .unwrap_or(f64::INFINITY);
        req.fallback_scores
            .iter()
            .enumerate()
            .map(|(i, &score)| PointVerdict {
                index: req.first_global + i as u64,
                anomalous: score > tau,
                score,
                votes: 0,
                degraded: true,
            })
            .collect()
    }

    /// Mean squared z-score over trusted channels — the cheap fallback
    /// anomaly score. Always finite; 0.0 until statistics accumulate.
    fn fallback_score(&self, row: &[f32], miss: &[bool]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for c in 0..self.channels {
            if miss[c] || !row[c].is_finite() {
                continue;
            }
            if let Some(z) = self.fallback_stats[c].z(row[c] as f64) {
                sum += z * z;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ImDiffusionConfig;
    use imdiff_data::faults::{Fault, FaultInjector};
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
    use imdiff_data::Detector;

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

    fn fitted_monitor(hop: usize) -> (StreamingMonitor, imdiff_data::synthetic::LabeledDataset) {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 64,
            },
            4,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 4);
        det.fit(&ds.train).unwrap();
        let channels = ds.train.dim();
        (StreamingMonitor::new(det, channels, hop).unwrap(), ds)
    }

    /// Cuts rows `[from, to)` of a series into an owned `Mts`.
    fn slice_rows(series: &imdiff_data::Mts, from: usize, to: usize) -> imdiff_data::Mts {
        let k = series.dim();
        let mut data = Vec::with_capacity((to - from) * k);
        for l in from..to {
            data.extend_from_slice(series.row(l));
        }
        imdiff_data::Mts::new(data, to - from, k)
    }

    #[test]
    fn drift_latches_on_regime_change_and_degrades() {
        use imdiff_data::scenario::{drift, ScenarioProfile};
        let sc = drift(&ScenarioProfile::quick(), 11);
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 4);
        det.fit(&sc.train).unwrap();
        let mut monitor = StreamingMonitor::new(det, sc.train.dim(), 8).unwrap();
        assert!(monitor.set_drift_policy(3.0, 2));
        // The pre-change stream matches the training distribution.
        for l in 0..sc.change_start {
            monitor.push(sc.stream.row(l)).unwrap();
        }
        assert!(!monitor.drift_status().drifted, "false positive before the change");
        assert_eq!(monitor.health().state, HealthState::Healthy);
        // Past the ramp the signal latches and the health machine degrades.
        for l in sc.change_start..sc.stream.len() {
            monitor.push(sc.stream.row(l)).unwrap();
        }
        let st = monitor.drift_status();
        assert!(st.armed && st.drifted && st.trips >= 1, "{st:?}");
        let health = monitor.health();
        assert_eq!(health.state, HealthState::Degraded);
        assert!(health.drifted);
        assert!(monitor
            .last_degraded_reason()
            .is_some_and(|r| r.contains("drift")));
    }

    #[test]
    fn detector_swap_rebaselines_drift_and_recovers() {
        use imdiff_data::scenario::{drift, ScenarioProfile};
        let sc = drift(&ScenarioProfile::quick(), 11);
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 4);
        det.fit(&sc.train).unwrap();
        let mut monitor = StreamingMonitor::new(det, sc.train.dim(), 8).unwrap();
        assert!(monitor.set_drift_policy(3.0, 2));
        let half = sc.change_start + (sc.stream.len() - sc.change_start) / 2;
        for l in 0..half {
            monitor.push(sc.stream.row(l)).unwrap();
        }
        assert!(monitor.drift_status().drifted);
        // Retrain on the post-change regime and hot-swap: the new
        // reference defines normal, so the latch clears and stays clear.
        let tail = slice_rows(&sc.stream, sc.change_start + 200, sc.stream.len());
        let mut det2 = ImDiffusionDetector::new(tiny_cfg(), 7);
        det2.fit(&tail).unwrap();
        monitor.swap_detector(det2).unwrap();
        assert!(!monitor.drift_status().drifted);
        for l in half..sc.stream.len() {
            monitor.push(sc.stream.row(l)).unwrap();
        }
        let st = monitor.drift_status();
        assert!(st.armed && !st.drifted, "{st:?}");
        assert_eq!(monitor.health().state, HealthState::Healthy);
        assert!(monitor.health().recoveries >= 1);
    }

    #[test]
    fn drift_policy_requires_reference() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 16,
            },
            4,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 4);
        det.fit(&ds.train).unwrap();
        det.set_drift_reference(None);
        let mut monitor = StreamingMonitor::new(det, ds.train.dim(), 8).unwrap();
        assert!(!monitor.set_drift_policy(3.0, 2));
        assert!(!monitor.drift_status().armed);
        // And a monitor that never arms the policy reports unarmed too.
        let (monitor, _) = fitted_monitor(8);
        assert!(!monitor.drift_status().armed);
    }

    #[test]
    fn unfitted_detector_rejected() {
        let det = ImDiffusionDetector::new(tiny_cfg(), 1);
        assert!(matches!(
            StreamingMonitor::new(det, 3, 4),
            Err(DetectorError::NotFitted)
        ));
    }

    #[test]
    fn verdicts_cover_stream_after_warmup() {
        let (mut monitor, ds) = fitted_monitor(8);
        let mut judged = Vec::new();
        for l in 0..ds.test.len() {
            let vs = monitor.push(ds.test.row(l)).unwrap();
            judged.extend(vs);
        }
        assert_eq!(monitor.seen(), ds.test.len() as u64);
        assert!(!judged.is_empty());
        // Indices are strictly increasing and contiguous per batch.
        for pair in judged.windows(2) {
            assert!(pair[1].index > pair[0].index);
        }
        // After warm-up (window=16), every hop-th batch emits 8 verdicts.
        let expected = ((ds.test.len() - 16) / 8 + 1) * 8;
        assert_eq!(judged.len(), expected);
        assert!(judged.iter().all(|v| v.score.is_finite()));
        assert!(judged.iter().all(|v| !v.degraded));
        assert_eq!(monitor.health().state, HealthState::Healthy);
    }

    #[test]
    fn wrong_width_row_rejected() {
        let (mut monitor, _) = fitted_monitor(4);
        let err = monitor.push(&[0.0]).unwrap_err();
        assert!(matches!(err, DetectorError::DimensionMismatch { .. }));
    }

    #[test]
    fn bad_hop_rejected() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 16,
            },
            4,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 4);
        det.fit(&ds.train).unwrap();
        let k = ds.train.dim();
        assert!(StreamingMonitor::new(det, k, 0).is_err());
    }

    #[test]
    fn nan_cells_are_imputed_not_fatal() {
        let (mut monitor, ds) = fitted_monitor(8);
        let mut judged = 0usize;
        for l in 0..ds.test.len() {
            let mut row = ds.test.row(l).to_vec();
            if l % 5 == 0 {
                let c = l % row.len();
                row[c] = f32::NAN;
            }
            judged += monitor.push(&row).unwrap().len();
        }
        assert!(judged > 0);
        let health = monitor.health();
        assert!(health.cells_imputed > 0);
        assert_eq!(health.rows_seen, ds.test.len() as u64);
    }

    #[test]
    fn infinite_value_rejected_at_boundary() {
        let (mut monitor, ds) = fitted_monitor(8);
        let mut row = ds.test.row(0).to_vec();
        row[1] = f32::INFINITY;
        let err = monitor.push(&row).unwrap_err();
        assert!(matches!(
            err,
            DetectorError::NonFiniteInput { channel: 1, .. }
        ));
        // The rejected row did not advance the stream.
        assert_eq!(monitor.seen(), 0);
        assert_eq!(monitor.health().rows_rejected, 1);
    }

    #[test]
    fn short_gap_is_bridged() {
        let (mut monitor, ds) = fitted_monitor(8);
        for l in 0..20 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        monitor.notify_gap(2); // ≤ max_bridge() (window/4 = 4)
        monitor.push(ds.test.row(22)).unwrap();
        let health = monitor.health();
        assert_eq!(health.gaps_bridged, 1);
        assert_eq!(health.rows_bridged, 2);
        // Bridged rows consume stream indices: 20 pushed + 2 bridged + 1.
        assert_eq!(health.rows_seen, 23);
        assert_eq!(health.rewarms, 0);
    }

    #[test]
    fn long_gap_rewarms() {
        let (mut monitor, ds) = fitted_monitor(8);
        for l in 0..20 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        monitor.notify_gap(10); // > max_bridge()
        let vs = monitor.push(ds.test.row(30)).unwrap();
        assert!(vs.is_empty()); // buffer flushed, must re-warm
        let health = monitor.health();
        assert_eq!(health.rewarms, 1);
        assert_eq!(health.state, HealthState::Warming);
        // Lost rows still consume indices.
        assert_eq!(health.rows_seen, 31);
        // After a full window of new data the monitor recovers to healthy.
        let mut judged = 0usize;
        for l in 31..ds.test.len() {
            judged += monitor.push(ds.test.row(l)).unwrap().len();
        }
        assert!(judged > 0);
        assert_eq!(monitor.health().state, HealthState::Healthy);
    }

    #[test]
    fn sparse_window_degrades_and_recovers() {
        let (mut monitor, ds) = fitted_monitor(8);
        let k = ds.test.dim();
        // Healthy warm-up.
        for l in 0..24 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        assert_eq!(monitor.health().state, HealthState::Healthy);
        // Blind the stream: > 50% missing cells in the window.
        let mut degraded_seen = 0usize;
        for _ in 24..40 {
            let vs = monitor.push(&vec![f32::NAN; k]).unwrap();
            degraded_seen += vs.iter().filter(|v| v.degraded).count();
        }
        assert!(degraded_seen > 0);
        assert_eq!(monitor.health().state, HealthState::Degraded);
        assert!(monitor.health().degraded_evals > 0);
        assert!(monitor.last_degraded_reason().is_some());
        // Clean data returns: the monitor recovers automatically.
        for l in 40..ds.test.len() {
            monitor.push(ds.test.row(l)).unwrap();
        }
        let health = monitor.health();
        assert_eq!(health.state, HealthState::Healthy);
        assert!(health.recoveries >= 1);
        assert!(monitor.last_degraded_reason().is_none());
    }

    #[test]
    fn degraded_verdicts_are_finite_and_flagged() {
        let (mut monitor, ds) = fitted_monitor(4);
        let k = ds.test.dim();
        for l in 0..32 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        let mut degraded = Vec::new();
        for _ in 0..16 {
            degraded.extend(monitor.push(&vec![f32::NAN; k]).unwrap());
        }
        let flagged: Vec<_> = degraded.iter().filter(|v| v.degraded).collect();
        assert!(!flagged.is_empty());
        assert!(flagged.iter().all(|v| v.score.is_finite()));
        assert!(flagged.iter().all(|v| v.votes == 0));
    }

    #[test]
    fn push_batch_bit_identical_to_sequential_pushes() {
        // The serving layer's correctness contract: a batch of chunked
        // requests (gaps, NaN cells, uneven sizes) scores bit-identically
        // to the equivalent notify_gap + push-per-row sequence.
        let cfg = imdiff_data::replay::ReplayConfig {
            chunk_rows: 5,
            jitter: true,
            gap_rate: 0.15,
            max_gap: 3,
            nan_rate: 0.03,
        };
        let (mut seq, ds) = fitted_monitor(4);
        let chunks = imdiff_data::replay::replay_chunks(&ds.test, &cfg, 99);

        let mut sequential = Vec::new();
        for c in &chunks {
            if c.gap_before > 0 {
                seq.notify_gap(c.gap_before);
            }
            for row in &c.rows {
                sequential.extend(seq.push(row).unwrap());
            }
        }

        let (mut bat, _) = fitted_monitor(4);
        let items: Vec<BatchItem> = chunks
            .iter()
            .map(|c| BatchItem {
                gap_before: c.gap_before,
                rows: c.rows.clone(),
                shed: false,
            })
            .collect();
        let replies = bat.push_batch(&items);
        assert!(replies.iter().all(|r| r.error.is_none()));
        let batched: Vec<PointVerdict> =
            replies.into_iter().flat_map(|r| r.verdicts).collect();

        assert_eq!(batched.len(), sequential.len());
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.index, s.index);
            assert_eq!(b.anomalous, s.anomalous);
            assert_eq!(b.score.to_bits(), s.score.to_bits(), "at index {}", b.index);
            assert_eq!(b.votes, s.votes);
            assert_eq!(b.degraded, s.degraded);
        }
        // Monitor state converged identically too.
        assert_eq!(bat.health(), seq.health());
        assert_eq!(bat.seen(), seq.seen());
    }

    #[test]
    fn shed_items_degrade_without_inference() {
        let (mut monitor, ds) = fitted_monitor(8);
        // Warm up healthy first.
        let warm: Vec<Vec<f32>> = (0..16).map(|l| ds.test.row(l).to_vec()).collect();
        monitor.push_batch(&[BatchItem {
            gap_before: 0,
            rows: warm,
            shed: false,
        }]);
        assert_eq!(monitor.health().state, HealthState::Healthy);
        let before = monitor.health().degraded_evals;
        // A shed request still gets verdicts, but from the fallback.
        let rows: Vec<Vec<f32>> = (16..24).map(|l| ds.test.row(l).to_vec()).collect();
        let replies = monitor.push_batch(&[BatchItem {
            gap_before: 0,
            rows,
            shed: true,
        }]);
        assert!(replies[0].error.is_none());
        assert!(!replies[0].verdicts.is_empty());
        assert!(replies[0].verdicts.iter().all(|v| v.degraded && v.votes == 0));
        assert!(monitor.health().degraded_evals > before);
        assert!(monitor
            .last_degraded_reason()
            .is_some_and(|r| r.contains("load shed")));
        // Healthy traffic recovers the monitor.
        let rows: Vec<Vec<f32>> = (24..40).map(|l| ds.test.row(l).to_vec()).collect();
        monitor.push_batch(&[BatchItem {
            gap_before: 0,
            rows,
            shed: false,
        }]);
        assert_eq!(monitor.health().state, HealthState::Healthy);
    }

    #[test]
    fn bad_row_voids_item_but_not_batch() {
        let (mut monitor, ds) = fitted_monitor(4);
        let mut poisoned: Vec<Vec<f32>> = (0..4).map(|l| ds.test.row(l).to_vec()).collect();
        poisoned[2][1] = f32::INFINITY;
        let clean: Vec<Vec<f32>> = (4..24).map(|l| ds.test.row(l).to_vec()).collect();
        let replies = monitor.push_batch(&[
            BatchItem {
                gap_before: 0,
                rows: poisoned,
                shed: false,
            },
            BatchItem {
                gap_before: 0,
                rows: clean,
                shed: false,
            },
        ]);
        assert!(matches!(
            replies[0].error,
            Some(DetectorError::NonFiniteInput { channel: 1, .. })
        ));
        // The later item was processed normally.
        assert!(replies[1].error.is_none());
        assert!(!replies[1].verdicts.is_empty());
        assert_eq!(monitor.health().rows_rejected, 1);
    }

    #[test]
    fn swap_detector_preserves_stream_state() {
        let (mut monitor, ds) = fitted_monitor(8);
        for l in 0..24 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        let seen = monitor.seen();
        assert_eq!(monitor.health().state, HealthState::Healthy);

        // Unfitted replacements and geometry mismatches are rejected.
        assert!(matches!(
            monitor.swap_detector(ImDiffusionDetector::new(tiny_cfg(), 9)),
            Err(DetectorError::NotFitted)
        ));

        // A freshly trained replacement swaps in without re-warming.
        let mut det2 = ImDiffusionDetector::new(tiny_cfg(), 77);
        det2.fit(&ds.train).unwrap();
        monitor.swap_detector(det2).unwrap();
        assert_eq!(monitor.seen(), seen);
        assert_eq!(monitor.health().state, HealthState::Healthy);
        let mut judged = 0usize;
        for l in 24..ds.test.len() {
            judged += monitor.push(ds.test.row(l)).unwrap().len();
        }
        assert!(judged > 0);
        assert_eq!(monitor.health().state, HealthState::Healthy);
    }

    #[test]
    fn fault_injected_stream_runs_end_to_end() {
        // The acceptance scenario: NaN cells + a dropped-row gap + one
        // stuck channel, seeded, with zero panics, verdicts for every
        // judged point, and ≥1 Degraded→Healthy recovery.
        let (mut monitor, ds) = fitted_monitor(4);
        let k = ds.test.dim();
        let corrupted = FaultInjector::new(17)
            .with(Fault::NanCells { rate: 0.05 })
            .with(Fault::Gap { start: 30, len: 3 })
            .with(Fault::StuckChannel {
                channel: 1,
                start: 40,
                len: 10,
            })
            .corrupt(&ds.test);

        // Force at least one degraded evaluation mid-stream by blinding
        // a stretch of rows beyond the sparsity cutoff.
        let mut judged = Vec::new();
        let mut pending_gap = 0usize;
        for (l, item) in corrupted.rows.iter().enumerate() {
            match item {
                None => pending_gap += 1,
                Some(row) => {
                    if pending_gap > 0 {
                        monitor.notify_gap(pending_gap);
                        pending_gap = 0;
                    }
                    let row = if (20..29).contains(&l) {
                        vec![f32::NAN; k]
                    } else {
                        row.clone()
                    };
                    judged.extend(monitor.push(&row).unwrap());
                }
            }
        }
        assert!(!judged.is_empty());
        assert!(judged.iter().all(|v| v.score.is_finite()));
        let health = monitor.health();
        assert_eq!(health.rows_seen, ds.test.len() as u64);
        assert!(health.cells_imputed > 0);
        assert!(health.gaps_bridged >= 1);
        assert!(health.degraded_evals >= 1);
        assert!(health.recoveries >= 1, "health: {health:?}");
        assert_eq!(health.state, HealthState::Healthy);
    }
}
