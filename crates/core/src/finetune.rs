//! Incremental retraining for the continual-learning loop.
//!
//! When the streaming layer's drift detector latches (see
//! [`crate::streaming::StreamingMonitor::set_drift_policy`]), the model's
//! training distribution no longer matches the live stream. [`FineTuner`]
//! closes the loop: it resumes training **from the live weights** on a
//! corpus of recent healthy rows that the caller picks (e.g. the
//! post-change rows it judged normal), under a bounded step/wall-clock
//! budget, and produces a *candidate* detector — the base detector is
//! never mutated, so a failed or rejected fine-tune cannot corrupt serving.
//!
//! Safety properties:
//!
//! * **Sentinel-guarded** — the run reuses the [`Trainer`]'s divergence
//!   sentinels. A poisoned corpus that drives the loss non-finite through
//!   the whole retry budget aborts the fine-tune ([`FineTuneReport::applied`]
//!   `false`) instead of emitting corrupt weights.
//! * **Deterministic** — same base weights, corpus, options and salt ⇒
//!   bit-identical candidate, at any thread count. The wall-clock budget
//!   never truncates training (that would make the weights timing-
//!   dependent); it only vetoes *applying* an over-budget result.
//! * **Re-baselined** — the candidate's [`DriftReference`] is recomputed
//!   from the fine-tuning corpus, so a promotion clears the drift signal:
//!   the data the model just learned *defines* the new normal.

use std::time::{Duration, Instant};

use imdiff_data::{check_finite, DetectorError, Mts};
use imdiff_diffusion::NoiseSchedule;
use imdiff_nn::layers::Module;
use imdiff_nn::obs;

use crate::detector::ImDiffusionDetector;
use crate::streaming::DriftReference;
use crate::trainer::{TrainIncident, Trainer, TrainerOptions};

/// Budget and policy for one incremental retraining round.
#[derive(Debug, Clone)]
pub struct FineTuneOptions {
    /// Optimizer steps to run (the primary budget). The candidate is the
    /// state after exactly this many steps.
    pub steps: usize,
    /// Multiplier on the base configuration's learning rate. Fine-tuning
    /// starts from converged weights; a fraction of the original rate
    /// adapts without erasing what training learned.
    pub lr_scale: f32,
    /// Wall-clock veto: when the round takes longer than this, the result
    /// is discarded (`applied = false`) — never truncated, which would
    /// trade determinism for latency.
    pub max_wall_clock: Option<Duration>,
    /// Optional EMA decay forwarded to [`TrainerOptions::ema`].
    pub ema: Option<f32>,
    /// Distinguishes successive rounds on similar corpora: folded into the
    /// training seed so round `n+1` does not replay round `n`'s batch
    /// sequence. Deterministic — the caller picks the salt.
    pub seed_salt: u64,
}

impl Default for FineTuneOptions {
    fn default() -> Self {
        FineTuneOptions {
            steps: 32,
            lr_scale: 0.25,
            max_wall_clock: None,
            ema: None,
            seed_salt: 0,
        }
    }
}

/// What one fine-tuning round did (returned alongside the candidate).
#[derive(Debug, Clone)]
pub struct FineTuneReport {
    /// Whether a candidate was produced. `false` means the base detector
    /// should keep serving unchanged (reason says why).
    pub applied: bool,
    /// Why no candidate was produced (`None` when `applied`).
    pub reason: Option<String>,
    /// Optimizer steps actually run.
    pub steps_run: usize,
    /// Sentinel trips during the round (rolled back and retried, same as
    /// full training).
    pub incidents: Vec<TrainIncident>,
    /// Last training loss (`None` when training never produced one).
    pub final_loss: Option<f32>,
    /// Wall-clock duration of the round.
    pub elapsed: Duration,
}

/// Result of [`FineTuner::run`]: an optional candidate detector plus the
/// round's report. The candidate is a fully fitted, independent detector —
/// hand it to a validation gate and then to
/// [`crate::streaming::StreamingMonitor::swap_detector`].
pub struct FineTuneOutcome {
    /// The fine-tuned detector (`None` when the round was vetoed).
    pub candidate: Option<ImDiffusionDetector>,
    /// What happened.
    pub report: FineTuneReport,
}

/// Incremental retrainer: see the module docs for the contract.
#[derive(Debug, Clone, Default)]
pub struct FineTuner {
    opts: FineTuneOptions,
}

impl FineTuner {
    pub fn new(opts: FineTuneOptions) -> Self {
        FineTuner { opts }
    }

    /// The options this tuner runs with.
    pub fn options(&self) -> &FineTuneOptions {
        &self.opts
    }

    /// Runs one fine-tuning round of `base` on `recent` (raw, un-normalized
    /// rows of the post-change distribution, chosen by the caller).
    ///
    /// Errors only on caller mistakes (unfitted base, channel mismatch,
    /// zero-step budget). Operational failures — corpus too small or
    /// non-finite, sentinel exhaustion, wall-clock veto — come back as a
    /// normal outcome with `applied = false`, because in a closed loop they
    /// mean "keep serving the incumbent", not "crash the controller".
    pub fn run(
        &self,
        base: &ImDiffusionDetector,
        recent: &Mts,
    ) -> Result<FineTuneOutcome, DetectorError> {
        let _span = obs::span("train.finetune.run");
        obs::counter("train.finetune.runs", 1);
        let (model, normalizer) = base
            .fitted_parts()
            .ok_or(DetectorError::NotFitted)?;
        let channels = base.channels().expect("fitted");
        if recent.dim() != channels {
            return Err(DetectorError::DimensionMismatch {
                expected: channels,
                actual: recent.dim(),
            });
        }
        if self.opts.steps == 0 {
            return Err(DetectorError::InvalidTrainingData(
                "fine-tune budget must be at least one step".into(),
            ));
        }
        let cfg = base.config();
        if recent.len() < cfg.window {
            return Ok(self.vetoed(
                format!(
                    "retrain corpus has {} rows, need at least the window ({})",
                    recent.len(),
                    cfg.window
                ),
                Duration::ZERO,
            ));
        }
        if let Err(e) = check_finite(recent, None) {
            return Ok(self.vetoed(format!("retrain corpus rejected: {e}"), Duration::ZERO));
        }

        let started = Instant::now();
        // Short-horizon trainer config: the architecture fields stay
        // identical (the candidate must be weight-compatible with the
        // incumbent); only the budget and learning rate change.
        let mut tune_cfg = cfg.clone();
        tune_cfg.train_steps = self.opts.steps;
        tune_cfg.lr = cfg.lr * self.opts.lr_scale;
        // The incumbent's normalizer, not a refit: candidate and incumbent
        // must score in the same units for the validation gate (and the
        // shard swap) to compare like with like.
        let corpus_n = normalizer.transform(recent);
        let student = crate::model::ImTransformer::new(&tune_cfg, channels, base.seed());
        for (p, live) in student.params().iter().zip(model.params()) {
            p.set_data(&live.to_vec());
        }
        let schedule = NoiseSchedule::new(tune_cfg.schedule, tune_cfg.diffusion_steps);
        let seed = (base.seed() ^ 0xF1_7E55)
            .wrapping_add(self.opts.seed_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let trainer = Trainer::new(TrainerOptions {
            ema: self.opts.ema,
            ..TrainerOptions::default()
        });
        let report = match trainer.run(&student, &tune_cfg, &schedule, &corpus_n, seed) {
            Ok(r) => r,
            // Sentinel exhaustion: the corpus poisoned training faster
            // than rollbacks could save it. The base keeps serving.
            Err(DetectorError::Internal(msg)) => {
                obs::counter("train.finetune.aborted", 1);
                return Ok(self.vetoed(
                    format!("divergence sentinels exhausted: {msg}"),
                    started.elapsed(),
                ));
            }
            Err(e) => return Err(e),
        };
        let elapsed = started.elapsed();
        if let Some(budget) = self.opts.max_wall_clock {
            if elapsed > budget {
                obs::counter("train.finetune.aborted", 1);
                let mut out = self.vetoed(
                    format!(
                        "round took {elapsed:?}, over the {budget:?} wall-clock budget"
                    ),
                    elapsed,
                );
                out.report.steps_run = report.losses.len();
                out.report.incidents = report.incidents;
                out.report.final_loss = report.losses.last().copied();
                return Ok(out);
            }
        }

        // Assemble the candidate: trained weights, the incumbent's
        // normalizer, and a drift reference re-baselined on the corpus.
        let mut candidate = ImDiffusionDetector::new(cfg.clone(), base.seed());
        candidate.init_untrained(channels);
        let (offset, scale) = normalizer.stats();
        candidate.set_normalizer_vectors(&offset, &scale);
        candidate
            .set_drift_reference(Some(DriftReference::from_series(recent, cfg.window)));
        let (cand_model, _) = candidate.fitted_parts().expect("just initialised");
        for (p, trained) in cand_model.params().iter().zip(student.params()) {
            p.set_data(&trained.to_vec());
        }
        obs::counter("train.finetune.applied", 1);
        Ok(FineTuneOutcome {
            candidate: Some(candidate),
            report: FineTuneReport {
                applied: true,
                reason: None,
                steps_run: report.losses.len(),
                final_loss: report.losses.last().copied(),
                incidents: report.incidents,
                elapsed,
            },
        })
    }

    fn vetoed(&self, reason: String, elapsed: Duration) -> FineTuneOutcome {
        FineTuneOutcome {
            candidate: None,
            report: FineTuneReport {
                applied: false,
                reason: Some(reason),
                steps_run: 0,
                incidents: Vec::new(),
                final_loss: None,
                elapsed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamingMonitor;
    use crate::ImDiffusionConfig;
    use imdiff_data::scenario::{drift, ScenarioProfile};
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

    fn slice_rows(series: &Mts, from: usize, to: usize) -> Mts {
        let k = series.dim();
        let mut data = Vec::with_capacity((to - from) * k);
        for l in from..to {
            data.extend_from_slice(series.row(l));
        }
        Mts::new(data, to - from, k)
    }

    #[test]
    fn finetune_is_deterministic_and_nondestructive() {
        let sc = drift(&ScenarioProfile::quick(), 31);
        let mut base = ImDiffusionDetector::new(tiny_cfg(), 4);
        base.fit(&sc.train).unwrap();
        let before = base.to_spec().unwrap();
        let corpus = slice_rows(&sc.stream, sc.stream.len() - 80, sc.stream.len());

        let tuner = FineTuner::new(FineTuneOptions {
            steps: 6,
            ..FineTuneOptions::default()
        });
        let a = tuner.run(&base, &corpus).unwrap();
        let b = tuner.run(&base, &corpus).unwrap();
        assert!(a.report.applied && b.report.applied);
        let (ca, cb) = (a.candidate.unwrap(), b.candidate.unwrap());
        assert_eq!(ca.to_spec().unwrap().weights(), cb.to_spec().unwrap().weights());
        // The base detector is untouched.
        assert_eq!(base.to_spec().unwrap().weights(), before.weights());
        // And the candidate differs from the base (training happened).
        assert_ne!(ca.to_spec().unwrap().weights(), before.weights());
        // A different salt takes a different trajectory.
        let salted = FineTuner::new(FineTuneOptions {
            steps: 6,
            seed_salt: 1,
            ..FineTuneOptions::default()
        })
        .run(&base, &corpus)
        .unwrap();
        assert_ne!(
            salted.candidate.unwrap().to_spec().unwrap().weights(),
            ca.to_spec().unwrap().weights()
        );
    }

    #[test]
    fn finetune_rebaselines_drift_reference() {
        let sc = drift(&ScenarioProfile::quick(), 32);
        let mut base = ImDiffusionDetector::new(tiny_cfg(), 4);
        base.fit(&sc.train).unwrap();
        let corpus = slice_rows(&sc.stream, sc.stream.len() - 80, sc.stream.len());
        let out = FineTuner::new(FineTuneOptions {
            steps: 4,
            ..FineTuneOptions::default()
        })
        .run(&base, &corpus)
        .unwrap();
        let candidate = out.candidate.unwrap();
        let expected = DriftReference::from_series(&corpus, tiny_cfg().window);
        assert_eq!(candidate.drift_reference(), Some(&expected));
        assert_ne!(candidate.drift_reference(), base.drift_reference());
    }

    #[test]
    fn small_or_poisoned_corpus_is_vetoed_not_fatal() {
        let sc = drift(&ScenarioProfile::quick(), 33);
        let mut base = ImDiffusionDetector::new(tiny_cfg(), 4);
        base.fit(&sc.train).unwrap();
        let tuner = FineTuner::new(FineTuneOptions {
            steps: 4,
            ..FineTuneOptions::default()
        });

        let tiny = slice_rows(&sc.stream, 0, 8);
        let out = tuner.run(&base, &tiny).unwrap();
        assert!(!out.report.applied && out.candidate.is_none());
        assert!(out.report.reason.as_deref().unwrap().contains("corpus"));

        let mut data = Vec::new();
        for l in 0..32 {
            data.extend_from_slice(sc.stream.row(l));
        }
        data[40] = f32::NAN;
        let poisoned = Mts::new(data, 32, sc.stream.dim());
        let out = tuner.run(&base, &poisoned).unwrap();
        assert!(!out.report.applied && out.candidate.is_none());
        assert!(out.report.reason.as_deref().unwrap().contains("non-finite"));
    }

    #[test]
    fn wall_clock_veto_discards_candidate() {
        let sc = drift(&ScenarioProfile::quick(), 34);
        let mut base = ImDiffusionDetector::new(tiny_cfg(), 4);
        base.fit(&sc.train).unwrap();
        let corpus = slice_rows(&sc.stream, 0, 80);
        let out = FineTuner::new(FineTuneOptions {
            steps: 4,
            max_wall_clock: Some(Duration::ZERO),
            ..FineTuneOptions::default()
        })
        .run(&base, &corpus)
        .unwrap();
        assert!(!out.report.applied && out.candidate.is_none());
        assert!(out.report.reason.as_deref().unwrap().contains("wall-clock"));
        assert!(out.report.steps_run > 0, "training still ran to completion");
    }

    #[test]
    fn candidate_swaps_into_monitor_and_clears_drift() {
        let sc = drift(&ScenarioProfile::quick(), 35);
        let mut base = ImDiffusionDetector::new(tiny_cfg(), 4);
        base.fit(&sc.train).unwrap();
        let mut monitor = StreamingMonitor::new(base, sc.train.dim(), 8).unwrap();
        assert!(monitor.set_drift_policy(3.0, 2));
        for l in 0..sc.stream.len() {
            monitor.push(sc.stream.row(l)).unwrap();
        }
        assert!(monitor.drift_status().drifted, "scenario must trip drift");
        let corpus = slice_rows(&sc.stream, sc.stream.len() - 120, sc.stream.len());

        let out = FineTuner::new(FineTuneOptions {
            steps: 6,
            ..FineTuneOptions::default()
        })
        .run(monitor.detector(), &corpus)
        .unwrap();
        let candidate = out.candidate.expect("healthy corpus fine-tunes");
        monitor.swap_detector(candidate).unwrap();
        assert!(!monitor.drift_status().drifted, "swap re-baselines drift");
    }
}
