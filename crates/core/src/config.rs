//! Configuration of the ImDiffusion pipeline (Table 1 of the paper).

use imdiff_data::mask::MaskStrategy;
use imdiff_diffusion::BetaSchedule;

/// Which self-supervised prediction task drives the detector.
///
/// The paper's ablation (§5.3.1) compares all three; ImDiffusion proper
/// uses [`TaskMode::Imputation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskMode {
    /// Grating/random masking + imputation (the ImDiffusion design).
    Imputation,
    /// The second half of each window is masked given the first half.
    Forecasting,
    /// The entire window is corrupted and reconstructed.
    Reconstruction,
}

/// Hyper-parameters of the ImDiffusion detector.
///
/// [`ImDiffusionConfig::paper`] matches Table 1; [`ImDiffusionConfig::quick`]
/// is a reduced-scale variant sized so the full evaluation suite runs on a
/// single CPU core (see DESIGN.md, substitution 1).
#[derive(Debug, Clone)]
pub struct ImDiffusionConfig {
    /// Detection window size (Table 1: 100).
    pub window: usize,
    /// Stride between training windows.
    pub train_stride: usize,
    /// Masking strategy (Table 1: grating with 5 masked + 5 unmasked).
    pub mask: MaskStrategy,
    /// Self-supervised task mode.
    pub task: TaskMode,
    /// Unconditional (noise-reference) vs conditional (value-reference)
    /// diffusion (§4.1). ImDiffusion uses unconditional = true.
    pub unconditional: bool,
    /// Number of ImTransformer residual blocks (Table 1: 4).
    pub residual_blocks: usize,
    /// Hidden dimension (Table 1: 128).
    pub hidden: usize,
    /// Attention heads in the temporal/spatial transformers.
    pub heads: usize,
    /// Include the temporal transformer (ablation §5.3.5).
    pub use_temporal: bool,
    /// Include the spatial transformer (ablation §5.3.5).
    pub use_spatial: bool,
    /// Total denoising steps T (Table 1: 50).
    pub diffusion_steps: usize,
    /// β schedule.
    pub schedule: BetaSchedule,
    /// Number of optimizer steps during training.
    pub train_steps: usize,
    /// Mini-batch size (windows per optimizer step).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient-clipping norm.
    pub grad_clip: f32,
    /// Ensemble voting on intermediate denoising steps (§4.5). When false,
    /// only the final step's error is thresholded (the non-ensemble
    /// ablation).
    pub ensemble: bool,
    /// Vote at every `vote_every`-th step among the last `vote_span`
    /// denoising steps (paper: every 3 of the last 30).
    pub vote_every: usize,
    /// See [`ImDiffusionConfig::vote_every`].
    pub vote_span: usize,
    /// Accelerated DDIM sampling (extension): when `Some(n)`, the reverse
    /// chain visits only `n` evenly spaced steps deterministically instead
    /// of all `diffusion_steps`, trading a little accuracy for inference
    /// throughput (the paper's §6 production constraint). `None` = full
    /// DDPM chain, as in the paper.
    pub ddim_steps: Option<usize>,
}

impl ImDiffusionConfig {
    /// The paper's Table 1 hyper-parameters.
    pub fn paper() -> Self {
        ImDiffusionConfig {
            window: 100,
            train_stride: 50,
            mask: MaskStrategy::Grating {
                masked_windows: 5,
                unmasked_windows: 5,
            },
            task: TaskMode::Imputation,
            unconditional: true,
            residual_blocks: 4,
            hidden: 128,
            heads: 8,
            use_temporal: true,
            use_spatial: true,
            diffusion_steps: 50,
            schedule: BetaSchedule::default_for_imputation(),
            train_steps: 1500,
            batch_size: 8,
            lr: 1e-3,
            grad_clip: 1.0,
            ensemble: true,
            vote_every: 3,
            vote_span: 30,
            ddim_steps: None,
        }
    }

    /// Reduced-scale configuration for single-core CPU runs. The
    /// architecture and algorithms are identical; only widths, depth and
    /// step counts shrink.
    pub fn quick() -> Self {
        ImDiffusionConfig {
            window: 48,
            train_stride: 24,
            mask: MaskStrategy::Grating {
                masked_windows: 5,
                unmasked_windows: 5,
            },
            task: TaskMode::Imputation,
            unconditional: true,
            residual_blocks: 1,
            hidden: 16,
            heads: 2,
            use_temporal: true,
            use_spatial: true,
            diffusion_steps: 16,
            schedule: BetaSchedule::default_for_imputation(),
            train_steps: 150,
            batch_size: 4,
            lr: 2e-3,
            grad_clip: 1.0,
            ensemble: true,
            vote_every: 2,
            vote_span: 10,
            ddim_steps: None,
        }
    }

    /// Picks `paper()` or `quick()` from the `IMDIFF_PROFILE` env var
    /// (mirrors [`imdiff_data::synthetic::SizeProfile::from_env`]).
    pub fn from_env() -> Self {
        match std::env::var("IMDIFF_PROFILE").as_deref() {
            Ok("paper") => Self::paper(),
            _ => Self::quick(),
        }
    }

    /// The descending sequence of diffusion steps the reverse chain
    /// visits: all of `1..=T` for DDPM, or `ddim_steps` evenly spaced
    /// steps (always including `T` and `1`) for accelerated sampling.
    pub fn reverse_steps(&self) -> Vec<usize> {
        let t_max = self.diffusion_steps;
        match self.ddim_steps {
            None => (1..=t_max).rev().collect(),
            Some(n) => {
                // Exactly `n` strictly decreasing steps anchored at T and 1.
                // Rounding two ideal positions onto the same integer would
                // silently shrink the chain, so each step is clamped into
                // the window that keeps the sequence strictly decreasing
                // while leaving room for the `n - i - 1` steps below it.
                let mut steps: Vec<usize> = Vec::with_capacity(n);
                let mut prev = t_max + 1;
                for i in 0..n {
                    let frac = i as f64 / (n - 1) as f64;
                    let raw = (t_max as f64 + frac * (1.0 - t_max as f64)).round() as usize;
                    let step = raw.min(prev - 1).max(n - i);
                    steps.push(step);
                    prev = step;
                }
                steps
            }
        }
    }

    /// The denoising steps participating in the ensemble vote: every
    /// `vote_every`-th of the last `vote_span` *visited* steps, always
    /// including the final step for the Eq. (12) baseline τ_T.
    pub fn vote_steps_among(&self, visited: &[usize]) -> Vec<usize> {
        let last = *visited.last().expect("non-empty reverse chain");
        if !self.ensemble {
            return vec![last];
        }
        // The span counts *visited* steps, not step values: a sparse DDIM
        // chain visits few steps, and filtering by value (`s <= span`)
        // could leave one or two voters while ξ, half the vote count, still
        // assumes a full ensemble. For a dense DDPM chain the last `span`
        // visited steps are exactly the steps with value ≤ span, so this
        // is bit-identical to the historical behavior there.
        let span = self.vote_span.min(visited.len()).max(1);
        // Ascending within the span, starting at the final step so the
        // Eq. (12) baseline is always in the vote set; then reversed to
        // match the t = T..1 loop order.
        let mut within: Vec<usize> = visited[visited.len() - span..].to_vec();
        within.reverse();
        let mut picked: Vec<usize> = within.into_iter().step_by(self.vote_every.max(1)).collect();
        picked.reverse();
        if picked.is_empty() {
            picked.push(last);
        }
        picked
    }

    /// [`Self::vote_steps_among`] applied to the full reverse chain.
    pub fn vote_steps(&self) -> Vec<usize> {
        self.vote_steps_among(&self.reverse_steps())
    }

    /// Validates internal consistency, panicking with a clear message on
    /// nonsensical combinations (programmer error).
    pub fn validate(&self) {
        assert!(self.window >= 8, "window too small");
        assert!(self.hidden.is_multiple_of(self.heads), "hidden must divide by heads");
        assert!(self.diffusion_steps >= 2, "need at least 2 diffusion steps");
        assert!(self.batch_size >= 1 && self.train_steps >= 1);
        if let Some(n) = self.ddim_steps {
            assert!(
                n >= 2 && n <= self.diffusion_steps,
                "ddim_steps must be in 2..=diffusion_steps"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let c = ImDiffusionConfig::paper();
        assert_eq!(c.window, 100);
        assert_eq!(c.residual_blocks, 4);
        assert_eq!(c.hidden, 128);
        assert_eq!(c.diffusion_steps, 50);
        match c.mask {
            MaskStrategy::Grating {
                masked_windows,
                unmasked_windows,
            } => {
                assert_eq!(masked_windows, 5);
                assert_eq!(unmasked_windows, 5);
            }
            _ => panic!("paper config must use grating"),
        }
        c.validate();
    }

    #[test]
    fn paper_vote_steps_match_section_4_5() {
        // "sample every 3 steps from the last 30 denoising steps".
        let c = ImDiffusionConfig::paper();
        let steps = c.vote_steps();
        assert_eq!(steps.len(), 10);
        assert!(steps.contains(&1));
        assert!(steps.iter().all(|&s| (1..=30).contains(&s)));
        for w in steps.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn non_ensemble_votes_only_final_step() {
        let c = ImDiffusionConfig {
            ensemble: false,
            ..ImDiffusionConfig::quick()
        };
        assert_eq!(c.vote_steps(), vec![1]);
    }

    #[test]
    fn quick_config_valid() {
        let c = ImDiffusionConfig::quick();
        c.validate();
        assert!(crate::infer::vote_threshold(c.vote_steps().len()) >= 1);
        assert!(!c.vote_steps().is_empty());
    }

    #[test]
    fn vote_span_clamped_to_t() {
        let c = ImDiffusionConfig {
            diffusion_steps: 5,
            vote_span: 30,
            vote_every: 2,
            ..ImDiffusionConfig::quick()
        };
        let steps = c.vote_steps();
        assert!(steps.iter().all(|&s| (1..=5).contains(&s)));
    }

    #[test]
    fn ddpm_reverse_visits_every_step() {
        let c = ImDiffusionConfig::quick();
        let steps = c.reverse_steps();
        assert_eq!(steps.len(), c.diffusion_steps);
        assert_eq!(steps.first(), Some(&c.diffusion_steps));
        assert_eq!(steps.last(), Some(&1));
    }

    #[test]
    fn ddim_reverse_is_sparse_and_anchored() {
        let c = ImDiffusionConfig {
            ddim_steps: Some(5),
            ..ImDiffusionConfig::quick()
        };
        c.validate();
        let steps = c.reverse_steps();
        assert_eq!(steps.len(), 5);
        assert_eq!(steps.first(), Some(&c.diffusion_steps));
        assert_eq!(steps.last(), Some(&1));
        for w in steps.windows(2) {
            assert!(w[0] > w[1]);
        }
        // Vote steps must be a subset of visited steps.
        let votes = c.vote_steps_among(&steps);
        assert!(!votes.is_empty());
        for v in &votes {
            assert!(steps.contains(v));
        }
        assert_eq!(votes.last(), Some(&1));
    }

    /// Every legal (T, n) pair yields exactly `n` strictly decreasing
    /// steps anchored at T and 1 — `dedup()` used to silently return
    /// fewer than requested whenever rounding collided.
    #[test]
    fn ddim_reverse_always_returns_exact_count() {
        for t in 2..=60usize {
            for n in 2..=t {
                let c = ImDiffusionConfig {
                    diffusion_steps: t,
                    ddim_steps: Some(n),
                    ..ImDiffusionConfig::quick()
                };
                let steps = c.reverse_steps();
                assert_eq!(steps.len(), n, "T={t} n={n}: {steps:?}");
                assert_eq!(steps.first(), Some(&t), "T={t} n={n}");
                assert_eq!(steps.last(), Some(&1), "T={t} n={n}");
                for w in steps.windows(2) {
                    assert!(w[0] > w[1], "T={t} n={n}: not decreasing: {steps:?}");
                }
            }
        }
    }

    /// The vote span counts visited steps: a sparse DDIM chain keeps a
    /// full ensemble instead of shrinking to the 1–2 visited steps whose
    /// *value* happens to fall at or below `vote_span`.
    #[test]
    fn ddim_vote_set_spans_visited_steps_not_values() {
        let c = ImDiffusionConfig {
            diffusion_steps: 50,
            ddim_steps: Some(5),
            vote_span: 30,
            vote_every: 1,
            ..ImDiffusionConfig::quick()
        };
        let visited = c.reverse_steps();
        assert_eq!(visited.len(), 5);
        let votes = c.vote_steps_among(&visited);
        // All five visited steps vote (span 30 covers the whole chain);
        // the value filter used to leave only those with value ≤ 30.
        assert_eq!(votes, visited);
        // ξ is sized for the true ensemble, not the 30-voter full chain.
        let xi = crate::infer::vote_threshold(votes.len());
        assert!(xi < votes.len(), "threshold {xi} unreachable by {} voters", votes.len());
        assert_eq!(xi, votes.len() / 2);
    }

    /// For a full DDPM chain the visited-span semantics reduce to the
    /// historical value filter, keeping existing verdicts bit-identical.
    #[test]
    fn ddpm_vote_set_unchanged_by_visited_span_semantics() {
        for t in [5usize, 10, 50] {
            for span in [3usize, 5, 30, 100] {
                for every in [1usize, 2, 3] {
                    let c = ImDiffusionConfig {
                        diffusion_steps: t,
                        vote_span: span,
                        vote_every: every,
                        ..ImDiffusionConfig::quick()
                    };
                    let visited = c.reverse_steps();
                    let eff = span.min(t).max(1);
                    let legacy: Vec<usize> = {
                        let mut within: Vec<usize> =
                            visited.iter().copied().filter(|&s| s <= eff).collect();
                        within.reverse();
                        let mut picked: Vec<usize> =
                            within.into_iter().step_by(every.max(1)).collect();
                        picked.reverse();
                        picked
                    };
                    assert_eq!(c.vote_steps_among(&visited), legacy, "T={t} span={span} every={every}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ddim_steps must be in")]
    fn ddim_steps_validated() {
        let c = ImDiffusionConfig {
            ddim_steps: Some(1),
            ..ImDiffusionConfig::quick()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "divide by heads")]
    fn validate_rejects_bad_heads() {
        let c = ImDiffusionConfig {
            hidden: 10,
            heads: 4,
            ..ImDiffusionConfig::quick()
        };
        c.validate();
    }
}
