//! Ensemble anomaly inference (§4.5, Algorithm 1, Eq. 12).

use imdiff_data::{coverage_starts, Mts};
use imdiff_diffusion::NoiseSchedule;
use imdiff_nn::layers::Module;
use imdiff_nn::obs;
use imdiff_nn::pool;
use imdiff_nn::rng::{normal, seeded};
use imdiff_nn::Tensor;
use rand::rngs::StdRng;

use crate::config::{ImDiffusionConfig, TaskMode};
use crate::model::ImTransformer;
use crate::trainer::{mask_channel_major, task_masks, window_channel_major};

/// Windows batched per chain task. Fixed — never derived from the thread
/// count — so the partition of windows into denoising chains (and with it
/// every f32/f64 accumulation order) is identical at any parallelism.
const GROUP_WINDOWS: usize = 8;

/// Range the per-step `x̂_0` estimate is clamped to during the reverse
/// chain (the standard DDPM stabilizer). Data is min-max normalized to
/// roughly `[0, 1]`, so a generous margin is used.
const X0_CLAMP: (f32, f32) = (-2.0, 3.0);

/// Upper percentile of the final step's errors that sets the baseline
/// threshold τ_T of Eq. (12).
const TAU_PERCENTILE: f64 = 98.0;

/// The vote threshold ξ of Eq. (12) as a fraction of the vote count, so
/// it adapts to the ensemble actually run.
const VOTE_THRESHOLD_FRAC: f64 = 0.5;

/// The absolute vote threshold ξ of Eq. (12), `y = 1(V > ξ)`, for an
/// ensemble of `n_votes` vote steps: sized by the vote set actually run,
/// so a sparse DDIM chain is judged against its own ensemble size rather
/// than the full DDPM chain's.
pub(crate) fn vote_threshold(n_votes: usize) -> usize {
    ((n_votes as f64) * VOTE_THRESHOLD_FRAC).floor() as usize
}

/// Per-window RNG stream: the seed is mixed with the window index by a
/// golden-ratio multiply, then expanded through `seed_from_u64`'s
/// SplitMix64. Each window owns its noise stream, so a window's chain is
/// reproducible no matter which worker (or group) executes it.
fn window_rng(seed: u64, wi: usize) -> StdRng {
    seeded(seed ^ (wi as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Rebuilds the denoiser from a parameter snapshot. `Tensor` is
/// `Rc`-based (thread-local); workers get their own model built from the
/// plain-`f32` snapshot, which *is* `Send`.
pub(crate) fn model_from_snapshot(
    cfg: &ImDiffusionConfig,
    k: usize,
    snapshot: &[Vec<f32>],
) -> ImTransformer {
    let model = ImTransformer::new(cfg, k, 0);
    let params = model.params();
    assert_eq!(params.len(), snapshot.len(), "snapshot arity mismatch");
    for (p, s) in params.iter().zip(snapshot) {
        p.set_data(s);
    }
    model
}

/// Per-group accumulators in window-local, channel-major layout
/// (`wl * K * W + c * W + t`): squared imputation error and imputed-value
/// sums per vote step, plus the coverage counters.
struct GroupAccum {
    err: Vec<Vec<f64>>,
    imp: Vec<Vec<f64>>,
    cnt: Vec<f64>,
    imp_cnt: Vec<f64>,
}

/// Read-only context shared by every denoising-chain task: the run's
/// configuration, schedule and mask policies plus the step plan.
struct ChainCtx<'a> {
    cfg: &'a ImDiffusionConfig,
    schedule: &'a NoiseSchedule,
    policy_masks: &'a [(Vec<f32>, Vec<f32>)],
    reverse_steps: &'a [usize],
    vote_steps: &'a [usize],
    k: usize,
    w: usize,
}

impl ChainCtx<'_> {
    /// Runs the full reverse chain for one group of windows under every
    /// mask policy, the windows batched into one model forward per step.
    /// `x0` is the group's channel-major window data, `wmiss` its
    /// per-window missing flags, and `rngs[wl]` the noise stream window
    /// `wl` draws *all* its variates from — a group's output depends only
    /// on its windows and their streams, never on grouping or threads.
    fn run_chain(
        &self,
        model: &ImTransformer,
        x0: &[f32],
        wmiss: &[Vec<bool>],
        mut rngs: Vec<StdRng>,
    ) -> GroupAccum {
        let _grp = obs::span("infer.group");
        let (cfg, schedule) = (self.cfg, self.schedule);
        let (k, w) = (self.k, self.w);
        let cell = k * w;
        let gw = wmiss.len();
        debug_assert_eq!(x0.len(), gw * cell);
        debug_assert_eq!(rngs.len(), gw);
        obs::histogram("infer.group_windows", gw as f64);
        let gcell = gw * cell;
        let n_votes = self.vote_steps.len();
        // Draws `cell` variates per window, each from that window's own
        // stream, in fixed window order.
        let draw = |rngs: &mut [StdRng]| -> Vec<f32> {
            let mut buf = vec![0.0f32; gcell];
            for (wl, r) in rngs.iter_mut().enumerate() {
                for v in &mut buf[wl * cell..(wl + 1) * cell] {
                    *v = normal(r);
                }
            }
            buf
        };
        let mut acc = GroupAccum {
            err: vec![vec![0.0f64; gcell]; n_votes],
            imp: vec![vec![0.0f64; gcell]; n_votes],
            cnt: vec![0.0f64; gcell],
            imp_cnt: vec![0.0f64; gcell],
        };

        for (pi, (obs, tgt)) in self.policy_masks.iter().enumerate() {
            // Initial noise on the masked region (X_T, Algorithm 1 line 2).
            let mut x_cur = draw(&mut rngs);
            let policies_vec = vec![pi; gw];
            let mut steps_buf = vec![0usize; gw];

            for (step_idx, &t) in self.reverse_steps.iter().enumerate() {
                let _den = obs::span("infer.denoise_step");
                let t_prev = self.reverse_steps.get(step_idx + 1).copied().unwrap_or(0);
                // Fresh forward noise for the observed region (ε_t^{M1}).
                let eps_ref = draw(&mut rngs);
                let mut x_val = vec![0.0f32; gcell];
                let mut x_ref = vec![0.0f32; gcell];
                let sab = schedule.sqrt_alpha_bar(t);
                let somab = schedule.sqrt_one_minus_alpha_bar(t);
                for (wl, wm) in wmiss.iter().enumerate() {
                    let base = wl * cell;
                    for j in 0..cell {
                        // Missing cells are imputation targets under every
                        // policy: the model must never condition on their
                        // placeholder values.
                        let (o, gt) = if wm[j] { (0.0, 1.0) } else { (obs[j], tgt[j]) };
                        if cfg.unconditional {
                            // Observed cells follow their known forward
                            // trajectory (ground truth + sampled noise);
                            // masked cells carry the reverse-chain iterate.
                            // The noise reference ε_t^{M1} is what makes the
                            // observed part decodable (§4.1).
                            let xt_obs = sab * x0[base + j] + somab * eps_ref[base + j];
                            x_val[base + j] = x_cur[base + j] * gt + xt_obs * o;
                            x_ref[base + j] = eps_ref[base + j] * o;
                        } else {
                            x_val[base + j] = x_cur[base + j] * gt;
                            x_ref[base + j] = x0[base + j] * o;
                        }
                    }
                }
                steps_buf.iter_mut().for_each(|s| *s = t);
                let x_val_t = Tensor::from_vec(x_val, &[gw, k, w]).expect("x_val shape");
                let x_ref_t = Tensor::from_vec(x_ref, &[gw, k, w]).expect("x_ref shape");
                let eps_hat = model.forward(&x_val_t, &x_ref_t, &steps_buf, &policies_vec);

                // Reverse transition (Algorithm 1 line 6 / Eq. 9) through
                // the clamped-x̂0 parameterization: the x̂0 estimate is
                // clipped to the (normalized) data range every step so
                // imperfect noise predictions cannot compound into
                // divergence — the standard DDPM sampling stabilizer.
                let (clamp_lo, clamp_hi) = X0_CLAMP;
                let mut x0_hat = {
                    let eps_hat_d = eps_hat.data();
                    schedule.predict_x0(&x_cur, &eps_hat_d, t)
                };
                for v in &mut x0_hat {
                    *v = v.clamp(clamp_lo, clamp_hi);
                }
                let x_prev = if cfg.ddim_steps.is_some() {
                    // Deterministic DDIM jump to the next visited step.
                    if t_prev == 0 {
                        x0_hat.clone()
                    } else {
                        schedule.ddim_step(&x_cur, &x0_hat, t, t_prev)
                    }
                } else {
                    let z = draw(&mut rngs);
                    schedule.p_step_from_x0(&x_cur, &x0_hat, t, &z)
                };

                if let Some(vi) = self.vote_steps.iter().position(|&vs| vs == t) {
                    // Record the prediction error E_t on the masked region
                    // (Algorithm 1 line 7). The prediction read out at step
                    // t is the deterministic x̂_0 implied by ε̂ — the same
                    // information as X_{t-1} but without the freshly
                    // injected sampling noise, which keeps the error signal
                    // low-variance.
                    for (wl, wm) in wmiss.iter().enumerate() {
                        let base = wl * cell;
                        for j in 0..cell {
                            let miss = wm[j];
                            if miss || tgt[j] == 1.0 {
                                let lj = base + j;
                                let pred = x0_hat[lj] as f64;
                                acc.imp[vi][lj] += pred;
                                if vi == 0 {
                                    acc.imp_cnt[lj] += 1.0;
                                }
                                // Missing cells have no ground truth: they
                                // are imputed but never scored.
                                if !miss {
                                    let truth = x0[lj] as f64;
                                    acc.err[vi][lj] += (truth - pred) * (truth - pred);
                                    if vi == 0 {
                                        acc.cnt[lj] += 1.0;
                                    }
                                }
                            }
                        }
                    }
                }
                x_cur = x_prev;
            }
        }
        acc
    }
}

/// Runs `n_groups` chain tasks: in parallel chunks when the pool has
/// width to spend (each worker rebuilds the model from a plain-`f32`
/// snapshot, since tensors are thread-local), serially on the caller's
/// model otherwise. Chunking only changes which worker runs a group,
/// never its result.
///
/// Every chain runs in tape-free forward-only mode (no autodiff graph,
/// arena-recycled buffers), entered on whichever thread runs it.
/// Forward-only results are bit-identical to the tape path on the same
/// dispatch tier.
fn run_groups<F>(
    model: &ImTransformer,
    cfg: &ImDiffusionConfig,
    k: usize,
    n_groups: usize,
    run_group: F,
) -> Vec<GroupAccum>
where
    F: Fn(&ImTransformer, usize) -> GroupAccum + Sync,
{
    let width = pool::max_threads().min(n_groups);
    if width > 1 {
        let snapshot: Vec<Vec<f32>> = model.params().iter().map(|p| p.to_vec()).collect();
        let chunk = n_groups.div_ceil(width);
        let per_chunk = pool::parallel_map(width, 1, |ci| {
            imdiff_nn::forward_only(|| {
                let local = model_from_snapshot(cfg, k, &snapshot);
                (ci * chunk..((ci + 1) * chunk).min(n_groups))
                    .map(|g| run_group(&local, g))
                    .collect::<Vec<_>>()
            })
        });
        per_chunk.into_iter().flatten().collect()
    } else {
        imdiff_nn::forward_only(|| {
            (0..n_groups).map(|g| run_group(model, g)).collect()
        })
    }
}

/// Series-level accumulators in row-major `[L, K]` layout, folded from
/// window-local group accumulators in fixed window order (overlapping
/// tail windows make the f64 addition order-sensitive in the last bit).
/// Error and imputation coverage are tracked separately: missing cells
/// are imputed (`imp_count > 0`) but never scored (`count` stays 0).
struct SeriesAccum {
    err_sum: Vec<Vec<f64>>,
    imp_sum: Vec<Vec<f64>>,
    count: Vec<f64>,
    imp_count: Vec<f64>,
}

impl SeriesAccum {
    fn zeros(n_votes: usize, cells: usize) -> Self {
        SeriesAccum {
            err_sum: vec![vec![0.0f64; cells]; n_votes],
            imp_sum: vec![vec![0.0f64; cells]; n_votes],
            count: vec![0.0f64; cells],
            imp_count: vec![0.0f64; cells],
        }
    }

    /// Folds window `wl` of a group accumulator into the series sums at
    /// window start `start` (channel-major window-local layout
    /// `c * w + t` → row-major global `(start + t) * k + c`).
    fn merge_window(&mut self, acc: &GroupAccum, wl: usize, start: usize, k: usize, w: usize) {
        let cell = k * w;
        let base = wl * cell;
        let n_votes = self.err_sum.len();
        for c in 0..k {
            for tl in 0..w {
                let lj = base + c * w + tl;
                let global = (start + tl) * k + c;
                for vi in 0..n_votes {
                    self.err_sum[vi][global] += acc.err[vi][lj];
                    self.imp_sum[vi][global] += acc.imp[vi][lj];
                }
                self.count[global] += acc.cnt[lj];
                self.imp_count[global] += acc.imp_cnt[lj];
            }
        }
    }
}

/// Per-denoising-step record of the ensemble (one entry per vote step).
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// Denoising step `t` (1-based; 1 is the final, fully denoised step).
    pub t: usize,
    /// Per-timestamp imputation error, averaged over channels after
    /// per-channel robust rescaling (each channel's error is divided by its
    /// median error at the final step so noisy channels cannot drown the
    /// signal).
    pub error: Vec<f64>,
    /// The rescaled threshold τ_t of Eq. (12) applied at this step.
    pub tau: f64,
    /// The imputation-quality ratio `Σ E_base / Σ E_t` of Eq. (12).
    pub ratio: f64,
    /// The step-wise anomaly votes `Y_t` of Eq. (12).
    pub labels: Vec<bool>,
    /// The imputed series at this step, merged over windows and policies.
    pub imputed: Mts,
}

/// The full output of ensemble inference over a test series.
#[derive(Debug, Clone)]
pub struct EnsembleOutput {
    /// Continuous anomaly score per timestamp (quality-rescaled error,
    /// averaged over the vote steps) — used for threshold-free metrics.
    pub scores: Vec<f64>,
    /// Vote counts `V_l = Σ_t y_{t,l}` (Algorithm 1, line 12).
    pub votes: Vec<u32>,
    /// Final labels `y_l = 1(V_l > ξ)` (Algorithm 1, line 13).
    pub labels: Vec<bool>,
    /// One trace per vote step, ordered from `t = T` down to `t = 1`.
    pub steps: Vec<StepTrace>,
    /// The final-step baseline threshold τ_T of Eq. (12).
    pub tau_base: f64,
    /// The vote threshold ξ actually applied.
    pub vote_threshold: usize,
    /// Per-cell (timestamp × channel, row-major `[L, K]`) imputation error
    /// at the final denoising step, channel-scale normalized — the raw
    /// material for per-channel anomaly attribution.
    pub cell_error: Vec<f64>,
    /// Channel count `K` of the analysed series.
    pub channels: usize,
    /// Number of input cells treated as *missing* (declared via the
    /// missing mask or undeclared non-finite): they were forced to be
    /// imputation targets under every policy, contributed no error signal,
    /// and their values in the [`StepTrace::imputed`] series are pure
    /// model imputations.
    pub missing_cells: usize,
}

impl EnsembleOutput {
    /// Re-runs the Eq. (12) thresholding and vote with a different baseline
    /// threshold and vote threshold, without re-running the diffusion
    /// chain. The paper's τ and ξ are dataset-dependent; this is how the
    /// harness calibrates them cheaply.
    pub fn revote(&self, tau_base: f64, xi: usize) -> Vec<bool> {
        let len = self.scores.len();
        let mut votes = vec![0u32; len];
        for step in &self.steps {
            let tau = step.ratio * tau_base;
            for (v, &e) in votes.iter_mut().zip(&step.error) {
                if e >= tau {
                    *v += 1;
                }
            }
        }
        votes.iter().map(|&v| v as usize > xi).collect()
    }

    /// The per-timestamp error at the final (fully denoised) step.
    pub fn final_step_error(&self) -> &[f64] {
        &self
            .steps
            .last()
            .expect("ensemble always has at least one step")
            .error
    }

    /// Per-channel share of the imputation error at timestamp `l`
    /// (non-negative, sums to 1) — anomaly attribution: which channels
    /// drove the alarm.
    pub fn channel_attribution(&self, l: usize) -> Vec<f64> {
        let k = self.channels;
        let row = &self.cell_error[l * k..(l + 1) * k];
        let total: f64 = row.iter().sum();
        if total <= 0.0 {
            return vec![1.0 / k as f64; k];
        }
        row.iter().map(|&e| e / total).collect()
    }

    /// The `n` channels contributing most error at timestamp `l`, as
    /// `(channel index, error share)` sorted descending. NaN-tolerant:
    /// `total_cmp` ordering, so corrupt attributions cannot panic the sort.
    pub fn top_channels(&self, l: usize, n: usize) -> Vec<(usize, f64)> {
        let attr = self.channel_attribution(l);
        let mut ranked: Vec<(usize, f64)> = attr.into_iter().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(n);
        ranked
    }
}

/// Resolves the effective missing set (declared ∪ non-finite) and
/// sanitizes the series: missing cells are forward-filled with the
/// channel's last trusted value (0.0 before any), so the masked-region
/// arithmetic (`x · tgt`) never multiplies NaN and the reverse chain
/// stays finite. The fill is a *placeholder*, not a prediction — these
/// cells are always imputation targets, so the model never conditions on
/// them. Returns the sanitized series, the row-major missing bitmap and
/// the missing-cell count.
fn sanitize_missing(test: &Mts, missing: Option<&[bool]>) -> (Mts, Vec<bool>, usize) {
    let (len, k) = (test.len(), test.dim());
    let mut missing_bits = vec![false; len * k];
    if let Some(m) = missing {
        assert_eq!(m.len(), len * k, "missing mask length mismatch");
        missing_bits.copy_from_slice(m);
    }
    for l in 0..len {
        for c in 0..k {
            if !test.get(l, c).is_finite() {
                missing_bits[l * k + c] = true;
            }
        }
    }
    let missing_cells = missing_bits.iter().filter(|&&b| b).count();
    let mut t = test.clone();
    if missing_cells > 0 {
        let mut last = vec![0.0f32; k];
        for l in 0..len {
            for c in 0..k {
                if missing_bits[l * k + c] {
                    t.set(l, c, last[c]);
                } else {
                    last[c] = t.get(l, c);
                }
            }
        }
    }
    (t, missing_bits, missing_cells)
}

/// Runs Algorithm 1 over a batch of (normalized) test series — the one
/// inference entry, for whole-series detection and for the serving
/// layer's micro-batches of single-window requests alike.
///
/// Each element of `batch` is a series of at least `cfg.window` rows
/// with an optional row-major `[L, K]` *missing-cell* mask (`true` marks
/// values that are unreliable or absent: lost samples, offline sensors,
/// gap-bridged rows). Each series is tiled with coverage windows; all
/// windows of the batch run their reverse diffusion chains in fixed-size
/// groups: starting from Gaussian noise on the masked region, the model
/// denoises step by step, conditioned on fresh forward noise drawn for
/// the observed region (the unconditional design of §4.1; the
/// conditional ablation feeds raw observed values instead). Imputation
/// errors are recorded at every vote step, merged across the
/// complementary policies, thresholded with Eq. (12) and aggregated by
/// voting — per series, by `finalize`.
///
/// Missing cells are folded into the grating mask: they are forced to be
/// imputation targets under **both** complementary policies, so the
/// diffusion model imputes them natively from the surviving context — the
/// §4.1/§4.2 semantics extended to genuinely absent data. Because a
/// missing cell has no ground truth, it contributes no imputation error
/// (it receives the step's neutral mean error, like uncovered cells) but
/// its imputed value *is* recorded, turning the detector into an online
/// repair mechanism. Undeclared non-finite values are folded into the
/// missing set defensively so the chain arithmetic stays finite.
///
/// Each output is **bit-identical** to scoring its series alone: every
/// window draws its noise from `window_rng(seed, i)` with `i` its index
/// within its own series, the mask policies derive from `seed` alone, and
/// all post-chain statistics (channel scales, the τ percentile, Eq. 12
/// ratios, score smoothing) are computed per series. Batching only
/// changes how many windows share one model forward; the blocked kernels
/// accumulate each output element in a batch-size-independent order, so
/// no bit changes.
pub fn ensemble_infer(
    model: &ImTransformer,
    cfg: &ImDiffusionConfig,
    schedule: &NoiseSchedule,
    batch: &[(&Mts, Option<&[bool]>)],
    seed: u64,
) -> Vec<EnsembleOutput> {
    let _ens = obs::span("infer.ensemble");
    cfg.validate();
    let (k, w) = (model.channels(), cfg.window);
    let cell = k * w;
    let stride = match cfg.task {
        TaskMode::Forecasting => (w / 2).max(1),
        _ => w,
    };

    let series: Vec<(Mts, Vec<bool>, usize)> = batch
        .iter()
        .map(|&(test, missing)| {
            assert_eq!(test.dim(), k, "test data channel mismatch");
            assert!(test.len() >= w, "series shorter than one window");
            sanitize_missing(test, missing)
        })
        .collect();
    // Every window of the batch as (series, index within series, start).
    let windows: Vec<(usize, usize, usize)> = series
        .iter()
        .enumerate()
        .flat_map(|(si, (test, _, _))| {
            coverage_starts(test.len(), w, stride)
                .into_iter()
                .enumerate()
                .map(move |(wi, start)| (si, wi, start))
        })
        .collect();
    let nw = windows.len();

    let reverse_steps = cfg.reverse_steps(); // descending, ends at 1
    let vote_steps = cfg.vote_steps_among(&reverse_steps);
    let n_votes = vote_steps.len();

    // Mask policies draw from their own stream so window RNG derivation
    // stays independent of how many masks the task mode samples.
    let mut mask_rng = seeded(seed ^ 0x1fe2_77ab);
    let policies = task_masks(cfg, &mut mask_rng, w, k);
    let policy_masks: Vec<(Vec<f32>, Vec<f32>)> =
        policies.iter().map(mask_channel_major).collect();

    let x0_batch: Vec<f32> = windows
        .iter()
        .flat_map(|&(si, _, s)| window_channel_major(&series[si].0.slice_time(s, w)))
        .collect();
    // Per-window missing flags in channel-major layout (`c * w + t`),
    // matching the policy masks.
    let win_missing: Vec<Vec<bool>> = windows
        .iter()
        .map(|&(si, _, s)| {
            let bits = &series[si].1;
            let mut m = vec![false; cell];
            for c in 0..k {
                for tl in 0..w {
                    m[c * w + tl] = bits[(s + tl) * k + c];
                }
            }
            m
        })
        .collect();

    // ------------------------------------------------------------------
    // Window-parallel denoising. Windows are partitioned into fixed-size
    // groups; each group runs the full reverse chain for every policy as
    // one self-contained task (its windows batched into one model
    // forward). Each window draws every noise sample from its own
    // [`window_rng`] stream, so a group's output depends only on which
    // windows it holds — and the grouping is fixed — making scores and
    // votes bit-identical at any thread count.
    // ------------------------------------------------------------------
    let ctx = ChainCtx {
        cfg,
        schedule,
        policy_masks: &policy_masks,
        reverse_steps: &reverse_steps,
        vote_steps: &vote_steps,
        k,
        w,
    };
    let n_groups = nw.div_ceil(GROUP_WINDOWS);
    if obs::enabled() {
        obs::counter("infer.runs", 1);
        obs::counter("infer.windows", nw as u64);
        obs::counter("infer.window_groups", n_groups as u64);
    }
    let run_group = |model: &ImTransformer, g: usize| -> GroupAccum {
        let gs = g * GROUP_WINDOWS;
        let ge = ((g + 1) * GROUP_WINDOWS).min(nw);
        let rngs: Vec<StdRng> = windows[gs..ge]
            .iter()
            .map(|&(_, wi, _)| window_rng(seed, wi))
            .collect();
        ctx.run_chain(model, &x0_batch[gs * cell..ge * cell], &win_missing[gs..ge], rngs)
    };
    let group_outs = run_groups(model, cfg, k, n_groups, run_group);

    // Fold windows into their series in fixed window order (overlapping
    // tail windows make the f64 addition order-sensitive), then finalize
    // each series on its own.
    let mut accs: Vec<SeriesAccum> = series
        .iter()
        .map(|(test, _, _)| SeriesAccum::zeros(n_votes, test.len() * k))
        .collect();
    for (i, &(si, _, start)) in windows.iter().enumerate() {
        accs[si].merge_window(&group_outs[i / GROUP_WINDOWS], i % GROUP_WINDOWS, start, k, w);
    }
    series
        .iter()
        .zip(&accs)
        .map(|((test, _, missing_cells), acc)| {
            finalize(cfg, test, &vote_steps, acc, *missing_cells)
        })
        .collect()
}

/// Turns merged series accumulators into the final [`EnsembleOutput`]:
/// coverage-normalised per-step cell errors, per-channel robust rescale,
/// Eq. (12) thresholds and votes, score smoothing and attribution. All
/// statistics are local to the series the accumulators describe — this
/// is what makes each series of an [`ensemble_infer`] batch bit-identical
/// to a standalone run.
fn finalize(
    cfg: &ImDiffusionConfig,
    test: &Mts,
    vote_steps: &[usize],
    acc: &SeriesAccum,
    missing_cells: usize,
) -> EnsembleOutput {
    let (len, k, w) = (test.len(), test.dim(), cfg.window);
    let n_votes = vote_steps.len();
    let (count, imp_count) = (&acc.count, &acc.imp_count);

    // Normalise accumulators; fill cells never covered (e.g. the leading
    // half-window in forecasting mode) with the observed value / mean error.
    let covered: Vec<bool> = count.iter().map(|&c| c > 0.0).collect();
    let mut per_step_cell_err: Vec<Vec<f64>> = Vec::with_capacity(n_votes);
    for err_step in acc.err_sum.iter().take(n_votes) {
        let mut e = vec![0.0f64; len * k];
        let mut total = 0.0f64;
        let mut n = 0usize;
        for j in 0..len * k {
            if covered[j] {
                e[j] = err_step[j] / count[j];
                total += e[j];
                n += 1;
            }
        }
        let mean = if n > 0 { total / n as f64 } else { 0.0 };
        for j in 0..len * k {
            if !covered[j] {
                e[j] = mean;
            }
        }
        per_step_cell_err.push(e);
    }

    // Per-channel robust scale from the final step's errors: dividing each
    // channel by its median error keeps intrinsically noisy channels from
    // drowning the anomaly signal when averaging across channels.
    let base_errs = &per_step_cell_err[per_step_cell_err.len() - 1];
    let chan_scale: Vec<f64> = (0..k)
        .map(|c| {
            let mut col: Vec<f64> = (0..len).map(|l| base_errs[l * k + c]).collect();
            col.sort_by(|a, b| a.total_cmp(b));
            col[col.len() / 2].max(1e-9)
        })
        .collect();

    // Per-timestamp error (scaled mean over channels) and step sums for
    // Eq. (12).
    let per_step_ts_err: Vec<Vec<f64>> = per_step_cell_err
        .iter()
        .map(|e| {
            (0..len)
                .map(|l| {
                    (0..k)
                        .map(|c| e[l * k + c] / chan_scale[c])
                        .sum::<f64>()
                        / k as f64
                })
                .collect()
        })
        .collect();
    let step_sums: Vec<f64> = per_step_ts_err
        .iter()
        .map(|e| e.iter().sum::<f64>().max(1e-12))
        .collect();

    // Eq. (12): the fully denoised step (t = 1, last entry) is the quality
    // baseline; earlier steps get their threshold rescaled by relative
    // imputation quality Σ E_base / Σ E_t.
    let base_idx = n_votes - 1;
    let tau_base =
        imdiff_metrics::threshold_at_percentile(&per_step_ts_err[base_idx], TAU_PERCENTILE);
    let base_sum = step_sums[base_idx];

    let mut votes = vec![0u32; len];
    let mut steps_out = Vec::with_capacity(n_votes);
    let mut scores = vec![0.0f64; len];
    for vi in 0..n_votes {
        // τ_t = (Σ E_base / Σ E_t) · τ_base (Eq. 12).
        let ratio = base_sum / step_sums[vi];
        let tau = ratio * tau_base;
        let labels_t: Vec<bool> = per_step_ts_err[vi].iter().map(|&e| e >= tau).collect();
        for (v, &lab) in votes.iter_mut().zip(&labels_t) {
            if lab {
                *v += 1;
            }
        }
        for (s, &e) in scores.iter_mut().zip(&per_step_ts_err[vi]) {
            *s += e * ratio / n_votes as f64;
        }
        // Merged imputed series at this step (covers missing cells too —
        // the stream-repair output).
        let mut imputed = test.clone();
        for l in 0..len {
            for c in 0..k {
                let j = l * k + c;
                if imp_count[j] > 0.0 {
                    imputed.set(l, c, (acc.imp_sum[vi][j] / imp_count[j]) as f32);
                }
            }
        }
        steps_out.push(StepTrace {
            t: vote_steps[vi],
            error: per_step_ts_err[vi].clone(),
            tau,
            ratio,
            labels: labels_t,
            imputed,
        });
    }

    // Light temporal smoothing of the continuous score: per-point
    // imputation error is spiky inside long range anomalies, which biases
    // range-aware metrics; a centered moving average (a quarter window)
    // matches the smoothing every reconstruction baseline gets for free
    // from overlapping-window averaging. Votes/labels are NOT smoothed.
    let smooth_w = (w / 4).max(1);
    let scores = {
        let mut out = vec![0.0f64; len];
        for (i, o) in out.iter_mut().enumerate() {
            let lo = i.saturating_sub(smooth_w / 2);
            let hi = (i + smooth_w / 2 + 1).min(len);
            *o = scores[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        }
        out
    };

    // The non-ensemble ablation runs one vote step, so ξ = 0 there.
    let xi = vote_threshold(n_votes);
    let labels: Vec<bool> = votes.iter().map(|&v| v as usize > xi).collect();

    // Normalized per-cell error at the final step, for attribution.
    let cell_error: Vec<f64> = (0..len * k)
        .map(|j| per_step_cell_err[base_idx][j] / chan_scale[j % k])
        .collect();

    EnsembleOutput {
        scores,
        votes,
        labels,
        steps: steps_out,
        tau_base,
        vote_threshold: xi,
        cell_error,
        channels: k,
        missing_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
    use imdiff_data::{NormMethod, Normalizer};
    use imdiff_diffusion::NoiseSchedule;

    fn tiny_cfg() -> ImDiffusionConfig {
        ImDiffusionConfig {
            window: 16,
            train_stride: 8,
            hidden: 8,
            heads: 2,
            residual_blocks: 1,
            diffusion_steps: 6,
            train_steps: 10,
            batch_size: 2,
            vote_span: 6,
            vote_every: 2,
            ..ImDiffusionConfig::quick()
        }
    }

    /// One series through the batch entry.
    fn infer_one(
        model: &ImTransformer,
        cfg: &ImDiffusionConfig,
        schedule: &NoiseSchedule,
        test: &Mts,
        missing: Option<&[bool]>,
        seed: u64,
    ) -> EnsembleOutput {
        ensemble_infer(model, cfg, schedule, &[(test, missing)], seed).remove(0)
    }

    #[test]
    fn ensemble_output_shapes_and_invariants() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 40,
            },
            2,
        );
        let norm = Normalizer::fit(&ds.train, NormMethod::MinMax);
        let test_n = norm.transform(&ds.test);
        let cfg = tiny_cfg();
        let model = ImTransformer::new(&cfg, test_n.dim(), 1);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let out = infer_one(&model, &cfg, &schedule, &test_n, None, 7);

        assert_eq!(out.scores.len(), 40);
        assert_eq!(out.votes.len(), 40);
        assert_eq!(out.labels.len(), 40);
        assert_eq!(out.steps.len(), cfg.vote_steps().len());
        // Votes bounded by the number of vote steps.
        let max_votes = out.steps.len() as u32;
        assert!(out.votes.iter().all(|&v| v <= max_votes));
        // Labels consistent with votes and ξ.
        for (l, &v) in out.labels.iter().zip(&out.votes) {
            assert_eq!(*l, v as usize > out.vote_threshold);
        }
        // Scores finite and non-negative.
        assert!(out.scores.iter().all(|&s| s.is_finite() && s >= 0.0));
        // Step traces ordered from high t to t = 1.
        assert_eq!(out.steps.last().unwrap().t, 1);
        for w in out.steps.windows(2) {
            assert!(w[0].t > w[1].t);
        }
    }

    /// Eq. (12) on a hand-worked trace: three vote steps over four points,
    /// with τ_t = ratio_t · τ_base and a vote whenever E_t ≥ τ_t.
    #[test]
    fn revote_matches_hand_worked_eq12() {
        let step = |t: usize, ratio: f64, error: [f64; 4]| StepTrace {
            t,
            error: error.to_vec(),
            tau: 0.0,
            ratio,
            labels: Vec::new(),
            imputed: Mts::zeros(4, 1),
        };
        let out = EnsembleOutput {
            scores: vec![0.0; 4],
            votes: Vec::new(),
            labels: Vec::new(),
            steps: vec![
                step(5, 0.5, [0.4, 0.6, 1.0, 0.1]),
                step(3, 0.8, [0.9, 0.7, 0.8, 0.2]),
                step(1, 1.0, [1.0, 0.5, 1.5, 0.9]),
            ],
            tau_base: 1.0,
            vote_threshold: 1,
            cell_error: vec![0.0; 4],
            channels: 1,
            missing_cells: 0,
        };
        // V_l recovered from the labels at every ξ: V_l = #{ξ : V_l > ξ}.
        let votes = |tau_base: f64| -> Vec<usize> {
            (0..3).fold(vec![0; 4], |mut v, xi| {
                for (v, l) in v.iter_mut().zip(out.revote(tau_base, xi)) {
                    *v += usize::from(l);
                }
                v
            })
        };
        // τ_base = 1: τ_t = 0.5, 0.8, 1.0. Step 5 flags points 1 and 2,
        // step 3 flags 0 and 2 (0.8 ≥ 0.8), step 1 flags 0 and 2 (1.0 ≥ 1.0).
        assert_eq!(votes(1.0), vec![2, 1, 3, 0]);
        assert_eq!(out.revote(1.0, 1), vec![true, false, true, false]);
        assert_eq!(out.revote(1.0, 2), vec![false, false, true, false]);
        // τ_base = 2: τ_t = 1.0, 1.6, 2.0. Only step 5 flags point 2.
        assert_eq!(votes(2.0), vec![0, 0, 1, 0]);
        assert_eq!(out.revote(2.0, 0), vec![false, false, true, false]);
    }

    /// `finalize` and `revote` implement the same vote: re-voting a
    /// `detect` output at its own τ_base and ξ reproduces its labels, for
    /// the full DDPM chain and a 4-step DDIM chain.
    #[test]
    fn revote_reproduces_detect_labels() {
        use imdiff_data::Detector;
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 120,
                test_len: 96,
            },
            3,
        );
        for ddim_steps in [None, Some(4)] {
            let cfg = ImDiffusionConfig {
                train_steps: 8,
                ddim_steps,
                ..ImDiffusionConfig::quick()
            };
            let mut det = crate::ImDiffusionDetector::new(cfg, 5);
            det.fit(&ds.train).unwrap();
            det.detect(&ds.test).unwrap();
            let out = det.last_output().unwrap();
            assert_eq!(out.vote_threshold, vote_threshold(out.steps.len()));
            assert!(out.labels.iter().any(|&l| l), "{ddim_steps:?}: no label to pin");
            assert_eq!(
                out.revote(out.tau_base, out.vote_threshold),
                out.labels,
                "{ddim_steps:?}"
            );
        }
    }

    #[test]
    fn masked_inference_imputes_missing_cells_and_stays_finite() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 40,
            },
            11,
        );
        let norm = Normalizer::fit(&ds.train, NormMethod::MinMax);
        let mut test_n = norm.transform(&ds.test);
        let k = test_n.dim();
        // Declare a scatter of missing cells and overwrite them with NaN —
        // masked inference must treat NaN-in-declared-cells as imputable,
        // not as poison.
        let mut missing = vec![false; test_n.len() * k];
        for l in (3..test_n.len()).step_by(7) {
            let c = l % k;
            missing[l * k + c] = true;
            test_n.set(l, c, f32::NAN);
        }
        let declared = missing.iter().filter(|&&m| m).count();
        assert!(declared > 0);

        let cfg = tiny_cfg();
        let model = ImTransformer::new(&cfg, k, 1);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let out =
            infer_one(&model, &cfg, &schedule, &test_n, Some(&missing), 7);

        assert_eq!(out.missing_cells, declared);
        // Every score stays finite even though the input held NaN cells.
        assert!(out.scores.iter().all(|&s| s.is_finite() && s >= 0.0));
        assert!(out.cell_error.iter().all(|e| e.is_finite()));
        // The imputed series carries a real (finite) model value in every
        // cell, including the missing ones — it doubles as stream repair.
        for step in &out.steps {
            for l in 0..step.imputed.len() {
                for c in 0..step.imputed.dim() {
                    assert!(step.imputed.get(l, c).is_finite());
                }
            }
        }
        // Without a mask the same NaN-laden series is sanitized internally
        // too (undeclared non-finite is caught one layer up, in the
        // detector): the masked path must not be the only NaN-safe one.
        let unmasked = infer_one(&model, &cfg, &schedule, &test_n, None, 7);
        assert_eq!(unmasked.missing_cells, declared);
        assert!(unmasked.scores.iter().all(|&s| s.is_finite()));
    }

    #[test]
    fn untrained_model_flags_nothing_everything_consistently() {
        // Even untrained, inference must be deterministic per seed.
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            3,
        );
        let cfg = tiny_cfg();
        let model = ImTransformer::new(&cfg, ds.test.dim(), 5);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let a = infer_one(&model, &cfg, &schedule, &ds.test, None, 9);
        let b = infer_one(&model, &cfg, &schedule, &ds.test, None, 9);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn forecasting_mode_runs_with_half_stride() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 48,
            },
            4,
        );
        let cfg = ImDiffusionConfig {
            task: TaskMode::Forecasting,
            ..tiny_cfg()
        };
        let model = ImTransformer::new(&cfg, ds.test.dim(), 5);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let out = infer_one(&model, &cfg, &schedule, &ds.test, None, 1);
        assert_eq!(out.scores.len(), 48);
    }

    #[test]
    fn ddim_sampling_runs_and_is_deterministic() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            6,
        );
        let cfg = ImDiffusionConfig {
            ddim_steps: Some(3),
            ..tiny_cfg()
        };
        let model = ImTransformer::new(&cfg, ds.test.dim(), 5);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let a = infer_one(&model, &cfg, &schedule, &ds.test, None, 2);
        let b = infer_one(&model, &cfg, &schedule, &ds.test, None, 2);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.steps.last().unwrap().t, 1);
        assert!(a.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn channel_attribution_sums_to_one_and_ranks() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            11,
        );
        let cfg = tiny_cfg();
        let model = ImTransformer::new(&cfg, ds.test.dim(), 5);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let out = infer_one(&model, &cfg, &schedule, &ds.test, None, 3);
        let k = ds.test.dim();
        for l in [0usize, 15, 31] {
            let attr = out.channel_attribution(l);
            assert_eq!(attr.len(), k);
            let sum: f64 = attr.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
            assert!(attr.iter().all(|&a| a >= 0.0));
        }
        let top = out.top_channels(10, 3);
        assert_eq!(top.len(), 3);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn batched_windows_bit_identical_to_standalone_calls() {
        // The serving micro-batcher rests on this: a batch of independent
        // single-window requests scored in one pass must reproduce the
        // standalone per-window results bit for bit, at any pool width.
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 80,
            },
            13,
        );
        let norm = Normalizer::fit(&ds.train, NormMethod::MinMax);
        let test_n = norm.transform(&ds.test);
        let cfg = tiny_cfg();
        let (w, k) = (cfg.window, test_n.dim());
        let model = ImTransformer::new(&cfg, k, 1);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);

        // Five windows, one with declared-missing NaN cells.
        let mut wins: Vec<Mts> = (0..5).map(|i| test_n.slice_time(i * w / 2, w)).collect();
        let mut missing3 = vec![false; w * k];
        for t in (2..w).step_by(5) {
            missing3[t * k + t % k] = true;
            wins[3].set(t, t % k, f32::NAN);
        }
        let reqs: Vec<(&Mts, Option<&[bool]>)> = wins
            .iter()
            .enumerate()
            .map(|(i, m)| (m, (i == 3).then_some(missing3.as_slice())))
            .collect();

        let solo: Vec<EnsembleOutput> = reqs
            .iter()
            .map(|(m, miss)| infer_one(&model, &cfg, &schedule, m, *miss, 21))
            .collect();
        for width in [1usize, 4] {
            let batched = imdiff_nn::pool::with_threads(width, || {
                ensemble_infer(&model, &cfg, &schedule, &reqs, 21)
            });
            assert_eq!(batched.len(), solo.len());
            for (b, s) in batched.iter().zip(&solo) {
                assert_eq!(b.scores, s.scores, "scores differ at width {width}");
                assert_eq!(b.votes, s.votes);
                assert_eq!(b.labels, s.labels);
                assert_eq!(b.tau_base.to_bits(), s.tau_base.to_bits());
                assert_eq!(b.cell_error, s.cell_error);
                assert_eq!(b.missing_cells, s.missing_cells);
                for (bs, ss) in b.steps.iter().zip(&s.steps) {
                    assert_eq!(bs.t, ss.t);
                    assert_eq!(bs.error, ss.error);
                    assert_eq!(bs.labels, ss.labels);
                    assert_eq!(bs.tau.to_bits(), ss.tau.to_bits());
                }
            }
        }
    }

    #[test]
    fn non_ensemble_uses_single_step() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            5,
        );
        let cfg = ImDiffusionConfig {
            ensemble: false,
            ..tiny_cfg()
        };
        let model = ImTransformer::new(&cfg, ds.test.dim(), 5);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let out = infer_one(&model, &cfg, &schedule, &ds.test, None, 1);
        assert_eq!(out.steps.len(), 1);
        assert_eq!(out.steps[0].t, 1);
        assert_eq!(out.vote_threshold, 0);
    }
}
