//! The ImDiffusion training loop (§4.3, Fig. 4, Eq. 11), hardened for
//! production runs: step checkpoints, crash-safe resume, and divergence
//! sentinels.
//!
//! [`Trainer`] wraps the DDPM objective loop with three guarantees:
//!
//! 1. **Resumability** — every [`TrainerOptions::checkpoint_every`] steps
//!    the complete training state (model parameters, Adam moments and step
//!    count, exact RNG stream position, loss curve, sentinel state) is
//!    snapshotted, and optionally persisted to an `IMTS` file. A run
//!    interrupted at any point and resumed via [`Trainer::resume`]
//!    produces **bit-identical** final weights and loss curve to an
//!    uninterrupted run with the same options.
//! 2. **Divergence sentinels** — a non-finite loss, a pre-clip gradient
//!    norm far above its running median, or non-finite gradients trip a
//!    sentinel *before* the poisoned update reaches [`Adam::step`]. The
//!    trainer rolls back to the last good snapshot, scales the learning
//!    rate down, re-derives the RNG stream (so the doomed batch
//!    composition is not replayed verbatim) and retries, recording the
//!    event in [`TrainReport::incidents`]. Retries are bounded; a loss
//!    pinned at NaN through the whole budget aborts with a typed error.
//! 3. **Determinism** — every recovery action is a pure function of the
//!    snapshot state and the retry index, so the sentinel machinery never
//!    breaks run-to-run or interrupt-resume reproducibility; and every step
//!    is one tape per sample, so the result never depends on the thread
//!    count (below).
//!
//! # The sharded step
//!
//! Each optimizer step is `batch_size` independent one-sample shards:
//!
//! * The caller thread draws every sample (window, mask policy, diffusion
//!   step `t`, noise ε) from the run's one RNG stream, in sample order.
//! * One pool dispatch runs the shards. Each pool run builds one model
//!   replica from a weight snapshot (tensors are thread-local) and runs
//!   its shards in order: `forward` on `[1, K, L]`, the loss
//!   Σ(mask·(ε̂−ε)²) / `active` with `active` the **whole batch's** mask
//!   count, and `backward` on the shard's own tape.
//! * The caller adds the shard gradients into the master parameters and
//!   sums the shard losses, both in shard order 0..b, which yields the
//!   batch's masked MSE and its gradient. The sentinels, clipping, Adam
//!   and EMA then run on the caller.
//!
//! The shard count is the batch size, never the thread count, and the
//! reduction order is fixed, so weights and loss curves are bit-identical
//! at any width and across interrupt and resume. A step fans out only
//! when each worker gets at least `MIN_PAR_SHARD_COST` cells × hidden
//! units of samples; smaller fits run their shards inline on the caller.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use imdiff_data::mask::{Mask, MaskStrategy};
use imdiff_data::{DetectorError, Mts};
use imdiff_diffusion::NoiseSchedule;
use imdiff_nn::layers::Module;
use imdiff_nn::obs;
use imdiff_nn::optim::{Adam, AdamState, Optimizer};
use imdiff_nn::pool;
use imdiff_nn::rng::{normal_vec, seeded};
use imdiff_nn::serialize::{atomic_write, open_record, ByteReader, ByteWriter};
use imdiff_nn::{backward, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::{ImDiffusionConfig, TaskMode};
use crate::infer::model_from_snapshot;
use crate::model::ImTransformer;

const TRAIN_MAGIC: &[u8; 4] = b"IMTS";
const TRAIN_VERSION: u32 = 4;

/// The explosion sentinel trips when the pre-clip gradient norm exceeds
/// this multiple of its running median.
const GRAD_FACTOR: f32 = 16.0;
/// Number of recent pre-clip norms the running median is taken over.
const GRAD_MEDIAN_WINDOW: usize = 64;
/// Steps of norm history required before the explosion sentinel arms
/// (early training has volatile norms and no meaningful median).
const GRAD_WARMUP: usize = 8;
/// Multiplier applied to the learning-rate scale on every rollback.
const LR_BACKOFF: f32 = 0.5;

/// Why a divergence sentinel tripped.
#[derive(Debug, Clone, PartialEq)]
pub enum IncidentKind {
    /// The training loss was NaN or ±∞ before the backward pass.
    NonFiniteLoss,
    /// The pre-clip gradient norm was non-finite or exceeded a fixed
    /// multiple of its running median.
    GradExplosion {
        /// Pre-clip global gradient norm at the tripping step.
        norm: f32,
        /// Running median the norm was compared against.
        median: f32,
    },
    /// The retry budget was exhausted without producing a finite step —
    /// the loss-plateau-at-NaN condition. Training aborts after logging
    /// this incident.
    NanPlateau,
}

/// One sentinel trip, as recorded in [`TrainReport::incidents`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainIncident {
    /// Optimizer-step index at which the sentinel tripped.
    pub step: usize,
    /// Consecutive-failure count at this trip (1-based; re-arms after
    /// every successful step).
    pub retry: u32,
    /// Learning-rate scale in effect *after* the backoff for this trip.
    pub lr_scale: f32,
    /// What tripped.
    pub kind: IncidentKind,
}

/// Summary of one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Loss after every optimizer step.
    pub losses: Vec<f32>,
    /// Sentinel trips, in order. Empty for a healthy run.
    pub incidents: Vec<TrainIncident>,
    /// Step the run was resumed from, when it continued a checkpoint.
    pub resumed_at: Option<usize>,
}

impl TrainReport {
    /// Mean of the last quarter of the loss curve.
    pub fn final_loss(&self) -> f32 {
        if self.losses.is_empty() {
            return f32::NAN;
        }
        let tail = &self.losses[self.losses.len() - (self.losses.len() / 4).max(1)..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }
}

/// Options governing checkpointing, interruption and sentinels.
#[derive(Debug, Clone)]
pub struct TrainerOptions {
    /// Snapshot (and, with a path, persist) the training state every this
    /// many optimizer steps. Also the rollback anchor cadence; `0`
    /// disables both and sentinels roll back to the run start.
    pub checkpoint_every: usize,
    /// Where to persist the `IMTS` training-state file. `None` keeps
    /// snapshots in memory only (rollback still works; resume does not).
    pub checkpoint_path: Option<PathBuf>,
    /// Halt cleanly before executing this (0-based, global) step index —
    /// the cooperative-shutdown hook, and the crash simulator in the
    /// resume-equivalence tests.
    pub stop_after: Option<usize>,
    /// Maximum *consecutive* sentinel rollback-and-retry attempts (the
    /// counter re-arms whenever a finite update lands). Exhausting the
    /// budget is the loss-plateau-at-NaN condition: training aborts with
    /// a typed error instead of looping forever.
    pub max_retries: u32,
    /// Exponential-moving-average decay for a shadow copy of the weights
    /// (e.g. `0.99`). When set, the shadow updates after every optimizer
    /// step, rides the `IMTS` checkpoint (so resume stays bit-exact) and
    /// replaces the raw weights when the run **completes** — candidate
    /// evaluation then scores the smoothed model instead of whatever the
    /// last noisy step produced. `None` (the default) changes nothing.
    pub ema: Option<f32>,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        TrainerOptions {
            checkpoint_every: 32,
            checkpoint_path: None,
            stop_after: None,
            max_retries: 4,
            ema: None,
        }
    }
}

/// The resilient training driver. See the module docs for the guarantees.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    opts: TrainerOptions,
}

/// Mutable per-run state outside the model/optimizer.
struct LiveState {
    rng: StdRng,
    lr_scale: f32,
    /// Consecutive sentinel failures (re-armed by any finite update) —
    /// the abort budget.
    retries: u32,
    /// Total sentinel trips over the whole run — monotonic, never reset.
    /// Keys the RNG fork on rollback: a strictly increasing trip index
    /// guarantees every retry explores a fresh batch stream, so a
    /// (succeed-then-fail) cycle inside one checkpoint interval cannot
    /// replay itself forever.
    trips: u64,
    losses: Vec<f32>,
    grad_norms: VecDeque<f32>,
    incidents: Vec<TrainIncident>,
    /// EMA shadow weights, parallel to the parameter list (present iff
    /// [`TrainerOptions::ema`] is set).
    ema: Option<Vec<Vec<f32>>>,
}

/// A complete copy of the training state at one step boundary — the
/// rollback anchor, and the payload of the on-disk `IMTS` checkpoint.
struct Snapshot {
    step: usize,
    rng_state: [u64; 4],
    lr_scale: f32,
    retries: u32,
    trips: u64,
    params: Vec<Vec<f32>>,
    adam: AdamState,
    losses: Vec<f32>,
    grad_norms: Vec<f32>,
    ema: Option<Vec<Vec<f32>>>,
}

impl Snapshot {
    fn capture(step: usize, params: &[Tensor], opt: &Adam, st: &LiveState) -> Self {
        Snapshot {
            step,
            rng_state: st.rng.state(),
            lr_scale: st.lr_scale,
            retries: st.retries,
            trips: st.trips,
            params: params.iter().map(|p| p.to_vec()).collect(),
            adam: opt.export_state(),
            losses: st.losses.clone(),
            grad_norms: st.grad_norms.iter().copied().collect(),
            ema: st.ema.clone(),
        }
    }
}

/// Median of a non-empty slice (deterministic; even counts average the
/// two middle elements).
fn median(xs: &VecDeque<f32>) -> f32 {
    let mut v: Vec<f32> = xs.iter().copied().collect();
    v.sort_by(f32::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Deterministic re-derivation of the RNG stream after the `trip`-th
/// sentinel trip of the run, rolling back to the snapshot whose stream
/// position is `state`. Trip 0 (plain restore) is the exact saved
/// position; each trip forks a fresh stream so a batch composition that
/// keeps producing NaN is not replayed verbatim. Keying by the monotonic
/// run-wide trip count (not the consecutive-retry counter, which re-arms
/// on success) makes the forks non-repeating: a deterministic
/// succeed-then-fail cycle inside one checkpoint interval would otherwise
/// re-derive the same stream forever.
fn retry_rng(state: [u64; 4], trip: u64) -> StdRng {
    if trip == 0 {
        return StdRng::from_state(state);
    }
    let h = state[0]
        ^ state[1].rotate_left(17)
        ^ state[2].rotate_left(31)
        ^ state[3].rotate_left(47);
    seeded(h ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(trip))
}

/// Work, in cells × hidden units, that one pool worker must get before a
/// step fans its shards out; one sample costs `K · L · hidden` units. A
/// sample's forward and backward pass takes about 1 µs per unit on an
/// x86-64 core, so 2^13 units (~8 ms) dwarf a worker's spawn, model
/// replica and malloc arena. Serving-size fits (window 16, hidden 8)
/// fall below it and stay inline on the caller.
const MIN_PAR_SHARD_COST: usize = 1 << 13;

/// One training sample of a step, drawn on the caller thread: the model
/// inputs, the imputation-target mask, the forward noise ε (the
/// regression target) and the sample's diffusion step and mask policy.
/// All buffers are channel-major `[K * L]`.
struct Sample {
    x_val: Vec<f32>,
    x_ref: Vec<f32>,
    tgt: Vec<f32>,
    eps: Vec<f32>,
    t: usize,
    policy: usize,
}

/// One shard's share of a step: its loss term and the gradient of that
/// term for every parameter (`None` where the graph did not reach it).
struct ShardOut {
    loss: f32,
    grads: Vec<Option<Vec<f32>>>,
}

/// Runs one shard per sample — forward and backward on its own autodiff
/// tape — in one pool dispatch, and returns the shards in sample order.
/// Tensors are thread-local, so every pool run builds one model replica
/// from a plain-`f32` snapshot of the weights and runs its shards on it
/// in order. A shard's result depends only on its sample and the
/// weights, never on the run that computed it or on the thread count.
/// Inside the trainer's recycling scope every tape buffer is parked and
/// reused across shards and steps, on the caller and on the pool worker.
fn run_shards(
    model: &ImTransformer,
    cfg: &ImDiffusionConfig,
    samples: &[Sample],
    active: f32,
) -> Vec<ShardOut> {
    let k = model.channels();
    let grain = MIN_PAR_SHARD_COST
        .div_ceil(k * cfg.window * cfg.hidden)
        .max(1);
    let snapshot: Vec<Vec<f32>> = model.params().iter().map(|p| p.to_vec()).collect();
    let mut shards: Vec<Option<ShardOut>> = samples.iter().map(|_| None).collect();
    pool::parallel_slices_mut(&mut shards, 1, grain, |start, run| {
        let replica = model_from_snapshot(cfg, k, &snapshot);
        let params = replica.params();
        for (slot, sample) in run.iter_mut().zip(&samples[start..]) {
            *slot = Some(shard_step(&replica, &params, sample, active));
        }
    });
    shards
        .into_iter()
        .map(|s| s.expect("every shard ran"))
        .collect()
}

/// One sample's term of the Eq. (11) objective, Σ(mask·(ε̂−ε)²) / `active`
/// with `active` the whole batch's mask count, and its gradients. Leaves
/// `params` (the replica's) with no gradient, ready for the next shard.
fn shard_step(model: &ImTransformer, params: &[Tensor], s: &Sample, active: f32) -> ShardOut {
    let _span = obs::span("trainer.shard");
    let dims = [1, model.channels(), s.x_val.len() / model.channels()];
    let tensor = |v: &[f32]| Tensor::from_vec(v.to_vec(), &dims).expect("sample shape");
    let eps_hat = model.forward(&tensor(&s.x_val), &tensor(&s.x_ref), &[s.t], &[s.policy]);
    let loss = eps_hat
        .sub(&tensor(&s.eps))
        .mul(&tensor(&s.tgt))
        .square()
        .sum_all()
        .scale(1.0 / active);
    backward(&loss);
    let grads = params
        .iter()
        .map(|p| {
            let g = p.grad();
            p.zero_grad();
            g
        })
        .collect();
    ShardOut {
        loss: loss.item(),
        grads,
    }
}

impl Trainer {
    /// Creates a trainer with the given options.
    pub fn new(opts: TrainerOptions) -> Self {
        Trainer { opts }
    }

    /// The options in use.
    pub fn options(&self) -> &TrainerOptions {
        &self.opts
    }

    /// Trains from scratch. See [`train`] for the objective; this adds
    /// checkpointing and sentinels per the options.
    pub fn run(
        &self,
        model: &ImTransformer,
        cfg: &ImDiffusionConfig,
        schedule: &NoiseSchedule,
        train_data: &Mts,
        seed: u64,
    ) -> Result<TrainReport, DetectorError> {
        imdiff_nn::recycling(|| self.execute(model, cfg, schedule, train_data, seed, None))
    }

    /// Continues an interrupted run from the `IMTS` checkpoint at
    /// [`TrainerOptions::checkpoint_path`]. `model`, `cfg`, `seed` and
    /// `train_data` must match the original run; the result is then
    /// bit-identical to never having been interrupted.
    pub fn resume(
        &self,
        model: &ImTransformer,
        cfg: &ImDiffusionConfig,
        schedule: &NoiseSchedule,
        train_data: &Mts,
        seed: u64,
    ) -> Result<TrainReport, DetectorError> {
        let path = self.opts.checkpoint_path.as_deref().ok_or_else(|| {
            DetectorError::Io("resume requires TrainerOptions::checkpoint_path".into())
        })?;
        let snap = read_train_state(path, cfg, train_data.dim())?;
        imdiff_nn::recycling(|| self.execute(model, cfg, schedule, train_data, seed, Some(snap)))
    }

    fn execute(
        &self,
        model: &ImTransformer,
        cfg: &ImDiffusionConfig,
        schedule: &NoiseSchedule,
        train_data: &Mts,
        seed: u64,
        restored: Option<Snapshot>,
    ) -> Result<TrainReport, DetectorError> {
        let _run = obs::span("trainer.run");
        cfg.validate();
        if train_data.dim() != model.channels() {
            return Err(DetectorError::DimensionMismatch {
                expected: model.channels(),
                actual: train_data.dim(),
            });
        }
        let l = cfg.window;
        let k = train_data.dim();
        if train_data.len() < l {
            return Err(DetectorError::InvalidTrainingData(format!(
                "training series shorter than one window ({} < {l})",
                train_data.len()
            )));
        }
        let windows: Vec<Vec<f32>> = train_data
            .windows(l, cfg.train_stride)
            .iter()
            .map(window_channel_major)
            .collect();
        let mut rng = seeded(seed ^ 0x7241_1e5a);
        let params = model.params();
        let mut opt = Adam::new(params.clone(), cfg.lr);

        // Grating masks are deterministic; compute once and reuse. (On
        // resume this is replayed identically before the RNG position is
        // overwritten from the checkpoint.)
        let static_masks = match (cfg.task, cfg.mask) {
            (TaskMode::Imputation, MaskStrategy::Random { .. }) => None,
            _ => Some(task_masks(cfg, &mut rng, l, k)),
        };

        let mut st = LiveState {
            rng,
            lr_scale: 1.0,
            retries: 0,
            trips: 0,
            losses: Vec::with_capacity(cfg.train_steps),
            grad_norms: VecDeque::new(),
            incidents: Vec::new(),
            ema: self
                .opts
                .ema
                .map(|_| params.iter().map(|p| p.to_vec()).collect()),
        };
        let mut resumed_at = None;
        let start_step = match restored {
            Some(snap) => {
                restore_into(&snap, &params, &mut opt, &mut st)?;
                // Reconcile the shadow with this run's options: seed it
                // from the restored weights when the checkpointed run had
                // EMA off, drop it when EMA is off for this run.
                match self.opts.ema {
                    Some(_) if st.ema.is_none() => {
                        st.ema = Some(params.iter().map(|p| p.to_vec()).collect());
                    }
                    None => st.ema = None,
                    _ => {}
                }
                resumed_at = Some(snap.step);
                snap.step
            }
            None => 0,
        };
        let mut snap = Snapshot::capture(start_step, &params, &opt, &st);

        let b = cfg.batch_size;
        let cell = k * l;
        let mut step = start_step;
        while step < cfg.train_steps {
            if self.opts.stop_after.is_some_and(|stop| step >= stop) {
                break;
            }
            let _step_span = obs::span("trainer.step");
            // Cosine decay from lr to lr/10 stabilises the small-batch
            // regime; the sentinel backoff scales on top.
            let progress = step as f32 / cfg.train_steps.max(1) as f32;
            let lr_now = cfg.lr
                * (0.55 + 0.45 * (std::f32::consts::PI * progress).cos())
                * st.lr_scale;
            opt.set_lr(lr_now);
            let mut samples = Vec::with_capacity(b);
            for _ in 0..b {
                let w = &windows[st.rng.gen_range(0..windows.len())];
                let fresh;
                let masks: &Vec<Mask> = match &static_masks {
                    Some(m) => m,
                    None => {
                        fresh = task_masks(cfg, &mut st.rng, l, k);
                        &fresh
                    }
                };
                let policy = st.rng.gen_range(0..masks.len());
                let (obs, tgt) = mask_channel_major(&masks[policy]);
                let t = st.rng.gen_range(1..=cfg.diffusion_steps);
                let eps = normal_vec(&mut st.rng, cell);
                let mut x_val = vec![0.0f32; cell];
                schedule.q_sample_into(w, &eps, t, &mut x_val);
                // Unconditional (§4.1): the whole window is corrupted; the
                // observed region is visible only in noised form, with its
                // ground-truth forward noise ε_t^{M1} as the reference that
                // lets the model "subtract the noise" — an indirect hint
                // that never reveals raw values. Conditional: the observed
                // region is fed clean and the masked region noised.
                let x_ref: Vec<f32> = if cfg.unconditional {
                    eps.iter().zip(&obs).map(|(e, o)| e * o).collect()
                } else {
                    for (x, m) in x_val.iter_mut().zip(&tgt) {
                        *x *= m;
                    }
                    w.iter().zip(&obs).map(|(v, o)| v * o).collect()
                };
                samples.push(Sample {
                    x_val,
                    x_ref,
                    tgt,
                    eps,
                    t,
                    policy,
                });
            }

            // Every shard divides by the whole batch's mask count, so the
            // shard losses (and gradients) add up to the batch objective.
            let active: f32 = samples.iter().flat_map(|s| &s.tgt).sum();
            let shards = if active > 0.0 {
                run_shards(model, cfg, &samples, active)
            } else {
                Vec::new()
            };
            let loss_val = {
                let _reduce = obs::span("trainer.reduce");
                for shard in &shards {
                    for (p, g) in params.iter().zip(&shard.grads) {
                        if let Some(g) = g {
                            p.accumulate_grad(g);
                        }
                    }
                }
                shards.iter().map(|s| s.loss).sum::<f32>()
            };
            obs::histogram("trainer.loss", loss_val as f64);
            if !loss_val.is_finite() {
                trip(
                    IncidentKind::NonFiniteLoss,
                    step,
                    self.opts.max_retries,
                    &mut st,
                    &snap,
                    &params,
                    &mut opt,
                )?;
                step = snap.step;
                continue;
            }
            let optim = obs::span("trainer.optim");
            let pre_clip = opt.clip_grad_norm(cfg.grad_clip);
            obs::histogram("trainer.grad_norm", pre_clip as f64);
            let armed = st.grad_norms.len() >= GRAD_WARMUP;
            let med = if st.grad_norms.is_empty() {
                0.0
            } else {
                median(&st.grad_norms)
            };
            if !pre_clip.is_finite() || (armed && pre_clip > GRAD_FACTOR * med) {
                trip(
                    IncidentKind::GradExplosion {
                        norm: pre_clip,
                        median: med,
                    },
                    step,
                    self.opts.max_retries,
                    &mut st,
                    &snap,
                    &params,
                    &mut opt,
                )?;
                step = snap.step;
                continue;
            }
            opt.step();
            opt.zero_grad();
            st.losses.push(loss_val);
            // A finite update landed: the divergence was transient, so the
            // consecutive-failure budget re-arms.
            st.retries = 0;
            if st.grad_norms.len() == GRAD_MEDIAN_WINDOW {
                st.grad_norms.pop_front();
            }
            st.grad_norms.push_back(pre_clip);
            if let (Some(decay), Some(ema)) = (self.opts.ema, &mut st.ema) {
                for (shadow, p) in ema.iter_mut().zip(&params) {
                    let live = p.to_vec();
                    for (s, &w) in shadow.iter_mut().zip(&live) {
                        *s = decay * *s + (1.0 - decay) * w;
                    }
                }
            }
            drop(optim);
            obs::counter("trainer.steps", 1);
            step += 1;

            let every = self.opts.checkpoint_every;
            if every > 0 && step.is_multiple_of(every) && step < cfg.train_steps {
                snap = Snapshot::capture(step, &params, &opt, &st);
                if let Some(path) = &self.opts.checkpoint_path {
                    let _ckpt = obs::span("trainer.checkpoint_write");
                    obs::counter("trainer.checkpoints", 1);
                    write_train_state(path, &snap, cfg, k)?;
                }
            }
        }

        // Only a run that reached its configured horizon hands the smoothed
        // weights to the caller; an interrupted run (stop_after) leaves the
        // raw weights in place so a resume continues bit-exactly from the
        // checkpointed trajectory.
        if step >= cfg.train_steps && self.opts.ema.is_some() {
            if let Some(ema) = &st.ema {
                for (p, shadow) in params.iter().zip(ema) {
                    p.set_data(shadow);
                }
                obs::counter("trainer.ema_applied", 1);
            }
        }

        Ok(TrainReport {
            losses: st.losses,
            incidents: st.incidents,
            resumed_at,
        })
    }
}

/// Handles one sentinel trip: log the incident, enforce the retry budget,
/// back the learning rate off, and rewind model/optimizer to the snapshot
/// with a forked RNG stream. Errors with [`DetectorError::Internal`] when
/// the budget is exhausted (the NaN-plateau abort).
fn trip(
    kind: IncidentKind,
    step: usize,
    max_retries: u32,
    st: &mut LiveState,
    snap: &Snapshot,
    params: &[Tensor],
    opt: &mut Adam,
) -> Result<(), DetectorError> {
    st.retries += 1;
    st.trips += 1;
    obs::counter("trainer.sentinel_trips", 1);
    st.lr_scale *= LR_BACKOFF;
    st.incidents.push(TrainIncident {
        step,
        retry: st.retries,
        lr_scale: st.lr_scale,
        kind,
    });
    if st.retries > max_retries {
        st.incidents.push(TrainIncident {
            step,
            retry: st.retries,
            lr_scale: st.lr_scale,
            kind: IncidentKind::NanPlateau,
        });
        return Err(DetectorError::Internal(format!(
            "training diverged at step {step}: {max_retries} rollbacks exhausted without a \
             finite update"
        )));
    }
    rewind(snap, params, opt, st)?;
    st.rng = retry_rng(snap.rng_state, st.trips);
    Ok(())
}

/// Applies a checkpoint read from disk to a freshly constructed
/// model/optimizer: the rewind, plus the RNG position and the sentinel
/// counters the checkpointed run had reached.
fn restore_into(
    snap: &Snapshot,
    params: &[Tensor],
    opt: &mut Adam,
    st: &mut LiveState,
) -> Result<(), DetectorError> {
    rewind(snap, params, opt, st)?;
    st.rng = StdRng::from_state(snap.rng_state);
    st.lr_scale = snap.lr_scale;
    st.retries = snap.retries;
    st.trips = snap.trips;
    Ok(())
}

/// Rewinds the parameters, Adam state, loss curve, gradient-norm window
/// and EMA shadow to `snap` — the part shared by a sentinel rollback and
/// a resume. Errors when `snap` was taken from another architecture.
fn rewind(
    snap: &Snapshot,
    params: &[Tensor],
    opt: &mut Adam,
    st: &mut LiveState,
) -> Result<(), DetectorError> {
    if snap.params.len() != params.len()
        || snap
            .params
            .iter()
            .zip(params)
            .any(|(s, p)| s.len() != p.numel())
    {
        return Err(DetectorError::InvalidTrainingData(
            "training checkpoint does not match the model architecture".into(),
        ));
    }
    for (p, data) in params.iter().zip(&snap.params) {
        p.set_data(data);
    }
    opt.import_state(snap.adam.clone()).map_err(|e| {
        DetectorError::InvalidTrainingData(format!("optimizer state mismatch: {e}"))
    })?;
    opt.zero_grad();
    st.losses.clone_from(&snap.losses);
    st.grad_norms = snap.grad_norms.iter().copied().collect();
    st.ema.clone_from(&snap.ema);
    Ok(())
}

// ---------------------------------------------------------------------------
// IMTS on-disk format
// ---------------------------------------------------------------------------

fn write_train_state(
    path: &Path,
    snap: &Snapshot,
    cfg: &ImDiffusionConfig,
    channels: usize,
) -> Result<(), DetectorError> {
    let mut w = ByteWriter::record(TRAIN_MAGIC, TRAIN_VERSION);
    w.u32(cfg.window as u32);
    w.u32(channels as u32);
    w.u64(cfg.train_steps as u64);
    w.u64(snap.step as u64);
    for s in snap.rng_state {
        w.u64(s);
    }
    w.f32(snap.lr_scale);
    w.u32(snap.retries);
    w.u64(snap.trips);
    w.u64(snap.adam.t);
    w.u32(snap.params.len() as u32);
    for ((p, m), v) in snap.params.iter().zip(&snap.adam.m).zip(&snap.adam.v) {
        w.f32s(p);
        w.f32s(m);
        w.f32s(v);
    }
    w.f32s(&snap.losses);
    w.f32s(&snap.grad_norms);
    // Optional EMA shadow block; a 0 flag is "EMA off for this run".
    match &snap.ema {
        Some(ema) => {
            w.u8(1);
            for shadow in ema {
                w.f32s(shadow);
            }
        }
        None => w.u8(0),
    }
    atomic_write(path, &w.finish())
        .map_err(|e| DetectorError::Io(format!("cannot write training checkpoint: {e}")))
}

/// Reads and validates an `IMTS` file into a resume snapshot.
fn read_train_state(
    path: &Path,
    cfg: &ImDiffusionConfig,
    channels: usize,
) -> Result<Snapshot, DetectorError> {
    let bytes = std::fs::read(path).map_err(|e| {
        DetectorError::Io(format!(
            "cannot read training checkpoint {}: {e}",
            path.display()
        ))
    })?;
    let mut r = ByteReader::new(open_record(&bytes, TRAIN_MAGIC, TRAIN_VERSION)?);
    let window = r.u32()? as usize;
    let k = r.u32()? as usize;
    let train_steps = r.u64()? as usize;
    if window != cfg.window || k != channels || train_steps != cfg.train_steps {
        return Err(DetectorError::InvalidTrainingData(format!(
            "training checkpoint was written for window={window}, channels={k}, \
             train_steps={train_steps}; current run has window={}, channels={channels}, \
             train_steps={}",
            cfg.window, cfg.train_steps
        )));
    }
    let step = r.u64()? as usize;
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = r.u64()?;
    }
    let lr_scale = r.f32()?;
    let retries = r.u32()?;
    let trips = r.u64()?;
    let t = r.u64()?;
    let n_params = r.u32()? as usize;
    // Three length prefixes per parameter bound the pre-allocation.
    let cap = r.capacity(n_params, 12);
    let (mut params, mut m, mut v) =
        (Vec::with_capacity(cap), Vec::with_capacity(cap), Vec::with_capacity(cap));
    for _ in 0..n_params {
        params.push(r.f32s()?);
        m.push(r.f32s()?);
        v.push(r.f32s()?);
    }
    let losses = r.f32s()?;
    let grad_norms = r.f32s()?;
    let ema = if r.u8()? == 1 {
        let mut shadow = Vec::with_capacity(params.len());
        for stored in &params {
            let w = r.f32s()?;
            if w.len() != stored.len() {
                return Err(DetectorError::CorruptCheckpoint(format!(
                    "EMA shadow length {} does not match parameter length {}",
                    w.len(),
                    stored.len()
                )));
            }
            shadow.push(w);
        }
        Some(shadow)
    } else {
        None
    };
    r.finish()?;
    Ok(Snapshot {
        step,
        rng_state,
        lr_scale,
        retries,
        trips,
        params,
        adam: AdamState { m, v, t },
        losses,
        grad_norms,
        ema,
    })
}

/// The mask policies used by a task mode for an `[l, k]` window.
///
/// * Imputation: the two complementary policies of the configured strategy;
/// * Forecasting: a single policy observing the first half and imputing the
///   second (a "partial glimpse into the future", §4.2);
/// * Reconstruction: a single policy masking everything.
pub(crate) fn task_masks(
    cfg: &ImDiffusionConfig,
    rng: &mut StdRng,
    l: usize,
    k: usize,
) -> Vec<Mask> {
    match cfg.task {
        TaskMode::Imputation => cfg.mask.masks(rng, l, k).to_vec(),
        TaskMode::Forecasting => {
            let half = l / 2;
            let bits: Vec<bool> = (0..l)
                .flat_map(|t| std::iter::repeat_n(t < half, k))
                .collect();
            vec![Mask::new(bits, l, k)]
        }
        TaskMode::Reconstruction => vec![Mask::new(vec![false; l * k], l, k)],
    }
}

/// Extracts a window as a channel-major `[K * L]` buffer (model layout).
pub(crate) fn window_channel_major(w: &Mts) -> Vec<f32> {
    w.to_channel_major()
}

/// Converts a time-major mask to channel-major observed/target buffers.
pub(crate) fn mask_channel_major(mask: &Mask) -> (Vec<f32>, Vec<f32>) {
    let (l, k) = (mask.len(), mask.dim());
    let mut obs = vec![0.0f32; l * k];
    let mut tgt = vec![0.0f32; l * k];
    for t in 0..l {
        for c in 0..k {
            let idx = c * l + t;
            if mask.observed(t, c) {
                obs[idx] = 1.0;
            } else {
                tgt[idx] = 1.0;
            }
        }
    }
    (obs, tgt)
}

/// Trains `model` on the (already normalized) training series with the DDPM
/// objective of Eq. (11): the noise-prediction error on the masked region,
/// conditioned on the unmasked-region reference and the policy index.
///
/// Deterministic for a fixed `(model seed, seed)` pair. This is
/// [`Trainer::run`] with default options (in-memory snapshots for sentinel
/// rollback, nothing persisted).
pub fn train(
    model: &ImTransformer,
    cfg: &ImDiffusionConfig,
    schedule: &NoiseSchedule,
    train_data: &Mts,
    seed: u64,
) -> Result<TrainReport, DetectorError> {
    Trainer::default().run(model, cfg, schedule, train_data, seed)
}

/// Continues an interrupted run from the `IMTS` checkpoint at `path`; see
/// [`Trainer::resume`].
pub fn train_resume(
    model: &ImTransformer,
    cfg: &ImDiffusionConfig,
    schedule: &NoiseSchedule,
    train_data: &Mts,
    seed: u64,
    path: &Path,
) -> Result<TrainReport, DetectorError> {
    Trainer::new(TrainerOptions {
        checkpoint_path: Some(path.to_path_buf()),
        ..TrainerOptions::default()
    })
    .resume(model, cfg, schedule, train_data, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
    use imdiff_data::{NormMethod, Normalizer};

    fn tiny_cfg() -> ImDiffusionConfig {
        ImDiffusionConfig {
            window: 16,
            train_stride: 8,
            hidden: 8,
            heads: 2,
            residual_blocks: 1,
            diffusion_steps: 6,
            train_steps: 12,
            batch_size: 2,
            ..ImDiffusionConfig::quick()
        }
    }

    #[test]
    fn task_masks_cover_and_shape() {
        let cfg = tiny_cfg();
        let mut rng = seeded(1);
        let masks = task_masks(&cfg, &mut rng, 16, 3);
        assert_eq!(masks.len(), 2);
        assert_eq!(masks[0].masked_count() + masks[1].masked_count(), 48);

        let f = ImDiffusionConfig {
            task: TaskMode::Forecasting,
            ..tiny_cfg()
        };
        let fm = task_masks(&f, &mut rng, 16, 3);
        assert_eq!(fm.len(), 1);
        assert!(fm[0].observed(0, 0));
        assert!(!fm[0].observed(15, 0));

        let r = ImDiffusionConfig {
            task: TaskMode::Reconstruction,
            ..tiny_cfg()
        };
        let rm = task_masks(&r, &mut rng, 16, 3);
        assert_eq!(rm[0].masked_count(), 48);
    }

    #[test]
    fn mask_channel_major_partition() {
        let cfg = tiny_cfg();
        let mut rng = seeded(1);
        let masks = task_masks(&cfg, &mut rng, 16, 2);
        let (obs, tgt) = mask_channel_major(&masks[0]);
        for i in 0..32 {
            assert_eq!(obs[i] + tgt[i], 1.0);
        }
        // Channel-major index check: time step 0 must be masked (policy 0).
        assert_eq!(tgt[0], 1.0);
    }

    #[test]
    fn training_reduces_loss_on_learnable_signal() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 120,
                test_len: 40,
            },
            5,
        );
        let norm = Normalizer::fit(&ds.train, NormMethod::MinMax);
        let train_n = norm.transform(&ds.train);
        let cfg = ImDiffusionConfig {
            train_steps: 40,
            ..tiny_cfg()
        };
        let model = ImTransformer::new(&cfg, train_n.dim(), 3);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let report = train(&model, &cfg, &schedule, &train_n, 11).unwrap();
        assert_eq!(report.losses.len(), 40);
        assert!(report.incidents.is_empty(), "{:?}", report.incidents);
        let head: f32 = report.losses[..8].iter().sum::<f32>() / 8.0;
        let tail = report.final_loss();
        assert!(tail.is_finite());
        assert!(
            tail < head,
            "loss did not decrease: head {head}, tail {tail}"
        );
    }

    #[test]
    fn conditional_training_runs_and_differs() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 16,
            },
            5,
        );
        let schedule_cfg = tiny_cfg();
        let schedule = NoiseSchedule::new(schedule_cfg.schedule, schedule_cfg.diffusion_steps);
        let run = |unconditional: bool| {
            let cfg = ImDiffusionConfig {
                unconditional,
                ..tiny_cfg()
            };
            let model = ImTransformer::new(&cfg, ds.train.dim(), 3);
            train(&model, &cfg, &schedule, &ds.train, 7).unwrap().losses
        };
        let uncond = run(true);
        let cond = run(false);
        assert!(uncond.iter().all(|l| l.is_finite()));
        assert!(cond.iter().all(|l| l.is_finite()));
        assert_ne!(uncond, cond, "conditional flag inert in training");
    }

    #[test]
    fn random_mask_training_resamples_masks() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 16,
            },
            5,
        );
        let cfg = ImDiffusionConfig {
            mask: imdiff_data::mask::MaskStrategy::Random { p: 0.5 },
            ..tiny_cfg()
        };
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let model = ImTransformer::new(&cfg, ds.train.dim(), 3);
        let report = train(&model, &cfg, &schedule, &ds.train, 7).unwrap();
        assert_eq!(report.losses.len(), cfg.train_steps);
        assert!(report.final_loss().is_finite());
    }

    #[test]
    fn training_is_deterministic() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 16,
            },
            5,
        );
        let cfg = tiny_cfg();
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let run = |seed| {
            let model = ImTransformer::new(&cfg, ds.train.dim(), 3);
            train(&model, &cfg, &schedule, &ds.train, seed).unwrap().losses
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn rejects_short_series() {
        let cfg = tiny_cfg();
        let model = ImTransformer::new(&cfg, 2, 1);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let short = Mts::zeros(8, 2);
        let err = train(&model, &cfg, &schedule, &short, 1).unwrap_err();
        assert!(matches!(err, DetectorError::InvalidTrainingData(_)));
        assert!(err.to_string().contains("shorter than one window"));
    }

    #[test]
    fn rejects_channel_mismatch() {
        let cfg = tiny_cfg();
        let model = ImTransformer::new(&cfg, 3, 1);
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let wrong = Mts::zeros(32, 2);
        assert!(matches!(
            train(&model, &cfg, &schedule, &wrong, 1),
            Err(DetectorError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn stop_after_halts_cleanly() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 16,
            },
            5,
        );
        let cfg = tiny_cfg();
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let model = ImTransformer::new(&cfg, ds.train.dim(), 3);
        let trainer = Trainer::new(TrainerOptions {
            stop_after: Some(7),
            ..TrainerOptions::default()
        });
        let report = trainer
            .run(&model, &cfg, &schedule, &ds.train, 3)
            .unwrap();
        assert_eq!(report.losses.len(), 7);
    }

    #[test]
    fn retry_rng_forks_deterministically() {
        let state = seeded(3).state();
        let a: Vec<u64> = {
            let mut r = retry_rng(state, 1);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        let b: Vec<u64> = {
            let mut r = retry_rng(state, 1);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        let c: Vec<u64> = {
            let mut r = retry_rng(state, 2);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        let plain: Vec<u64> = {
            let mut r = retry_rng(state, 0);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, plain);
        assert_eq!(plain, {
            let mut r = StdRng::from_state(state);
            (0..8).map(|_| r.gen::<u64>()).collect::<Vec<u64>>()
        });
    }

    fn weights_of(model: &ImTransformer) -> Vec<Vec<f32>> {
        model.params().iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn ema_smooths_weights_deterministically() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 16,
            },
            5,
        );
        let cfg = tiny_cfg();
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let run = |ema: Option<f32>| {
            let model = ImTransformer::new(&cfg, ds.train.dim(), 3);
            Trainer::new(TrainerOptions {
                ema,
                ..TrainerOptions::default()
            })
            .run(&model, &cfg, &schedule, &ds.train, 7)
            .unwrap();
            weights_of(&model)
        };
        let raw = run(None);
        let smoothed = run(Some(0.9));
        assert_eq!(smoothed, run(Some(0.9)), "EMA run not deterministic");
        assert_ne!(raw, smoothed, "EMA flag inert");
    }

    #[test]
    fn ema_resume_matches_uninterrupted_run() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 16,
            },
            5,
        );
        let cfg = tiny_cfg();
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let path = std::env::temp_dir().join(format!(
            "imdiffusion-ema-resume-{}.imts",
            std::process::id()
        ));

        let uninterrupted = {
            let model = ImTransformer::new(&cfg, ds.train.dim(), 3);
            Trainer::new(TrainerOptions {
                ema: Some(0.9),
                ..TrainerOptions::default()
            })
            .run(&model, &cfg, &schedule, &ds.train, 7)
            .unwrap();
            weights_of(&model)
        };

        let model = ImTransformer::new(&cfg, ds.train.dim(), 3);
        Trainer::new(TrainerOptions {
            ema: Some(0.9),
            checkpoint_every: 3,
            checkpoint_path: Some(path.clone()),
            stop_after: Some(6),
            ..TrainerOptions::default()
        })
        .run(&model, &cfg, &schedule, &ds.train, 7)
        .unwrap();
        // The interrupted run leaves *raw* weights so the resume replays
        // the exact trajectory; only a completed run applies the shadow.
        assert_ne!(weights_of(&model), uninterrupted);
        Trainer::new(TrainerOptions {
            ema: Some(0.9),
            checkpoint_every: 3,
            checkpoint_path: Some(path.clone()),
            ..TrainerOptions::default()
        })
        .resume(&model, &cfg, &schedule, &ds.train, 7)
        .unwrap();
        assert_eq!(weights_of(&model), uninterrupted);
        std::fs::remove_file(&path).ok();
    }

    /// The sharded step computes the batch objective of Eq. (11): three
    /// one-sample tapes, each divided by the whole batch's mask count,
    /// sum to one batched `masked_mse` tape in loss and in every gradient.
    /// A shard that divided by its own mask count would be off by the
    /// batch's mask share, which no thread-invariance test can see.
    #[test]
    fn shard_sum_matches_one_batched_tape() {
        use imdiff_nn::ops::masked_mse;

        let cfg = tiny_cfg();
        let (k, l, b) = (3, cfg.window, 3);
        let cell = k * l;
        let model = ImTransformer::new(&cfg, k, 5);
        let mut rng = seeded(17);
        // Mask densities differ per sample, so per-sample divisors differ.
        let samples: Vec<Sample> = (0..b)
            .map(|i| Sample {
                x_val: normal_vec(&mut rng, cell),
                x_ref: normal_vec(&mut rng, cell),
                tgt: (0..cell)
                    .map(|_| f32::from(rng.gen_range(0..i + 2) == 0))
                    .collect(),
                eps: normal_vec(&mut rng, cell),
                t: 1 + i,
                policy: i % 2,
            })
            .collect();
        let active: f32 = samples.iter().flat_map(|s| &s.tgt).sum();
        let shards = run_shards(&model, &cfg, &samples, active);
        let shard_loss: f32 = shards.iter().map(|s| s.loss).sum();

        let batch = |f: fn(&Sample) -> &Vec<f32>| {
            let data = samples.iter().flat_map(|s| f(s).iter().copied()).collect();
            Tensor::from_vec(data, &[b, k, l]).unwrap()
        };
        let steps: Vec<usize> = samples.iter().map(|s| s.t).collect();
        let policies: Vec<usize> = samples.iter().map(|s| s.policy).collect();
        let eps_hat = model.forward(&batch(|s| &s.x_val), &batch(|s| &s.x_ref), &steps, &policies);
        let loss = masked_mse(&eps_hat, &batch(|s| &s.eps), &batch(|s| &s.tgt));
        backward(&loss);

        assert!(
            (shard_loss - loss.item()).abs() <= 1e-6 * loss.item().abs().max(1.0),
            "shard losses sum to {shard_loss}, batched tape reads {}",
            loss.item()
        );
        for (i, p) in model.params().iter().enumerate() {
            let want = p.grad().expect("batched tape reaches every parameter");
            let mut got = vec![0.0f32; want.len()];
            for shard in &shards {
                let g = shard.grads[i].as_ref().expect("shard reaches every parameter");
                for (acc, v) in got.iter_mut().zip(g) {
                    *acc += v;
                }
            }
            let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let err = got
                .iter()
                .zip(&want)
                .fold(0.0f32, |m, (a, w)| m.max((a - w).abs()));
            assert!(
                err <= 1e-5 * scale,
                "parameter {i}: summed shard grads differ by {err} (scale {scale})"
            );
        }
    }

    #[test]
    fn median_handles_even_and_odd() {
        let odd: VecDeque<f32> = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(median(&odd), 2.0);
        let even: VecDeque<f32> = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
        assert_eq!(median(&even), 2.5);
    }
}
