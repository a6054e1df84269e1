//! Training-resilience properties: interrupt-and-resume must be
//! bit-identical to an uninterrupted run (at any thread count), divergence
//! sentinels must recover from poisoned batches without letting a NaN
//! reach the optimizer, and any corruption of a persisted checkpoint —
//! IMDE detector envelope, IMSM stream sidecar, or IMTS training state —
//! must surface as a typed error, never as silently altered state.

use std::path::PathBuf;
use std::sync::OnceLock;

use imdiffusion_repro::core::{
    stream_path, train, train_resume, ImDiffusionConfig, ImDiffusionDetector, ImTransformer,
    StreamingMonitor, Trainer, TrainerOptions,
};
use imdiffusion_repro::data::{Detector, DetectorError, Mts};
use imdiffusion_repro::diffusion::NoiseSchedule;
use imdiffusion_repro::nn::layers::Module;
use imdiffusion_repro::nn::{pool, Tensor};
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};
use proptest::prelude::*;

const MODEL_SEED: u64 = 3;
const TRAIN_SEED: u64 = 11;

fn tiny_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        window: 16,
        train_stride: 8,
        hidden: 8,
        heads: 2,
        residual_blocks: 1,
        diffusion_steps: 6,
        train_steps: 18,
        batch_size: 2,
        vote_span: 6,
        vote_every: 2,
        ..ImDiffusionConfig::quick()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("imdiff-resilience-{}-{name}", std::process::id()))
}

/// A small deterministic multivariate series: per-channel phase-shifted
/// waves with a mild deterministic jitter. Cheap enough for the 1-core CI
/// runner (the benchmark generators carry 19+ channels; the resilience
/// properties don't depend on channel count).
fn wave(len: usize, k: usize, seed: u64) -> Mts {
    let mut m = Mts::zeros(len, k);
    for t in 0..len {
        for c in 0..k {
            let x = t as f32 * 0.21 + c as f32 * 0.7 + seed as f32;
            let jitter = 0.05 * ((t * 31 + c * 17 + seed as usize) % 13) as f32;
            m.set(t, c, x.sin() + 0.3 * (2.3 * x).cos() + jitter);
        }
    }
    m
}

fn train_series() -> &'static Mts {
    static DATA: OnceLock<Mts> = OnceLock::new();
    DATA.get_or_init(|| wave(96, 4, MODEL_SEED))
}

/// Exact bit patterns of every trainable parameter.
fn param_bits(params: &[Tensor]) -> Vec<Vec<u32>> {
    params
        .iter()
        .map(|p| p.to_vec().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn loss_bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|x| x.to_bits()).collect()
}

/// Runs training to completion in one go and returns (losses, params).
fn uninterrupted(cfg: &ImDiffusionConfig, every: usize) -> (Vec<u32>, Vec<Vec<u32>>) {
    let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
    let model = ImTransformer::new(cfg, train_series().dim(), MODEL_SEED);
    let report = Trainer::new(TrainerOptions {
        checkpoint_every: every,
        ..TrainerOptions::default()
    })
    .run(&model, cfg, &schedule, train_series(), TRAIN_SEED)
    .expect("uninterrupted run");
    (loss_bits(&report.losses), param_bits(&model.params()))
}

/// Runs training interrupted at `stop`, then resumes from the on-disk
/// checkpoint with a *fresh* model, and returns (resumed_at, losses,
/// params) of the resumed run.
fn interrupted_then_resumed(
    cfg: &ImDiffusionConfig,
    every: usize,
    stop: usize,
    path: &std::path::Path,
) -> (Option<usize>, Vec<u32>, Vec<Vec<u32>>) {
    let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
    let k = train_series().dim();

    // "Crash": a run that halts cleanly after `stop` steps, having
    // persisted its state every `every` steps.
    let victim = ImTransformer::new(cfg, k, MODEL_SEED);
    let partial = Trainer::new(TrainerOptions {
        checkpoint_every: every,
        checkpoint_path: Some(path.to_path_buf()),
        stop_after: Some(stop),
        ..TrainerOptions::default()
    })
    .run(&victim, cfg, &schedule, train_series(), TRAIN_SEED)
    .expect("interrupted run");
    assert_eq!(partial.losses.len(), stop);

    // A new process: fresh model, same construction seeds, resume.
    let model = ImTransformer::new(cfg, k, MODEL_SEED);
    let report =
        train_resume(&model, cfg, &schedule, train_series(), TRAIN_SEED, path)
            .expect("resumed run");
    (
        report.resumed_at,
        loss_bits(&report.losses),
        param_bits(&model.params()),
    )
}

/// Headline property: training interrupted at an arbitrary step and
/// resumed from the persisted checkpoint yields bit-identical final
/// parameters and loss curve to the uninterrupted run.
#[test]
fn resume_equivalence_bit_identical() {
    let cfg = tiny_cfg();
    let (ref_losses, ref_params) = uninterrupted(&cfg, 5);
    let path = tmp("resume-eq.imts");
    let (resumed_at, losses, params) = interrupted_then_resumed(&cfg, 5, 13, &path);
    // checkpoint_every = 5, stop at 13 → last persisted anchor is step 10.
    assert_eq!(resumed_at, Some(10));
    assert_eq!(losses, ref_losses, "loss curve diverged after resume");
    assert_eq!(params, ref_params, "final weights diverged after resume");
    std::fs::remove_file(&path).ok();
}

/// The equivalence holds at every thread count, and the trajectories are
/// identical *across* thread counts (the parallel substrate is bit-exact).
#[test]
fn resume_equivalence_thread_invariant() {
    let cfg = tiny_cfg();
    let (ref_losses, ref_params) = pool::with_threads(1, || uninterrupted(&cfg, 4));
    for threads in [2usize, 4] {
        let path = tmp(&format!("resume-t{threads}.imts"));
        let (resumed_at, losses, params) = pool::with_threads(threads, || {
            interrupted_then_resumed(&cfg, 4, 10, &path)
        });
        assert_eq!(resumed_at, Some(8));
        assert_eq!(losses, ref_losses, "{threads} threads: loss curve diverged");
        assert_eq!(params, ref_params, "{threads} threads: weights diverged");
        std::fs::remove_file(&path).ok();
    }
}

/// The detector-level wrapper: `fit_resumable` interrupted mid-run and
/// invoked again completes the fit and detects bitwise identically to a
/// plain uninterrupted `fit`.
#[test]
fn fit_resumable_matches_plain_fit() {
    let train = train_series();
    let test = wave(40, 4, 9);
    let cfg = ImDiffusionConfig {
        train_steps: 15,
        ..tiny_cfg()
    };
    let mut plain = ImDiffusionDetector::new(cfg.clone(), MODEL_SEED);
    plain.fit(train).unwrap();
    let reference = plain.detect(&test).unwrap();

    let path = tmp("fit-resumable.imts");
    let mut det = ImDiffusionDetector::new(cfg.clone(), MODEL_SEED);
    det.fit_resumable(
        train,
        TrainerOptions {
            checkpoint_every: 4,
            checkpoint_path: Some(path.clone()),
            stop_after: Some(9),
            ..TrainerOptions::default()
        },
    )
    .unwrap();
    // Second call finds the IMTS file and resumes instead of restarting.
    det.fit_resumable(
        train,
        TrainerOptions {
            checkpoint_every: 4,
            checkpoint_path: Some(path.clone()),
            ..TrainerOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        det.last_train_report().and_then(|r| r.resumed_at),
        Some(8)
    );
    let resumed = det.detect(&test).unwrap();
    let score_bits =
        |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(score_bits(&resumed.scores), score_bits(&reference.scores));
    assert_eq!(resumed.labels, reference.labels);
    std::fs::remove_file(&path).ok();
}

/// A NaN cell poisoning a couple of training windows trips the sentinel:
/// the trainer rolls back, retries, records the incidents — and still
/// finishes with finite losses and finite weights, because the poisoned
/// update never reaches the optimizer.
#[test]
fn sentinel_recovers_from_poisoned_window() {
    let cfg = tiny_cfg();
    let mut data = train_series().clone();
    // Row 88 falls in exactly one stride-8 window (offset 80), so roughly
    // one batch in six samples the poisoned window.
    data.set(88, 0, f32::NAN);
    let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
    let model = ImTransformer::new(&cfg, data.dim(), MODEL_SEED);
    // A tight rollback anchor keeps each retry cheap: with the default
    // cadence (32 > train_steps) every trip would replay from step 0.
    let report = Trainer::new(TrainerOptions {
        checkpoint_every: 2,
        ..TrainerOptions::default()
    })
    .run(&model, &cfg, &schedule, &data, TRAIN_SEED)
    .expect("sentinel must recover, not abort");
    assert!(
        !report.incidents.is_empty(),
        "poisoned window never sampled — incident log empty"
    );
    assert_eq!(report.losses.len(), cfg.train_steps);
    assert!(report.losses.iter().all(|l| l.is_finite()));
    for p in model.params() {
        assert!(p.to_vec().iter().all(|x| x.is_finite()));
    }
}

/// Unrecoverable data (every window NaN): the consecutive-retry budget
/// exhausts and training aborts with a typed error instead of looping or
/// handing NaN weights back.
#[test]
fn all_nan_data_aborts_with_typed_error() {
    let cfg = tiny_cfg();
    let mut data = Mts::zeros(48, 2);
    data.values_mut().fill(f32::NAN);
    let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
    let model = ImTransformer::new(&cfg, 2, MODEL_SEED);
    let err = train(&model, &cfg, &schedule, &data, TRAIN_SEED).unwrap_err();
    assert!(matches!(err, DetectorError::Internal(_)), "{err}");
    assert!(err.to_string().contains("diverged"));
}

/// Observability enabled vs disabled must leave the training trajectory
/// bit-identical: the spans/histograms never touch the RNG stream, the
/// batch composition, or the update arithmetic. Also checks the snapshot
/// captured the trainer's spans with consistent total/self durations.
#[test]
fn observability_does_not_perturb_training() {
    use imdiffusion_repro::nn::obs;

    let cfg = tiny_cfg();
    obs::set_enabled(false);
    let (ref_losses, ref_params) = uninterrupted(&cfg, 5);

    obs::set_enabled(true);
    obs::reset();
    let (losses, params) = uninterrupted(&cfg, 5);
    let snap = obs::snapshot();
    obs::set_enabled(false);

    assert_eq!(losses, ref_losses, "obs-enabled losses diverged");
    assert_eq!(params, ref_params, "obs-enabled weights diverged");

    let run = snap.span("trainer.run").expect("trainer.run span");
    assert!(run.count >= 1);
    let step = snap.span("trainer.step").expect("trainer.step span");
    assert!(step.count >= cfg.train_steps as u64);
    assert!(step.total_ns >= step.self_ns);
    // `>=`: other tests in this binary may train concurrently while the
    // toggle is on — their steps land in the same registry.
    assert!(snap.counter("trainer.steps").unwrap_or(0) >= cfg.train_steps as u64);
    let loss_hist = snap.histogram("trainer.loss").expect("trainer.loss histogram");
    assert!(loss_hist.count >= cfg.train_steps as u64);
    assert!(snap.histogram("trainer.grad_norm").is_some());
}

// ---------------------------------------------------------------------------
// Corruption properties: no damaged checkpoint ever loads
// ---------------------------------------------------------------------------

/// Pristine bytes of each persisted artifact: IMDE detector envelope,
/// IMSM stream sidecar, IMTS training state — plus the channel count.
struct Artifacts {
    imde: Vec<u8>,
    imsm: Vec<u8>,
    imts: Vec<u8>,
    channels: usize,
}

fn artifacts() -> &'static Artifacts {
    static SETUP: OnceLock<Artifacts> = OnceLock::new();
    SETUP.get_or_init(|| {
        let cfg = corrupt_cfg();
        let train = train_series();
        let test = wave(32, 4, 23);
        let k = train.dim();
        let mut det = AnyDetector::new(DetectorKind::ImDiffusion, cfg.clone(), MODEL_SEED);
        det.fit(train).unwrap();

        let imde_path = tmp("pristine.imde");
        det.save(&imde_path).unwrap();
        let imde = std::fs::read(&imde_path).unwrap();

        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();
        for l in 0..24 {
            monitor.push(test.row(l)).unwrap();
        }
        monitor.checkpoint_stream(&imde_path).unwrap();
        let imsm = std::fs::read(stream_path(&imde_path)).unwrap();
        std::fs::remove_file(&imde_path).ok();
        std::fs::remove_file(stream_path(&imde_path)).ok();

        let imts_path = tmp("pristine.imts");
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let model = ImTransformer::new(&cfg, k, MODEL_SEED);
        Trainer::new(TrainerOptions {
            checkpoint_every: 4,
            checkpoint_path: Some(imts_path.clone()),
            stop_after: Some(9),
            ..TrainerOptions::default()
        })
        .run(&model, &cfg, &schedule, train, TRAIN_SEED)
        .unwrap();
        let imts = std::fs::read(&imts_path).unwrap();
        std::fs::remove_file(&imts_path).ok();

        Artifacts {
            imde,
            imsm,
            imts,
            channels: k,
        }
    })
}

fn corrupt_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        train_steps: 10,
        ..tiny_cfg()
    }
}

fn flip(bytes: &[u8], idx: usize, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let i = idx % out.len();
    out[i] ^= 1 << bit;
    out
}

/// Loads an IMDE envelope the way a serving host does.
fn load_imde(path: &std::path::Path) -> Result<AnyDetector, DetectorError> {
    AnyDetector::load(&corrupt_cfg(), MODEL_SEED, artifacts().channels, path)
}

/// Restores a monitor from the pristine envelope plus `imsm` as its
/// sidecar, the way failover adoption does.
fn restore_imsm(name: &str, imsm: &[u8]) -> Result<StreamingMonitor<AnyDetector>, DetectorError> {
    let path = tmp(name);
    std::fs::write(&path, &artifacts().imde).unwrap();
    std::fs::write(stream_path(&path), imsm).unwrap();
    let res = load_imde(&path).and_then(|det| StreamingMonitor::restore_with(det, &path));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(stream_path(&path)).ok();
    res
}

/// Resumes training from `imts` as the IMTS checkpoint.
fn resume_imts(name: &str, imts: &[u8]) -> Result<(), DetectorError> {
    let cfg = corrupt_cfg();
    let path = tmp(name);
    std::fs::write(&path, imts).unwrap();
    let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
    let model = ImTransformer::new(&cfg, artifacts().channels, MODEL_SEED);
    let res = train_resume(&model, &cfg, &schedule, train_series(), TRAIN_SEED, &path);
    std::fs::remove_file(&path).ok();
    res.map(drop)
}

/// Every single-bit flip in the 12-byte record header (magic, version,
/// CRC) of each file format is a typed error. The version field sits
/// under the CRC and each reader accepts exactly one version, so no flip
/// can hand the body to another version's parser.
#[test]
fn header_bit_flips_never_load() {
    let a = artifacts();
    for idx in 0..12 {
        for bit in 0..8 {
            let path = tmp("header-flip.imde");
            std::fs::write(&path, flip(&a.imde, idx, bit)).unwrap();
            let res = load_imde(&path);
            std::fs::remove_file(&path).ok();
            assert!(
                matches!(res, Err(DetectorError::CorruptCheckpoint(_))),
                "IMDE header byte {idx} bit {bit} was not refused as corrupt"
            );

            let res = restore_imsm("header-flip-stream.imde", &flip(&a.imsm, idx, bit));
            assert!(
                matches!(res, Err(DetectorError::CorruptCheckpoint(_))),
                "IMSM header byte {idx} bit {bit} was not refused as corrupt"
            );

            let res = resume_imts("header-flip.imts", &flip(&a.imts, idx, bit));
            assert!(
                matches!(res, Err(DetectorError::CorruptCheckpoint(_))),
                "IMTS header byte {idx} bit {bit} was not refused as corrupt"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single bit flip anywhere in an IMDE detector envelope makes
    /// the load fail with a typed error — never `Ok` with altered weights.
    #[test]
    fn flipped_byte_never_loads_imde(idx in 0usize..1 << 20, bit in 0u8..8) {
        let a = artifacts();
        let path = tmp("flip.imde");
        std::fs::write(&path, flip(&a.imde, idx, bit)).unwrap();
        let res = load_imde(&path);
        let err = match res {
            Ok(_) => {
                std::fs::remove_file(&path).ok();
                return Err(TestCaseError::fail("corrupted IMDE loaded"));
            }
            Err(e) => e,
        };
        std::fs::remove_file(&path).ok();
        prop_assert!(
            matches!(
                err,
                DetectorError::CorruptCheckpoint(_) | DetectorError::InvalidTrainingData(_)
            ),
            "unexpected error class: {err}"
        );
    }

    /// The same property for the IMSM stream sidecar.
    #[test]
    fn flipped_byte_never_restores_imsm(idx in 0usize..1 << 20, bit in 0u8..8) {
        let a = artifacts();
        let res = restore_imsm("flip-stream.imde", &flip(&a.imsm, idx, bit));
        match res {
            Ok(_) => return Err(TestCaseError::fail("corrupted IMSM restored")),
            Err(e) => prop_assert!(
                matches!(e, DetectorError::CorruptCheckpoint(_)),
                "unexpected error class: {e}"
            ),
        }
    }

    /// And for the IMTS training-state file: a flipped byte can never feed
    /// a resumed run from silently altered optimizer or RNG state.
    #[test]
    fn flipped_byte_never_resumes_imts(idx in 0usize..1 << 20, bit in 0u8..8) {
        let a = artifacts();
        let res = resume_imts("flip.imts", &flip(&a.imts, idx, bit));
        match res {
            Ok(_) => return Err(TestCaseError::fail("corrupted IMTS resumed")),
            Err(e) => prop_assert!(
                matches!(e, DetectorError::CorruptCheckpoint(_)),
                "unexpected error class: {e}"
            ),
        }
    }

    /// A truncated file of any of the three formats — a torn write that an
    /// atomic rename prevents, simulated directly — is always rejected.
    #[test]
    fn truncated_checkpoints_never_load(cut in 0usize..1 << 20) {
        let a = artifacts();

        let path = tmp("trunc.imde");
        std::fs::write(&path, &a.imde[..cut % a.imde.len()]).unwrap();
        let r = load_imde(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(
            matches!(r, Err(DetectorError::CorruptCheckpoint(_))),
            "truncated IMDE must be corrupt"
        );

        let r = restore_imsm("trunc-stream.imde", &a.imsm[..cut % a.imsm.len()]);
        prop_assert!(
            matches!(r, Err(DetectorError::CorruptCheckpoint(_))),
            "truncated IMSM must be corrupt"
        );

        let r = resume_imts("trunc.imts", &a.imts[..cut % a.imts.len()]);
        prop_assert!(
            matches!(r, Err(DetectorError::CorruptCheckpoint(_))),
            "truncated IMTS must be corrupt"
        );
    }
}
