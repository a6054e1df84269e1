//! The offline workloads: `detect_offline` (the paper's batch detection
//! path) and `train` (the DDPM training loop with the autodiff tape and
//! Adam). Both run many short ops on the calling thread at the pool's
//! default width, with every op checked bit-for-bit.

use std::time::{Duration, Instant};

use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
use imdiff_data::{Detector, Mts};
use imdiff_registry::{AnyDetector, DetectorKind};
use imdiffusion::{ImDiffusionConfig, ImDiffusionDetector, TrainerOptions};

use crate::common::{
    median, mix, Budget, Digest, E2e, Mark, OpSample, Ops, Outcome, RunDir, Setups,
};
use crate::trace::{self, LayerInputs, Segments};

/// Rows of the offline test series: 16 non-overlapping windows of 48,
/// i.e. two window groups of eight.
const DETECT_ROWS: usize = 768;
/// Optimizer steps of the untimed fit that produces the checkpoint
/// `detect_offline` restores (weights only need to be a real fit).
const DETECT_FIT_STEPS: usize = 8;
/// Rows of the `train` split.
const TRAIN_ROWS: usize = 600;
/// Optimizer steps per timed `train` op.
const TRAIN_STEPS: usize = 3;
/// Set-ups within the steal limit per `detect_offline` run.
const SETUP_REPS: usize = 5;
/// `train` set-ups (one optimizer step each) within the steal limit per
/// run.
const TRAIN_SETUP_REPS: usize = 15;
/// Latency limits for `goodput_rps`: an op slower than this is a miss.
const DETECT_LIMIT_MS: f64 = 2000.0;
const TRAIN_LIMIT_MS: f64 = 2000.0;

fn detect_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        ddim_steps: Some(4),
        train_steps: DETECT_FIT_STEPS,
        ..ImDiffusionConfig::quick()
    }
}

fn train_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        train_steps: TRAIN_STEPS,
        ..ImDiffusionConfig::quick()
    }
}

fn score_digest(scores: &[f64], labels: Option<&[bool]>) -> u64 {
    let mut d = Digest::new();
    for s in scores {
        d.add(s.to_bits());
    }
    for &l in labels.unwrap_or(&[]) {
        d.add(l as u64);
    }
    d.value()
}

fn detect_once(det: &mut AnyDetector, test: &Mts) -> Option<u64> {
    let im = det.as_imdiffusion_mut()?;
    let out = im.detect(test).ok()?;
    Some(score_digest(&out.scores, out.labels.as_deref()))
}

fn load(
    cfg: &ImDiffusionConfig,
    seed: u64,
    channels: usize,
    bytes: &[u8],
    traced: bool,
) -> Option<AnyDetector> {
    trace::timed_when(traced, "registry.load", "setup", 0, || {
        AnyDetector::load_bytes(cfg, seed, channels, bytes).ok()
    })
}

/// Repeated `ImDiffusionDetector::detect` over a fixed 768-row series.
pub fn detect_offline(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let ds = generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: 400,
            test_len: DETECT_ROWS,
        },
        mix(seed, 1),
    );
    let cfg = detect_cfg();
    let det_seed = mix(seed, 2);
    let channels = ds.train.dim();
    let dir = RunDir::new("detect").map_err(|e| e.to_string())?;
    let path = dir.path("detector.imde");

    // Untimed preparation: fit and persist the checkpoint, then the
    // width-1 reference scores every call must reproduce bit-for-bit.
    let mut fitted = AnyDetector::new(DetectorKind::ImDiffusion, cfg.clone(), det_seed);
    fitted.fit(&ds.train).map_err(|e| format!("fit: {e}"))?;
    trace::timed_when(traced, "registry.save", "prep", 0, || fitted.save(&path))
        .map_err(|e| format!("save: {e}"))?;
    drop(fitted);
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    let reference = imdiff_nn::pool::with_threads(1, || {
        load(&cfg, det_seed, channels, &bytes, false)
            .and_then(|mut d| detect_once(&mut d, &ds.test))
    })
    .ok_or("width-1 reference detection failed")?;

    let mut setup_ops = Ops::default();
    let mut setups = Setups::new(SETUP_REPS);
    let mut det = loop {
        let t0 = Mark::now();
        let loaded = std::fs::read(&path)
            .ok()
            .and_then(|b| load(&cfg, det_seed, channels, &b, traced));
        let Some(mut d) = loaded else {
            return Err("restoring the detector failed".into());
        };
        let first = detect_once(&mut d, &ds.test);
        let more = setups.record(&t0);
        if first == Some(reference) {
            setup_ops.ok();
        } else {
            setup_ops.fail();
        }
        if !more {
            break d;
        }
    };

    let rows = ds.test.len() as u64;
    run_loop(
        seconds,
        traced,
        DETECT_LIMIT_MS,
        rows,
        setups,
        setup_ops,
        || detect_once(&mut det, &ds.test) == Some(reference),
    )
}

fn fit_once(cfg: &ImDiffusionConfig, seed: u64, train: &Mts) -> Option<u64> {
    let mut det = ImDiffusionDetector::new(cfg.clone(), seed);
    det.fit_resumable(train, TrainerOptions::default()).ok()?;
    let mut d = Digest::new();
    d.add(det.last_train_report()?.final_loss().to_bits() as u64);
    for w in det.to_spec()?.weights() {
        for v in w {
            d.add(v.to_bits() as u64);
        }
    }
    Some(d.value())
}

/// Repeated short fits through the resumable `Trainer`.
pub fn train(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let ds = generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: TRAIN_ROWS,
            test_len: 48,
        },
        mix(seed, 3),
    );
    let cfg = train_cfg();
    let det_seed = mix(seed, 4);

    // Untimed preparation: the digest every timed fit must reproduce.
    let reference = fit_once(&cfg, det_seed, &ds.train).ok_or("reference fit failed")?;

    // Set-up: a fresh detector and `Trainer` through the first optimizer
    // step, so it shares no work with the timed three-step fits beyond
    // that step.
    let first_step = ImDiffusionConfig {
        train_steps: 1,
        ..cfg.clone()
    };
    let mut setup_ops = Ops::default();
    let mut setups = Setups::new(TRAIN_SETUP_REPS);
    let mut first = None;
    loop {
        let t0 = Mark::now();
        let d = fit_once(&first_step, det_seed, &ds.train);
        let more = setups.record(&t0);
        match (d, first) {
            (Some(d), None) => {
                first = Some(d);
                setup_ops.ok();
            }
            (Some(d), Some(r)) if d == r => setup_ops.ok(),
            _ => setup_ops.fail(),
        }
        if !more {
            break;
        }
    }
    run_loop(
        seconds,
        traced,
        TRAIN_LIMIT_MS,
        ds.train.len() as u64,
        setups,
        setup_ops,
        || fit_once(&cfg, det_seed, &ds.train) == Some(reference),
    )
}

/// The timed phase shared by both offline workloads: run `op` until the
/// time is up; `op` returns whether its output matched the reference.
/// Each op is one slice of the steal filter.
fn run_loop(
    seconds: f64,
    traced: bool,
    limit_ms: f64,
    rows_per_op: u64,
    setups: Setups,
    setup_ops: Ops,
    mut op: impl FnMut() -> bool,
) -> Result<Outcome, String> {
    let total = Duration::from_secs_f64(seconds);
    let mut timed_ops = Ops::default();
    let mut samples = Vec::new();
    let mut lat_traced = Vec::new();
    let segs = Segments::start(total, traced);
    let mut budget = Budget::new(seconds, !traced);
    let mut marks = vec![Mark::now()];
    let t0 = marks[0].at;
    loop {
        let in_trace = segs.tick();
        let s = Instant::now();
        let ok = op();
        let done = Instant::now();
        let ms = (done - s).as_secs_f64() * 1e3;
        if ok {
            timed_ops.ok();
        } else {
            timed_ops.fail();
        }
        if in_trace {
            lat_traced.push(ms);
        } else {
            samples.push(OpSample {
                done,
                ms,
                rows: if ok { rows_per_op } else { 0 },
                good: ok && ms <= limit_ms,
            });
        }
        let m = Mark::now();
        let prev = marks[marks.len() - 1];
        marks.push(m);
        if !budget.more(&marks[0], &prev, &m) {
            break;
        }
    }
    let wall = t0.elapsed();
    trace::stop();

    let phases = vec![("setup", setup_ops), ("timed", timed_ops)];
    let correct = setup_ops.failed == 0 && timed_ops.failed == 0;
    if traced {
        let lat: Vec<f64> = samples.iter().map(|o| o.ms).collect();
        let inp = LayerInputs {
            ops: lat_traced.len() as u64,
            traced_wall: segs.traced_wall(wall),
            p50_untraced_ms: median(&lat),
            p50_traced_ms: median(&lat_traced),
            served: false,
            measured: vec![("pool.dispatch_us", trace::pool_dispatch_us())],
        };
        return Ok(Outcome {
            correct,
            phases,
            metrics: trace::per_layer(&inp),
            notes: Vec::new(),
        });
    }
    let e2e = E2e {
        setups,
        ops: samples,
        marks,
        peak_rss_mb: budget.peak_rss_mb(),
    };
    let (metrics, notes) = e2e.metrics();
    Ok(Outcome {
        correct,
        phases,
        metrics,
        notes,
    })
}
