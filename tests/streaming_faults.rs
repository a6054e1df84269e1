//! Fault-injection property tests: [`StreamingMonitor::push`] must never
//! panic, and every verdict it emits must carry a finite score — no matter
//! what combination of NaN cells, dropped-row gaps, stuck channels and
//! spikes the (seeded) fault injector throws at it. Failures must surface
//! only as typed [`DetectorError`] values.

use std::path::PathBuf;
use std::sync::OnceLock;

use imdiffusion_repro::core::{ImDiffusionConfig, StreamingMonitor};
use imdiffusion_repro::data::faults::{Fault, FaultInjector};
use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
use imdiffusion_repro::data::{Detector, DetectorError, Mts};
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};
use proptest::prelude::*;

const SEED: u64 = 97;
const HOP: usize = 4;

fn tiny_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        window: 16,
        train_stride: 8,
        hidden: 8,
        heads: 2,
        residual_blocks: 1,
        diffusion_steps: 6,
        train_steps: 15,
        batch_size: 2,
        vote_span: 6,
        vote_every: 2,
        ..ImDiffusionConfig::quick()
    }
}

/// Trains one tiny detector and checkpoints it; each property case then
/// restores a fresh monitor from the checkpoint instead of re-training.
fn shared_checkpoint() -> &'static (PathBuf, usize, Mts) {
    static SETUP: OnceLock<(PathBuf, usize, Mts)> = OnceLock::new();
    SETUP.get_or_init(|| {
        let ds = generate(
            Benchmark::Smd,
            &SizeProfile {
                train_len: 96,
                test_len: 64,
            },
            SEED,
        );
        let mut det = AnyDetector::new(DetectorKind::ImDiffusion, tiny_cfg(), SEED);
        det.fit(&ds.train).expect("fit tiny detector");
        let path = std::env::temp_dir().join(format!(
            "imdiff-streaming-faults-{}.imde",
            std::process::id()
        ));
        det.save(&path).expect("write shared checkpoint");
        (path, ds.train.dim(), ds.test)
    })
}

fn fresh_monitor() -> StreamingMonitor<AnyDetector> {
    let (path, channels, _) = shared_checkpoint();
    let det = AnyDetector::load(&tiny_cfg(), SEED, *channels, path)
        .expect("restore shared checkpoint");
    StreamingMonitor::new(det, *channels, HOP).expect("monitor from fitted detector")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn push_never_panics_under_injected_faults(
        fault_seed in 0u64..10_000,
        nan_rate in 0.0f64..0.3,
        gap_start in 0usize..56,
        gap_len in 0usize..20,
        stuck_channel in 0usize..40,
        stuck_start in 0usize..56,
        stuck_len in 0usize..24,
        spike_rate in 0.0f64..0.1,
        spike_magnitude in 0.5f32..25.0,
    ) {
        let (_, _, clean) = shared_checkpoint();
        let stream = FaultInjector::new(fault_seed)
            .with(Fault::NanCells { rate: nan_rate })
            .with(Fault::Gap { start: gap_start, len: gap_len })
            .with(Fault::StuckChannel {
                channel: stuck_channel, // out-of-range channels are ignored
                start: stuck_start,
                len: stuck_len,
            })
            .with(Fault::Spikes { rate: spike_rate, magnitude: spike_magnitude })
            .corrupt(clean);

        let mut mon = fresh_monitor();
        let mut pending_gap = 0usize;
        for row in &stream.rows {
            let Some(values) = row else {
                pending_gap += 1;
                continue;
            };
            if pending_gap > 0 {
                mon.notify_gap(pending_gap);
                pending_gap = 0;
            }
            match mon.push(values) {
                Ok(verdicts) => {
                    for v in verdicts {
                        prop_assert!(
                            v.score.is_finite(),
                            "non-finite score {} at index {} (degraded = {})",
                            v.score,
                            v.index,
                            v.degraded
                        );
                    }
                }
                // The injector only produces finite values and NaNs, and
                // every row has the right width — any error here would be
                // a monitor bug, not a caller mistake.
                Err(e) => prop_assert!(
                    !matches!(
                        e,
                        DetectorError::DimensionMismatch { .. }
                            | DetectorError::NotFitted
                            | DetectorError::NonFiniteInput { .. }
                    ),
                    "unexpected typed error: {e}"
                ),
            }
        }
        prop_assert_eq!(mon.health().rows_rejected, 0);
        prop_assert!(mon.seen() >= stream.delivered() as u64);
    }
}
