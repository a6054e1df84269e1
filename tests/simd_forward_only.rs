//! Contract tests for the SIMD dispatch tiers and tape-free forward-only
//! execution added for the inference fast path.
//!
//! The determinism contract has two halves:
//! - **within a tier**: results are bit-identical run-to-run and at any
//!   thread count, and the tape-free forward path reproduces the graph
//!   path bit-for-bit;
//! - **across tiers**: AVX2+FMA contracts intermediate roundings, so the
//!   SIMD and scalar kernels agree only to an elementwise tolerance.

use imdiffusion_repro::nn::simd::{self, Tier};
use imdiffusion_repro::nn::{pool, rng::seeded, Tensor};
use rand::Rng;

fn filled(len: usize, rng: &mut impl Rng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// SIMD and scalar matmul agree within a relative elementwise tolerance on
/// random shapes, including shapes that exercise the packed panel edge
/// lanes (n not a multiple of the panel width) and the k remainder.
#[test]
fn simd_matmul_matches_scalar_within_tolerance() {
    if !simd::avx2_available() {
        eprintln!("skipping: AVX2 unavailable");
        return;
    }
    let mut rng = seeded(71);
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (4, 8, 16),
        (5, 23, 19),
        (17, 64, 33),
        (3, 7, 47),
        (32, 96, 96),
    ] {
        let a = filled(m * k, &mut rng);
        let b = filled(k * n, &mut rng);
        let run = |t: Tier| {
            simd::with_tier(t, || {
                let at = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
                let bt = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
                at.matmul(&bt).to_vec()
            })
        };
        let fast = run(Tier::Avx2Fma);
        let slow = run(Tier::Scalar);
        for (i, (x, y)) in fast.iter().zip(&slow).enumerate() {
            let scale = y.abs().max(1.0);
            assert!(
                (x - y).abs() <= 1e-4 * scale,
                "({m}x{k}x{n}) elem {i}: simd {x} vs scalar {y}"
            );
        }
    }
}

/// IEEE faithfulness: neither tier may skip zero multiplicands, so a NaN
/// paired with a zero weight must poison the output under both tiers.
#[test]
fn zero_times_nan_propagates_under_both_tiers() {
    let mut tiers = vec![Tier::Scalar];
    if simd::avx2_available() {
        tiers.push(Tier::Avx2Fma);
    }
    for t in tiers {
        let y = simd::with_tier(t, || {
            let a = Tensor::from_vec(vec![f32::NAN, 1.0], &[1, 2]).unwrap();
            let b = Tensor::from_vec(vec![0.0, 0.0, 2.0, 2.0], &[2, 2]).unwrap();
            a.matmul(&b).to_vec()
        });
        assert!(
            y.iter().all(|v| v.is_nan()),
            "{}: 0*NaN must propagate, got {y:?}",
            t.name()
        );
    }
}

/// The packed-panel cache is keyed by parameter generation: mutating a
/// cached weight in place must invalidate the stale panels.
#[test]
fn pack_cache_invalidated_on_param_update() {
    if !simd::avx2_available() {
        eprintln!("skipping: AVX2 unavailable");
        return;
    }
    let mut rng = seeded(73);
    let a = filled(6 * 24, &mut rng);
    let b0 = filled(24 * 18, &mut rng);
    let b1 = filled(24 * 18, &mut rng);

    let w = Tensor::param_from_vec(b0, &[24, 18]).unwrap();
    let x = Tensor::from_vec(a.clone(), &[6, 24]).unwrap();
    let _warm = x.matmul(&w).to_vec(); // populates the panel cache
    w.set_data(&b1); // bumps the generation
    let after = x.matmul(&w).to_vec();

    let fresh_w = Tensor::param_from_vec(b1.clone(), &[24, 18]).unwrap();
    let fresh = x.matmul(&fresh_w).to_vec();
    assert_eq!(bits(&after), bits(&fresh), "stale packed panels were reused");
}

/// The SIMD path is run-to-run deterministic at every thread count: the
/// per-element accumulation order is fixed, so only the work partitioning
/// changes with the pool width.
#[test]
fn simd_matmul_thread_and_rerun_invariant() {
    if !simd::avx2_available() {
        eprintln!("skipping: AVX2 unavailable");
        return;
    }
    let mut rng = seeded(79);
    let a = filled(9 * 41, &mut rng);
    let b = filled(41 * 37, &mut rng);
    let run = || {
        simd::with_tier(Tier::Avx2Fma, || {
            let at = Tensor::from_vec(a.clone(), &[9, 41]).unwrap();
            let bt = Tensor::from_vec(b.clone(), &[41, 37]).unwrap();
            at.matmul(&bt).to_vec()
        })
    };
    let reference = bits(&pool::with_threads(1, run));
    for t in [1usize, 2, 4, 8] {
        for rerun in 0..2 {
            let got = bits(&pool::with_threads(t, run));
            assert_eq!(got, reference, "t={t} rerun={rerun} diverged");
        }
    }
}

mod forward_only_inference {
    use imdiffusion_repro::core::{ImDiffusionConfig, ImDiffusionDetector, ImTransformer};
    use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
    use imdiffusion_repro::data::Detector;
    use imdiffusion_repro::nn::{forward_only, no_grad, pool, Tensor};

    fn fitted() -> (
        ImDiffusionDetector,
        imdiffusion_repro::data::synthetic::LabeledDataset,
    ) {
        let size = SizeProfile {
            train_len: 160,
            test_len: 64,
        };
        let ds = generate(Benchmark::Gcp, &size, 3);
        let cfg = ImDiffusionConfig {
            train_steps: 8,
            ddim_steps: Some(4),
            ..ImDiffusionConfig::quick()
        };
        let mut det = ImDiffusionDetector::new(cfg, 9);
        pool::with_threads(1, || det.fit(&ds.train).expect("fit"));
        (det, ds)
    }

    /// Tape-free forward-only execution reproduces the `no_grad` path
    /// bit-for-bit on the same dispatch tier, at 1 and N threads: the
    /// arena recycles buffers and skips node construction but never
    /// changes any arithmetic. Several denoiser calls share one scope, so
    /// later calls run on buffers recycled from earlier ones.
    #[test]
    fn forward_only_bit_identical_to_tape_path() {
        let cfg = ImDiffusionConfig::quick();
        let (b, k, l) = (2usize, 3usize, cfg.window);
        let model = ImTransformer::new(&cfg, k, 9);
        let input = |phase: f32| {
            let data = (0..b * k * l)
                .map(|i| (i as f32 * 0.37 + phase).sin())
                .collect();
            Tensor::from_vec(data, &[b, k, l]).expect("input")
        };
        let inputs: Vec<(Tensor, Tensor)> = (0..4)
            .map(|i| (input(i as f32), input(0.5 - i as f32)))
            .collect();
        let run = || -> Vec<Vec<u32>> {
            inputs
                .iter()
                .enumerate()
                .map(|(i, (x_val, x_ref))| {
                    let (steps, policies) = ([i + 1, 2 * i + 1], [i % 2, 1 - i % 2]);
                    let eps = model.forward(x_val, x_ref, &steps, &policies);
                    eps.to_vec().iter().map(|v| v.to_bits()).collect()
                })
                .collect()
        };
        for t in [1usize, 4] {
            let reference = pool::with_threads(t, || no_grad(run));
            let fwd = pool::with_threads(t, || forward_only(run));
            assert_eq!(fwd, reference, "forward-only outputs differ at {t} threads");
        }
    }

    /// Arena buffer recycling is invisible: two consecutive detections
    /// (both forward-only) produce identical bits (recycled buffers are
    /// re-zeroed, never reused dirty).
    #[test]
    fn forward_only_rerun_identical() {
        let (mut det, ds) = fitted();
        let one = det.detect(&ds.test).expect("detect");
        let two = det.detect(&ds.test).expect("detect");
        let a: Vec<u64> = one.scores.iter().map(|s| s.to_bits()).collect();
        let b: Vec<u64> = two.scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a, b);
        assert_eq!(one.labels, two.labels);
    }
}
