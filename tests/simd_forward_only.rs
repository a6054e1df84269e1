//! Contract tests for the SIMD dispatch tiers and tape-free forward-only
//! execution added for the inference fast path.
//!
//! The determinism contract: results are bit-identical run to run, at
//! any thread count, and **on every tier** — the Scalar tier runs the
//! Avx2Fma kernels' own source on portable lanes, so the two are one
//! arithmetic at two speeds. The tape-free forward path reproduces the
//! graph path bit-for-bit, and so does a training tape whose buffers are
//! recycled through the arena.

use imdiffusion_repro::nn::ops::Act;
use imdiffusion_repro::nn::simd::{self, Tier};
use imdiffusion_repro::nn::{backward, pool, rng::seeded, Tensor};
use rand::Rng;

fn filled(len: usize, rng: &mut impl Rng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The edge values every cross-tier case feeds its kernels.
const EDGES: [f32; 12] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    88.4,
    -88.4,
    1e-40,
    -3e-39,
    -0.0,
    0.0,
    f32::MIN_POSITIVE,
    9.5,
    -9.5,
];

/// `len` values of a smooth wave in about `[-3, 3)`, with the edge values
/// in turn at every `every`-th position from `first`.
fn edged(len: usize, phase: f32, first: usize, every: usize) -> Vec<f32> {
    (0..len)
        .map(|i| match i.checked_sub(first) {
            Some(e) if e % every == 0 => EDGES[e / every % EDGES.len()],
            _ => 3.0 * (i as f32 * 0.731 + phase).sin(),
        })
        .collect()
}

/// Bit equality, with any NaN equal to any NaN.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        assert!(same, "{what}: element {i}: {g:e} ({:#010x}) vs {w:e} ({:#010x})", g.to_bits(), w.to_bits());
    }
}

/// An op of the cross-tier table, on its differentiated inputs.
type Op = Box<dyn Fn(&[Tensor]) -> Tensor>;

/// One op of the cross-tier table: its inputs (values and dims, all
/// differentiated) and the op on them.
struct Case {
    name: String,
    inputs: Vec<(Vec<f32>, Vec<usize>)>,
    op: Op,
}

impl Case {
    fn new(name: String, inputs: Vec<(Vec<f32>, Vec<usize>)>, op: impl Fn(&[Tensor]) -> Tensor + 'static) -> Case {
        Case { name, inputs, op: Box::new(op) }
    }

    /// The output and every input's gradient of `Σ op(inputs) ⊙ r` for a
    /// fixed `r`, on `tier`.
    fn run(&self, tier: Tier) -> Vec<Vec<f32>> {
        simd::with_tier(tier, || {
            let params: Vec<Tensor> =
                self.inputs.iter().map(|(v, d)| Tensor::param_from_vec(v.clone(), d).unwrap()).collect();
            let y = (self.op)(&params);
            let r: Vec<f32> = (0..y.numel()).map(|i| (i as f32 * 1.37).cos()).collect();
            backward(&y.mul(&Tensor::from_vec(r, y.dims()).unwrap()).sum_all());
            let mut all = vec![y.to_vec()];
            all.extend(params.iter().map(|p| p.grad().unwrap_or_default()));
            all
        })
    }
}

/// Every kernel the tiers dispatch, forward and backward: `linear` with
/// each activation, the standalone activations, `gated_tanh`,
/// `softmax_last`, `conv1d`, and `sdpa` at the head widths with a
/// compile-time instance (4, 8, 16) and one read at run time (6).
/// Lengths are not multiples of 8, and the inputs carry NaN, ±inf,
/// ±88.4, denormals and −0.0: the edge values sit densely in elementwise
/// inputs and sparsely where a reduction would spread one NaN over the
/// whole output.
fn cross_tier_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for act in [Act::Identity, Act::Relu, Act::Gelu, Act::Silu] {
        for (xd, n) in [(vec![37usize, 16], 13usize), (vec![2, 5, 9], 20)] {
            let k = xd[xd.len() - 1];
            let m: usize = xd.iter().product();
            let inputs = vec![
                (edged(m, 0.1, 3, 29), xd.clone()),
                (edged(k * n, 0.7, 2, 41).iter().map(|v| if v.is_finite() { v / 4.0 } else { 0.5 }).collect(), vec![k, n]),
                (edged(n, 1.3, 1, 7).iter().map(|v| if v.is_finite() { *v } else { -0.0 }).collect(), vec![n]),
            ];
            cases.push(Case::new(format!("linear {act:?} {xd:?}x{n}"), inputs, move |t| t[0].linear(&t[1], Some(&t[2]), act)));
        }
    }
    type Unary = fn(&Tensor) -> Tensor;
    let unary: [(&str, Unary); 4] =
        [("tanh", Tensor::tanh), ("sigmoid", Tensor::sigmoid), ("silu", Tensor::silu), ("gelu", Tensor::gelu)];
    for (name, f) in unary {
        cases.push(Case::new(name.to_string(), vec![(edged(203, 0.4, 0, 3), vec![7, 29])], move |t| f(&t[0])));
    }
    cases.push(Case::new("gated_tanh".into(), vec![(edged(7 * 26, 0.9, 0, 3), vec![7, 26])], |t| t[0].gated_tanh()));
    cases.push(Case::new("softmax_last".into(), vec![(edged(9 * 19, 0.2, 5, 23), vec![9, 19])], |t| t[0].softmax_last()));
    let conv = vec![
        (edged(2 * 3 * 29, 0.5, 4, 31), vec![2, 3, 29]),
        (edged(5 * 3 * 3, 1.1, 40, 1), vec![5, 3, 3]),
        (edged(5, 0.8, 40, 1), vec![5]),
    ];
    cases.push(Case::new("conv1d".into(), conv, |t| t[0].conv1d(&t[1], &t[2], 1)));
    for dh in [4usize, 8, 16, 6] {
        for (dims, axis, heads) in [(vec![3, 11, dh], 1, 1), (vec![2, 5, 3, 2 * dh], 2, 2)] {
            let len: usize = dims.iter().product();
            let inputs = (0..3).map(|i| (edged(len, i as f32, 7 + i, 53), dims.clone())).collect();
            let scale = 1.0 / (dh as f32).sqrt();
            let name = format!("sdpa {dims:?} axis {axis} heads {heads}");
            cases.push(Case::new(name, inputs, move |t| Tensor::sdpa(&t[0], &t[1], &t[2], axis, heads, scale)));
        }
    }
    cases
}

/// Each tier instantiates the same kernel source, so every op's output
/// and gradients have the same bits on both; any NaN equals any NaN.
#[test]
fn every_op_bit_identical_across_tiers() {
    if !simd::avx2_available() {
        eprintln!("skipping: AVX2 unavailable");
        return;
    }
    for case in cross_tier_cases() {
        let (scalar, simd) = (case.run(Tier::Scalar), case.run(Tier::Avx2Fma));
        for (i, (got, want)) in scalar.iter().zip(&simd).enumerate() {
            let what = if i == 0 { "output".to_string() } else { format!("gradient {}", i - 1) };
            assert_same_bits(got, want, &format!("{}: {what}", case.name));
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

    /// The fused dense op keeps the pre-activation only under a recorded
    /// tape; with or without it, and with or without the arena, each
    /// activation's output bits are the same, at 1 and N threads.
    #[test]
    fn fused_linear_forward_only_bit_identical_to_tape_path() {
        use imdiffusion_repro::nn::ops::Act;
        let (m, k, n) = (300usize, 24usize, 40usize);
        let wave = |len: usize, phase: f32| -> Vec<f32> {
            (0..len).map(|i| (i as f32 * 0.37 + phase).sin()).collect()
        };
        let x = Tensor::from_vec(wave(m * k, 0.0), &[m, k]).expect("x");
        let w = Tensor::param_from_vec(wave(k * n, 1.0), &[k, n]).expect("w");
        let b = Tensor::param_from_vec(wave(n, 2.0), &[n]).expect("b");
        for act in [Act::Identity, Act::Relu, Act::Gelu, Act::Silu] {
            let run = || -> Vec<u32> {
                let y = x.linear(&w, Some(&b), act);
                y.to_vec().iter().map(|v| v.to_bits()).collect()
            };
            for t in [1usize, 4] {
                let tape = pool::with_threads(t, run);
                assert_eq!(pool::with_threads(t, || forward_only(run)), tape, "{act:?} t{t}");
                assert_eq!(pool::with_threads(t, || no_grad(run)), tape, "{act:?} t{t}");
            }
        }
    }

    /// One set of bits on every tier, end to end: a quick-profile fit of a
    /// few steps and a `detect` on each tier give the same weights,
    /// losses, scores, labels and per-step errors. One thread, since a
    /// tier override does not reach pool workers.
    #[test]
    fn fit_and_detect_bit_identical_across_tiers() {
        use imdiffusion_repro::nn::simd::{self, Tier};
        if !simd::avx2_available() {
            eprintln!("skipping: AVX2 unavailable");
            return;
        }
        let size = SizeProfile { train_len: 160, test_len: 64 };
        let ds = generate(Benchmark::Gcp, &size, 3);
        let run = |tier: Tier| {
            pool::with_threads(1, || {
                simd::with_tier(tier, || {
                    let cfg = ImDiffusionConfig { train_steps: 3, ..ImDiffusionConfig::quick() };
                    let mut det = ImDiffusionDetector::new(cfg, 5);
                    det.fit(&ds.train).expect("fit");
                    det.detect(&ds.test).expect("detect");
                    let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let f64_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let weights: Vec<Vec<u32>> = det.to_spec().expect("fitted").weights().iter().map(|w| f32_bits(w)).collect();
                    let losses = f32_bits(&det.last_train_report().expect("fitted").losses);
                    let out = det.last_output().expect("detected");
                    let errors: Vec<Vec<u64>> = out.steps.iter().map(|s| f64_bits(&s.error)).collect();
                    (weights, losses, f64_bits(&out.scores), out.labels.clone(), errors)
                })
            })
        };
        let (scalar, simd) = (run(Tier::Scalar), run(Tier::Avx2Fma));
        assert!(scalar.0 == simd.0, "weights differ across tiers");
        assert!(scalar.1 == simd.1, "losses differ across tiers");
        assert!(scalar.2 == simd.2, "scores differ across tiers");
        assert!(scalar.3 == simd.3, "labels differ across tiers");
        assert!(scalar.4 == simd.4, "per-step errors differ across tiers");
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

mod tape_recycling {
    use imdiffusion_repro::core::{ImDiffusionConfig, ImTransformer};
    use imdiffusion_repro::nn::layers::Module;
    use imdiffusion_repro::nn::ops::masked_mse;
    use imdiffusion_repro::nn::{backward, pool, recycling, Tensor};

    /// One training pass on a freshly built model: forward, the masked
    /// Eq. (11) loss and backward. Returns the loss bits and every
    /// parameter's gradient bits (empty where no gradient reached it).
    fn pass(i: usize) -> Vec<Vec<u32>> {
        let cfg = ImDiffusionConfig::quick();
        let (k, l) = (4usize, cfg.window);
        let model = ImTransformer::new(&cfg, k, 11);
        let wave = |phase: f32| {
            let data = (0..k * l).map(|j| (j as f32 * 0.29 + phase).sin()).collect();
            Tensor::from_vec(data, &[1, k, l]).expect("input")
        };
        let mask = (0..k * l)
            .map(|j| if (j + i).is_multiple_of(3) { 0.0 } else { 1.0 })
            .collect();
        let mask = Tensor::from_vec(mask, &[1, k, l]).expect("mask");
        let eps_hat = model.forward(&wave(i as f32), &wave(0.5 - i as f32), &[i + 1], &[i % 2]);
        let loss = masked_mse(&eps_hat, &wave(1.5 + i as f32), &mask);
        backward(&loss);
        let mut out = vec![vec![loss.item().to_bits()]];
        out.extend(model.params().iter().map(|p| {
            p.grad()
                .map_or_else(Vec::new, |g| g.iter().map(|v| v.to_bits()).collect())
        }));
        out
    }

    /// The autodiff tape parks and reuses its buffers inside `recycling`
    /// without changing a bit: loss and gradients match a run with
    /// recycling off. Passes share one scope, so later ones run on dirty
    /// buffers parked by earlier ones; at width 2 the second dispatch's
    /// worker thread starts from the list the first dispatch's worker
    /// parked.
    #[test]
    fn recycled_tape_bit_identical_to_fresh_tape() {
        for t in [1usize, 2] {
            pool::with_threads(t, || {
                let fresh: Vec<_> = (0..2).map(pass).collect();
                let recycled: Vec<_> = recycling(|| (0..2).map(pass).collect());
                assert_eq!(recycled, fresh, "recycled tape differs at {t} threads");
                let dispatched = recycling(|| {
                    (0..2)
                        .map(|_| pool::parallel_map(2, 1, pass))
                        .collect::<Vec<_>>()
                });
                for (round, got) in dispatched.iter().enumerate() {
                    assert_eq!(got, &fresh, "dispatch {round} differs at {t} threads");
                }
            });
        }
    }
}
