//! Property-based tests on the substrates: autodiff gradients, diffusion
//! schedule identities, masking invariants, and bit-exact determinism of
//! the parallel compute substrate across thread counts.

use imdiffusion_repro::data::mask::MaskStrategy;
use imdiffusion_repro::diffusion::{BetaSchedule, NoiseSchedule};
use imdiffusion_repro::nn::{backward, rng::seeded, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Gradient check: d(sum(f(x)))/dx matches central differences for a
    /// composite expression through several ops.
    #[test]
    fn composite_gradient_matches_numeric(
        vals in proptest::collection::vec(-2.0f32..2.0, 4),
    ) {
        let f = |v: &[f32], grad: bool| -> (f32, Option<Vec<f32>>) {
            let x = if grad {
                Tensor::param_from_vec(v.to_vec(), &[2, 2]).unwrap()
            } else {
                Tensor::from_vec(v.to_vec(), &[2, 2]).unwrap()
            };
            let w = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25], &[2, 2]).unwrap();
            // y = sum(sigmoid(x @ w) * x)
            let y = x.matmul(&w).sigmoid().mul(&x).sum_all();
            let out = y.item();
            if grad {
                backward(&y);
                (out, x.grad())
            } else {
                (out, None)
            }
        };
        let (_, g) = f(&vals, true);
        let g = g.expect("gradient");
        let eps = 1e-2f32;
        for i in 0..4 {
            let mut p = vals.clone();
            p[i] += eps;
            let mut m = vals.clone();
            m[i] -= eps;
            let num = (f(&p, false).0 - f(&m, false).0) / (2.0 * eps);
            prop_assert!((g[i] - num).abs() < 0.05,
                "index {i}: analytic {} vs numeric {}", g[i], num);
        }
    }

    /// q_sample is linear: scaling x0 and ε scales the sample.
    #[test]
    fn q_sample_linearity(
        x0 in proptest::collection::vec(-3.0f32..3.0, 6),
        eps in proptest::collection::vec(-3.0f32..3.0, 6),
        t in 1usize..=20,
        c in 0.5f32..2.0,
    ) {
        let ns = NoiseSchedule::new(BetaSchedule::default_for_imputation(), 20);
        let base = ns.q_sample(&x0, &eps, t);
        let x0s: Vec<f32> = x0.iter().map(|v| v * c).collect();
        let epss: Vec<f32> = eps.iter().map(|v| v * c).collect();
        let scaled = ns.q_sample(&x0s, &epss, t);
        for (a, b) in base.iter().zip(&scaled) {
            prop_assert!((a * c - b).abs() < 1e-3);
        }
    }

    /// predict_x0 inverts q_sample exactly (up to float error).
    #[test]
    fn predict_x0_inverts_q_sample(
        x0 in proptest::collection::vec(-3.0f32..3.0, 5),
        eps in proptest::collection::vec(-3.0f32..3.0, 5),
        t in 1usize..=20,
    ) {
        let ns = NoiseSchedule::new(BetaSchedule::default_for_imputation(), 20);
        let xt = ns.q_sample(&x0, &eps, t);
        let rec = ns.predict_x0(&xt, &eps, t);
        for (a, b) in rec.iter().zip(&x0) {
            prop_assert!((a - b).abs() < 2e-2, "{a} vs {b} at t={t}");
        }
    }

    /// Complementary masks partition every cell, for both strategies and
    /// arbitrary window geometry.
    #[test]
    fn mask_pairs_partition(
        len in 4usize..120,
        dim in 1usize..12,
        seed in 0u64..1000,
        random in proptest::bool::ANY,
    ) {
        let strategy = if random {
            MaskStrategy::Random { p: 0.5 }
        } else {
            MaskStrategy::default_grating()
        };
        let [m0, m1] = strategy.masks(&mut seeded(seed), len, dim);
        for l in 0..len {
            for k in 0..dim {
                prop_assert!(m0.observed(l, k) != m1.observed(l, k));
            }
        }
        prop_assert_eq!(m0.masked_count() + m1.masked_count(), len * dim);
    }

    /// Posterior variance is positive and below β_t for t > 1.
    #[test]
    fn posterior_variance_bounds(t in 2usize..=50) {
        let ns = NoiseSchedule::new(BetaSchedule::default_for_imputation(), 50);
        let pv = ns.posterior_variance(t);
        prop_assert!(pv > 0.0);
        prop_assert!(pv <= ns.beta(t) + 1e-9);
    }
}

/// Bit-exact determinism of the worker pool: every kernel and the full
/// ensemble-inference pipeline must produce identical bits at 1, 2 and N
/// threads. The pool partitions work into runs whose internal arithmetic
/// order never depends on the thread count; these tests are the contract
/// that keeps that property from regressing.
mod thread_determinism {
    use imdiffusion_repro::core::{train, ImDiffusionConfig, ImDiffusionDetector, ImTransformer};
    use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
    use imdiffusion_repro::data::Detector;
    use imdiffusion_repro::diffusion::NoiseSchedule;
    use imdiffusion_repro::nn::layers::{Module, MultiHeadAttention};
    use imdiffusion_repro::nn::{backward, pool, rng::seeded, Tensor};
    use rand::Rng;

    const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

    fn filled(len: usize, rng: &mut impl Rng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `f` once per thread count and asserts every run reproduces the
    /// first run's bit patterns exactly.
    fn assert_invariant(label: &str, f: impl Fn() -> Vec<Vec<f32>>) {
        let reference: Vec<Vec<u32>> = pool::with_threads(THREAD_COUNTS[0], &f)
            .iter()
            .map(|v| bits(v))
            .collect();
        for &t in &THREAD_COUNTS[1..] {
            let got: Vec<Vec<u32>> = pool::with_threads(t, &f).iter().map(|v| bits(v)).collect();
            assert_eq!(got, reference, "{label}: bits differ at {t} threads");
        }
    }

    #[test]
    fn matmul_forward_backward_thread_invariant() {
        let mut rng = seeded(41);
        // Batched lhs with a shared rhs, the transformer's hot shape; odd
        // dims to exercise the blocked kernel's remainder paths.
        let a_data = filled(3 * 17 * 29, &mut rng);
        let b_data = filled(29 * 13, &mut rng);
        assert_invariant("matmul", || {
            let a = Tensor::param_from_vec(a_data.clone(), &[3, 17, 29]).unwrap();
            let b = Tensor::param_from_vec(b_data.clone(), &[29, 13]).unwrap();
            let y = a.matmul(&b);
            backward(&y.square().sum_all());
            vec![y.to_vec(), a.grad().unwrap(), b.grad().unwrap()]
        });
    }

    #[test]
    fn conv_forward_backward_thread_invariant() {
        let mut rng = seeded(43);
        let x_data = filled(2 * 6 * 31, &mut rng);
        let w_data = filled(8 * 6 * 3, &mut rng);
        let b_data = filled(8, &mut rng);
        assert_invariant("conv1d", || {
            let x = Tensor::param_from_vec(x_data.clone(), &[2, 6, 31]).unwrap();
            let w = Tensor::param_from_vec(w_data.clone(), &[8, 6, 3]).unwrap();
            let b = Tensor::param_from_vec(b_data.clone(), &[8]).unwrap();
            let y = x.conv1d(&w, &b, 1);
            backward(&y.square().sum_all());
            vec![y.to_vec(), x.grad().unwrap(), w.grad().unwrap(), b.grad().unwrap()]
        });
    }

    #[test]
    fn attention_forward_backward_thread_invariant() {
        let mut rng = seeded(47);
        let x_data = filled(2 * 12 * 16, &mut rng);
        assert_invariant("attention", || {
            let attn = MultiHeadAttention::new(&mut seeded(5), 16, 4);
            let x = Tensor::param_from_vec(x_data.clone(), &[2, 12, 16]).unwrap();
            let y = attn.forward(&x);
            backward(&y.square().sum_all());
            vec![y.to_vec(), x.grad().unwrap()]
        });
    }

    /// Training with a batch that is not a multiple of the width: three
    /// one-sample shards per step at 1/2/4 threads give identical weights
    /// and loss curves. The first config's samples (19 channels × 32 steps
    /// × hidden 16) each fill a worker, so the shards fan out; the second
    /// is below the shard grain and runs inline.
    #[test]
    fn training_thread_invariant_for_odd_batches() {
        let size = SizeProfile {
            train_len: 96,
            test_len: 16,
        };
        let ds = generate(Benchmark::Gcp, &size, 5);
        let fanned = ImDiffusionConfig {
            window: 32,
            train_stride: 16,
            diffusion_steps: 8,
            train_steps: 3,
            batch_size: 3,
            ..ImDiffusionConfig::quick()
        };
        let inline = ImDiffusionConfig {
            window: 16,
            train_stride: 8,
            hidden: 8,
            ..fanned.clone()
        };
        for (label, cfg) in [("fanned-out", fanned), ("inline", inline)] {
            assert_invariant(label, || {
                let model = ImTransformer::new(&cfg, ds.train.dim(), 3);
                let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
                let report = train(&model, &cfg, &schedule, &ds.train, 7).expect("train");
                let mut out: Vec<Vec<f32>> = model.params().iter().map(|p| p.to_vec()).collect();
                out.push(report.losses);
                out
            });
        }
    }

    /// One fitted detector, detection run at 1/2/4 threads: identical
    /// scores (bit-for-bit) and identical verdicts.
    #[test]
    fn ensemble_inference_thread_invariant() {
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

        let reference = pool::with_threads(1, || det.detect(&ds.test).expect("detect"));
        let ref_bits: Vec<u64> = reference.scores.iter().map(|s| s.to_bits()).collect();
        for t in [2usize, 4] {
            let got = pool::with_threads(t, || det.detect(&ds.test).expect("detect"));
            let got_bits: Vec<u64> = got.scores.iter().map(|s| s.to_bits()).collect();
            assert_eq!(got_bits, ref_bits, "scores differ at {t} threads");
            assert_eq!(got.labels, reference.labels, "labels differ at {t} threads");
        }
    }

    /// Observability may only *observe*: with spans/counters enabled, the
    /// detector must reproduce the disabled-path scores and verdicts
    /// bit-for-bit at every thread count (spans must not perturb RNG
    /// streams or merge order), while the snapshot actually captures the
    /// inference and pool spans.
    #[test]
    fn observability_does_not_perturb_inference() {
        use imdiffusion_repro::nn::obs;

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

        obs::set_enabled(false);
        let reference = pool::with_threads(1, || det.detect(&ds.test).expect("detect"));
        let ref_bits: Vec<u64> = reference.scores.iter().map(|s| s.to_bits()).collect();

        obs::set_enabled(true);
        obs::reset();
        for t in [1usize, 2, 4] {
            let got = pool::with_threads(t, || det.detect(&ds.test).expect("detect"));
            let got_bits: Vec<u64> = got.scores.iter().map(|s| s.to_bits()).collect();
            assert_eq!(got_bits, ref_bits, "obs-enabled scores differ at {t} threads");
            assert_eq!(
                got.labels, reference.labels,
                "obs-enabled labels differ at {t} threads"
            );
        }
        let snap = obs::snapshot();
        obs::set_enabled(false);
        for name in ["infer.ensemble", "infer.group", "infer.denoise_step", "pool.worker"] {
            let s = snap.span(name).unwrap_or_else(|| panic!("span {name} missing"));
            assert!(s.count > 0, "span {name} recorded no calls");
            assert!(s.total_ns >= s.self_ns, "span {name}: self > total");
        }
        // `>=`: other tests in this binary may also run inference while
        // the toggle is on — their counts land in the same registry.
        assert!(snap.counter("infer.runs").unwrap_or(0) >= 3);
        assert!(snap.counter("nn.matmul.calls").unwrap_or(0) > 0);
    }

    /// `IMDIFF_THREADS=1` and an unset variable resolve to different pool
    /// widths yet must agree bit-for-bit, because every result is
    /// thread-count invariant by construction. (Mutating the process
    /// environment is safe here precisely because no outcome in this
    /// binary depends on the resolved width.)
    #[test]
    fn env_override_does_not_change_results() {
        let mut rng = seeded(53);
        let a = filled(5 * 23, &mut rng);
        let b = filled(23 * 19, &mut rng);
        let run = || {
            let at = Tensor::from_vec(a.clone(), &[5, 23]).unwrap();
            let bt = Tensor::from_vec(b.clone(), &[23, 19]).unwrap();
            at.matmul(&bt).to_vec()
        };
        std::env::remove_var("IMDIFF_THREADS");
        let unset = bits(&run());
        std::env::set_var("IMDIFF_THREADS", "1");
        let pinned = bits(&run());
        std::env::remove_var("IMDIFF_THREADS");
        assert_eq!(pinned, unset);
    }
}
