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
        // `[B, L, D]`, and channel attention (axis 1) on `[B, K, L, D]`.
        for dims in [vec![2usize, 12, 16], vec![2, 6, 5, 16]] {
            let x_data = filled(dims.iter().product(), &mut rng);
            assert_invariant("attention", || {
                let attn = MultiHeadAttention::new(&mut seeded(5), 16, 4);
                let x = Tensor::param_from_vec(x_data.clone(), &dims).unwrap();
                let y = attn.forward(&x, 1);
                backward(&y.square().sum_all());
                vec![y.to_vec(), x.grad().unwrap()]
            });
        }
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

/// Finite-difference gradient checks for every op that records a
/// backward. Each case builds the op on random shapes and values, takes
/// the analytic gradient of `Σ f(x)·w` (a fixed random weight `w` of the
/// output's shape) and compares every input element against a central
/// difference evaluated in `f64`. Every case runs under the scalar tier
/// and, on hosts that have it, under the AVX2/FMA tier, whose activation
/// derivatives and reductions take their own kernels.
mod gradient_check {
    use imdiffusion_repro::nn::ops::{bce_with_logits, Act};
    use imdiffusion_repro::nn::simd::{self, with_tier, Tier};
    use imdiffusion_repro::nn::{backward, rng::seeded, Tensor};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Central-difference step.
    const EPS: f32 = 1e-2;

    /// One differentiable input: values and dims.
    #[derive(Clone)]
    struct Input {
        vals: Vec<f32>,
        dims: Vec<usize>,
    }

    fn uniform(rng: &mut StdRng, dims: &[usize], lo: f32, hi: f32) -> Input {
        let n = dims.iter().product();
        Input {
            vals: (0..n).map(|_| rng.gen_range(lo..hi)).collect(),
            dims: dims.to_vec(),
        }
    }

    /// Values of magnitude in `[lo, hi)` with a random sign: keeps every
    /// element at least `lo` away from a kink or pole at zero.
    fn signed(rng: &mut StdRng, dims: &[usize], lo: f32, hi: f32) -> Input {
        let mut x = uniform(rng, dims, lo, hi);
        for v in &mut x.vals {
            if rng.gen_bool(0.5) {
                *v = -*v;
            }
        }
        x
    }

    fn rand_dims(rng: &mut StdRng, rank: usize, hi: usize) -> Vec<usize> {
        (0..rank).map(|_| rng.gen_range(1..=hi)).collect()
    }

    fn tiers() -> Vec<Tier> {
        let mut t = vec![Tier::Scalar];
        if simd::avx2_available() {
            t.push(Tier::Avx2Fma);
        }
        t
    }

    /// Checks the gradient of `Σ f(inputs)·w` against central differences
    /// for every element of every input, on each available tier.
    fn check(
        label: &str,
        rng: &mut StdRng,
        inputs: &[Input],
        f: impl Fn(&[Tensor]) -> Tensor,
    ) -> Result<(), TestCaseError> {
        let w_seed: u64 = rng.gen_range(0..u64::MAX);
        for tier in tiers() {
            with_tier(tier, || check_on_tier(label, tier, w_seed, inputs, &f))?;
        }
        Ok(())
    }

    fn check_on_tier(
        label: &str,
        tier: Tier,
        w_seed: u64,
        inputs: &[Input],
        f: &dyn Fn(&[Tensor]) -> Tensor,
    ) -> Result<(), TestCaseError> {
        let params: Vec<Tensor> = inputs
            .iter()
            .map(|i| Tensor::param_from_vec(i.vals.clone(), &i.dims).unwrap())
            .collect();
        let y = f(&params);
        let mut wr = seeded(w_seed);
        let w: Vec<f32> = (0..y.numel()).map(|_| wr.gen_range(-1.0f32..1.0)).collect();
        let wt = Tensor::from_vec(w.clone(), y.dims()).unwrap();
        backward(&y.mul(&wt).sum_all());
        let loss_at = |vals: &[Vec<f32>]| -> f64 {
            let xs: Vec<Tensor> = vals
                .iter()
                .zip(inputs)
                .map(|(v, i)| Tensor::from_vec(v.clone(), &i.dims).unwrap())
                .collect();
            let out = f(&xs);
            let d = out.data();
            d.iter().zip(&w).map(|(&a, &b)| a as f64 * b as f64).sum()
        };
        let base: Vec<Vec<f32>> = inputs.iter().map(|i| i.vals.clone()).collect();
        for (k, p) in params.iter().enumerate() {
            let g = p.grad().unwrap_or_else(|| vec![0.0; p.numel()]);
            for j in 0..g.len() {
                let mut plus = base.clone();
                plus[k][j] += EPS;
                let mut minus = base.clone();
                minus[k][j] -= EPS;
                let num = (loss_at(&plus) - loss_at(&minus)) / (2.0 * EPS as f64);
                let tol = 2e-3 * num.abs().max(1.0);
                prop_assert!(
                    (g[j] as f64 - num).abs() <= tol,
                    "{label} ({}): input {k} element {j}: analytic {} vs numeric {num}",
                    tier.name(),
                    g[j]
                );
            }
        }
        Ok(())
    }

    /// A random output shape of rank 0..=4 and two operands that broadcast
    /// to it: each operand may drop leading dims and turn any dim into a
    /// size-1 (stride-0) dim.
    fn broadcast_pair(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
        let rank = rng.gen_range(0..=4);
        let out = rand_dims(rng, rank, 4);
        let operand = |rng: &mut StdRng| -> Vec<usize> {
            let drop = rng.gen_range(0..=rank);
            out[drop..]
                .iter()
                .map(|&d| if rng.gen_bool(0.4) { 1 } else { d })
                .collect()
        };
        let a = operand(rng);
        let b = operand(rng);
        (a, b)
    }

    fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.gen_range(0..=i));
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn broadcast_binary_gradients_match_numeric(seed in 0u64..1_000_000) {
            let mut rng = seeded(seed);
            let (da, db) = broadcast_pair(&mut rng);
            let a = uniform(&mut rng, &da, -2.0, 2.0);
            let b = uniform(&mut rng, &db, -2.0, 2.0);
            let ins = [a, b];
            check("add", &mut rng, &ins, |x| x[0].add(&x[1]))?;
            check("sub", &mut rng, &ins, |x| x[0].sub(&x[1]))?;
            check("mul", &mut rng, &ins, |x| x[0].mul(&x[1]))?;
            let ins = [ins[0].clone(), signed(&mut rng, &db, 0.5, 2.0)];
            check("div", &mut rng, &ins, |x| x[0].div(&x[1]))?;
        }

        #[test]
        fn elementwise_unary_gradients_match_numeric(seed in 0u64..1_000_000) {
            let mut rng = seeded(seed);
            let rank = rng.gen_range(1..=3);
            let dims = rand_dims(&mut rng, rank, 5);
            let x = [uniform(&mut rng, &dims, -2.0, 2.0)];
            let pos = [uniform(&mut rng, &dims, 0.5, 2.0)];
            // Away from the kink at zero for relu, leaky_relu and abs.
            let kinked = [signed(&mut rng, &dims, 0.1, 2.0)];
            let c: f32 = rng.gen_range(-2.0..2.0);
            check("neg", &mut rng, &x, |t| t[0].neg())?;
            check("scale", &mut rng, &x, |t| t[0].scale(c))?;
            check("add_scalar", &mut rng, &x, |t| t[0].add_scalar(c))?;
            check("exp", &mut rng, &x, |t| t[0].exp())?;
            check("square", &mut rng, &x, |t| t[0].square())?;
            check("ln", &mut rng, &pos, |t| t[0].ln())?;
            check("sqrt", &mut rng, &pos, |t| t[0].sqrt())?;
            check("abs", &mut rng, &kinked, |t| t[0].abs())?;
            check("relu", &mut rng, &kinked, |t| t[0].relu())?;
            check("leaky_relu", &mut rng, &kinked, |t| t[0].leaky_relu(0.1))?;
            check("sigmoid", &mut rng, &x, |t| t[0].sigmoid())?;
            check("tanh", &mut rng, &x, |t| t[0].tanh())?;
            check("silu", &mut rng, &x, |t| t[0].silu())?;
            check("gelu", &mut rng, &x, |t| t[0].gelu())?;
            let mut halves = dims.clone();
            *halves.last_mut().unwrap() = 2 * rng.gen_range(1..=5);
            let x = [uniform(&mut rng, &halves, -2.0, 2.0)];
            check("gated_tanh", &mut rng, &x, |t| t[0].gated_tanh())?;
        }

        #[test]
        fn softmax_and_layer_norm_gradients_match_numeric(seed in 0u64..1_000_000) {
            let mut rng = seeded(seed);
            let rank = rng.gen_range(1..=3);
            let mut dims = rand_dims(&mut rng, rank, 4);
            let x = [uniform(&mut rng, &dims, -2.0, 2.0)];
            check("softmax_last", &mut rng, &x, |t| t[0].softmax_last())?;
            let d = rng.gen_range(3..=8);
            *dims.last_mut().unwrap() = d;
            let x = uniform(&mut rng, &dims, -2.0, 2.0);
            // A row of near-equal values has a huge 1/std: the derivative
            // then changes faster than a finite step can follow.
            let spread = x.vals.chunks(d).all(|r| {
                let mean = r.iter().sum::<f32>() / d as f32;
                r.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32 > 0.25
            });
            prop_assume!(spread);
            let gamma = uniform(&mut rng, &[d], 0.5, 1.5);
            let beta = uniform(&mut rng, &[d], -0.5, 0.5);
            check("layer_norm", &mut rng, &[x, gamma, beta], |t| {
                t[0].layer_norm(&t[1], &t[2], 1e-5)
            })?;
        }

        #[test]
        fn matmul_gradients_match_numeric(seed in 0u64..1_000_000) {
            let mut rng = seeded(seed);
            let (m, k, n) = (rng.gen_range(1..=5), rng.gen_range(1..=5), rng.gen_range(1..=5));
            let batch = rng.gen_range(1..=3);
            // Shared rhs: a [batch, m, k] (or [m, k]) against b [k, n].
            let a_dims = if rng.gen_bool(0.5) { vec![batch, m, k] } else { vec![m, k] };
            let ins = [
                uniform(&mut rng, &a_dims, -1.0, 1.0),
                uniform(&mut rng, &[k, n], -1.0, 1.0),
            ];
            check("matmul shared-rhs", &mut rng, &ins, |t| t[0].matmul(&t[1]))?;
            // The fused op: bias and each activation in the epilogue.
            let bias = uniform(&mut rng, &[n], -1.0, 1.0);
            let ins = [ins[0].clone(), ins[1].clone(), bias];
            let pre = {
                let t: Vec<Tensor> = ins
                    .iter()
                    .map(|i| Tensor::from_vec(i.vals.clone(), &i.dims).unwrap())
                    .collect();
                t[0].linear(&t[1], Some(&t[2]), Act::Identity).to_vec()
            };
            for act in [Act::Identity, Act::Relu, Act::Gelu, Act::Silu] {
                // A finite step across ReLU's kink at zero is no derivative.
                if act == Act::Relu && pre.iter().any(|z| z.abs() < 0.1) {
                    continue;
                }
                let label = format!("linear {act:?}");
                check(&label, &mut rng, &ins, |t| t[0].linear(&t[1], Some(&t[2]), act))?;
            }
            check("linear no bias", &mut rng, &ins[..2], |t| t[0].linear(&t[1], None, Act::Gelu))?;
        }

        #[test]
        fn sdpa_gradients_match_numeric(seed in 0u64..1_000_000) {
            let mut rng = seeded(seed);
            // Head widths below and at one 8-wide chunk; L never a
            // multiple of 8, so the Avx2Fma kernels see padded lanes.
            // `[BH, L, Dh]` with one head, then `[A, L, C, 2·Dh]` with two
            // heads along axis 1, whose rows are `C·2·Dh` apart.
            for dh in [4usize, 8] {
                let bh = rng.gen_range(1..=2);
                let l = [3usize, 5, 9, 11, 13][rng.gen_range(0..5)];
                let c = rng.gen_range(2..=3);
                for (dims, heads) in [(vec![bh, l, dh], 1), (vec![bh, l, c, 2 * dh], 2)] {
                    let ins: Vec<Input> =
                        (0..3).map(|_| uniform(&mut rng, &dims, -1.0, 1.0)).collect();
                    let scale = 1.0 / (dh as f32).sqrt();
                    check("sdpa", &mut rng, &ins, |t| {
                        Tensor::sdpa(&t[0], &t[1], &t[2], 1, heads, scale)
                    })?;
                }
            }
        }

        #[test]
        fn shape_op_gradients_match_numeric(seed in 0u64..1_000_000) {
            let mut rng = seeded(seed);
            let rank = rng.gen_range(2..=4);
            let dims = rand_dims(&mut rng, rank, 4);
            let x = [uniform(&mut rng, &dims, -1.0, 1.0)];
            let perm = permutation(&mut rng, rank);
            check("permute", &mut rng, &x, |t| t[0].permute(&perm))?;
            // Only the last two dims swapped: `permute`'s 2-D transpose path.
            let mut swap: Vec<usize> = (0..rank).collect();
            swap.swap(rank - 2, rank - 1);
            check("permute last two", &mut rng, &x, |t| t[0].permute(&swap))?;
            let split = rng.gen_range(1..rank);
            let to = [dims[..split].iter().product::<usize>(), dims[split..].iter().product()];
            // Reshape feeding an op, so the gradient reaches it through a
            // consumer rather than straight from the loss.
            check("reshape", &mut rng, &x, |t| t[0].reshape(&to).square())?;
            let axis = rng.gen_range(0..rank);
            let start = rng.gen_range(0..dims[axis]);
            let len = rng.gen_range(1..=dims[axis] - start);
            check("slice_axis", &mut rng, &x, |t| t[0].slice_axis(axis, start, len))?;
            let parts: Vec<Input> = (0..rng.gen_range(1..=3))
                .map(|_| {
                    let mut d = dims.clone();
                    d[axis] = rng.gen_range(1..=3);
                    uniform(&mut rng, &d, -1.0, 1.0)
                })
                .collect();
            check("concat", &mut rng, &parts, |t| {
                Tensor::concat(&t.iter().collect::<Vec<_>>(), axis)
            })?;
        }

        #[test]
        fn reduction_gradients_match_numeric(seed in 0u64..1_000_000) {
            let mut rng = seeded(seed);
            let rank = rng.gen_range(1..=4);
            let dims = rand_dims(&mut rng, rank, 4);
            let x = [uniform(&mut rng, &dims, -1.0, 1.0)];
            let axis = rng.gen_range(0..rank);
            let keep = rng.gen_bool(0.5);
            check("sum_all", &mut rng, &x, |t| t[0].sum_all())?;
            check("mean_all", &mut rng, &x, |t| t[0].mean_all())?;
            check("sum_axis", &mut rng, &x, |t| t[0].sum_axis(axis, keep))?;
            check("mean_axis", &mut rng, &x, |t| t[0].mean_axis(axis, keep))?;
        }

        #[test]
        fn conv_embedding_and_loss_gradients_match_numeric(seed in 0u64..1_000_000) {
            let mut rng = seeded(seed);
            let (b, cin, cout) = (rng.gen_range(1..=2), rng.gen_range(1..=3), rng.gen_range(1..=3));
            let k = rng.gen_range(1..=3);
            let pad = rng.gen_range(0..=k / 2);
            let l = rng.gen_range(k.max(2)..=6);
            let ins = [
                uniform(&mut rng, &[b, cin, l], -1.0, 1.0),
                uniform(&mut rng, &[cout, cin, k], -1.0, 1.0),
                uniform(&mut rng, &[cout], -1.0, 1.0),
            ];
            check("conv1d", &mut rng, &ins, |t| t[0].conv1d(&t[1], &t[2], pad))?;
            let (v, d) = (rng.gen_range(1..=4), rng.gen_range(1..=4));
            let idx: Vec<usize> = (0..rng.gen_range(1..=6)).map(|_| rng.gen_range(0..v)).collect();
            let table = [uniform(&mut rng, &[v, d], -1.0, 1.0)];
            check("embedding", &mut rng, &table, |t| t[0].embedding(&idx))?;
            let n = rng.gen_range(1..=6);
            let target = uniform(&mut rng, &[n], 0.0, 1.0);
            let target = Tensor::from_vec(target.vals, &[n]).unwrap();
            let logits = [uniform(&mut rng, &[n], -2.0, 2.0)];
            check("bce_with_logits", &mut rng, &logits, |t| bce_with_logits(&t[0], &target))?;
        }
    }
}
