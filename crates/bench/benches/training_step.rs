//! Criterion bench: cost of one ImDiffusion optimizer step (forward +
//! backward + Adam) at the quick-profile model size, with the pool pinned
//! to one and to two workers — the step's one-sample shards fan out
//! across the pool, so the pair of rows is the training scaling curve.
//!
//! ```sh
//! cargo bench -p imdiff-bench --bench training_step -- --save-json train_step.json
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
use imdiff_diffusion::NoiseSchedule;
use imdiff_nn::pool;
use imdiffusion::{train, ImDiffusionConfig, ImTransformer};

fn bench_training(c: &mut Criterion) {
    let size = SizeProfile {
        train_len: 200,
        test_len: 50,
    };
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    for (label, k_bench) in [("K=19", Benchmark::Gcp), ("K=38", Benchmark::Smd)] {
        let ds = generate(k_bench, &size, 1);
        let cfg = ImDiffusionConfig {
            train_steps: 1, // one optimizer step per iteration
            ..ImDiffusionConfig::quick()
        };
        let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
        let model = ImTransformer::new(&cfg, ds.train.dim(), 1);
        for t in [1usize, 2] {
            group.record_threads(t);
            group.bench_with_input(BenchmarkId::new(label, format!("t{t}")), &ds, |b, ds| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    pool::with_threads(t, || {
                        train(&model, &cfg, &schedule, &ds.train, seed).expect("train step")
                    })
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
