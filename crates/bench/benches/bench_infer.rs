//! End-to-end ensemble-inference benchmark at fixed thread counts.
//!
//! Runs the full `detect` pipeline (windowing, masked imputation through
//! the diffusion ensemble, voting) pinned to 1, 2, 4 and 8 workers. The
//! test series is 768 rows, 16 windows of 48: two window groups, so from
//! two workers up the groups run in parallel and the rows measure the
//! window-parallel speedup (judge it only up to the host's core count):
//!
//!     cargo bench --bench bench_infer -- --save-json BENCH_infer.json

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
use imdiff_data::Detector;
use imdiff_nn::{obs, pool};
use imdiffusion::{ImDiffusionConfig, ImDiffusionDetector};

/// With `IMDIFF_OBS=1`, the harness writes a span/counter snapshot next
/// to the `--save-json` report (as `<stem>.obs.json`).
fn obs_summary() -> Option<String> {
    obs::enabled().then(obs::snapshot_json)
}

fn bench_infer(c: &mut Criterion) {
    criterion::set_span_summary(obs_summary);
    let size = SizeProfile {
        train_len: 300,
        test_len: 768,
    };
    let mut group = c.benchmark_group("ensemble_infer");
    group.sample_size(10);
    for benchmark in [Benchmark::Gcp, Benchmark::Smd] {
        let ds = generate(benchmark, &size, 1);
        let cfg = ImDiffusionConfig {
            train_steps: 20, // the bench measures inference, not training
            ddim_steps: Some(4),
            ..ImDiffusionConfig::quick()
        };
        let mut det = ImDiffusionDetector::new(cfg, 1);
        det.fit(&ds.train).expect("fit");
        group.throughput(Throughput::Elements(ds.test.len() as u64));

        group.record_threads(1);
        group.bench_with_input(
            BenchmarkId::new(&ds.name, "t1"),
            &ds,
            |b, ds| {
                b.iter(|| {
                    pool::with_threads(1, || black_box(det.detect(&ds.test).expect("detect")))
                })
            },
        );

        // Pinned multi-worker rows: past the host's core count these
        // measure the partitioning overhead, below it the group-parallel
        // scaling curve.
        for t in [2usize, 4, 8] {
            group.record_threads(t);
            group.bench_with_input(
                BenchmarkId::new(&ds.name, format!("t{t}")),
                &ds,
                |b, ds| {
                    b.iter(|| {
                        pool::with_threads(t, || black_box(det.detect(&ds.test).expect("detect")))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_infer);
criterion_main!(benches);
