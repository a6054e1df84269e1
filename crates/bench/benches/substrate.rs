//! Criterion micro-benches of the `imdiff-nn` substrate: the kernels the
//! diffusion model's cost is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imdiff_nn::layers::{LayerNorm, MultiHeadAttention};
use imdiff_nn::rng::seeded;
use imdiff_nn::{backward, forward_only, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let a = Tensor::randn(&mut seeded(1), &[n, n]);
        let b = Tensor::randn(&mut seeded(2), &[n, n]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| forward_only(|| a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention_forward");
    for &(l, d) in &[(48usize, 16usize), (100, 32)] {
        let mha = MultiHeadAttention::new(&mut seeded(3), d, 2);
        let x = Tensor::randn(&mut seeded(4), &[4, l, d]);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("L{l}xD{d}")),
            &x,
            |bench, x| {
                bench.iter(|| forward_only(|| mha.forward(x, 1)));
            },
        );
    }
    group.finish();
}

fn bench_layer_norm(c: &mut Criterion) {
    let ln = LayerNorm::new(64);
    let x = Tensor::randn(&mut seeded(5), &[64, 100, 64]);
    c.bench_function("layer_norm_64x100x64", |b| {
        b.iter(|| forward_only(|| ln.forward(&x)));
    });
}

fn bench_backward(c: &mut Criterion) {
    // Cost of reverse-mode autodiff through a small MLP-like graph.
    let w1 = Tensor::randn(&mut seeded(6), &[64, 64]).into_param();
    let w2 = Tensor::randn(&mut seeded(7), &[64, 64]).into_param();
    let x = Tensor::randn(&mut seeded(8), &[32, 64]);
    c.bench_function("mlp_forward_backward", |b| {
        b.iter(|| {
            let y = x.matmul(&w1).gelu().matmul(&w2).square().mean_all();
            backward(&y);
            w1.zero_grad();
            w2.zero_grad();
            y.item()
        });
    });
}

criterion_group!(benches, bench_matmul, bench_attention, bench_layer_norm, bench_backward);
criterion_main!(benches);
