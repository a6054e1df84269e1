//! Kernel-level benchmarks for the parallel compute substrate.
//!
//! Compares the cache-blocked `mm_nn` against a naive reference kernel
//! (a transcription of the pre-blocking implementation, including its
//! zero-skip branch) at matched shapes, and times conv1d, the
//! multi-head-attention forward, one attention forward plus backward
//! under the tape, and a `Linear` with its GELU fused into the matmul
//! (forward, and forward plus backward). Every record carries a FLOP
//! count so `--save-json BENCH_nn.json` yields GFLOP/s trajectories.
//!
//!     cargo bench --bench bench_kernels -- --save-json BENCH_nn.json

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use imdiff_nn::layers::{Linear, Module, MultiHeadAttention};
use imdiff_nn::ops::{mm_nn, Act};
use imdiff_nn::pool;
use imdiff_nn::rng::seeded;
use imdiff_nn::simd::{self, Tier};
use imdiff_nn::Tensor;
use rand::Rng;

/// The pre-blocking matmul kernel, kept verbatim as the perf baseline:
/// row-major triple loop with a per-element skip of zero lhs entries.
fn mm_nn_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for j in 0..n {
                orow[j] += av * brow[j];
            }
        }
    }
}

fn filled(len: usize, rng: &mut impl Rng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// With `IMDIFF_OBS=1`, the harness writes a span/counter snapshot next
/// to the `--save-json` report (as `<stem>.obs.json`).
fn obs_summary() -> Option<String> {
    imdiff_nn::obs::enabled().then(imdiff_nn::obs::snapshot_json)
}

fn bench_matmul(c: &mut Criterion) {
    criterion::set_span_summary(obs_summary);
    let mut rng = seeded(7);
    let mut group = c.benchmark_group("mm_nn");
    group.sample_size(20);
    group.record_threads(1);
    for dim in [32usize, 64, 128] {
        let (m, k, n) = (dim, dim, dim);
        let a = filled(m * k, &mut rng);
        let b = filled(k * n, &mut rng);
        let mut out = vec![0.0f32; m * n];
        group.throughput(Throughput::Flops((2 * m * k * n) as u64));
        group.bench_function(format!("{m}x{k}x{n}/naive/t1"), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                mm_nn_naive(&a, &b, m, k, n, &mut out);
                black_box(out[0])
            })
        });
        group.bench_function(format!("{m}x{k}x{n}/blocked/t1"), |bch| {
            bch.iter(|| {
                pool::with_threads(1, || {
                    out.fill(0.0);
                    mm_nn(&a, &b, m, k, n, &mut out);
                    black_box(out[0])
                })
            })
        });
    }
    // The scalar tier at the same hot shape, so the JSON records the
    // SIMD-vs-scalar gap on this host alongside the dispatched kernel.
    {
        let dim = 128usize;
        let a = filled(dim * dim, &mut rng);
        let b = filled(dim * dim, &mut rng);
        let mut out = vec![0.0f32; dim * dim];
        group.throughput(Throughput::Flops((2 * dim * dim * dim) as u64));
        group.record_threads(1);
        group.bench_function(format!("{dim}x{dim}x{dim}/scalar/t1"), |bch| {
            bch.iter(|| {
                simd::with_tier(Tier::Scalar, || {
                    pool::with_threads(1, || {
                        out.fill(0.0);
                        mm_nn(&a, &b, dim, dim, dim, &mut out);
                        black_box(out[0])
                    })
                })
            })
        });
        // Pinned multi-worker rows: on a single-core host these measure
        // partitioning overhead, on multi-core hosts the scaling curve.
        for t in [2usize, 4, 8] {
            group.record_threads(t);
            group.bench_function(format!("{dim}x{dim}x{dim}/blocked/t{t}"), |bch| {
                bch.iter(|| {
                    pool::with_threads(t, || {
                        out.fill(0.0);
                        mm_nn(&a, &b, dim, dim, dim, &mut out);
                        black_box(out[0])
                    })
                })
            });
        }
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = seeded(11);
    let mut group = c.benchmark_group("conv1d");
    group.sample_size(20);
    let (b, cin, cout, l, k) = (4usize, 16usize, 16usize, 96usize, 3usize);
    let lout = l + 2 - k + 1;
    let x = Tensor::from_vec(filled(b * cin * l, &mut rng), &[b, cin, l]).unwrap();
    let w = Tensor::from_vec(filled(cout * cin * k, &mut rng), &[cout, cin, k]).unwrap();
    let bias = Tensor::from_vec(filled(cout, &mut rng), &[cout]).unwrap();
    group.throughput(Throughput::Flops((2 * b * cout * cin * k * lout) as u64));
    group.record_threads(1);
    group.bench_function(format!("{b}x{cin}x{l}/k{k}/t1"), |bch| {
        bch.iter(|| pool::with_threads(1, || black_box(x.conv1d(&w, &bias, 1).to_vec()[0])))
    });
    for t in [2usize, 4, 8] {
        group.record_threads(t);
        group.bench_function(format!("{b}x{cin}x{l}/k{k}/t{t}"), |bch| {
            bch.iter(|| {
                pool::with_threads(t, || black_box(x.conv1d(&w, &bias, 1).to_vec()[0]))
            })
        });
    }
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mut rng = seeded(13);
    let mut group = c.benchmark_group("attention");
    group.sample_size(20);
    let (batch, seq, d_model, heads) = (4usize, 64usize, 64usize, 4usize);
    let attn = MultiHeadAttention::new(&mut rng, d_model, heads);
    let x = Tensor::from_vec(filled(batch * seq * d_model, &mut rng), &[batch, seq, d_model])
        .unwrap();
    // Dominant cost: QKV/out projections (4 * 2*B*S*D^2) plus the fused
    // attention's scores and V-sum (2 * 2*B*S^2*D).
    let flops = (8 * batch * seq * d_model * d_model + 4 * batch * seq * seq * d_model) as u64;
    group.throughput(Throughput::Flops(flops));
    group.record_threads(1);
    // "fwd" rows measure the inference forward: tape-free, fused sdpa,
    // inside one `forward_only` scope around the timing loop, as inference
    // opens one per ensemble. A scope per iteration would hand every op
    // output back to the allocator each time and time page faults.
    group.bench_function(format!("fwd/{batch}x{seq}x{d_model}/h{heads}/t1"), |bch| {
        imdiff_nn::forward_only(|| {
            bch.iter(|| pool::with_threads(1, || black_box(attn.forward(&x, 1).to_vec()[0])))
        })
    });
    for t in [2usize, 4, 8] {
        group.record_threads(t);
        group.bench_function(format!("fwd/{batch}x{seq}x{d_model}/h{heads}/t{t}"), |bch| {
            imdiff_nn::forward_only(|| {
                bch.iter(|| pool::with_threads(t, || black_box(attn.forward(&x, 1).to_vec()[0])))
            })
        });
    }
    // The model's own shapes at one worker: the quick profile's temporal
    // attention (8 windows × 19 channels, window 48, hidden 16, Dh 8), the
    // serving config's (19 channels, window 16, hidden 8, Dh 4), and the
    // quick profile's spatial attention (along the 19 channels of
    // [8, 19, 48, 16], in place), and last, so the rows before it draw
    // their weights as they always have, the serving config's spatial
    // attention (along the 19 channels of [1, 19, 16, 8]). "fwd" is the
    // inference forward; "train" the forward and backward under the tape,
    // its FLOPs nominally three times the forward's, inside one
    // `recycling` scope as a training fit runs.
    let shapes = [
        (vec![152usize, 48, 16], ""),
        (vec![19, 16, 8], ""),
        (vec![8, 19, 48, 16], "/axis1"),
        (vec![1, 19, 16, 8], "/axis1"),
    ];
    for (dims, tag) in shapes {
        let heads = 2;
        let d_model = dims[dims.len() - 1];
        let rows = dims.iter().product::<usize>() / d_model;
        let attn = MultiHeadAttention::new(&mut rng, d_model, heads);
        let x = Tensor::from_vec(filled(rows * d_model, &mut rng), &dims).unwrap();
        let flops = (8 * rows * d_model * d_model + 4 * rows * dims[1] * d_model) as u64;
        let shape = dims.iter().map(|n| n.to_string()).collect::<Vec<_>>().join("x");
        group.throughput(Throughput::Flops(flops));
        group.record_threads(1);
        group.bench_function(format!("fwd/{shape}{tag}/h{heads}/t1"), |bch| {
            imdiff_nn::forward_only(|| {
                bch.iter(|| pool::with_threads(1, || black_box(attn.forward(&x, 1).to_vec()[0])))
            })
        });
        group.throughput(Throughput::Flops(3 * flops));
        group.bench_function(format!("train/{shape}{tag}/h{heads}/t1"), |bch| {
            imdiff_nn::recycling(|| {
                bch.iter(|| {
                    pool::with_threads(1, || imdiff_nn::backward(&attn.forward(&x, 1).sum_all()));
                    for p in attn.params() {
                        p.zero_grad();
                    }
                })
            })
        });
    }
    group.finish();
}

/// A `Linear` with its activation fused into the matmul epilogue, at the
/// quick profile's FFN `fc1` (8 windows × 19 channels × window 48 rows,
/// hidden 16 → 32), the serving config's (19 channels × window 16,
/// hidden 8 → 16) and, last so the rows before it draw their weights as
/// they always have, one training shard's (one window, 912 rows). "fwd"
/// is the inference forward; "train" the forward
/// and backward under the tape, with the input tracked as inside the
/// model, its FLOPs nominally three times the forward's. Each row's timing
/// loop runs inside one `forward_only` or `recycling` scope, as in the
/// attention rows, and a forward row reads one output element in place
/// rather than copying the output. After them come the attention q/k/v/o
/// projections' forwards, with no bias and no activation: `serve_imdiff`'s
/// (304 rows, 8 → 8) and `detect_offline`'s (7296 rows, 16 → 16).
fn bench_linear(c: &mut Criterion) {
    let mut rng = seeded(17);
    let mut group = c.benchmark_group("linear");
    group.sample_size(20);
    group.record_threads(1);
    for (rows, d_in, d_out) in [(7296usize, 16usize, 32usize), (304, 8, 16), (912, 16, 32)] {
        let lin = Linear::new(&mut rng, d_in, d_out);
        let x = Tensor::param_from_vec(filled(rows * d_in, &mut rng), &[rows, d_in]).unwrap();
        let flops = (2 * rows * d_in * d_out) as u64;
        group.throughput(Throughput::Flops(flops));
        group.bench_function(format!("fwd/{rows}x{d_in}x{d_out}/gelu/t1"), |bch| {
            imdiff_nn::forward_only(|| {
                bch.iter(|| {
                    pool::with_threads(1, || black_box(lin.forward_act(&x, Act::Gelu).data()[0]))
                })
            })
        });
        group.throughput(Throughput::Flops(3 * flops));
        group.bench_function(format!("train/{rows}x{d_in}x{d_out}/gelu/t1"), |bch| {
            imdiff_nn::recycling(|| {
                bch.iter(|| {
                    let y = pool::with_threads(1, || lin.forward_act(&x, Act::Gelu));
                    pool::with_threads(1, || imdiff_nn::backward(&y.sum_all()));
                    for p in lin.params().iter().chain([&x]) {
                        p.zero_grad();
                    }
                })
            })
        });
    }
    for (rows, d) in [(304usize, 8usize), (7296, 16)] {
        let proj = Linear::new_no_bias(&mut rng, d, d);
        let x = Tensor::param_from_vec(filled(rows * d, &mut rng), &[rows, d]).unwrap();
        group.throughput(Throughput::Flops((2 * rows * d * d) as u64));
        group.bench_function(format!("fwd/{rows}x{d}x{d}/identity/t1"), |bch| {
            imdiff_nn::forward_only(|| {
                bch.iter(|| pool::with_threads(1, || black_box(proj.forward(&x).data()[0])))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_conv, bench_attention, bench_linear);
criterion_main!(benches);
