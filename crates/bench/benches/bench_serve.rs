//! Criterion bench for the serving layer: p50/p99 request latency as a
//! function of pipelining depth. Each `serve_score/batchB` iteration
//! sends B score requests back-to-back on one connection (with
//! `max_batch = B`) and waits for all B replies. Batching is continuous,
//! so the first request may be scored alone while the rest queue behind
//! it and coalesce into the next ensemble call; `elements_per_sec`
//! (requests/s) rising with B is that coalescing paying for itself
//! versus the batch=1 baseline.
//!
//! ```sh
//! cargo bench -p imdiff-bench --bench bench_serve -- --save-json BENCH_serve.json
//! ```

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
use imdiff_data::Detector;
use imdiff_registry::{AnyDetector, DetectorKind};
use imdiff_serve::wire::Request;
use imdiff_serve::{ClientError, ErrorCode, ServeClient, ServeConfig, Server, TenantSpec};
use imdiffusion::ImDiffusionConfig;

fn bench_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        window: 16,
        train_stride: 8,
        hidden: 8,
        heads: 2,
        residual_blocks: 1,
        diffusion_steps: 5,
        train_steps: 10,
        batch_size: 2,
        vote_span: 5,
        vote_every: 2,
        ..ImDiffusionConfig::quick()
    }
}

const HOP: usize = 4;

fn bench_request_latency(c: &mut Criterion) {
    let profile = SizeProfile {
        train_len: 80,
        test_len: 64,
    };
    let ds = generate(Benchmark::Gcp, &profile, 4);
    let mut det = AnyDetector::new(DetectorKind::ImDiffusion, bench_cfg(), 4);
    det.fit(&ds.train).expect("fit");
    let dir = std::env::temp_dir().join(format!("imdiff-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");
    let checkpoint = dir.join("tenant.imde");
    det.save(&checkpoint).expect("save");

    let mut group = c.benchmark_group("serve_score");
    // Enough samples to smooth single-core scheduling noise — at these
    // per-iteration times the curve across batch sizes is otherwise
    // dominated by run-to-run variance, not by micro-batching.
    group.sample_size(150);
    for batch in [1usize, 2, 4, 8] {
        let server = Server::start(
            ServeConfig {
                shards: 1,
                max_batch: batch,
                max_queue: 256,
                shed_after: Duration::from_secs(3600),
                deadline: Duration::from_secs(3600),
                reload_poll: None,
                ..ServeConfig::default()
            },
            vec![TenantSpec {
                id: "bench".into(),
                checkpoint: checkpoint.clone(),
                cfg: bench_cfg(),
                seed: 4,
                channels: ds.train.dim(),
                hop: HOP,
                holdout: None,
                drift_policy: None,
                family: imdiff_registry::DetectorKind::ImDiffusion,
                escalation: None,
            }],
        )
        .expect("server start");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut cursor = 0usize;
        let next_rows = |cursor: &mut usize| -> Vec<Vec<f32>> {
            (0..HOP)
                .map(|_| {
                    let row = ds.test.row(*cursor % ds.test.len()).to_vec();
                    *cursor += 1;
                    row
                })
                .collect()
        };
        // Fill the monitor's window buffer so every timed request costs
        // one steady-state ensemble evaluation.
        for _ in 0..8 {
            client
                .score("bench", 0, next_rows(&mut cursor))
                .expect("warmup");
        }
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("batch{batch}")),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    for _ in 0..batch {
                        client
                            .send_score("bench", 0, next_rows(&mut cursor))
                            .expect("send");
                    }
                    for _ in 0..batch {
                        client.recv_scored().expect("scored");
                    }
                });
            },
        );
        drop(client);
        server.drain();
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_wire_codec(c: &mut Criterion) {
    let rows: Vec<Vec<f32>> = (0..4).map(|r| vec![r as f32; 8]).collect();
    let req = Request::Score {
        tenant: "bench".into(),
        seq: 1,
        start_row: 0,
        gap_before: 0,
        rows,
    };
    let frame = req.to_bytes();
    let mut group = c.benchmark_group("serve_wire");
    group.sample_size(1000);
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("encode_decode_4x8", |b| {
        b.iter(|| {
            let bytes = req.to_bytes();
            Request::from_bytes(&bytes).expect("decode")
        });
    });
    group.finish();
}

/// Multi-tenant soak: 256 concurrent closed-loop connections against a
/// single event-loop data plane, split across two tenants. Every thread
/// times its own requests, so the record carries the client-observed
/// per-request p50/p99 under contention plus the shed rate (`max_queue`
/// is set below the connection count, so the opening burst overflows the
/// queue and exercises the `Overloaded` path; clients back off briefly
/// and continue, like [`imdiff_serve::ResilientClient`] would).
fn bench_soak(_c: &mut Criterion) {
    const CONNS: usize = 256;
    const ROUNDS: usize = 4;
    let id = format!("serve_soak/conns{CONNS}");
    if !criterion::filter_matches(&id) {
        return;
    }
    let profile = SizeProfile {
        train_len: 80,
        test_len: 64,
    };
    let ds = generate(Benchmark::Gcp, &profile, 4);
    let mut det = AnyDetector::new(DetectorKind::ImDiffusion, bench_cfg(), 4);
    det.fit(&ds.train).expect("fit");
    let dir = std::env::temp_dir().join(format!("imdiff-bench-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");
    let checkpoint = dir.join("tenant.imde");
    det.save(&checkpoint).expect("save");

    let tenants = ["soak-a", "soak-b"];
    let server = Server::start(
        ServeConfig {
            shards: 1,
            max_batch: 8,
            // Below the connection count on purpose: the opening burst
            // of 256 simultaneous requests must overflow the queue so
            // the soak exercises (and reports) the shed path.
            max_queue: 192,
            shed_after: Duration::from_secs(3600),
            deadline: Duration::from_secs(3600),
            reload_poll: None,
            ..ServeConfig::default()
        },
        tenants
            .iter()
            .map(|t| TenantSpec {
                id: (*t).into(),
                checkpoint: checkpoint.clone(),
                cfg: bench_cfg(),
                seed: 4,
                channels: ds.train.dim(),
                hop: HOP,
                holdout: None,
                drift_policy: None,
                family: imdiff_registry::DetectorKind::ImDiffusion,
                escalation: None,
            })
            .collect(),
    )
    .expect("server start");

    // Fill each tenant's window buffer so soak requests all cost one
    // steady-state ensemble evaluation.
    {
        let mut warm = ServeClient::connect(server.addr()).expect("connect");
        warm.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut cursor = 0usize;
        for tenant in &tenants {
            for _ in 0..8 {
                let rows: Vec<Vec<f32>> = (0..HOP)
                    .map(|_| {
                        let row = ds.test.row(cursor % ds.test.len()).to_vec();
                        cursor += 1;
                        row
                    })
                    .collect();
                warm.score(tenant, 0, rows).expect("warmup");
            }
        }
    }

    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(CONNS + 1));
    let rows_by_conn: Vec<Vec<Vec<Vec<f32>>>> = (0..CONNS)
        .map(|conn| {
            (0..ROUNDS)
                .map(|round| {
                    (0..HOP)
                        .map(|i| ds.test.row((conn * ROUNDS * HOP + round * HOP + i) % ds.test.len()).to_vec())
                        .collect()
                })
                .collect()
        })
        .collect();
    let workers: Vec<_> = rows_by_conn
        .into_iter()
        .enumerate()
        .map(|(conn, rounds)| {
            let tenant = tenants[conn % tenants.len()];
            let barrier = Arc::clone(&barrier);
            std::thread::Builder::new()
                .name(format!("soak-{conn}"))
                .stack_size(256 * 1024)
                .spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                    barrier.wait();
                    let mut lat_ns: Vec<u64> = Vec::with_capacity(ROUNDS);
                    let mut shed = 0u64;
                    for rows in rounds {
                        let t0 = Instant::now();
                        match client.score(tenant, 0, rows) {
                            Ok(_) => lat_ns.push(t0.elapsed().as_nanos() as u64),
                            Err(ClientError::Server {
                                code: ErrorCode::Overloaded,
                                ..
                            }) => {
                                shed += 1;
                                std::thread::sleep(Duration::from_millis(25));
                            }
                            Err(e) => panic!("soak request failed: {e}"),
                        }
                    }
                    (lat_ns, shed)
                })
                .expect("spawn soak worker")
        })
        .collect();

    let t0 = Instant::now();
    barrier.wait();
    let mut lat_ns: Vec<u64> = Vec::with_capacity(CONNS * ROUNDS);
    let mut shed = 0u64;
    for w in workers {
        let (lats, s) = w.join().expect("soak worker");
        lat_ns.extend(lats);
        shed += s;
    }
    let wall = t0.elapsed();
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);

    let attempts = (CONNS * ROUNDS) as u64;
    let ok = lat_ns.len() as u64;
    assert!(ok > 0, "soak produced no successful requests");
    lat_ns.sort_unstable();
    let quantile = |q: f64| -> f64 {
        lat_ns[(q * (lat_ns.len() - 1) as f64).round() as usize] as f64
    };
    criterion::record_measurement(
        &id,
        wall.as_nanos() as f64 / ok as f64,
        ok,
        None,
        Some(Throughput::Elements(1)),
        Some(quantile(0.50)),
        Some(quantile(0.99)),
        &[
            ("connections", CONNS as f64),
            ("requests", attempts as f64),
            ("shed", shed as f64),
            ("shed_rate", shed as f64 / attempts as f64),
        ],
    );
}

criterion_group!(benches, bench_request_latency, bench_wire_codec, bench_soak);
criterion_main!(benches);
