//! End-to-end tour of the serving layer: an in-process multi-tenant
//! server driven by a replayed client — steady traffic (verified
//! bit-identical to a local sequential monitor), an overload burst with
//! explicit backpressure, a hot checkpoint reload mid-traffic, and a
//! clean drain. Prints the final health report and the serve.* slice of
//! the observability snapshot. Every stage asserts, so CI runs this as a
//! gate.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```

use std::path::PathBuf;
use std::time::{Duration, Instant};

use imdiffusion_repro::core::{ImDiffusionConfig, StreamingMonitor};
use imdiffusion_repro::data::replay::{replay_chunks, ReplayConfig};
use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
use imdiffusion_repro::data::Detector;
use imdiffusion_repro::nn::obs;
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};
use imdiffusion_repro::serve::{
    ClientError, ErrorCode, ServeClient, ServeConfig, Server, TenantSpec,
};

fn demo_cfg() -> ImDiffusionConfig {
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

fn main() {
    obs::set_enabled(true);
    let dir = PathBuf::from("target/serve_demo");
    std::fs::create_dir_all(&dir).expect("create demo dir");

    // --- Fit one detector per tenant and checkpoint them -------------------
    let profile = SizeProfile {
        train_len: 80,
        test_len: 64,
    };
    let mut specs = Vec::new();
    let mut datasets = Vec::new();
    for (id, seed) in [("payments", 4u64), ("telemetry", 5u64)] {
        let ds = generate(Benchmark::Gcp, &profile, seed);
        let mut det = AnyDetector::new(DetectorKind::ImDiffusion, demo_cfg(), seed);
        det.fit(&ds.train).expect("fit");
        let checkpoint = dir.join(format!("{id}.imde"));
        det.save(&checkpoint).expect("save checkpoint");
        specs.push(TenantSpec {
            id: id.into(),
            checkpoint,
            cfg: demo_cfg(),
            seed,
            channels: ds.train.dim(),
            hop: 4,
            holdout: None,
            drift_policy: None,
            family: imdiffusion_repro::registry::DetectorKind::ImDiffusion,
            escalation: None,
        });
        datasets.push(ds);
    }

    let server = Server::start(
        ServeConfig {
            shards: 2,
            max_batch: 4,
            max_queue: 8,
            shed_after: Duration::from_secs(30),
            deadline: Duration::from_secs(60),
            reload_poll: Some(Duration::from_millis(40)),
            ..ServeConfig::default()
        },
        specs.clone(),
    )
    .expect("server start");
    println!("serving {} tenants on {}", specs.len(), server.addr());

    // --- Steady traffic: replayed chunks, pipelined in windows of 4 --------
    // The shards coalesce the pipelined requests into ensemble batches;
    // the verdicts must still be bit-identical to a local monitor fed the
    // same chunks one row at a time.
    let replay = ReplayConfig {
        chunk_rows: 5,
        jitter: true,
        gap_rate: 0.1,
        max_gap: 3,
        nan_rate: 0.02,
    };
    for (spec, ds) in specs.iter().zip(&datasets) {
        let chunks = replay_chunks(&ds.test, &replay, spec.seed);
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut wire = Vec::new();
        for window in chunks.chunks(4) {
            for c in window {
                client
                    .send_score(&spec.id, c.gap_before as u32, c.rows.clone())
                    .expect("send");
            }
            for _ in window {
                wire.extend(client.recv_scored().expect("scored").verdicts);
            }
        }

        let det = AnyDetector::load(&spec.cfg, spec.seed, spec.channels, &spec.checkpoint)
            .expect("load");
        let mut local = StreamingMonitor::new(det, spec.channels, spec.hop).expect("monitor");
        let mut expect = Vec::new();
        for c in &chunks {
            if c.gap_before > 0 {
                local.notify_gap(c.gap_before);
            }
            for row in &c.rows {
                expect.extend(local.push(row).expect("push"));
            }
        }
        assert_eq!(wire.len(), expect.len());
        for (w, l) in wire.iter().zip(&expect) {
            assert_eq!(w.index, l.index);
            assert_eq!(w.score.to_bits(), l.score.to_bits());
            assert_eq!(w.anomalous, l.anomalous);
        }
        let anomalies = wire.iter().filter(|v| v.anomalous).count();
        println!(
            "tenant {:<10} {} chunks -> {} verdicts ({} anomalous), bit-identical to \
             sequential scoring",
            spec.id,
            chunks.len(),
            wire.len(),
            anomalies
        );
    }

    // --- Overload burst: explicit backpressure, no silent drops ------------
    let burst = 64;
    let spec = &specs[0];
    let ds = &datasets[0];
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    for i in 0..burst {
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| ds.test.row((i * 4 + r) % ds.test.len()).to_vec())
            .collect();
        client.send_score(&spec.id, 0, rows).expect("send burst");
    }
    let (mut scored, mut refused) = (0, 0);
    for _ in 0..burst {
        match client.recv_scored() {
            Ok(_) => scored += 1,
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) => refused += 1,
            Err(other) => panic!("burst reply was neither verdicts nor refusal: {other}"),
        }
    }
    assert_eq!(scored + refused, burst);
    assert!(refused > 0, "burst never hit the queue cap");
    client.ping().expect("server survived the burst");
    println!(
        "overload burst: {burst} requests -> {scored} scored, {refused} refused with \
         explicit Overloaded (0 dropped)"
    );

    // --- Hot reload mid-traffic --------------------------------------------
    let mut det2 = AnyDetector::new(DetectorKind::ImDiffusion, demo_cfg(), 77);
    det2.fit(&datasets[0].train).expect("fit replacement");
    det2.save(&spec.checkpoint).expect("atomic rewrite");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut requests = 0;
    let generation = loop {
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| ds.test.row((requests * 4 + r) % ds.test.len()).to_vec())
            .collect();
        let scored = client.score(&spec.id, 0, rows).expect("request failed mid-reload");
        requests += 1;
        if scored.generation >= 2 {
            break scored.generation;
        }
        assert!(Instant::now() < deadline, "reload did not land in 30s");
    };
    println!(
        "hot reload: new checkpoint picked up after {requests} in-flight requests, \
         now serving generation {generation} (zero failed requests)"
    );

    // --- Health + drain ----------------------------------------------------
    let health = client.health().expect("health");
    println!("health report:");
    for t in &health {
        println!(
            "  {:<10} {:?} gen {} rows_seen {} rejected {} degraded_evals {}",
            t.id, t.state, t.generation, t.rows_seen, t.rows_rejected, t.degraded_evals
        );
    }
    assert!(health.iter().any(|t| t.generation == 2));

    let json = client.obs_snapshot().expect("obs snapshot");
    let snap = obs::Snapshot::from_json(&json).expect("snapshot parses");
    println!("serve.* observability counters:");
    for (name, value) in snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("serve."))
    {
        println!("  {name:<24} {value}");
    }
    assert!(snap.counter("serve.batches").unwrap_or(0) > 0);
    assert!(snap.counter("serve.reloads").unwrap_or(0) >= 1);
    assert!(snap.counter("serve.overloaded").unwrap_or(0) > 0);
    // Micro-batching actually coalesced: fewer ensemble batches than
    // scored requests.
    let batches = snap.counter("serve.batches").unwrap();
    let items = snap.counter("serve.batch_items").unwrap();
    assert!(items > batches, "no coalescing happened ({items} items in {batches} batches)");

    drop(client);
    server.drain();
    println!(
        "drained cleanly; micro-batching packed {items} requests into {batches} ensemble \
         calls ({:.2} per batch)",
        items as f64 / batches as f64
    );
}
