//! End-to-end tests of the serving layer: batched scoring over the wire
//! is bit-identical to a local sequential monitor, hot reloads never fail
//! in-flight traffic or mix generations, overload produces explicit
//! backpressure, and drain flushes every queued request.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use imdiffusion_repro::core::{ImDiffusionConfig, PointVerdict, StreamingMonitor};
use imdiffusion_repro::data::replay::{replay_chunks, ReplayConfig};
use imdiffusion_repro::data::synthetic::{generate, Benchmark, LabeledDataset, SizeProfile};
use imdiffusion_repro::data::Detector;
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};
use imdiffusion_repro::serve::{
    ClientError, ErrorCode, ServeClient, ServeConfig, Server, TenantSpec,
};

fn tiny_cfg() -> ImDiffusionConfig {
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

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "imdiff-serve-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Trains a tiny detector on a fresh synthetic dataset and checkpoints it.
fn train_and_save(path: &Path, seed: u64) -> LabeledDataset {
    let ds = generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: 80,
            test_len: 64,
        },
        seed,
    );
    let mut det = AnyDetector::new(DetectorKind::ImDiffusion, tiny_cfg(), seed);
    det.fit(&ds.train).unwrap();
    det.save(path).unwrap();
    ds
}

fn tenant_spec(id: &str, path: &Path, seed: u64, channels: usize, hop: usize) -> TenantSpec {
    TenantSpec {
        id: id.into(),
        checkpoint: path.to_path_buf(),
        cfg: tiny_cfg(),
        seed,
        channels,
        hop,
        holdout: None,
        drift_policy: None,
        family: imdiffusion_repro::registry::DetectorKind::ImDiffusion,
        escalation: None,
    }
}

/// Generous limits: no shedding or timeouts unless a test opts in.
fn lenient_config(shards: usize, max_batch: usize) -> ServeConfig {
    ServeConfig {
        shards,
        max_batch,
        max_queue: 1024,
        shed_after: Duration::from_secs(60),
        deadline: Duration::from_secs(120),
        reload_poll: None,
        ..ServeConfig::default()
    }
}

fn assert_verdicts_bit_identical(wire: &[(u64, f64, u32, bool, bool)], local: &[PointVerdict]) {
    assert_eq!(wire.len(), local.len(), "verdict counts differ");
    for (w, l) in wire.iter().zip(local) {
        assert_eq!(w.0, l.index);
        assert_eq!(
            w.1.to_bits(),
            l.score.to_bits(),
            "score bits differ at index {}",
            l.index
        );
        assert_eq!(w.2, l.votes, "votes differ at index {}", l.index);
        assert_eq!(w.3, l.anomalous, "label differs at index {}", l.index);
        assert_eq!(w.4, l.degraded, "degraded flag differs at index {}", l.index);
    }
}

/// Drives two tenants through a server (pipelined, so the shards batch)
/// and checks every verdict bit-matches a local sequential monitor fed
/// the identical replayed traffic.
fn batched_matches_sequential(shards: usize) {
    let dir = tmp_dir(&format!("bitid-{shards}"));
    let tenants = [("alpha", 4u64), ("beta", 5u64)];
    let mut specs = Vec::new();
    let mut datasets = Vec::new();
    for (id, seed) in tenants {
        let path = dir.join(format!("{id}.imdf"));
        let ds = train_and_save(&path, seed);
        specs.push(tenant_spec(id, &path, seed, ds.train.dim(), 4));
        datasets.push(ds);
    }
    let server = Server::start(lenient_config(shards, 4), specs.clone()).unwrap();

    let replay = ReplayConfig {
        chunk_rows: 5,
        jitter: true,
        gap_rate: 0.1,
        max_gap: 3,
        nan_rate: 0.02,
    };
    for ((id, seed), ds) in tenants.iter().zip(&datasets) {
        let chunks = replay_chunks(&ds.test, &replay, *seed);

        // Wire path: pipeline every chunk, then collect replies in order.
        let mut client = ServeClient::connect(server.addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(120))).unwrap();
        for c in &chunks {
            client
                .send_score(id, c.gap_before as u32, c.rows.clone())
                .unwrap();
        }
        let mut wire = Vec::new();
        for _ in &chunks {
            let scored = client.recv_scored().expect("no request may fail");
            for v in scored.verdicts {
                wire.push((v.index, v.score, v.votes, v.anomalous, v.degraded));
            }
        }

        // Local sequential path from the same checkpoint.
        let spec = specs.iter().find(|s| s.id == *id).unwrap();
        let det =
            AnyDetector::load(&spec.cfg, spec.seed, spec.channels, &spec.checkpoint).unwrap();
        let mut monitor = StreamingMonitor::new(det, spec.channels, spec.hop).unwrap();
        let mut local = Vec::new();
        for c in &chunks {
            if c.gap_before > 0 {
                monitor.notify_gap(c.gap_before);
            }
            for row in &c.rows {
                local.extend(monitor.push(row).unwrap());
            }
        }

        assert!(!local.is_empty(), "replay produced no verdicts");
        assert_verdicts_bit_identical(&wire, &local);
    }
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_scoring_bit_identical_single_shard() {
    batched_matches_sequential(1);
}

#[test]
fn batched_scoring_bit_identical_multi_shard() {
    batched_matches_sequential(2);
}

#[test]
fn hot_reload_mid_traffic_never_fails_requests_or_mixes_generations() {
    let dir = tmp_dir("reload");
    let path = dir.join("tenant.imdf");
    let ds = train_and_save(&path, 4);
    let channels = ds.train.dim();
    let cfg = ServeConfig {
        reload_poll: Some(Duration::from_millis(40)),
        ..lenient_config(1, 4)
    };
    let server =
        Server::start(cfg, vec![tenant_spec("live", &path, 4, channels, 4)]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // Replacement weights: same architecture, different training run.
    // Written only after some traffic is in flight.
    let mut det2 = AnyDetector::new(DetectorKind::ImDiffusion, tiny_cfg(), 77);
    det2.fit(&ds.train).unwrap();

    let mut generations = Vec::new();
    let mut row_iter = (0..).map(|i| ds.test.row(i % ds.test.len()).to_vec());
    let mut send_chunk = |client: &mut ServeClient| {
        let rows: Vec<Vec<f32>> = row_iter.by_ref().take(4).collect();
        client.score("live", 0, rows).expect("request failed mid-reload")
    };

    for _ in 0..8 {
        generations.push(send_chunk(&mut client).generation);
    }
    // Atomic rewrite; the watcher must pick it up without disturbing the
    // request stream.
    det2.save(&path).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let scored = send_chunk(&mut client);
        generations.push(scored.generation);
        if scored.generation >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reload did not land within 30s; generations: {generations:?}"
        );
    }
    for _ in 0..4 {
        generations.push(send_chunk(&mut client).generation);
    }

    assert_eq!(generations[0], 1);
    assert_eq!(*generations.last().unwrap(), 2);
    assert!(
        generations.windows(2).all(|w| w[0] <= w[1]),
        "generations regressed: {generations:?}"
    );
    let health = client.health().unwrap();
    assert_eq!(health.len(), 1);
    assert_eq!(health[0].generation, 2);
    assert_eq!(health[0].rows_rejected, 0);

    drop(client);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_burst_yields_explicit_backpressure() {
    let dir = tmp_dir("overload");
    let path = dir.join("tenant.imdf");
    let ds = train_and_save(&path, 4);
    let channels = ds.train.dim();
    let cfg = ServeConfig {
        max_queue: 2,
        max_batch: 1,
        ..lenient_config(1, 1)
    };
    let server =
        Server::start(cfg, vec![tenant_spec("burst", &path, 4, channels, 4)]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // Fire a burst far beyond the queue cap. Every request must receive
    // an explicit reply: verdicts or a typed Overloaded refusal.
    let burst = 40;
    for i in 0..burst {
        let rows: Vec<Vec<f32>> =
            (0..4).map(|r| ds.test.row((i * 4 + r) % ds.test.len()).to_vec()).collect();
        client.send_score("burst", 0, rows).unwrap();
    }
    let mut scored = 0;
    let mut refused = 0;
    for _ in 0..burst {
        match client.recv_scored() {
            Ok(_) => scored += 1,
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) => refused += 1,
            Err(other) => panic!("unexpected reply during burst: {other}"),
        }
    }
    assert_eq!(scored + refused, burst);
    assert!(refused > 0, "queue cap 2 never refused during a {burst}-deep burst");
    assert!(scored > 0, "admission control starved the queue entirely");
    // The server survived the burst.
    client.ping().unwrap();

    drop(client);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shed_requests_get_degraded_verdicts_not_drops() {
    let dir = tmp_dir("shed");
    let path = dir.join("tenant.imdf");
    let ds = train_and_save(&path, 4);
    let channels = ds.train.dim();
    let cfg = ServeConfig {
        shed_after: Duration::ZERO, // any queue wait at all sheds
        ..lenient_config(1, 4)
    };
    let server =
        Server::start(cfg, vec![tenant_spec("shed", &path, 4, channels, 4)]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    let rows: Vec<Vec<f32>> = (0..48).map(|l| ds.test.row(l).to_vec()).collect();
    let mut verdicts = Vec::new();
    for chunk in rows.chunks(4) {
        let scored = client.score("shed", 0, chunk.to_vec()).unwrap();
        verdicts.extend(scored.verdicts);
    }
    assert!(!verdicts.is_empty(), "shed traffic produced no verdicts");
    assert!(
        verdicts.iter().all(|v| v.degraded && v.votes == 0),
        "a fully shed stream must be served by the fallback"
    );

    drop(client);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_flushes_queued_work_and_refuses_new() {
    let dir = tmp_dir("drain");
    let path = dir.join("tenant.imdf");
    let ds = train_and_save(&path, 4);
    let channels = ds.train.dim();
    let server = Server::start(
        lenient_config(1, 4),
        vec![tenant_spec("drain", &path, 4, channels, 4)],
    )
    .unwrap();
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // Typed refusals for bad requests, before any drain.
    match client.score("nobody", 0, vec![vec![0.0; channels]]) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownTenant,
            ..
        }) => {}
        other => panic!("unknown tenant accepted: {other:?}"),
    }
    match client.score("drain", 0, vec![vec![0.0; channels + 1]]) {
        Err(ClientError::Server {
            code: ErrorCode::BadRequest,
            ..
        }) => {}
        other => panic!("channel mismatch accepted: {other:?}"),
    }

    // Queue work, then drain: every queued request must still be answered
    // with real verdicts.
    let pipelined = 10;
    for i in 0..pipelined {
        let rows: Vec<Vec<f32>> =
            (0..4).map(|r| ds.test.row((i * 4 + r) % ds.test.len()).to_vec()).collect();
        client.send_score("drain", 0, rows).unwrap();
    }
    client.send(&imdiffusion_repro::serve::Request::Drain).unwrap();
    let mut answered = 0;
    for _ in 0..pipelined {
        client.recv_scored().expect("drain dropped queued work");
        answered += 1;
    }
    assert_eq!(answered, pipelined);
    match client.recv() {
        Ok(imdiffusion_repro::serve::Response::Ok) => {}
        other => panic!("drain not acknowledged: {other:?}"),
    }
    drop(client);
    server.drain();

    // The listener is gone (or at best refuses scoring).
    match ServeClient::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            let _ = late.set_timeout(Some(Duration::from_secs(5)));
            assert!(
                late.score("drain", 0, vec![vec![0.0; channels]]).is_err(),
                "scoring still possible after drain"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
