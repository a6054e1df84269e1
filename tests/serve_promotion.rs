//! Promotion edge cases for the closed continual-learning loop: corrupt
//! candidates are refused before they reach a shard, validation-gate ties
//! promote, grossly divergent candidates are rejected by the label-free
//! guard-rail, and a post-promotion regression rolls back to the archived
//! incumbent with bit-identical verdicts thereafter.

use std::path::{Path, PathBuf};
use std::time::Duration;

use imdiffusion_repro::core::{ImDiffusionConfig, StreamingMonitor};
use imdiffusion_repro::data::synthetic::{generate, Benchmark, LabeledDataset, SizeProfile};
use imdiffusion_repro::data::{Detector, Mts};
use imdiffusion_repro::registry::{AnyDetector, AnySpec, DetectorKind};
use imdiffusion_repro::serve::{
    HoldoutSpec, PromotionVerdict, ServeClient, ServeConfig, Server, TenantSpec,
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
        "imdiff-promo-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn train_and_save(path: &Path, seed: u64) -> (LabeledDataset, AnyDetector) {
    let ds = generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: 80,
            test_len: 64,
        },
        seed,
    );
    let mut det = imdiffusion(seed);
    det.fit(&ds.train).unwrap();
    det.save(path).unwrap();
    (ds, det)
}

fn imdiffusion(seed: u64) -> AnyDetector {
    AnyDetector::new(DetectorKind::ImDiffusion, tiny_cfg(), seed)
}

/// The `Send`-safe snapshot local mirrors are rebuilt from: the envelope
/// spec the serving shard itself installs.
fn mirror_spec(det: &AnyDetector) -> AnySpec {
    det.to_spec().expect("fitted")
}

fn tenant_spec(id: &str, path: &Path, seed: u64, channels: usize) -> TenantSpec {
    TenantSpec {
        id: id.into(),
        checkpoint: path.to_path_buf(),
        cfg: tiny_cfg(),
        seed,
        channels,
        hop: 2,
        holdout: None,
        drift_policy: None,
        family: imdiffusion_repro::registry::DetectorKind::ImDiffusion,
        escalation: None,
    }
}

/// Manual reloads only, generous limits, sentinel off unless a test
/// opts in.
fn base_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_batch: 4,
        max_queue: 1024,
        shed_after: Duration::from_secs(60),
        deadline: Duration::from_secs(120),
        reload_poll: None,
        regression_watch: 0,
        ..ServeConfig::default()
    }
}

#[test]
fn corrupt_candidate_is_never_promoted_and_serving_continues() {
    let dir = tmp_dir("corrupt");
    let path = dir.join("t.imdf");
    let (ds, _) = train_and_save(&path, 4);
    let channels = ds.train.dim();
    let server =
        Server::start(base_config(), vec![tenant_spec("t", &path, 4, channels)]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // A truncated/garbage rewrite must be refused by CRC/shape validation
    // off the shard thread: typed RejectedCorrupt, generation untouched.
    std::fs::write(&path, b"IMDF garbage that is not a checkpoint").unwrap();
    let outcome = client.reload("t").unwrap();
    assert_eq!(outcome.verdict, PromotionVerdict::RejectedCorrupt);
    assert_eq!(outcome.generation, 1);

    // The incumbent keeps serving without a gap on the old generation.
    let rows: Vec<Vec<f32>> = (0..24).map(|l| ds.test.row(l).to_vec()).collect();
    for chunk in rows.chunks(4) {
        let scored = client.score("t", 0, chunk.to_vec()).unwrap();
        assert_eq!(scored.generation, 1);
    }
    // Repeated attempts stay rejected (and keep answering).
    let again = client.reload("t").unwrap();
    assert_eq!(again.verdict, PromotionVerdict::RejectedCorrupt);

    drop(client);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validation_gate_tie_promotes() {
    let dir = tmp_dir("tie");
    let path = dir.join("t.imdf");
    let (ds, det) = train_and_save(&path, 4);
    let channels = ds.train.dim();
    let mut spec = tenant_spec("t", &path, 4, channels);
    // Labeled holdout: three full windows of the test split.
    spec.holdout = Some(HoldoutSpec {
        rows: (0..48).map(|l| ds.test.row(l).to_vec()).collect(),
        labels: Some(ds.labels[..48].to_vec()),
        score_tolerance: 0.0,
    });
    let server = Server::start(base_config(), vec![spec]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // Rewrite the identical weights: F1 ties exactly, and ties must
    // promote (fresh weights also re-baseline the drift reference).
    det.save(&path).unwrap();
    let outcome = client.reload("t").unwrap();
    assert_eq!(
        outcome.verdict,
        PromotionVerdict::Promoted,
        "tie did not promote: {}",
        outcome.detail
    );
    assert_eq!(outcome.generation, 2);
    // The reply arrives only after the swap lands, so the very next
    // scored reply already serves the new generation.
    let scored = client
        .score("t", 0, (0..4).map(|l| ds.test.row(l).to_vec()).collect())
        .unwrap();
    assert_eq!(scored.generation, 2);

    drop(client);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn divergent_candidate_rejected_by_label_free_guard_rail() {
    let dir = tmp_dir("guard");
    let path = dir.join("t.imdf");
    let (ds, _) = train_and_save(&path, 4);
    let channels = ds.train.dim();
    let mut spec = tenant_spec("t", &path, 4, channels);
    // No labels: the gate bounds the candidate/incumbent score deviation.
    spec.holdout = Some(HoldoutSpec {
        rows: (0..48).map(|l| ds.test.row(l).to_vec()).collect(),
        labels: None,
        score_tolerance: 1e-9,
    });
    let server = Server::start(base_config(), vec![spec]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // A different training run scores the holdout differently — far
    // beyond the (deliberately tiny) tolerance.
    let mut other = imdiffusion(99);
    other.fit(&ds.train).unwrap();
    other.save(&path).unwrap();
    let outcome = client.reload("t").unwrap();
    assert_eq!(
        outcome.verdict,
        PromotionVerdict::RejectedGate,
        "guard-rail passed a divergent candidate: {}",
        outcome.detail
    );
    assert_eq!(outcome.generation, 1);

    // Serving continues on the incumbent.
    let scored = client
        .score("t", 0, (0..4).map(|l| ds.test.row(l).to_vec()).collect())
        .unwrap();
    assert_eq!(scored.generation, 1);

    drop(client);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A promoted candidate that regresses in production is rolled back
/// automatically, and every verdict the server emits — before, during and
/// after the episode — bit-matches a local monitor replaying the same
/// rows with the same swap schedule. The sentinel decides on exactly
/// `regression_watch` post-swap verdicts, so the schedule (and therefore
/// the bits) is identical at any thread count.
#[test]
fn regression_rolls_back_to_bit_identical_incumbent() {
    const WATCH: usize = 24;
    let dir = tmp_dir("rollback");
    let path = dir.join("t.imdf");
    let (ds, incumbent) = train_and_save(&path, 4);
    let channels = ds.train.dim();
    let incumbent_spec = mirror_spec(&incumbent);

    let cfg = ServeConfig {
        regression_watch: WATCH,
        ..base_config()
    };
    let server =
        Server::start(cfg, vec![tenant_spec("t", &path, 4, channels)]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // The regressed candidate: a different training run on the
    // sign-inverted series — valid weights, so it promotes, but not the
    // incumbent (the mirror must swap to the same bits to stay
    // bit-identical through the episode).
    let shifted = Mts::new(
        ds.train.values().iter().map(|v| -v).collect(),
        ds.train.len(),
        ds.train.dim(),
    );
    let mut junk = imdiffusion(4);
    junk.fit(&shifted).unwrap();
    let junk_spec = mirror_spec(&junk);

    // Local mirror fed the identical rows with the identical swap
    // schedule; the synchronous client makes every chunk its own batch.
    let mut mirror =
        StreamingMonitor::new(incumbent_spec.build().unwrap(), channels, 2).unwrap();

    let mut wire: Vec<(u64, f64, u32, bool, bool)> = Vec::new();
    let mut local = Vec::new();
    let push_rows = |client: &mut ServeClient,
                     mirror: &mut StreamingMonitor<AnyDetector>,
                     wire: &mut Vec<(u64, f64, u32, bool, bool)>,
                     local: &mut Vec<_>,
                     rows: Vec<Vec<f32>>| {
        let scored = client.score("t", 0, rows.clone()).unwrap();
        for v in scored.verdicts {
            wire.push((v.index, v.score, v.votes, v.anomalous, v.degraded));
        }
        for row in &rows {
            local.extend(mirror.push(row).unwrap());
        }
        scored.generation
    };

    // Pre-swap traffic on healthy rows: the sentinel's baseline is the
    // incumbent's (near-zero) anomaly rate over these verdicts, and the
    // healthy evaluations calibrate the monitor's fallback threshold.
    let mut pos = 0usize;
    for _ in 0..12 {
        let rows: Vec<Vec<f32>> =
            (0..4).map(|r| ds.train.row((pos + r) % ds.train.len()).to_vec()).collect();
        let generation = push_rows(&mut client, &mut mirror, &mut wire, &mut local, rows);
        assert_eq!(generation, 1);
        pos += 4;
    }

    // Promote the junk candidate (no gate on this tenant). The reply
    // arrives after the swap lands, so the mirror swaps at the exact same
    // stream position.
    junk.save(&path).unwrap();
    let outcome = client.reload("t").unwrap();
    assert_eq!(outcome.verdict, PromotionVerdict::Promoted);
    assert_eq!(outcome.generation, 2);
    mirror.swap_detector(junk_spec.build().unwrap()).unwrap();

    // The regression episode: a sensor outage takes the feed dark — first
    // every channel (all-missing rows score 0.0 on the fallback, so the
    // calibrated threshold stays clean while the rolling window fills
    // with holes), then one survivor channel returns reporting a surge
    // that grows by an order of magnitude per row. By then the window is
    // mostly holes, so the monitor refuses ensemble inference (imputing
    // from almost nothing hallucinates) and judges rows by its z-score
    // fallback — the one path that sees raw magnitudes, since full
    // inference normalizes per window. Every surge score clears the
    // clean threshold, the post-swap anomaly rate dwarfs the baseline,
    // and the sentinel trips. The server decides after the batch in
    // which post-swap verdict #WATCH lands; the mirror applies the same
    // rule at the same chunk boundary, after which traffic returns to
    // healthy rows on the restored incumbent.
    let mut spike = 1.0e3f32;
    let mut outage = 0usize;
    let mut since_swap = 0usize;
    let mut rolled_back = false;
    let mut last_generation = 2;
    for _ in 0..30 {
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                if rolled_back {
                    let row = ds.train.row(pos % ds.train.len()).to_vec();
                    pos += 1;
                    row
                } else {
                    let mut row = vec![f32::NAN; channels];
                    if outage >= 8 {
                        row[0] = spike;
                        spike = (spike * 10.0).min(1.0e32);
                    }
                    outage += 1;
                    row
                }
            })
            .collect();
        let before = local.len();
        last_generation =
            push_rows(&mut client, &mut mirror, &mut wire, &mut local, rows);
        if !rolled_back {
            since_swap += local.len() - before;
            if since_swap >= WATCH {
                mirror.swap_detector(incumbent_spec.build().unwrap()).unwrap();
                rolled_back = true;
            }
        }
    }
    assert!(rolled_back, "watch never filled: {since_swap} verdicts");
    let anomalous = wire.iter().filter(|w| w.3).count();
    let degraded = wire.iter().filter(|w| w.4).count();
    assert_eq!(
        last_generation, 3,
        "regression sentinel did not roll back (still on generation \
         {last_generation}); {anomalous}/{} wire verdicts anomalous, {degraded} degraded",
        wire.len()
    );

    // Every verdict of the whole episode bit-matches the mirror.
    assert_eq!(wire.len(), local.len(), "verdict counts differ");
    for (w, l) in wire.iter().zip(&local) {
        assert_eq!(w.0, l.index);
        assert_eq!(
            w.1.to_bits(),
            l.score.to_bits(),
            "score bits differ at index {} after rollback",
            l.index
        );
        assert_eq!(w.2, l.votes);
        assert_eq!(w.3, l.anomalous);
        assert_eq!(w.4, l.degraded);
    }
    // The health report agrees the archived incumbent is serving.
    let health = client.health().unwrap();
    assert_eq!(health[0].generation, 3);

    // Restart leg: a drain/restart (or a failover adoption) loads the
    // canonical checkpoint, so the rollback must have persisted the
    // restored incumbent there — not left the regressed candidate on
    // disk. With no sidecar the restarted tenant re-warms, and its
    // verdicts must bit-match a fresh incumbent mirror.
    drop(client);
    server.drain();
    let server =
        Server::start(base_config(), vec![tenant_spec("t", &path, 4, channels)]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut fresh = StreamingMonitor::new(incumbent_spec.build().unwrap(), channels, 2).unwrap();
    let (mut wire, mut local) = (Vec::new(), Vec::new());
    for _ in 0..16 {
        let rows: Vec<Vec<f32>> =
            (0..4).map(|r| ds.train.row((pos + r) % ds.train.len()).to_vec()).collect();
        push_rows(&mut client, &mut fresh, &mut wire, &mut local, rows);
        pos += 4;
    }
    assert!(!local.is_empty(), "restarted tenant never judged a row");
    let wire_bits: Vec<_> =
        wire.iter().map(|w| (w.0, w.1.to_bits(), w.2, w.3, w.4)).collect();
    let local_bits: Vec<_> = local
        .iter()
        .map(|l| (l.index, l.score.to_bits(), l.votes, l.anomalous, l.degraded))
        .collect();
    assert_eq!(
        wire_bits, local_bits,
        "after restart the tenant does not serve the rolled-back incumbent"
    );

    drop(client);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
