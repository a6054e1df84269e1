//! End-to-end continual-learning loop over the wire: a seeded drifting
//! stream degrades the serving tenant, a fine-tuning round on recent
//! post-change rows produces a candidate, the labeled validation gate
//! promotes it with zero refused requests, the drift latch clears, and
//! every verdict of the whole episode bit-matches a local monitor
//! replaying the same rows with the same swap schedule — so the episode
//! is identical at any `IMDIFF_THREADS` setting (CI runs this test at 1
//! and default). A corrupt rewrite afterwards is refused without
//! touching the adapted generation; gate *rejection* edge cases
//! (strictly worse candidate, guard-rail divergence) are pinned down in
//! `serve_promotion.rs`.

use std::path::PathBuf;
use std::time::Duration;

use imdiffusion_repro::core::{FineTuneOptions, FineTuner, ImDiffusionConfig, StreamingMonitor};
use imdiffusion_repro::data::scenario::{drift, ScenarioProfile};
use imdiffusion_repro::data::{Detector, Mts};
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};
use imdiffusion_repro::serve::{
    HoldoutSpec, PromotionVerdict, ServeClient, ServeConfig, Server, TenantSpec,
    WireHealthState,
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
        "imdiff-loop-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

#[test]
fn drifting_stream_degrades_retrains_and_recovers_bit_identically() {
    let profile = ScenarioProfile::quick();
    let sc = drift(&profile, 11);
    let channels = sc.train.dim();
    let settled = sc.change_start + profile.ramp_len;
    let retrain_at = sc.change_start + 300;

    let dir = tmp_dir("drift");
    let path = dir.join("t.imdf");
    let mut incumbent = AnyDetector::new(DetectorKind::ImDiffusion, tiny_cfg(), 4);
    incumbent.fit(&sc.train).unwrap();
    incumbent.save(&path).unwrap();
    let incumbent_spec = incumbent.to_spec().expect("fitted");
    let incumbent = incumbent.as_imdiffusion().expect("ImDiffusion");

    // Labeled holdout from the settled post-change regime, covering the
    // first injected spikes: the gate judges candidates on ground truth
    // from the distribution the tenant must adapt to.
    let h0 = settled + 48;
    let holdout = HoldoutSpec {
        rows: (h0..h0 + 48).map(|l| sc.stream.row(l).to_vec()).collect(),
        labels: Some(sc.labels[h0..h0 + 48].to_vec()),
        score_tolerance: 0.0,
    };
    assert!(
        sc.labels[h0..h0 + 48].iter().any(|&t| t),
        "holdout slice should contain injected spikes"
    );
    let spec = TenantSpec {
        id: "t".into(),
        checkpoint: path.clone(),
        cfg: tiny_cfg(),
        seed: 4,
        channels,
        hop: 8,
        holdout: Some(holdout),
        drift_policy: Some((3.0, 2)),
        family: imdiffusion_repro::registry::DetectorKind::ImDiffusion,
        escalation: None,
    };
    let cfg = ServeConfig {
        shards: 1,
        max_batch: 4,
        max_queue: 1024,
        shed_after: Duration::from_secs(60),
        deadline: Duration::from_secs(120),
        reload_poll: None,
        regression_watch: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, vec![spec]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // Local mirror: identical rows, identical swap schedule. Every score
    // request is unwrapped, so a single refused healthy-path request
    // fails the test.
    let mut mirror =
        StreamingMonitor::new(incumbent_spec.build().unwrap(), channels, 8).unwrap();
    assert!(mirror.set_drift_policy(3.0, 2));
    let mut wire: Vec<(u64, f64, u32, bool, bool)> = Vec::new();
    let mut local = Vec::new();
    let stream_span =
        |client: &mut ServeClient, mirror: &mut StreamingMonitor<AnyDetector>, wire: &mut Vec<_>, local: &mut Vec<_>, from: usize, to: usize, generation: u64| {
            for start in (from..to).step_by(8) {
                let rows: Vec<Vec<f32>> =
                    (start..to.min(start + 8)).map(|l| sc.stream.row(l).to_vec()).collect();
                let scored = client.score("t", 0, rows.clone()).unwrap();
                assert_eq!(scored.generation, generation);
                for v in scored.verdicts {
                    wire.push((v.index, v.score, v.votes, v.anomalous, v.degraded));
                }
                for row in &rows {
                    local.extend(mirror.push(row).unwrap());
                }
            }
        };

    // Pre-change stream: healthy, no drift latch (no false positives).
    stream_span(&mut client, &mut mirror, &mut wire, &mut local, 0, sc.change_start, 1);
    let health = client.health().unwrap();
    assert_eq!(health[0].state, WireHealthState::Healthy);
    assert!(!health[0].drifted, "drift latched before the change");

    // Through the ramp and well past it: the debounced drift signal
    // latches and the health machine reports Degraded — the stale model
    // no longer matches the stream.
    stream_span(&mut client, &mut mirror, &mut wire, &mut local, sc.change_start, retrain_at, 1);
    let health = client.health().unwrap();
    assert!(health[0].drifted, "drift never latched after the change");
    assert!(health[0].drift_trips >= 1);
    assert_eq!(health[0].state, WireHealthState::Degraded);

    // Close the loop: fine-tune the incumbent on recent verdict-negative
    // post-change rows (ground-truth clean here; the monitor-side harvest
    // is unit-tested in core), then offer the candidate for promotion.
    let clean: Vec<usize> =
        (settled..retrain_at).filter(|&l| !sc.labels[l]).collect();
    let mut corpus = Vec::with_capacity(clean.len() * channels);
    for &l in &clean {
        corpus.extend_from_slice(sc.stream.row(l));
    }
    let corpus = Mts::new(corpus, clean.len(), channels);
    let tuner = FineTuner::new(FineTuneOptions {
        steps: 48,
        ema: Some(0.99),
        seed_salt: 1,
        ..FineTuneOptions::default()
    });
    let outcome = tuner.run(incumbent, &corpus).unwrap();
    assert!(outcome.report.applied, "fine-tune vetoed: {:?}", outcome.report.reason);
    let candidate = outcome.candidate.expect("applied implies candidate");
    let candidate = AnyDetector::from(candidate);
    let candidate_spec = candidate.to_spec().expect("fitted");
    candidate.save(&path).unwrap();

    // The gate replays the labeled holdout for both models off the shard
    // thread and promotes the adapted candidate; the reply arrives after
    // the swap lands, so the mirror swaps at the same stream position.
    let reload = client.reload("t").unwrap();
    assert_eq!(
        reload.verdict,
        PromotionVerdict::Promoted,
        "gate refused the adapted candidate: {}",
        reload.detail
    );
    assert_eq!(reload.generation, 2);
    mirror.swap_detector(candidate_spec.build().unwrap()).unwrap();

    // Post-promotion replay: the swap re-baselined the drift reference,
    // so the latch clears and the tenant recovers — zero serving gap.
    stream_span(&mut client, &mut mirror, &mut wire, &mut local, retrain_at, sc.stream.len(), 2);
    let health = client.health().unwrap();
    assert!(!health[0].drifted, "drift still latched after promotion");
    assert_eq!(health[0].state, WireHealthState::Healthy);
    assert!(health[0].recoveries >= 1);
    assert_eq!(health[0].generation, 2);

    // Every verdict of the whole episode — before, during and after the
    // drift — bit-matches the local replay, so the loop is deterministic
    // at any thread count.
    assert_eq!(wire.len(), local.len(), "verdict counts differ");
    for (w, l) in wire.iter().zip(&local) {
        assert_eq!(w.0, l.index);
        assert_eq!(
            w.1.to_bits(),
            l.score.to_bits(),
            "score bits differ at index {}",
            l.index
        );
        assert_eq!(w.2, l.votes);
        assert_eq!(w.3, l.anomalous);
        assert_eq!(w.4, l.degraded);
    }

    // A corrupt rewrite of the checkpoint is refused before it reaches
    // the shard, and the adapted model keeps serving.
    std::fs::write(&path, b"IMDF garbage, not a checkpoint").unwrap();
    let rejected = client.reload("t").unwrap();
    assert_eq!(
        rejected.verdict,
        PromotionVerdict::RejectedCorrupt,
        "corrupt candidate was not refused: {}",
        rejected.detail
    );
    assert_eq!(rejected.generation, 2);
    let scored = client
        .score("t", 0, (0..8).map(|l| sc.stream.row(l).to_vec()).collect())
        .unwrap();
    assert_eq!(scored.generation, 2);

    drop(client);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
