//! The closed continual-learning loop, end to end: a tenant serves a
//! drifting stream, the debounced drift detector latches and degrades
//! its health, a fine-tuning round on recent post-change rows produces a
//! candidate, the labeled validation gate promotes it with zero refused
//! requests, and the tenant recovers — then a corrupt rewrite is refused
//! without touching the adapted generation. Every stage asserts, so CI
//! runs this as a gate (at `IMDIFF_THREADS=1` and default; the episode
//! is bit-deterministic either way).
//!
//! ```sh
//! cargo run --release --example continual_loop
//! ```

use std::path::PathBuf;
use std::time::Duration;

use imdiffusion_repro::core::{FineTuneOptions, FineTuner, ImDiffusionConfig};
use imdiffusion_repro::data::scenario::{drift, ScenarioProfile};
use imdiffusion_repro::data::{Detector, Mts};
use imdiffusion_repro::nn::obs;
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};
use imdiffusion_repro::serve::{
    HoldoutSpec, PromotionVerdict, ServeClient, ServeConfig, Server, TenantSpec,
    WireHealthState,
};

fn loop_cfg() -> ImDiffusionConfig {
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
    let dir = PathBuf::from("target/continual_loop");
    std::fs::create_dir_all(&dir).expect("create demo dir");
    let checkpoint = dir.join("sensors.imde");

    // --- A drifting scenario with ground truth -----------------------------
    let profile = ScenarioProfile::quick();
    let sc = drift(&profile, 11);
    let channels = sc.train.dim();
    let settled = sc.change_start + profile.ramp_len;
    let retrain_at = sc.change_start + 300;
    println!(
        "scenario `{}`: {} training rows, {}-row stream, distribution departs at row {}",
        sc.name,
        sc.train.len(),
        sc.stream.len(),
        sc.change_start
    );

    // --- Fit, checkpoint, and serve with the loop armed --------------------
    let mut stale = AnyDetector::new(DetectorKind::ImDiffusion, loop_cfg(), 4);
    stale.fit(&sc.train).expect("fit");
    stale.save(&checkpoint).expect("save checkpoint");

    let h0 = settled + 48;
    let server = Server::start(
        ServeConfig {
            shards: 1,
            max_batch: 4,
            max_queue: 1024,
            shed_after: Duration::from_secs(60),
            deadline: Duration::from_secs(120),
            reload_poll: None,
            ..ServeConfig::default()
        },
        vec![TenantSpec {
            id: "sensors".into(),
            checkpoint: checkpoint.clone(),
            cfg: loop_cfg(),
            seed: 4,
            channels,
            hop: 8,
            // The promotion gate replays this labeled post-change slice.
            holdout: Some(HoldoutSpec {
                rows: (h0..h0 + 48).map(|l| sc.stream.row(l).to_vec()).collect(),
                labels: Some(sc.labels[h0..h0 + 48].to_vec()),
                score_tolerance: 0.0,
            }),
            drift_policy: Some((3.0, 2)),
            family: imdiffusion_repro::registry::DetectorKind::ImDiffusion,
            escalation: None,
        }],
    )
    .expect("server start");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // Every score call is unwrapped: one refused request fails the run.
    let stream_span = |client: &mut ServeClient, from: usize, to: usize, generation: u64| {
        for start in (from..to).step_by(8) {
            let rows: Vec<Vec<f32>> =
                (start..to.min(start + 8)).map(|l| sc.stream.row(l).to_vec()).collect();
            let scored = client.score("sensors", 0, rows).expect("healthy-path request");
            assert_eq!(scored.generation, generation, "serving gap at row {start}");
        }
    };

    // --- Phase 1: pre-change traffic stays healthy -------------------------
    stream_span(&mut client, 0, sc.change_start, 1);
    let h = &client.health().expect("health")[0];
    assert_eq!(h.state, WireHealthState::Healthy);
    assert!(!h.drifted, "drift latched on the training distribution");
    println!(
        "phase 1: rows 0..{} on generation 1 -> {:?}, drift latch clear",
        sc.change_start, h.state
    );

    // --- Phase 2: the distribution departs, the tenant degrades ------------
    stream_span(&mut client, sc.change_start, retrain_at, 1);
    let h = &client.health().expect("health")[0];
    assert!(h.drifted, "drift never latched after the change");
    assert_eq!(h.state, WireHealthState::Degraded);
    println!(
        "phase 2: rows {}..{} -> {:?}, drift latched ({} debounced trip(s)) — stale \
         model flagged for retraining",
        sc.change_start, retrain_at, h.state, h.drift_trips
    );

    // --- Phase 3: fine-tune on recent post-change rows ---------------------
    let clean: Vec<usize> = (settled..retrain_at).filter(|&l| !sc.labels[l]).collect();
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
    let stale = stale.as_imdiffusion().expect("ImDiffusion");
    let outcome = tuner.run(stale, &corpus).expect("fine-tune");
    assert!(outcome.report.applied, "vetoed: {:?}", outcome.report.reason);
    let candidate = outcome.candidate.expect("applied implies candidate");
    println!(
        "phase 3: fine-tuned {} steps on {} verdict-negative rows in {:?} (final loss \
         {:.4}, EMA weights)",
        outcome.report.steps_run,
        corpus.len(),
        outcome.report.elapsed,
        outcome.report.final_loss.unwrap_or(f32::NAN)
    );

    // --- Phase 4: gate, promote, recover -----------------------------------
    AnyDetector::from(candidate).save(&checkpoint).expect("publish candidate");
    let reload = client.reload("sensors").expect("reload");
    assert_eq!(
        reload.verdict,
        PromotionVerdict::Promoted,
        "gate refused the adapted candidate: {}",
        reload.detail
    );
    assert_eq!(reload.generation, 2);
    println!("phase 4: promoted to generation 2 ({})", reload.detail);

    stream_span(&mut client, retrain_at, sc.stream.len(), 2);
    let h = &client.health().expect("health")[0];
    assert!(!h.drifted, "drift still latched after promotion");
    assert_eq!(h.state, WireHealthState::Healthy);
    assert!(h.recoveries >= 1);
    println!(
        "         rows {}..{} on generation 2 -> {:?}, drift latch cleared, {} \
         recovery transition(s), zero refused requests",
        retrain_at,
        sc.stream.len(),
        h.state,
        h.recoveries
    );

    // --- Phase 5: a corrupt candidate cannot regress the tenant ------------
    std::fs::write(&checkpoint, b"IMDF garbage, not a checkpoint").expect("scribble");
    let refused = client.reload("sensors").expect("reload");
    assert_eq!(refused.verdict, PromotionVerdict::RejectedCorrupt);
    assert_eq!(refused.generation, 2);
    println!("phase 5: corrupt rewrite refused, still serving generation 2");

    // --- The loop's observability trail ------------------------------------
    let json = client.obs_snapshot().expect("obs snapshot");
    let snap = obs::Snapshot::from_json(&json).expect("snapshot parses");
    println!("continual-loop counters:");
    for (name, value) in snap.counters.iter().filter(|(n, _)| {
        n.starts_with("serve.promotion.")
            || n.starts_with("train.finetune.")
            || n.starts_with("stream.drift.")
            || n.starts_with("serve.reload")
    }) {
        println!("  {name:<28} {value}");
    }
    assert!(snap.counter("serve.promotion.promoted").unwrap_or(0) >= 1);
    assert!(snap.counter("serve.promotion.rejected_corrupt").unwrap_or(0) >= 1);
    assert!(snap.counter("stream.drift.trips").unwrap_or(0) >= 1);
    // The default post-promotion regression watch (64 verdicts) armed on
    // the swap and confirmed the candidate instead of rolling it back.
    assert!(snap.counter("serve.promotion.confirmed").unwrap_or(0) >= 1);

    drop(client);
    server.drain();
    println!("drained cleanly: drift -> degrade -> retrain -> promote -> recover");
}
