//! End-to-end escalation routing over the wire: a tenant configured with
//! a z-score → IForest → ImDiffusion ladder starts pinned to the cheap
//! rung (initial ladder evaluation — no canonical checkpoint exists), a
//! seeded regime change trips the debounced drift latch and escalates
//! the tenant to the apex, a drain/restart restores the *pinned* rung
//! from the persisted canonical envelope (not a fresh evaluation, which
//! would have picked the cheap rung again), and when the stream reverts
//! the latch clears and the tenant de-escalates. Every verdict of the
//! whole episode bit-matches a local monitor replaying the same rows
//! with the same edge-triggered swap schedule, so the episode is
//! identical at any `IMDIFF_THREADS` setting (CI runs this test at 1
//! and default).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use imdiffusion_repro::core::{ImDiffusionConfig, StreamingMonitor};
use imdiffusion_repro::data::scenario::{drift, ScenarioProfile};
use imdiffusion_repro::data::Detector;
use imdiffusion_repro::nn::obs;
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};
use imdiffusion_repro::serve::{
    EscalationSpec, RungSpec, ServeClient, ServeConfig, Server, TenantHealth, TenantSpec,
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
        "imdiff-escalate-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

const SEED: u64 = 11;
const HOP: usize = 8;

/// The mirror's copy of the server's edge-triggered escalation router:
/// a drift trip pins the apex, a clear re-evaluates the ladder — and
/// with `f1_tolerance = 1.0` the evaluation deterministically picks the
/// cheapest rung, so the mirror swaps the z-score envelope back in.
/// `swap_detector` resets the latch against the new rung's reference,
/// so the edge state is resynced from the monitor after every swap,
/// exactly as the server does.
fn mirror_route(
    mirror: &mut StreamingMonitor<AnyDetector>,
    was: &mut bool,
    cfg: &ImDiffusionConfig,
    channels: usize,
    base_path: &Path,
    apex_path: &Path,
) {
    let now = mirror.drift_status().drifted;
    let prev = *was;
    *was = now;
    if prev == now {
        return;
    }
    let serving = mirror.detector().kind();
    let replacement = if now {
        if serving == DetectorKind::ImDiffusion {
            return;
        }
        apex_path
    } else {
        if serving == DetectorKind::ZScore {
            return;
        }
        base_path
    };
    let det = AnyDetector::load(cfg, SEED, channels, replacement).expect("load rung envelope");
    mirror.swap_detector(det).expect("mirror swap");
    *was = mirror.drift_status().drifted;
}

fn health_of(client: &mut ServeClient, tenant: &str) -> TenantHealth {
    client
        .health()
        .unwrap()
        .into_iter()
        .find(|t| t.id == tenant)
        .expect("tenant in health report")
}

/// Polls until the tenant reports the wanted family (shard activation is
/// asynchronous after `Server::start`).
fn wait_for_family(client: &mut ServeClient, tenant: &str, want: &str) -> TenantHealth {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(report) = client.health() {
            if let Some(t) = report.into_iter().find(|t| t.id == tenant) {
                if t.family == want {
                    return t;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "tenant {tenant} never reported family {want}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn ladder_escalates_on_drift_and_restores_pin_across_restart() {
    let was_enabled = obs::enabled();
    obs::set_enabled(true);

    let profile = ScenarioProfile::quick();
    let sc = drift(&profile, SEED);
    let channels = sc.train.dim();
    let settled = sc.change_start + profile.ramp_len;

    // Fit one detector per rung on the shared pre-change training split
    // and persist each as an IMDE envelope.
    let dir = tmp_dir("ladder");
    let fit_rung = |kind: DetectorKind, file: &str| -> PathBuf {
        let path = dir.join(file);
        let mut det = AnyDetector::new(kind, tiny_cfg(), SEED);
        det.fit(&sc.train).expect("fit rung");
        det.save(&path).expect("save rung envelope");
        path
    };
    let z_path = fit_rung(DetectorKind::ZScore, "zscore.imde");
    let if_path = fit_rung(DetectorKind::IForest, "iforest.imde");
    let imd_path = fit_rung(DetectorKind::ImDiffusion, "imdiffusion.imde");

    // Labeled holdout from the settled post-change regime, containing
    // injected spikes. `f1_tolerance = 1.0` makes the ladder evaluation
    // deterministic for the mirror: the cheapest rung always wins.
    let h0 = settled + 48;
    let holdout_rows: Vec<Vec<f32>> = (h0..h0 + 48).map(|l| sc.stream.row(l).to_vec()).collect();
    let holdout_labels = sc.labels[h0..h0 + 48].to_vec();
    assert!(
        holdout_labels.iter().any(|&t| t),
        "holdout slice should contain injected spikes"
    );

    let canon = dir.join("canon.imde");
    let spec = || TenantSpec {
        id: "esc".into(),
        checkpoint: canon.clone(),
        cfg: tiny_cfg(),
        seed: SEED,
        channels,
        hop: HOP,
        holdout: None,
        drift_policy: Some((3.0, 2)),
        family: DetectorKind::ZScore,
        escalation: Some(EscalationSpec {
            rungs: vec![
                RungSpec {
                    kind: DetectorKind::ZScore,
                    checkpoint: z_path.clone(),
                },
                RungSpec {
                    kind: DetectorKind::IForest,
                    checkpoint: if_path.clone(),
                },
                RungSpec {
                    kind: DetectorKind::ImDiffusion,
                    checkpoint: imd_path.clone(),
                },
            ],
            f1_tolerance: 1.0,
            holdout_rows: holdout_rows.clone(),
            holdout_labels: holdout_labels.clone(),
        }),
    };
    let serve_cfg = || ServeConfig {
        shards: 1,
        max_batch: 4,
        max_queue: 1024,
        shed_after: Duration::from_secs(60),
        deadline: Duration::from_secs(120),
        reload_poll: None,
        snapshot_every: None,
        regression_watch: 0,
        ..ServeConfig::default()
    };

    assert!(!canon.exists(), "canonical checkpoint must start absent");
    let server = Server::start(serve_cfg(), vec![spec()]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // Local mirror of the pinned base rung: the same envelope bytes the
    // initial ladder evaluation pins and persists as the canonical
    // checkpoint.
    let cfg = tiny_cfg();
    let mut mirror = StreamingMonitor::new(
        AnyDetector::load(&cfg, SEED, channels, &z_path).unwrap(),
        channels,
        HOP,
    )
    .unwrap();
    assert!(mirror.set_drift_policy(3.0, 2), "base rung must arm drift");
    let mut was_drifted = mirror.drift_status().drifted;

    let mut wire: Vec<(u64, f64, u32, bool, bool)> = Vec::new();
    let mut local = Vec::new();
    let stream_rows =
        |client: &mut ServeClient, mirror: &mut StreamingMonitor<AnyDetector>, was: &mut bool, wire: &mut Vec<(u64, f64, u32, bool, bool)>, local: &mut Vec<_>, from: usize, to: usize| {
            for start in (from..to).step_by(HOP) {
                let end = to.min(start + HOP);
                let rows: Vec<Vec<f32>> =
                    (start..end).map(|l| sc.stream.row(l).to_vec()).collect();
                let scored = client.score("esc", 0, rows.clone()).unwrap();
                for v in scored.verdicts {
                    wire.push((v.index, v.score, v.votes, v.anomalous, v.degraded));
                }
                for row in &rows {
                    local.extend(mirror.push(row).unwrap());
                }
                mirror_route(mirror, was, &cfg, channels, &z_path, &imd_path);
            }
        };

    // Pre-change stream: the tenant serves on the cheap rung, no drift.
    stream_rows(&mut client, &mut mirror, &mut was_drifted, &mut wire, &mut local, 0, sc.change_start);
    let h = health_of(&mut client, "esc");
    assert_eq!(h.family, "ZScore", "initial ladder pin is not the cheapest rung");
    assert_eq!(h.generation, 1);
    assert!(!h.drifted, "drift latched before the change");
    assert!(canon.exists(), "initial pin was not persisted as the canonical envelope");
    assert!(
        obs::snapshot_json().contains("serve.escalation.initial_pins"),
        "initial ladder pin did not tick its counter"
    );

    // Regime change: the latch trips and the router swaps in the apex.
    stream_rows(&mut client, &mut mirror, &mut was_drifted, &mut wire, &mut local, sc.change_start, sc.stream.len());
    let h = health_of(&mut client, "esc");
    assert_eq!(h.family, "ImDiffusion", "drift trip did not escalate to the apex");
    assert!(h.drifted, "latch should still be up at the apex mid-shift");
    assert!(h.drift_trips >= 1);
    assert_eq!(h.generation, 2, "escalation repin must bump the generation once");
    let snapshot = obs::snapshot_json();
    assert!(snapshot.contains("serve.escalation.drift_escalations"));
    assert!(snapshot.contains("serve.escalation.repins"));

    // Kill and restart. The canonical envelope now holds the apex — a
    // fresh ladder evaluation would have re-pinned the cheap rung, so an
    // ImDiffusion family after restart proves the pin was *restored*.
    client.snapshot("esc").expect("snapshot sidecar");
    let fed = sc.stream.len() as u64;
    drop(client);
    server.drain();
    let server = Server::start(serve_cfg(), vec![spec()]).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();
    let h = wait_for_family(&mut client, "esc", "ImDiffusion");
    assert_eq!(
        h.rows_seen, fed,
        "restart did not resume from the snapshotted sidecar"
    );

    // The stream reverts to the pre-change regime: the latch clears, the
    // clear edge re-evaluates the ladder, and the tenant de-escalates.
    // The replayed rows are the same pre-change slice, pushed through
    // the uninterrupted mirror at its current position.
    for start in (0..160).step_by(HOP) {
        let rows: Vec<Vec<f32>> =
            (start..start + HOP).map(|l| sc.stream.row(l).to_vec()).collect();
        let scored = client.score("esc", 0, rows.clone()).unwrap();
        for v in scored.verdicts {
            wire.push((v.index, v.score, v.votes, v.anomalous, v.degraded));
        }
        for row in &rows {
            local.extend(mirror.push(row).unwrap());
        }
        mirror_route(&mut mirror, &mut was_drifted, &cfg, channels, &z_path, &imd_path);
    }
    let h = health_of(&mut client, "esc");
    assert_eq!(h.family, "ZScore", "clear edge did not de-escalate");
    assert!(!h.drifted, "latch should have cleared on the reverted regime");
    assert!(
        obs::snapshot_json().contains("serve.escalation.deescalations"),
        "de-escalation did not tick its counter"
    );

    // Every verdict of the whole episode — cheap rung, escalated apex,
    // across the restart, and after de-escalation — bit-matches the
    // local replay.
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

    drop(client);
    server.drain();
    obs::set_enabled(was_enabled);
    let _ = std::fs::remove_dir_all(&dir);
}
