//! Failure-path tests for the replicated serving tier: retry backoff is
//! deterministic, duplicate frames are deduplicated, misaligned streams
//! are refused (never silently ingested), idle connections are reaped,
//! failover restores tenants bit-identically from their IMSM sidecars,
//! and a corrupted sidecar downgrades to a re-warm instead of an outage.

use std::io::Read as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use imdiffusion_repro::core::ImDiffusionConfig;
use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
use imdiffusion_repro::data::Detector;
use imdiffusion_repro::nn::obs;
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};
use imdiffusion_repro::serve::chaos::{run_chaos, ChaosEvent, ChaosPlan};
use imdiffusion_repro::serve::wire::WireVerdict;
use imdiffusion_repro::serve::{
    Backoff, ClientError, ErrorCode, RetryPolicy, ServeClient, ServeConfig, Server, TenantSpec,
};

/// Tests that flip the process-global observability switch or assert on
/// process-global counters serialize through this lock so they cannot
/// race each other's state.
static OBS_LOCK: Mutex<()> = Mutex::new(());

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
        "imdiff-failover-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Trains a tiny detector, checkpoints it, and returns the test rows.
fn train_and_save(path: &Path, seed: u64, test_len: usize) -> (Vec<Vec<f32>>, usize) {
    let ds = generate(
        Benchmark::Gcp,
        &SizeProfile {
            train_len: 80,
            test_len,
        },
        seed,
    );
    let mut det = AnyDetector::new(DetectorKind::ImDiffusion, tiny_cfg(), seed);
    det.fit(&ds.train).unwrap();
    det.save(path).unwrap();
    let rows = (0..ds.test.len()).map(|l| ds.test.row(l).to_vec()).collect();
    (rows, ds.test.dim())
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

fn lenient_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_batch: 4,
        max_queue: 256,
        shed_after: Duration::from_secs(60),
        deadline: Duration::from_secs(120),
        reload_poll: None,
        snapshot_every: None,
        ..ServeConfig::default()
    }
}

fn bits_equal(a: &WireVerdict, b: &WireVerdict) -> bool {
    a.index == b.index
        && a.score.to_bits() == b.score.to_bits()
        && a.votes == b.votes
        && a.anomalous == b.anomalous
        && a.degraded == b.degraded
}

fn rows_seen(client: &mut ServeClient, tenant: &str) -> u64 {
    client
        .health()
        .unwrap()
        .into_iter()
        .find(|t| t.id == tenant)
        .expect("tenant in health report")
        .rows_seen
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

/// Same policy + seed ⇒ the exact same delay sequence; the budget is
/// honoured; every delay stays inside the [raw/2, raw) jitter window.
#[test]
fn backoff_is_deterministic_and_bounded() {
    let policy = RetryPolicy {
        max_attempts: 6,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(200),
        seed: 42,
    };
    let drain = |mut b: Backoff| -> Vec<Duration> {
        std::iter::from_fn(|| b.next_delay()).collect()
    };
    let a = drain(Backoff::new(policy));
    let b = drain(Backoff::new(policy));
    assert_eq!(a, b, "same seed must replay the same jitter");
    // max_attempts = 6 means the first attempt plus 5 retries.
    assert_eq!(a.len(), 5);
    for (i, d) in a.iter().enumerate() {
        let raw = Duration::from_millis(10)
            .saturating_mul(1 << i as u32)
            .min(Duration::from_millis(200));
        assert!(*d >= raw / 2, "delay {i} = {d:?} below half of {raw:?}");
        assert!(*d < raw, "delay {i} = {d:?} reached un-jittered {raw:?}");
    }
    let other = drain(Backoff::new(RetryPolicy { seed: 43, ..policy }));
    assert_ne!(a, other, "different seeds must not stampede in lockstep");
}

/// `RetryPolicy::instant` keeps the attempt budget but removes every
/// wall-clock delay — what the harness uses to test retry logic fast.
#[test]
fn instant_policy_has_budget_but_no_delay() {
    let mut b = Backoff::new(RetryPolicy::instant(3));
    assert_eq!(b.next_delay(), Some(Duration::ZERO));
    assert_eq!(b.next_delay(), Some(Duration::ZERO));
    assert_eq!(b.next_delay(), None);
}

/// The client-side retry taxonomy: transport losses and typed
/// `Unavailable` refusals are retryable, contract errors are not.
#[test]
fn client_error_retryability_taxonomy() {
    let refusal = |code| ClientError::Server {
        code,
        message: String::new(),
    };
    assert!(refusal(ErrorCode::Overloaded).is_retryable());
    assert!(refusal(ErrorCode::Timeout).is_retryable());
    assert!(refusal(ErrorCode::Unavailable).is_retryable());
    assert!(refusal(ErrorCode::Interrupted).is_retryable());
    assert!(!refusal(ErrorCode::UnknownTenant).is_retryable());
    assert!(!refusal(ErrorCode::BadRequest).is_retryable());
    assert!(!refusal(ErrorCode::Internal).is_retryable());
    assert!(ClientError::Closed.is_retryable());
    assert!(!ClientError::Unexpected("wanted verdicts".into()).is_retryable());

    // The applied-state split: only Interrupted signals "may already be
    // ingested — replay the SAME seq"; everything else (notably
    // Unavailable) is a pre-ingestion refusal, safe to resubmit fresh.
    assert!(ErrorCode::Interrupted.may_be_applied());
    assert!(!ErrorCode::Unavailable.may_be_applied());
    assert!(!ErrorCode::Overloaded.may_be_applied());
    assert!(!ErrorCode::Timeout.may_be_applied());
}

// ---------------------------------------------------------------------------
// Sequence dedup + position guard (direct server)
// ---------------------------------------------------------------------------

/// Replaying a frame with the same sequence id is answered from the
/// reply cache — bit-identical verdicts, zero additional rows ingested.
#[test]
fn duplicate_seq_is_served_from_cache() {
    let dir = tmp_dir("dedup");
    let ckpt = dir.join("tenant.imdf");
    let (rows, channels) = train_and_save(&ckpt, 5, 32);
    let server = Server::start(lenient_config(), vec![tenant_spec("dup", &ckpt, 5, channels)])
        .unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let chunk: Vec<Vec<f32>> = rows[..8].to_vec();
    client.send_score_seq("dup", 1, 0, 0, chunk.clone()).unwrap();
    let first = client.recv_scored().unwrap();
    assert_eq!(rows_seen(&mut client, "dup"), 8);

    // Same seq again: must come back from the cache, not re-ingest.
    client.send_score_seq("dup", 1, 0, 0, chunk).unwrap();
    let second = client.recv_scored().unwrap();
    assert_eq!(first.verdicts.len(), second.verdicts.len());
    for (a, b) in first.verdicts.iter().zip(&second.verdicts) {
        assert!(bits_equal(a, b), "cached reply differs: {a:?} vs {b:?}");
    }
    assert_eq!(rows_seen(&mut client, "dup"), 8, "duplicate ingested rows");

    // The stream continues normally past the duplicate.
    client
        .send_score_seq("dup", 2, 8, 0, rows[8..16].to_vec())
        .unwrap();
    client.recv_scored().unwrap();
    assert_eq!(rows_seen(&mut client, "dup"), 16);
    server.drain();
}

/// A chunk claiming the wrong stream position is refused with a typed
/// `Unavailable` *before* ingestion — and the refusal does not burn the
/// sequence id, so the client can re-send the right rows under it.
#[test]
fn position_guard_refuses_misaligned_chunks() {
    let dir = tmp_dir("posguard");
    let ckpt = dir.join("tenant.imdf");
    let (rows, channels) = train_and_save(&ckpt, 6, 32);
    let server = Server::start(lenient_config(), vec![tenant_spec("pos", &ckpt, 6, channels)])
        .unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    client
        .send_score_seq("pos", 1, 0, 0, rows[..8].to_vec())
        .unwrap();
    client.recv_scored().unwrap();
    assert_eq!(rows_seen(&mut client, "pos"), 8);

    // Claiming row 0 again must be refused: the stream is at row 8.
    client
        .send_score_seq("pos", 2, 0, 0, rows[8..16].to_vec())
        .unwrap();
    match client.recv_scored() {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Unavailable, "wrong code: {message}");
            assert!(message.contains("stream is at 8"), "uninformative: {message}");
        }
        other => panic!("misaligned chunk was not refused: {other:?}"),
    }
    assert_eq!(rows_seen(&mut client, "pos"), 8, "refused chunk was ingested");

    // The refusal did not spend seq 2: the corrected chunk reuses it.
    client
        .send_score_seq("pos", 2, 8, 0, rows[8..16].to_vec())
        .unwrap();
    client.recv_scored().unwrap();
    assert_eq!(rows_seen(&mut client, "pos"), 16);

    // u64::MAX opts out of the check entirely (legacy unguarded client).
    client
        .send_score_seq("pos", 3, u64::MAX, 0, rows[16..24].to_vec())
        .unwrap();
    client.recv_scored().unwrap();
    assert_eq!(rows_seen(&mut client, "pos"), 24);
    server.drain();
}

/// Applied sequence ids are tracked exactly, not as a max: a seq that was
/// *refused* (never ingested) must stay admissible even after a *higher*
/// seq has been applied. A max-watermark dedup would misread the retried
/// lower seq as "already applied, reply evicted" and bounce it forever.
#[test]
fn refused_seq_below_applied_max_is_readmitted() {
    let dir = tmp_dir("seqexact");
    let ckpt = dir.join("tenant.imdf");
    let (rows, channels) = train_and_save(&ckpt, 9, 32);
    let server = Server::start(lenient_config(), vec![tenant_spec("sq", &ckpt, 9, channels)])
        .unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // seq 1 applies; the stream is now at row 8.
    client
        .send_score_seq("sq", 1, 0, 0, rows[..8].to_vec())
        .unwrap();
    client.recv_scored().unwrap();
    assert_eq!(rows_seen(&mut client, "sq"), 8);

    // seq 2 claims row 0 → position-refused, NOT applied.
    client
        .send_score_seq("sq", 2, 0, 0, rows[8..16].to_vec())
        .unwrap();
    assert!(
        matches!(
            client.recv_scored(),
            Err(ClientError::Server { code: ErrorCode::Unavailable, .. })
        ),
        "misaligned seq 2 was not refused"
    );

    // seq 3 applies — the applied *max* is now above the refused seq 2.
    client
        .send_score_seq("sq", 3, 8, 0, rows[8..16].to_vec())
        .unwrap();
    client.recv_scored().unwrap();
    assert_eq!(rows_seen(&mut client, "sq"), 16);

    // Corrected seq 2 must be admitted as new work, not bounced as a
    // stale replay of an evicted reply.
    client
        .send_score_seq("sq", 2, 16, 0, rows[16..24].to_vec())
        .unwrap();
    client
        .recv_scored()
        .expect("refused seq below the applied max was not readmitted");
    assert_eq!(rows_seen(&mut client, "sq"), 24);
    server.drain();
}

// ---------------------------------------------------------------------------
// Idle reaping
// ---------------------------------------------------------------------------

/// A connection that never sends a frame is closed once `idle_timeout`
/// elapses — it cannot pin server resources forever — and the server
/// keeps serving fresh connections afterwards.
#[test]
fn idle_connections_are_reaped() {
    let dir = tmp_dir("idle");
    let ckpt = dir.join("tenant.imdf");
    let (_, channels) = train_and_save(&ckpt, 7, 16);
    let server = Server::start(
        ServeConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..lenient_config()
        },
        vec![tenant_spec("idle", &ckpt, 7, channels)],
    )
    .unwrap();

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 16];
    // EOF (Ok(0)) or a reset — anything but a successful read or a full
    // 10 s block means the server hung up on us.
    match s.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server sent {n} unsolicited bytes"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "idle connection was not reaped within the timeout"
    );

    // The reap was surgical: new connections still work.
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    client.ping().unwrap();
    server.drain();
}

// ---------------------------------------------------------------------------
// Failover (replicated tier, via the chaos harness)
// ---------------------------------------------------------------------------

/// Killing a replica mid-stream fails its tenants over to the survivor,
/// restored from their sidecars, with post-failover verdicts
/// bit-identical to an uninterrupted monitor — and the supervisor's
/// failover counters tick.
#[test]
fn failover_restores_tenants_bit_identically() {
    let _guard = OBS_LOCK.lock().unwrap();
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    let plan = ChaosPlan {
        seed: 21,
        replicas: 2,
        tenants: 2,
        chunk_rows: 4,
        chunks: 8,
        events: vec![
            (3, ChaosEvent::Snapshot { tenant: 0 }),
            (3, ChaosEvent::Snapshot { tenant: 1 }),
            (5, ChaosEvent::KillReplicaOf { tenant: 0 }),
        ],
    };
    let report = run_chaos(&plan).unwrap();
    obs::set_enabled(was_enabled);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.replicas_lost, 1, "the kill did not land");
    assert!(
        report.tenants_bit_identical >= 1,
        "no tenant proved bit-identical after failover"
    );
    assert!(
        report.typed_errors >= 1,
        "the kill was invisible to the client — requests must surface as typed errors"
    );
    let snapshot = obs::snapshot_json();
    assert!(
        snapshot.contains("serve.failover.failovers"),
        "failover did not tick its counter"
    );
    assert!(
        snapshot.contains("serve.failover.heartbeat_misses"),
        "heartbeat misses were not counted"
    );
}

/// A corrupted sidecar must downgrade failover to a re-warm: detected
/// (counted), excluded from bit-identity, and the tenant serves fresh
/// verdicts again instead of going dark.
#[test]
fn corrupt_sidecar_downgrades_to_rewarm() {
    let _guard = OBS_LOCK.lock().unwrap();
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    let plan = ChaosPlan {
        seed: 33,
        replicas: 2,
        tenants: 2,
        chunk_rows: 4,
        chunks: 12,
        events: vec![
            (3, ChaosEvent::Snapshot { tenant: 0 }),
            (3, ChaosEvent::Snapshot { tenant: 1 }),
            (4, ChaosEvent::CorruptSidecar { tenant: 0 }),
            (5, ChaosEvent::KillReplicaOf { tenant: 0 }),
        ],
    };
    let report = run_chaos(&plan).unwrap();
    obs::set_enabled(was_enabled);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.replicas_lost, 1, "the kill did not land");
    assert!(
        report.tenants_rewarmed >= 1,
        "corrupted tenant did not re-warm and serve again"
    );
    assert!(
        obs::snapshot_json().contains("serve.failover.sidecar_corrupt"),
        "sidecar corruption was not counted"
    );
}

// ---------------------------------------------------------------------------
// Observability neutrality
// ---------------------------------------------------------------------------

/// Flipping observability on must never change a single verdict bit:
/// counters and spans observe the pipeline, they are not part of it.
#[test]
fn obs_toggle_does_not_perturb_verdicts() {
    let _guard = OBS_LOCK.lock().unwrap();
    let dir = tmp_dir("obsneutral");
    let ckpt = dir.join("tenant.imdf");
    let (rows, channels) = train_and_save(&ckpt, 9, 48);
    let was_enabled = obs::enabled();

    let run = |enabled: bool| -> Vec<WireVerdict> {
        obs::set_enabled(enabled);
        let server =
            Server::start(lenient_config(), vec![tenant_spec("obs", &ckpt, 9, channels)])
                .unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut verdicts = Vec::new();
        for (i, chunk) in rows.chunks(8).enumerate() {
            client
                .send_score_seq("obs", (i + 1) as u64, (i * 8) as u64, 0, chunk.to_vec())
                .unwrap();
            verdicts.extend(client.recv_scored().expect("score chunk").verdicts);
        }
        server.drain();
        verdicts
    };

    let with_obs = run(true);
    let without_obs = run(false);
    obs::set_enabled(was_enabled);

    assert!(!with_obs.is_empty(), "run produced no verdicts to compare");
    assert_eq!(with_obs.len(), without_obs.len());
    for (a, b) in with_obs.iter().zip(&without_obs) {
        assert!(
            bits_equal(a, b),
            "observability perturbed a verdict: {a:?} vs {b:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Replication ahead of failure
// ---------------------------------------------------------------------------

/// With `RouterConfig::replication` configured, the supervisor keeps
/// standby copies of every tenant's checkpoint + IMSM sidecar — so when
/// the canonical sidecar is lost *with* the dead replica (no shared
/// disk), failover restores it from the standby and the survivor still
/// resumes mid-stream instead of going dark or silently re-warming.
#[test]
fn failover_restores_from_standby_when_canonical_sidecar_is_lost() {
    use imdiffusion_repro::core::stream_path;
    use imdiffusion_repro::serve::{Replicated, ReplicationCfg, RouterConfig};

    let _guard = OBS_LOCK.lock().unwrap();
    let was_enabled = obs::enabled();
    obs::set_enabled(true);

    let dir = tmp_dir("standby");
    let ckpt = dir.join("solo.imdf");
    let (rows, channels) = train_and_save(&ckpt, 7, 48);
    let standby = dir.join("standby");
    let _ = std::fs::remove_dir_all(&standby);

    let tier = Replicated::start(
        RouterConfig {
            replicas: 2,
            heartbeat_every: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(100),
            heartbeat_misses: 2,
            // A cadence long enough that only replicate_now() copies —
            // the test stays deterministic about *what* the standby holds.
            replication: Some(ReplicationCfg {
                dir: standby.clone(),
                every: Duration::from_secs(3600),
            }),
            replica: lenient_config(),
            ..RouterConfig::default()
        },
        vec![tenant_spec("solo", &ckpt, 7, channels)],
    )
    .expect("start tier");
    let addr = tier.addr();

    // Feed half the stream, snapshot (sidecar now holds mid-stream
    // state), then pin the standby to exactly that state.
    let mut client = ServeClient::connect(addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let fed: usize = {
        let mut fed = 0;
        for chunk in rows.chunks(4).take(4) {
            client.score("solo", 0, chunk.to_vec()).expect("score chunk");
            fed += chunk.len();
        }
        fed
    };
    client.snapshot("solo").expect("snapshot");
    tier.replicate_now();
    assert!(
        stream_path(&standby.join("t0.imdf")).exists(),
        "replicate_now did not copy the sidecar into the standby dir"
    );

    // Shared disk "fails": the canonical sidecar is gone. Then the
    // owner dies.
    std::fs::remove_file(stream_path(&ckpt)).expect("remove canonical sidecar");
    let owner = tier.replica_of("solo").expect("placed");
    tier.kill_replica(owner);

    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if tier.replica_of("solo").map(|r| r != owner).unwrap_or(false) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        tier.replica_of("solo").map(|r| r != owner).unwrap_or(false),
        "failover did not re-place the tenant"
    );
    assert!(
        stream_path(&ckpt).exists(),
        "failover did not restore the canonical sidecar from the standby"
    );
    let snapshot = obs::snapshot_json();
    assert!(
        snapshot.contains("serve.failover.standby_restores"),
        "standby restore did not tick its counter: {snapshot}"
    );

    // The survivor resumed from the replicated snapshot: it reports the
    // snapshotted stream position, and scoring continues from there.
    let mut client = ServeClient::connect(addr).expect("reconnect");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        rows_seen(&mut client, "solo") as usize,
        fed,
        "survivor did not resume at the replicated sidecar's position"
    );
    for chunk in rows[fed..].chunks(4).take(2) {
        client
            .score("solo", 0, chunk.to_vec())
            .expect("score after standby-restored failover");
    }

    obs::set_enabled(was_enabled);
    tier.shutdown();
}
