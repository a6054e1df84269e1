//! Deterministic chaos harness for the replicated serving tier.
//!
//! A [`ChaosPlan`] is a seeded fault schedule — kill or partition a
//! replica at chunk *k*, corrupt a sidecar, duplicate a frame, truncate
//! a frame mid-header — driven through the **real wire protocol**
//! against an in-process [`Replicated`](crate::Replicated) tier. The
//! harness then proves the failure contract:
//!
//! * every request caught by a fault surfaces as a **typed error** —
//!   never a hang, panic or silent drop (every read has a deadline,
//!   every retry loop a budget);
//! * after failover, each affected tenant resumes from its IMSM sidecar
//!   and its verdict stream is **bit-identical** to an uninterrupted
//!   local monitor restored from the same snapshot and fed the same
//!   rows;
//! * a duplicated frame (same sequence id) is answered from the reply
//!   cache and ingests **zero** additional rows;
//! * a corrupted sidecar downgrades failover to a re-warm — detected,
//!   counted, never fatal.
//!
//! Determinism: traffic is driven synchronously chunk by chunk, the
//! tier's cadenced snapshots are disabled (only the plan's explicit
//! `Snapshot` events write sidecars), the data and detectors derive
//! from `plan.seed`, and the ensemble itself is bit-reproducible at any
//! `IMDIFF_THREADS` — so one seed replays one world, down to the bits.
//! Wall-clock (heartbeat cadence, failover latency) is the only
//! nondeterminism, and it is observable solely as *how many* typed
//! errors the run counts, never as *which verdicts* come back.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
use imdiff_data::Detector;
use imdiff_registry::{AnyDetector, DetectorKind};
use imdiffusion::{stream_path, ImDiffusionConfig, StreamingMonitor};

use crate::server::{ServeConfig, TenantSpec};
use crate::wire::{self, Request, WireVerdict};
use crate::{
    ClientError, Replicated, ResilientClient, RetryPolicy, RouterConfig, ServeClient,
};

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// One fault to inject, scheduled before a given traffic chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Write tenant `t`'s IMSM sidecar now (through the wire) and
    /// archive a copy as the bit-identity baseline.
    Snapshot { tenant: usize },
    /// Crash the replica currently owning tenant `t`: queued work
    /// dropped, connections severed. The supervisor must notice via
    /// heartbeats and fail over.
    KillReplicaOf { tenant: usize },
    /// Partition the replica owning tenant `t`: process keeps running,
    /// network drops it. Must be fenced and failed over like a crash.
    PartitionReplicaOf { tenant: usize },
    /// Flip one byte of tenant `t`'s on-disk sidecar, so the next
    /// adoption must detect the corruption and fall back to a re-warm.
    /// Excludes `t` from the bit-identity check (a re-warm is a new
    /// stream); the report instead asserts it serves verdicts again.
    CorruptSidecar { tenant: usize },
    /// Send tenant `t`'s next chunk **twice** with the same sequence id
    /// (the second copy on a raw side connection) and assert the
    /// duplicate is answered from the reply cache with bit-identical
    /// verdicts while ingesting zero additional rows.
    DuplicateNext { tenant: usize },
    /// Open a raw connection to the router, send half a frame header,
    /// and hang up — then assert the router still answers a ping.
    TruncateFrame,
}

/// A seeded, replayable fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Master seed: data, detectors, retry jitter all derive from it.
    pub seed: u64,
    /// Replica servers behind the router (≥ 2 for failover to have a
    /// survivor).
    pub replicas: usize,
    /// Tenant streams.
    pub tenants: usize,
    /// Rows per score request.
    pub chunk_rows: usize,
    /// Chunks of traffic per tenant.
    pub chunks: usize,
    /// `(chunk index, event)` — applied, in order, before that chunk's
    /// traffic is sent.
    pub events: Vec<(usize, ChaosEvent)>,
}

impl ChaosPlan {
    /// The canonical drill: snapshot everyone mid-stream, then kill the
    /// replica owning tenant 0 two chunks later, with a duplicate-frame
    /// and a truncated-frame probe along the way.
    pub fn standard(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            replicas: 2,
            tenants: 3,
            chunk_rows: 8,
            chunks: 12,
            events: vec![
                (4, ChaosEvent::TruncateFrame),
                (5, ChaosEvent::DuplicateNext { tenant: 1 }),
                (6, ChaosEvent::Snapshot { tenant: 0 }),
                (6, ChaosEvent::Snapshot { tenant: 1 }),
                (6, ChaosEvent::Snapshot { tenant: 2 }),
                (8, ChaosEvent::KillReplicaOf { tenant: 0 }),
            ],
        }
    }

    /// Same drill but with a network partition instead of a crash,
    /// exercising the supervisor's fence-before-adopt path.
    pub fn partition(seed: u64) -> ChaosPlan {
        let mut plan = ChaosPlan::standard(seed);
        for (_, e) in plan.events.iter_mut() {
            if let ChaosEvent::KillReplicaOf { tenant } = *e {
                *e = ChaosEvent::PartitionReplicaOf { tenant };
            }
        }
        plan
    }

    fn total_rows(&self) -> usize {
        self.chunks * self.chunk_rows
    }
}

/// What a chaos run proved. `ok()` is the single gate the example and
/// CI assert on.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Score requests that completed with verdicts.
    pub chunks_ok: u64,
    /// Requests that surfaced as typed errors (then recovered by
    /// resync). Failure injection makes ≥ 1 of these expected whenever
    /// the plan kills or partitions.
    pub typed_errors: u64,
    /// Verdicts delivered twice (pre-kill and post-failover re-send)
    /// that were asserted bit-identical on arrival.
    pub redelivered_checked: u64,
    /// Duplicate-frame probes answered from the reply cache with zero
    /// row ingestion.
    pub duplicates_deduped: u64,
    /// Truncated-frame probes after which the router still answered.
    pub truncations_survived: u64,
    /// Replicas lost to kill/partition events (observed via liveness).
    pub replicas_lost: u64,
    /// Tenants whose post-failover verdicts bit-matched the baseline
    /// monitor restored from the archived sidecar.
    pub tenants_bit_identical: u64,
    /// Tenants excluded from bit-identity by sidecar corruption that
    /// nevertheless served verdicts again after re-warming.
    pub tenants_rewarmed: u64,
    /// Human-readable contract violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Did the run uphold the whole failure contract?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Harness internals
// ---------------------------------------------------------------------------

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

struct TenantState {
    id: String,
    seed: u64,
    checkpoint: PathBuf,
    rows: Vec<Vec<f32>>,
    /// Rows acknowledged as applied (the send cursor).
    cursor: usize,
    /// Verdicts by global stream index; redeliveries must bit-match.
    verdicts: BTreeMap<u64, WireVerdict>,
    /// Archived sidecar bytes + the row position they snapshot.
    baseline: Option<(Vec<u8>, usize)>,
    /// Corrupted sidecar ⇒ expect a re-warm, not bit-identity.
    expect_identical: bool,
}

fn fresh_dir(seed: u64) -> Result<PathBuf, String> {
    // A stale sidecar from an earlier run would be silently restored at
    // replica startup and wreck determinism — the directory must be new.
    let dir = std::env::temp_dir().join(format!(
        "imdiff-chaos-{}-{seed}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot clear {dir:?}: {e}"))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    Ok(dir)
}

fn bits_equal(a: &WireVerdict, b: &WireVerdict) -> bool {
    a.index == b.index
        && a.score.to_bits() == b.score.to_bits()
        && a.votes == b.votes
        && a.anomalous == b.anomalous
        && a.degraded == b.degraded
}

/// Polls the router's merged health until `tenant` reappears, returning
/// its `rows_seen`. Bounded: ~10 s, then the caller records a violation
/// instead of hanging — the harness never waits forever.
fn await_rows_seen(addr: &std::net::SocketAddr, tenant: &str) -> Option<u64> {
    for _ in 0..400 {
        let got = (|| -> Result<Option<u64>, ClientError> {
            let mut c = ServeClient::connect(addr)?;
            c.set_timeout(Some(Duration::from_secs(2)))?;
            Ok(c.health()?
                .into_iter()
                .find(|t| t.id == tenant)
                .map(|t| t.rows_seen))
        })();
        if let Ok(Some(seen)) = got {
            return Some(seen);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    None
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Executes `plan` against a freshly trained, freshly spawned replicated
/// tier and checks the failure contract. `Err` is reserved for harness
/// setup problems (cannot bind, cannot write temp files); contract
/// violations land in [`ChaosReport::violations`].
pub fn run_chaos(plan: &ChaosPlan) -> Result<ChaosReport, String> {
    if plan.replicas < 2 {
        return Err("need ≥ 2 replicas so failover has a survivor".into());
    }
    if plan.tenants == 0 || plan.chunks == 0 || plan.chunk_rows == 0 {
        return Err("empty plan".into());
    }
    let dir = fresh_dir(plan.seed)?;
    let mut report = ChaosReport::default();

    // --- Train one tiny detector per tenant, deterministically. -------
    let mut tenants: Vec<TenantState> = Vec::with_capacity(plan.tenants);
    let mut specs: Vec<TenantSpec> = Vec::with_capacity(plan.tenants);
    for t in 0..plan.tenants {
        let seed = plan.seed.wrapping_add(t as u64);
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: plan.total_rows(),
            },
            seed,
        );
        let checkpoint = dir.join(format!("tenant-{t}.imde"));
        let mut det = AnyDetector::new(DetectorKind::ImDiffusion, tiny_cfg(), seed);
        det.fit(&ds.train).map_err(|e| format!("train tenant {t}: {e}"))?;
        det.save(&checkpoint)
            .map_err(|e| format!("save tenant {t}: {e}"))?;
        let rows: Vec<Vec<f32>> =
            (0..ds.test.len()).map(|l| ds.test.row(l).to_vec()).collect();
        let id = format!("tenant-{t}");
        specs.push(TenantSpec {
            id: id.clone(),
            checkpoint: checkpoint.clone(),
            cfg: tiny_cfg(),
            seed,
            channels: ds.test.dim(),
            hop: 2,
            holdout: None,
            drift_policy: None,
            family: imdiff_registry::DetectorKind::ImDiffusion,
            escalation: None,
        });
        tenants.push(TenantState {
            id,
            seed,
            checkpoint,
            rows,
            cursor: 0,
            verdicts: BTreeMap::new(),
            baseline: None,
            expect_identical: true,
        });
    }

    // --- Spawn the tier: fast heartbeats, explicit snapshots only. ----
    let tier = Replicated::start(
        RouterConfig {
            replicas: plan.replicas,
            heartbeat_every: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(100),
            heartbeat_misses: 2,
            replica: ServeConfig {
                shards: 2,
                max_queue: 256,
                shed_after: Duration::from_secs(60),
                deadline: Duration::from_secs(10),
                reload_poll: None,
                snapshot_every: None,
                ..ServeConfig::default()
            },
            ..RouterConfig::default()
        },
        specs,
    )
    .map_err(|e| format!("start tier: {e}"))?;
    let addr = tier.addr();

    let mut client = ResilientClient::connect(
        addr.to_string(),
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
            seed: plan.seed,
        },
    );
    client.set_timeout(Some(Duration::from_secs(15)));
    let live_at_start = tier.live_replicas();

    // --- Drive the plan. ----------------------------------------------
    for chunk in 0..plan.chunks {
        for (_, event) in plan.events.iter().filter(|(c, _)| *c == chunk) {
            apply_event(event, &tier, addr, &mut client, &mut tenants, &mut report);
        }
        for tenant in tenants.iter_mut() {
            drive_chunk(plan, &addr, &mut client, tenant, &mut report);
        }
    }

    // --- Verify bit-identity against the archived snapshots. ----------
    for t in &tenants {
        verify_tenant(t, &dir, &mut report);
    }
    report.replicas_lost = (live_at_start - tier.live_replicas()) as u64;
    tier.shutdown();
    Ok(report)
}

/// Sends one chunk for one tenant, resyncing from the authoritative
/// `rows_seen` whenever a typed error interrupts the stream. Bounded at
/// ~15 s of retries per chunk; exhaustion is a recorded violation, not a
/// hang.
fn drive_chunk(
    plan: &ChaosPlan,
    addr: &std::net::SocketAddr,
    client: &mut ResilientClient,
    tenant: &mut TenantState,
    report: &mut ChaosReport,
) {
    let goal = (tenant.cursor + plan.chunk_rows).min(tenant.rows.len());
    let mut attempts = 0u32;
    while tenant.cursor < goal {
        let end = (tenant.cursor + plan.chunk_rows).min(goal);
        let rows: Vec<Vec<f32>> = tenant.rows[tenant.cursor..end].to_vec();
        match client.score_at(&tenant.id, tenant.cursor as u64, 0, rows) {
            Ok(scored) => {
                tenant.cursor = end;
                record_verdicts(tenant, &scored.verdicts, report);
            }
            Err(e) => {
                report.typed_errors += 1;
                attempts += 1;
                if attempts > 60 {
                    report.violations.push(format!(
                        "{}: chunk at row {} never recovered: {e}",
                        tenant.id, tenant.cursor
                    ));
                    return;
                }
                if !matches!(e, ClientError::Server { .. }) && !e.is_retryable() {
                    report.violations.push(format!(
                        "{}: non-typed, non-retryable failure: {e}",
                        tenant.id
                    ));
                    return;
                }
                // Resync: the tier's health report is the authority on
                // how far this stream actually got. A failover rolls it
                // back to the snapshot (re-send from there); a rewarm
                // rolls it back to zero.
                match await_rows_seen(addr, &tenant.id) {
                    Some(seen) => {
                        let seen = seen as usize;
                        if seen < tenant.cursor && !tenant.expect_identical {
                            // Re-warmed: the monitor restarted numbering,
                            // so earlier verdicts are from a previous
                            // life. Drop them rather than "asserting"
                            // stale bits against the new stream.
                            tenant.verdicts.clear();
                        }
                        tenant.cursor = seen;
                    }
                    None => {
                        report.violations.push(format!(
                            "{}: did not reappear in health after failover",
                            tenant.id
                        ));
                        return;
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    report.chunks_ok += 1;
}

/// Folds verdicts into the tenant's map. A redelivered index (rows
/// re-sent after failover) must bit-match what the original replica
/// served — same sidecar, same rows, same bits.
fn record_verdicts(tenant: &mut TenantState, verdicts: &[WireVerdict], report: &mut ChaosReport) {
    for v in verdicts {
        if let Some(prev) = tenant.verdicts.get(&v.index) {
            report.redelivered_checked += 1;
            if !bits_equal(prev, v) && tenant.expect_identical {
                report.violations.push(format!(
                    "{}: redelivered verdict {} differs from original",
                    tenant.id, v.index
                ));
            }
        }
        tenant.verdicts.insert(v.index, *v);
    }
}

fn apply_event(
    event: &ChaosEvent,
    tier: &Replicated,
    addr: std::net::SocketAddr,
    client: &mut ResilientClient,
    tenants: &mut [TenantState],
    report: &mut ChaosReport,
) {
    match event {
        ChaosEvent::Snapshot { tenant } => {
            let t = &mut tenants[*tenant];
            let ok = (|| -> Result<(), ClientError> {
                let mut c = ServeClient::connect(addr)?;
                c.set_timeout(Some(Duration::from_secs(10)))?;
                c.snapshot(&t.id)
            })();
            match ok {
                Ok(()) => match std::fs::read(stream_path(&t.checkpoint)) {
                    Ok(bytes) => t.baseline = Some((bytes, t.cursor)),
                    Err(e) => report
                        .violations
                        .push(format!("{}: snapshot wrote no sidecar: {e}", t.id)),
                },
                Err(e) => report
                    .violations
                    .push(format!("{}: snapshot request failed: {e}", t.id)),
            }
        }
        ChaosEvent::KillReplicaOf { tenant } => {
            if let Some(r) = tier.replica_of(&tenants[*tenant].id) {
                tier.kill_replica(r);
            }
        }
        ChaosEvent::PartitionReplicaOf { tenant } => {
            if let Some(r) = tier.replica_of(&tenants[*tenant].id) {
                tier.isolate_replica(r);
            }
        }
        ChaosEvent::CorruptSidecar { tenant } => {
            let t = &mut tenants[*tenant];
            let path = stream_path(&t.checkpoint);
            match std::fs::read(&path) {
                Ok(mut bytes) if !bytes.is_empty() => {
                    // Flip a payload byte (past the 12-byte header) so
                    // the CRC check must catch it.
                    let i = bytes.len().saturating_sub(1);
                    bytes[i] ^= 0xFF;
                    if std::fs::write(&path, &bytes).is_ok() {
                        t.expect_identical = false;
                    }
                }
                _ => { /* no sidecar yet — nothing to corrupt */ }
            }
        }
        ChaosEvent::DuplicateNext { tenant } => {
            duplicate_probe(addr, client, &mut tenants[*tenant], report);
        }
        ChaosEvent::TruncateFrame => {
            // Half a header, then hang up mid-frame.
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.write_all(&[b'I', b'W', wire::WIRE_VERSION, wire::kind::SCORE]);
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            let alive = (|| -> Result<(), ClientError> {
                let mut c = ServeClient::connect(addr)?;
                c.set_timeout(Some(Duration::from_secs(2)))?;
                c.ping()
            })();
            match alive {
                Ok(()) => report.truncations_survived += 1,
                Err(e) => report
                    .violations
                    .push(format!("router unresponsive after truncated frame: {e}")),
            }
        }
    }
}

/// Scores one chunk normally, then replays the **same frame with the
/// same sequence id** on a raw side connection. The duplicate must come
/// back bit-identical (served from the reply cache) and must not ingest
/// a single extra row.
fn duplicate_probe(
    addr: std::net::SocketAddr,
    client: &mut ResilientClient,
    tenant: &mut TenantState,
    report: &mut ChaosReport,
) {
    let end = (tenant.cursor + 1).min(tenant.rows.len());
    if tenant.cursor >= end {
        return;
    }
    let rows: Vec<Vec<f32>> = tenant.rows[tenant.cursor..end].to_vec();
    let start_row = tenant.cursor as u64;
    let seq = match client.send_score_at(&tenant.id, start_row, 0, rows.clone()) {
        Ok(seq) => seq,
        Err(e) => {
            report.violations.push(format!("{}: duplicate probe send: {e}", tenant.id));
            return;
        }
    };
    let first = match client.recv_scored() {
        Ok(s) => s,
        Err(e) => {
            report.violations.push(format!("{}: duplicate probe recv: {e}", tenant.id));
            return;
        }
    };
    tenant.cursor = end;
    record_verdicts(tenant, &first.verdicts, report);
    let seen_before = await_rows_seen(&addr, &tenant.id);

    let dup = (|| -> Result<crate::Scored, ClientError> {
        let mut c = ServeClient::connect(addr)?;
        c.set_timeout(Some(Duration::from_secs(10)))?;
        c.send(&Request::Score {
            tenant: tenant.id.clone(),
            seq,
            start_row,
            gap_before: 0,
            rows,
        })?;
        c.recv_scored()
    })();
    match dup {
        Ok(second) => {
            let same = first.verdicts.len() == second.verdicts.len()
                && first
                    .verdicts
                    .iter()
                    .zip(&second.verdicts)
                    .all(|(a, b)| bits_equal(a, b));
            let seen_after = await_rows_seen(&addr, &tenant.id);
            if !same {
                report.violations.push(format!(
                    "{}: duplicate reply differs from original",
                    tenant.id
                ));
            } else if seen_before != seen_after {
                report.violations.push(format!(
                    "{}: duplicate frame ingested rows ({seen_before:?} -> {seen_after:?})",
                    tenant.id
                ));
            } else {
                report.duplicates_deduped += 1;
            }
        }
        Err(e) => report
            .violations
            .push(format!("{}: duplicate probe failed: {e}", tenant.id)),
    }
}

/// Replays the archived sidecar locally and bit-compares every verdict
/// the tier served at or past the snapshot position.
fn verify_tenant(tenant: &TenantState, dir: &Path, report: &mut ChaosReport) {
    if !tenant.expect_identical {
        // Sidecar was corrupted: the contract is graceful degradation.
        // The tenant must have re-warmed and served fresh verdicts.
        if tenant.verdicts.is_empty() {
            report.violations.push(format!(
                "{}: never served verdicts after sidecar corruption",
                tenant.id
            ));
        } else {
            report.tenants_rewarmed += 1;
        }
        return;
    }
    let Some((sidecar, snap_rows)) = &tenant.baseline else {
        return; // no snapshot event for this tenant — nothing to prove
    };
    // Reconstruct "the run that never crashed": same weights, the
    // archived sidecar, the same rows from the snapshot position on.
    let baseline_ckpt = dir.join(format!("{}-baseline.imde", tenant.id));
    if let Err(e) = std::fs::copy(&tenant.checkpoint, &baseline_ckpt) {
        report.violations.push(format!("{}: baseline copy: {e}", tenant.id));
        return;
    }
    if let Err(e) = std::fs::write(stream_path(&baseline_ckpt), sidecar) {
        report.violations.push(format!("{}: baseline sidecar: {e}", tenant.id));
        return;
    }
    let channels = tenant.rows[0].len();
    let mut monitor = match AnyDetector::load(&tiny_cfg(), tenant.seed, channels, &baseline_ckpt)
        .and_then(|det| StreamingMonitor::restore_with(det, &baseline_ckpt))
    {
        Ok(m) => m,
        Err(e) => {
            report.violations.push(format!("{}: baseline restore: {e}", tenant.id));
            return;
        }
    };
    let mut expected: Vec<WireVerdict> = Vec::new();
    for row in &tenant.rows[*snap_rows..tenant.cursor] {
        match monitor.push(row) {
            Ok(vs) => expected.extend(vs.into_iter().map(|v| WireVerdict {
                index: v.index,
                score: v.score,
                votes: v.votes,
                anomalous: v.anomalous,
                degraded: v.degraded,
            })),
            Err(e) => {
                report.violations.push(format!("{}: baseline push: {e}", tenant.id));
                return;
            }
        }
    }
    let mut identical = true;
    for want in &expected {
        match tenant.verdicts.get(&want.index) {
            Some(got) if bits_equal(got, want) => {}
            Some(_) => {
                identical = false;
                report.violations.push(format!(
                    "{}: verdict {} differs from uninterrupted baseline",
                    tenant.id, want.index
                ));
            }
            None => {
                identical = false;
                report.violations.push(format!(
                    "{}: verdict {} was never served (silent drop)",
                    tenant.id, want.index
                ));
            }
        }
    }
    if identical {
        report.tenants_bit_identical += 1;
    }
}
