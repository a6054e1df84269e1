//! Supervisor for a replicated serving tier: spawns the replicas,
//! monitors them with heartbeats, and on death re-places the victims'
//! tenants on survivors.
//!
//! # Failover protocol
//!
//! 1. **Detect** — a heartbeat thread pings every live replica each
//!    `heartbeat_every`; a ping that cannot connect, times out
//!    (`heartbeat_timeout`) or reads EOF is a *miss*
//!    (`serve.failover.heartbeat_misses`). `heartbeat_misses`
//!    consecutive misses declare the replica dead: its liveness flag
//!    flips immediately (so the router fails its requests fast) and the
//!    replica is handed to a dedicated **failover worker** thread.
//!    Detection never blocks on recovery — while the worker is adopting
//!    one replica's tenants (up to tens of seconds each), heartbeats to
//!    every other replica continue, so a concurrent second failure is
//!    detected at heartbeat cadence, not after the first recovery ends.
//! 2. **Fence** — on the worker, the replica's process handle is killed
//!    *before* any tenant moves. A partitioned-but-alive replica looks
//!    identical to a crashed one from out here; killing it first
//!    guarantees at most one replica ever writes a tenant's IMSM
//!    sidecar, so adoption can trust the file. The single worker also
//!    serializes concurrent failovers, so two re-placements can never
//!    race each other into adopting one tenant twice.
//! 3. **Re-place** — each of the victim's tenants (plus any tenant left
//!    stranded by an earlier failed adoption) is re-placed by the same
//!    consistent-hash ring, skipping dead replicas, and adopted via an
//!    `Adopt` frame. The adopter loads the tenant's IMSM sidecar and
//!    resumes the verdict stream at the snapshotted position —
//!    bit-identical to an uninterrupted run — or re-warms from scratch
//!    if the sidecar is missing or corrupt (counted, never fatal).
//! 4. **Expose** — only after an adoption acks does the router's
//!    assignment table flip; in the window between death and adoption,
//!    clients get typed `Unavailable` errors, never hangs.
//!
//! # Replication ahead of failure
//!
//! Adoption reads the tenant's IMDE checkpoint and IMSM sidecar from
//! their canonical paths — historically a **shared-disk** assumption:
//! if those files die with the replica's machine, the sidecar-resume
//! path is gone. With [`RouterConfig::replication`] set, a replication
//! thread copies every tenant's checkpoint + sidecar into a standby
//! directory on a cadence (and [`Replicated::replicate_now`] forces a
//! pass, for deterministic tests). During failover, any canonical file
//! found missing is restored from the standby *before* the survivor
//! adopts — so recovery proceeds from the last replicated state instead
//! of falling all the way back to a cold re-warm. Canonical files that
//! still exist always win: the standby is only a fallback, never an
//! overwrite, so enabling replication cannot perturb a
//! shared-disk-healthy failover.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use imdiff_nn::obs;
use imdiff_nn::serialize::atomic_write;
use imdiffusion::stream_path;

use crate::router::{ReplicationCfg, Ring, RouterConfig, RouterHandle, RouterShared};
use crate::server::{ServeConfig, ServeError, Server, TenantSpec};
use crate::ServeClient;

/// A running replicated tier: router + N replicas + heartbeat
/// supervision. Clients connect to [`Replicated::addr`] and never learn
/// replica addresses.
pub struct Replicated {
    shared: Arc<RouterShared>,
    ring: Ring,
    tenant_ids: Vec<String>,
    servers: Arc<Mutex<Vec<Option<Server>>>>,
    router: Option<RouterHandle>,
    heartbeat: Option<JoinHandle<()>>,
    /// Feeds dead-replica indices to the failover worker. Dropped (after
    /// the heartbeat thread joins) to let the worker exit.
    failover_tx: Option<mpsc::Sender<usize>>,
    failover_worker: Option<JoinHandle<()>>,
    /// Ahead-of-failure replication state (`None` when not configured).
    repl: Arc<Option<ReplState>>,
    replicator: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

/// Everything the replication pass and the failover-time restore need:
/// the configured standby directory/cadence plus each tenant's canonical
/// checkpoint path (index-aligned with the tenant roster).
pub(crate) struct ReplState {
    cfg: ReplicationCfg,
    checkpoints: Vec<PathBuf>,
}

impl ReplState {
    /// Standby copy of tenant `idx`'s checkpoint. Index-keyed (not
    /// id-keyed) so arbitrary tenant ids can never escape the standby
    /// directory or collide after sanitization.
    fn standby_checkpoint(&self, idx: usize) -> PathBuf {
        self.cfg.dir.join(format!("t{idx}.imdf"))
    }
}

/// Copies `src` over `dst` atomically. Missing/unreadable sources are
/// skipped silently — a tenant that has never snapshotted simply has no
/// sidecar yet.
fn copy_file(src: &Path, dst: &Path) -> bool {
    match std::fs::read(src) {
        Ok(bytes) => atomic_write(dst, &bytes).is_ok(),
        Err(_) => false,
    }
}

/// One replication pass: checkpoint + IMSM sidecar of every tenant into
/// the standby directory. Sources are written atomically by their
/// owners, so each copy observes a consistent file.
fn replicate_once(repl: &ReplState) {
    let _ = std::fs::create_dir_all(&repl.cfg.dir);
    for (idx, src) in repl.checkpoints.iter().enumerate() {
        let dst = repl.standby_checkpoint(idx);
        if copy_file(src, &dst) {
            obs::counter("serve.replication.copies", 1);
        }
        if copy_file(&stream_path(src), &stream_path(&dst)) {
            obs::counter("serve.replication.copies", 1);
        }
    }
}

/// Failover-time restore: put back any canonical file of tenant `idx`
/// that is missing, from its standby copy. Existing canonical files are
/// never overwritten — the standby may be older.
fn restore_from_standby(repl: &ReplState, idx: usize) {
    let canonical = &repl.checkpoints[idx];
    let standby = repl.standby_checkpoint(idx);
    let mut restored = false;
    if !canonical.exists() && copy_file(&standby, canonical) {
        restored = true;
    }
    let canonical_stream = stream_path(canonical);
    if !canonical_stream.exists() && copy_file(&stream_path(&standby), &canonical_stream)
    {
        restored = true;
    }
    if restored {
        obs::counter("serve.failover.standby_restores", 1);
    }
}

impl Replicated {
    /// Spawns `cfg.replicas` replica servers (each registered with the
    /// full tenant roster, each actively serving its ring-assigned
    /// subset), the client-facing router, and the heartbeat supervisor.
    pub fn start(
        cfg: RouterConfig,
        tenants: Vec<TenantSpec>,
    ) -> Result<Replicated, ServeError> {
        if cfg.replicas == 0 {
            return Err(ServeError::Config("need at least one replica".into()));
        }
        if tenants.is_empty() {
            return Err(ServeError::Config("no tenants to serve".into()));
        }
        let ring = Ring::new(cfg.replicas);
        let tenant_ids: Vec<String> = tenants.iter().map(|t| t.id.clone()).collect();
        let repl: Arc<Option<ReplState>> = Arc::new(cfg.replication.clone().map(|rc| {
            ReplState {
                cfg: rc,
                checkpoints: tenants.iter().map(|t| t.checkpoint.clone()).collect(),
            }
        }));
        let all_alive = vec![true; cfg.replicas];
        let assignment: Vec<usize> = tenant_ids
            .iter()
            .map(|t| ring.place(t, &all_alive).expect("at least one replica"))
            .collect();

        let mut servers: Vec<Option<Server>> = Vec::with_capacity(cfg.replicas);
        let mut replica_addrs = Vec::with_capacity(cfg.replicas);
        for r in 0..cfg.replicas {
            let mask: Vec<bool> = assignment.iter().map(|&o| o == r).collect();
            let mut replica_cfg: ServeConfig = cfg.replica.clone();
            replica_cfg.addr = "127.0.0.1:0".into();
            match Server::start_placed(replica_cfg, tenants.clone(), &mask) {
                Ok(s) => {
                    replica_addrs.push(s.addr());
                    servers.push(Some(s));
                }
                Err(e) => {
                    for s in servers.into_iter().flatten() {
                        s.drain();
                    }
                    return Err(e);
                }
            }
        }

        let shared = Arc::new(RouterShared {
            tenant_ids: tenant_ids.clone(),
            replica_addrs,
            alive: (0..cfg.replicas).map(|_| AtomicBool::new(true)).collect(),
            assignment: RwLock::new(assignment),
            draining: AtomicBool::new(false),
            cfg,
        });
        let router = RouterHandle::start(Arc::clone(&shared))?;
        let servers = Arc::new(Mutex::new(servers));
        let stop = Arc::new(AtomicBool::new(false));
        let (failover_tx, failover_rx) = mpsc::channel::<usize>();
        let failover_worker = {
            let shared = Arc::clone(&shared);
            let servers = Arc::clone(&servers);
            let stop = Arc::clone(&stop);
            let ring = ring.clone();
            let repl = Arc::clone(&repl);
            std::thread::spawn(move || {
                while let Ok(dead) = failover_rx.recv() {
                    failover(&shared, &servers, &ring, &stop, &repl, dead);
                }
            })
        };
        let replicator = repl.as_ref().as_ref().map(|_| {
            let repl = Arc::clone(&repl);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let state = repl.as_ref().as_ref().expect("spawned only when Some");
                while !stop.load(Ordering::SeqCst) {
                    replicate_once(state);
                    // Sleep in short slices so shutdown never waits a
                    // full replication period.
                    let mut left = state.cfg.every;
                    while !left.is_zero() && !stop.load(Ordering::SeqCst) {
                        let nap = left.min(Duration::from_millis(25));
                        std::thread::sleep(nap);
                        left = left.saturating_sub(nap);
                    }
                }
            })
        });
        let heartbeat = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let tx = failover_tx.clone();
            std::thread::spawn(move || heartbeat_main(shared, tx, stop))
        };

        Ok(Replicated {
            shared,
            ring,
            tenant_ids,
            servers,
            router: Some(router),
            heartbeat: Some(heartbeat),
            failover_tx: Some(failover_tx),
            failover_worker: Some(failover_worker),
            repl,
            replicator,
            stop,
        })
    }

    /// Forces one synchronous replication pass (checkpoints + sidecars
    /// into the standby directory). No-op unless
    /// [`RouterConfig::replication`] was configured. Public so tests and
    /// operators can pin the standby to a known state deterministically
    /// instead of racing the cadence thread.
    pub fn replicate_now(&self) {
        if let Some(state) = self.repl.as_ref() {
            replicate_once(state);
        }
    }

    /// The client-facing address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.router.as_ref().expect("router runs until shutdown").addr()
    }

    /// Which replica currently owns `tenant` (`None` while unplaced
    /// mid-failover or unknown).
    pub fn replica_of(&self, tenant: &str) -> Option<usize> {
        let idx = self.tenant_ids.iter().position(|t| t == tenant)?;
        let owner = self.shared.assignment.read().unwrap_or_else(|e| e.into_inner())[idx];
        (owner != usize::MAX).then_some(owner)
    }

    /// Replicas still considered live.
    pub fn live_replicas(&self) -> usize {
        self.shared.live_count()
    }

    /// Chaos hook: crash replica `r` abruptly (queued work dropped,
    /// connections severed). The supervisor is *not* told — it must
    /// notice via missed heartbeats and run the failover protocol, which
    /// is the point of the drill.
    pub fn kill_replica(&self, r: usize) {
        let taken = self.servers.lock().unwrap_or_else(|e| e.into_inner())[r].take();
        if let Some(s) = taken {
            s.kill();
        }
    }

    /// Chaos hook: partition replica `r` — the process keeps running but
    /// the network drops it. Detected and fenced exactly like a crash.
    pub fn isolate_replica(&self, r: usize) {
        let guard = self.servers.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = guard[r].as_ref() {
            s.isolate();
        }
    }

    /// The consistent-hash ring (for tests asserting placement).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Orderly shutdown: stop supervision, drain the router, then drain
    /// every surviving replica (flushing their queued work).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
        // The heartbeat's sender clone is gone; dropping ours closes the
        // channel, so the worker exits once its current (stop-gated)
        // failover finishes.
        drop(self.failover_tx.take());
        if let Some(h) = self.failover_worker.take() {
            let _ = h.join();
        }
        if let Some(h) = self.replicator.take() {
            let _ = h.join();
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(r) = self.router.take() {
            r.stop();
        }
        let servers = std::mem::take(
            &mut *self.servers.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for s in servers.into_iter().flatten() {
            s.drain();
        }
    }
}

/// One heartbeat exchange: connect, ping, expect `Ok` — all within
/// `timeout`. Any failure (refused, EOF from an isolated replica's
/// accept-then-drop, timeout, garbage) is a miss.
fn ping_replica(addr: &std::net::SocketAddr, timeout: Duration) -> bool {
    let Ok(stream) = std::net::TcpStream::connect_timeout(addr, timeout) else {
        return false;
    };
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(timeout)).is_err() {
        return false;
    }
    let mut stream = stream;
    use crate::wire::{self, Request, Response};
    let req = Request::Ping;
    if wire::write_frame(&mut stream, req.kind(), &req.encode_payload()).is_err() {
        return false;
    }
    matches!(wire::read_response(&mut stream), Ok(Some(Response::Ok)))
}

/// Detection only: pings live replicas and, on `heartbeat_misses`
/// consecutive misses, flips the replica's liveness flag (requests start
/// failing fast immediately) and hands it to the failover worker. The
/// potentially slow fence/adopt work never runs here, so one replica's
/// recovery cannot blind the supervisor to a second failure.
fn heartbeat_main(
    shared: Arc<RouterShared>,
    failover_tx: mpsc::Sender<usize>,
    stop: Arc<AtomicBool>,
) {
    let n = shared.replica_addrs.len();
    let mut misses = vec![0u32; n];
    while !stop.load(Ordering::SeqCst) {
        for (r, missed) in misses.iter_mut().enumerate() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            if !shared.alive[r].load(Ordering::SeqCst) {
                continue;
            }
            if ping_replica(&shared.replica_addrs[r], shared.cfg.heartbeat_timeout) {
                *missed = 0;
            } else {
                *missed += 1;
                obs::counter("serve.failover.heartbeat_misses", 1);
                if *missed >= shared.cfg.heartbeat_misses
                    && shared.alive[r].swap(false, Ordering::SeqCst)
                {
                    // The swap is the claim: exactly one declaration per
                    // death, even if the worker is still busy elsewhere.
                    let _ = failover_tx.send(r);
                }
            }
        }
        // Sleep in short slices so shutdown never waits a full period.
        let mut left = shared.cfg.heartbeat_every;
        while !left.is_zero() && !stop.load(Ordering::SeqCst) {
            let nap = left.min(Duration::from_millis(25));
            std::thread::sleep(nap);
            left = left.saturating_sub(nap);
        }
    }
}

/// The fence-then-re-place half of the failover protocol (detection
/// lives in [`heartbeat_main`]; the dead replica's liveness flag is
/// already cleared). Runs on the single failover worker thread, which
/// serializes overlapping failovers. Besides the victim's own tenants it
/// also retries any tenant stranded unplaced (`usize::MAX`) by an
/// earlier adoption failure — e.g. one whose chosen survivor died before
/// being detected.
fn failover(
    shared: &Arc<RouterShared>,
    servers: &Arc<Mutex<Vec<Option<Server>>>>,
    ring: &Ring,
    stop: &Arc<AtomicBool>,
    repl: &Arc<Option<ReplState>>,
    dead: usize,
) {
    obs::counter("serve.failover.failovers", 1);
    // Fence first: a partitioned replica might still be running (and
    // snapshotting); kill it so the adopter is the sidecar's sole owner.
    let taken = servers.lock().unwrap_or_else(|e| e.into_inner())[dead].take();
    if let Some(s) = taken {
        s.kill();
    }

    let alive_now: Vec<bool> = shared
        .alive
        .iter()
        .map(|a| a.load(Ordering::SeqCst))
        .collect();
    let victims: Vec<usize> = {
        let a = shared.assignment.read().unwrap_or_else(|e| e.into_inner());
        (0..a.len())
            .filter(|&i| a[i] == dead || a[i] == usize::MAX)
            .collect()
    };
    for idx in victims {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let tenant = &shared.tenant_ids[idx];
        // With replication configured, put back any canonical file the
        // dead replica took with it before the survivor tries to adopt.
        // Runs after the fence: the dead replica can no longer write the
        // canonical paths, so the restore cannot race it.
        if let Some(state) = repl.as_ref() {
            restore_from_standby(state, idx);
        }
        let target = ring.place(tenant, &alive_now);
        let adopted = match target {
            Some(nr) => adopt_tenant(&shared.replica_addrs[nr], tenant, stop).then_some(nr),
            None => None,
        };
        let mut a = shared.assignment.write().unwrap_or_else(|e| e.into_inner());
        match adopted {
            // Flip only after the adopter acked: requests in the window
            // get a typed Unavailable, and never reach a replica that
            // has not restored the tenant yet.
            Some(nr) => a[idx] = nr,
            None => {
                obs::counter("serve.failover.adoption_errors", 1);
                a[idx] = usize::MAX;
            }
        }
    }
}

/// Sends `Adopt` to the chosen survivor, with a few in-place retries —
/// the adopter may be busy restoring other tenants from the same
/// failover. The deadline is generous because a restore legitimately
/// takes a while; failure here strands the tenant (unplaced, typed
/// `Unavailable`) rather than guessing — the next failover pass retries
/// stranded tenants. Gated on `stop` so shutdown is not held hostage by
/// the retry budget.
fn adopt_tenant(addr: &std::net::SocketAddr, tenant: &str, stop: &Arc<AtomicBool>) -> bool {
    for _ in 0..3 {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        let ok = (|| -> Result<(), crate::ClientError> {
            let mut c = ServeClient::connect(addr)?;
            c.set_timeout(Some(Duration::from_secs(30)))?;
            c.adopt(tenant)
        })();
        if ok.is_ok() {
            return true;
        }
    }
    false
}
