//! The multi-tenant scoring server.
//!
//! # Architecture
//!
//! ```text
//!             event loop (one thread)       shard workers (own the monitors)
//!  client ──► ┌─────────────────────┐      ┌───────────────────────────────┐
//!  client ──► │ poll: accept, read, │ ──►  │ shard 0: tenants {a, c, ...}  │
//!  client ──► │ frame, dispatch,    │      │ shard 1: tenants {b, d, ...}  │
//!      ...    │ flush slot-ordered  │ ◄──  └───────────────────────────────┘
//!  client ──► │ replies, backpress. │  completions  ▲ swap commands
//!             └─────────────────────┘        checkpoint watcher
//! ```
//!
//! The data plane is a single readiness-multiplexed event loop — the
//! same `mux::serve` loop the router runs, with the server as its
//! `Tier`: non-blocking accept/read/write driven by `poll(2)`,
//! per-connection frame state machines with zero-copy payload decode,
//! and bounded write buffering with watermark backpressure. Thread count
//! is `1 (loop) + shards + watcher` regardless of connection count.
//!
//! [`imdiffusion::StreamingMonitor`] holds `Rc`-based tensors and is not
//! `Send`, so every monitor is **created and mutated on exactly one shard
//! thread**. Everything that crosses threads is plain data: score jobs
//! (rows + a single-use `ReplyTx`), [`AnySpec`] envelope snapshots
//! for hot reloads, and atomically-updated health/generation counters.
//! Shards answer by posting `(connection, slot, response)` completions
//! that wake the loop; the loop flushes each connection's replies in
//! strict request order however completions interleave.
//!
//! # Batching and fidelity
//!
//! Batching is continuous: an idle shard takes the tenant of the oldest
//! queued request and folds up to `max_batch` of its queued requests, in
//! arrival order, into one [`StreamingMonitor::push_batch`] call, with no
//! window to fill; requests that arrive meanwhile coalesce into the next
//! batch. `push_batch` is bit-identical to the equivalent sequence of
//! sequential pushes (enforced by the core test suite), so batching
//! changes latency and throughput, never verdicts.
//!
//! # Admission control
//!
//! * queue full → immediate [`ErrorCode::Overloaded`]; rows not ingested.
//! * queued longer than `deadline` → [`ErrorCode::Timeout`]; rows not
//!   ingested. In both cases a pipelining client that moves on without
//!   resending must declare the dropped rows via `gap_before`.
//! * queued longer than `shed_after` (but within the deadline) → the
//!   request is *load-shed*: rows are ingested and verdicts returned, but
//!   any evaluation runs on the z-score fallback (flagged `degraded`)
//!   instead of paying for ensemble inference.
//!
//! # Detector installs
//!
//! A tenant's serving detector changes in exactly one place,
//! [`control::install`], for one of four causes: activation (startup or
//! failover adoption), promotion of a reloaded checkpoint, regression
//! rollback, and escalation repin. Installs run on the owning shard
//! **between batches**, so a batch never observes two generations; the
//! install's doc comment is the invariant list every cause maintains.
//!
//! Reload candidates are loaded and validated *off* the shard thread
//! (watcher or wire `Reload`), converted to an [`AnySpec`], and handed
//! to the shard; a corrupt, wrong-family or gate-losing candidate is
//! answered and skipped while the incumbent keeps serving. A tenant may
//! carry an [`EscalationSpec`] — an ordered cost ladder of rung
//! checkpoints. A missing canonical checkpoint at activation pins the
//! cheapest rung within `f1_tolerance` of the best; afterwards the
//! router is edge-triggered on the monitor's debounced drift latch (trip
//! → apex, clear → re-evaluate).
//!
//! # Layout
//!
//! * this file — configuration, cross-thread state, the [`Server`] API;
//! * `data_plane` — the server's `Tier` hooks for the shared event loop
//!   (admission, frame decode, connection bookkeeping) and request
//!   `dispatch`;
//! * `shard` — shard workers: queue scheduling, `run_batch`, sequence
//!   dedup;
//! * `control` — `install`, reload and the validation gate, the
//!   regression sentinel, escalation routing, the checkpoint watcher.

mod control;
mod data_plane;
mod shard;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use imdiff_data::DetectorError;
use imdiff_registry::{AnyDetector, AnySpec, DetectorKind};
use imdiffusion::{BatchItem, HealthState, ImDiffusionConfig, MonitorHealth, StreamingMonitor};

use crate::mux::{self, Completions, Deadlines, ReplyTx};
use crate::wire::{ErrorCode, PromotionVerdict, Response, TenantHealth, WireHealthState};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// One stream to serve: where its fitted checkpoint lives and how to
/// rebuild the detector around it (an envelope stores weights, seed and
/// channel count; the ImDiffusion architecture comes from `cfg`, as for
/// [`AnyDetector::load`]).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Stream id used on the wire.
    pub id: String,
    /// Path of the detector checkpoint — an IMDE registry envelope (also
    /// the hot-reload watch target).
    pub checkpoint: PathBuf,
    /// Detector configuration matching the checkpoint.
    pub cfg: ImDiffusionConfig,
    /// Detector seed matching the checkpoint.
    pub seed: u64,
    /// Channel count of the stream.
    pub channels: usize,
    /// Evaluation hop of the monitor (rows between evaluations).
    pub hop: usize,
    /// Validation gate for hot reloads: a candidate checkpoint must beat
    /// (or tie) the incumbent on this held-out replay slice before it is
    /// handed to the shard. `None` promotes every loadable candidate
    /// unconditionally (the pre-gate behavior).
    pub holdout: Option<HoldoutSpec>,
    /// Drift policy `(threshold, debounce)` armed on the monitor at load
    /// time. Arms only when the checkpoint carries a training-time drift
    /// reference; checkpoints without one (and `None`) serve unarmed with
    /// bit-identical behavior.
    pub drift_policy: Option<(f64, u32)>,
    /// Detector family this tenant is configured to serve. The canonical
    /// checkpoint must carry this family — or, with an escalation ladder,
    /// any rung family — or loads and reloads are refused as corrupt.
    pub family: DetectorKind,
    /// Cost-aware escalation ladder; `None` pins the tenant to `family`
    /// forever (the pre-registry behavior).
    pub escalation: Option<EscalationSpec>,
}

impl TenantSpec {
    /// Refuses a detector of family `kind` unless it may serve this
    /// tenant: the configured family or, with a ladder, any rung family.
    fn check_family(&self, kind: DetectorKind) -> Result<(), DetectorError> {
        let rung = |e: &EscalationSpec| e.rungs.iter().any(|r| r.kind == kind);
        if kind == self.family || self.escalation.as_ref().is_some_and(rung) {
            return Ok(());
        }
        Err(DetectorError::CorruptCheckpoint(format!(
            "checkpoint family {kind} is not allowed for tenant {} (expected {} or an \
             escalation rung)",
            self.id, self.family
        )))
    }
}

/// A cost-aware escalation ladder: ordered rungs (cheapest first,
/// canonically z-score → IForest → ImDiffusion) plus the labeled holdout
/// slice the evaluator replays to pick a pin. Rung kinds must be
/// distinct and every rung checkpoint must share one serving window —
/// repins are in-place detector swaps on a live monitor.
///
/// The decision rule lives in [`imdiff_registry::choose_rung`]: the
/// first rung whose best point-F1 on the holdout is within
/// `f1_tolerance` of the ladder's best wins. Measured cost is recorded
/// as evidence but never decides, so a mirror replaying the same ladder
/// reproduces every pin bit-exactly.
#[derive(Debug, Clone)]
pub struct EscalationSpec {
    /// The ladder, cheapest first. The last rung is the apex a drift trip
    /// escalates to.
    pub rungs: Vec<RungSpec>,
    /// How much holdout F1 a cheaper rung may give up and still win.
    pub f1_tolerance: f64,
    /// Labeled holdout rows replayed through every rung, each
    /// `channels` wide.
    pub holdout_rows: Vec<Vec<f32>>,
    /// Ground-truth anomaly flags aligned with `holdout_rows`.
    pub holdout_labels: Vec<bool>,
}

/// One rung of an escalation ladder.
#[derive(Debug, Clone)]
pub struct RungSpec {
    /// The rung's family (checked against its checkpoint's envelope tag).
    pub kind: DetectorKind,
    /// Path of the rung's fitted IMDE envelope.
    pub checkpoint: PathBuf,
}

/// A held-out replay slice for validation-gated promotion.
///
/// The gate cuts `rows` into consecutive non-overlapping windows of the
/// tenant's configured window length (a trailing partial window is
/// ignored), scores each with both the candidate and the incumbent via
/// the read-only batched inference path, and promotes only when the
/// candidate is at least as good:
///
/// * with `labels`, point F1 decides and **ties promote** — fresh weights
///   also re-baseline the drift reference, so an equally-accurate
///   candidate is strictly preferable;
/// * without labels there is no ground truth to rank by, so the gate is a
///   guard-rail instead: the candidate passes while its mean absolute
///   score deviation from the incumbent stays within `score_tolerance`
///   (a grossly divergent candidate is rejected).
#[derive(Debug, Clone)]
pub struct HoldoutSpec {
    /// Replay rows in stream order, each `channels` wide.
    pub rows: Vec<Vec<f32>>,
    /// Ground-truth point-anomaly labels aligned with `rows`.
    pub labels: Option<Vec<bool>>,
    /// Label-free bound on the candidate/incumbent mean absolute score
    /// deviation (ignored when `labels` is present).
    pub score_tolerance: f64,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Shard worker threads; tenants are partitioned round-robin.
    pub shards: usize,
    /// Most queued requests of one tenant coalesced into one `push_batch`
    /// call; an idle shard flushes up to this many at once, never waiting.
    pub max_batch: usize,
    /// Global queued-request cap; beyond it requests are refused with
    /// [`ErrorCode::Overloaded`].
    pub max_queue: usize,
    /// Queue-latency budget; requests that waited longer are load-shed to
    /// the degraded scoring path.
    pub shed_after: Duration,
    /// Queue deadline; requests that waited longer are refused with
    /// [`ErrorCode::Timeout`] without being ingested.
    pub deadline: Duration,
    /// Checkpoint poll interval for hot reload; `None` disables the
    /// watcher (wire `Reload` requests still work).
    pub reload_poll: Option<Duration>,
    /// Closes a connection whose peer has been silent this long (no
    /// complete frame, no bytes in flight). `None` keeps silent
    /// connections forever — fine for trusted loopback tests, wrong for
    /// anything reachable by a stalled or half-open peer.
    pub idle_timeout: Option<Duration>,
    /// Per-frame progress deadline: a peer that *starts* a frame must
    /// complete it this fast or the connection is closed. Catches the
    /// slowloris case `idle_timeout` cannot see — a peer dripping one
    /// byte at a time is never "silent" but still holds a frame open
    /// indefinitely. `None` disables the check.
    pub frame_deadline: Option<Duration>,
    /// Rows between automatic IMSM sidecar snapshots per tenant; `None`
    /// disables cadenced snapshots (explicit `Snapshot` requests still
    /// work). Snapshots bound how much stream progress a failover can
    /// lose.
    pub snapshot_every: Option<u64>,
    /// Post-promotion regression sentinel: verdicts observed after a hot
    /// swap before the promotion is confirmed or rolled back. The
    /// decision fires on exactly this many post-swap verdicts regardless
    /// of batch boundaries, so it is deterministic at any thread count.
    /// `0` disables the sentinel (swaps are final).
    pub regression_watch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            max_batch: 8,
            max_queue: 64,
            shed_after: Duration::from_millis(250),
            deadline: Duration::from_secs(2),
            reload_poll: Some(Duration::from_millis(200)),
            idle_timeout: None,
            frame_deadline: Some(Duration::from_secs(30)),
            snapshot_every: None,
            regression_watch: 64,
        }
    }
}

/// Server lifecycle failures.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(String),
    /// A tenant's checkpoint could not be loaded at startup.
    Tenant {
        /// Which tenant failed.
        id: String,
        /// Why.
        source: DetectorError,
    },
    /// The tenant roster was invalid (duplicate ids, empty).
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "server I/O error: {msg}"),
            ServeError::Tenant { id, source } => {
                write!(f, "tenant {id:?} failed to load: {source}")
            }
            ServeError::Config(msg) => write!(f, "invalid server config: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

/// Locks `m`, recovering the data from a poisoned lock: every guarded
/// value here is a plain snapshot that stays valid if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// (mtime, len) stamp of a checkpoint file, used to detect rewrites.
type FileStamp = (Option<SystemTime>, u64);

fn stamp(path: &std::path::Path) -> Option<FileStamp> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok(), meta.len()))
}

/// The monitor type shards own: a streaming monitor over *any* registry
/// family.
type ServeMonitor = StreamingMonitor<AnyDetector>;

/// What a tenant is serving right now, published as one record so the
/// family and the envelope can never disagree. Only
/// [`control::install`] writes it.
struct Serving {
    /// Family of the installed detector (the configured
    /// [`TenantSpec::family`] until the first activation). Reported on
    /// health and reload answers.
    family: DetectorKind,
    /// Envelope of the installed detector — what the validation gate
    /// compares candidates against. `None` until the first activation.
    spec: Option<Box<AnySpec>>,
}

/// Cross-thread view of one tenant. The monitor itself lives on the
/// owning shard thread; this is everything other threads may read.
struct TenantShared {
    spec: TenantSpec,
    shard: usize,
    /// Whether this replica currently serves the tenant. Every replica
    /// registers the full roster, but only its placed subset is active;
    /// failover activates more via `Adopt`. Never cleared — placement
    /// only grows on a replica.
    active: AtomicBool,
    /// Bumps on every install after activation. Generation 1 is the
    /// activated checkpoint.
    generation: AtomicU64,
    /// Score requests currently queued for this tenant.
    queue_depth: AtomicU32,
    /// Health snapshot published at activation and after every batch
    /// or install; `None` until the first activation.
    health: Mutex<Option<MonitorHealth>>,
    /// Last checkpoint stamp examined by reload (watcher or manual) or
    /// written by an install, so one rewrite triggers exactly one reload
    /// attempt and the server never reloads its own writes.
    reload_stamp: Mutex<Option<FileStamp>>,
    /// Latest promotion/rollback decision, answered on `Reload` requests.
    promo: Mutex<(PromotionVerdict, String)>,
    /// The installed detector.
    serving: Mutex<Serving>,
}

impl TenantShared {
    fn new(spec: TenantSpec, shard: usize, active: bool) -> TenantShared {
        TenantShared {
            reload_stamp: Mutex::new(stamp(&spec.checkpoint)),
            serving: Mutex::new(Serving {
                family: spec.family,
                spec: None,
            }),
            spec,
            shard,
            active: AtomicBool::new(active),
            generation: AtomicU64::new(1),
            queue_depth: AtomicU32::new(0),
            health: Mutex::new(None),
            promo: Mutex::new((PromotionVerdict::NoAttempt, String::new())),
        }
    }

    /// The family currently serving, as a wire string.
    fn family_name(&self) -> String {
        lock(&self.serving).family.name().to_string()
    }

    /// The `Reload` answer for the current generation and family.
    fn reload_status(&self, verdict: PromotionVerdict, detail: String) -> Response {
        Response::ReloadStatus {
            generation: self.generation.load(Ordering::SeqCst),
            verdict,
            detail,
            family: self.family_name(),
        }
    }

    /// Records a promotion decision and answers the `Reload` that asked
    /// for it, if any.
    fn decide(&self, verdict: PromotionVerdict, detail: String, reply: Option<ReplyTx>) {
        *lock(&self.promo) = (verdict, detail.clone());
        if let Some(tx) = reply {
            tx.send(self.reload_status(verdict, detail));
        }
    }
}

/// The typed refusal for a tenant this replica does not serve.
fn not_placed(id: &str) -> Response {
    Response::Error {
        code: ErrorCode::Unavailable,
        message: format!("tenant {id:?} is not placed on this replica"),
    }
}

/// A queued scoring request.
struct ScoreJob {
    tenant: usize,
    /// Idempotency sequence id (0 = unsequenced, no dedup).
    seq: u64,
    /// Stream-position guard (`u64::MAX` = unchecked).
    start_row: u64,
    item: BatchItem,
    enqueued: Instant,
    reply: ReplyTx,
}

/// Out-of-band command applied by a shard between batches.
enum ShardCmd {
    /// Install reloaded weights for a tenant this shard owns. Boxed:
    /// specs embed full weight tensors and would dominate the enum size.
    /// `reply` (wire `Reload` requests only) is answered **after** the
    /// install lands, so the reported generation is the one now serving.
    Swap {
        tenant: usize,
        spec: Box<AnySpec>,
        reply: Option<ReplyTx>,
    },
    /// Activate a tenant (failover adoption): restore from the IMSM
    /// sidecar when present, fresh-load otherwise. Monitors hold
    /// non-`Send` tensors, so creation must happen on the shard thread.
    Adopt { tenant: usize, reply: ReplyTx },
    /// Write the tenant's IMSM sidecar now (deterministic recovery
    /// point).
    Snapshot { tenant: usize, reply: ReplyTx },
}

#[derive(Default)]
struct ShardQueue {
    jobs: std::collections::VecDeque<ScoreJob>,
    cmds: Vec<ShardCmd>,
}

#[derive(Default)]
struct Shard {
    q: Mutex<ShardQueue>,
    cv: Condvar,
}

struct ServerInner {
    cfg: ServeConfig,
    tenants: Vec<Arc<TenantShared>>,
    shards: Vec<Shard>,
    /// Global queued-job count for admission control.
    queued: AtomicUsize,
    draining: AtomicBool,
    /// Abrupt-death flag ([`Server::kill`]): shards exit *dropping*
    /// queued work instead of flushing it — a crash, not a drain.
    killed: AtomicBool,
    /// Partition flag ([`Server::isolate`]): the process keeps running
    /// but every connection is severed and new ones are refused.
    isolated: AtomicBool,
    /// Clones of accepted connection streams, so kill/isolate can sever
    /// them from outside the event loop.
    conn_streams: Mutex<Vec<TcpStream>>,
    /// Shard → event loop completion queue (also the loop's waker for
    /// drain/kill signalling).
    completions: Arc<Completions>,
}

impl ServerInner {
    fn tenant_index(&self, id: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.spec.id == id)
    }

    /// Edits the queue of `tenant`'s shard under its lock, then wakes
    /// the shard (its worker is the condvar's only waiter).
    fn enqueue(&self, tenant: usize, edit: impl FnOnce(&mut ShardQueue)) {
        let shard = &self.shards[self.tenants[tenant].shard];
        edit(&mut lock(&shard.q));
        shard.cv.notify_one();
    }

    /// Raises the drain flag and wakes every shard and the event loop.
    /// Shards are notified under their queue lock, so one between its
    /// flag check and its wait cannot miss the wake-up; that is why
    /// shards wait with no timeout.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            let _g = lock(&shard.q);
            shard.cv.notify_all();
        }
        self.completions.wake();
    }

    /// Shuts down every accepted connection from outside the event loop.
    fn sever_connections(&self) {
        for s in std::mem::take(&mut *lock(&self.conn_streams)) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    fn health_report(&self) -> Response {
        let mut tenants: Vec<TenantHealth> = self
            .tenants
            .iter()
            .filter(|t| t.active.load(Ordering::SeqCst))
            .filter_map(|t| {
                let h = (*lock(&t.health))?;
                Some(TenantHealth {
                    id: t.spec.id.clone(),
                    state: match h.state {
                        HealthState::Healthy => WireHealthState::Healthy,
                        HealthState::Degraded => WireHealthState::Degraded,
                        HealthState::Warming => WireHealthState::Warming,
                    },
                    generation: t.generation.load(Ordering::SeqCst),
                    rows_seen: h.rows_seen,
                    rows_rejected: h.rows_rejected,
                    degraded_evals: h.degraded_evals,
                    rewarms: h.rewarms,
                    recoveries: h.recoveries,
                    queue_depth: t.queue_depth.load(Ordering::SeqCst),
                    drifted: h.drifted,
                    drift_trips: h.drift_trips,
                    family: t.family_name(),
                })
            })
            .collect();
        tenants.sort_by(|a, b| a.id.cmp(&b.id));
        Response::Health { tenants }
    }
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

/// A running server. Dropping the handle without calling
/// [`Server::drain`] leaves detached threads running until process exit;
/// call `drain` for an orderly stop.
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    /// The readiness event loop: listener + every client connection on
    /// one thread. Total server threads = 1 loop + shards + watcher,
    /// independent of connection count.
    loop_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, loads every tenant and starts serving. Returns once all
    /// shards report their monitors loaded; any load failure aborts
    /// startup with the underlying error.
    pub fn start(cfg: ServeConfig, tenants: Vec<TenantSpec>) -> Result<Server, ServeError> {
        let all = vec![true; tenants.len()];
        Server::start_placed(cfg, tenants, &all)
    }

    /// Starts a **replica**: the full tenant roster is registered (so
    /// failover can adopt any of it later) but only the tenants marked in
    /// `active` are loaded and served. Requests for registered-but-
    /// inactive tenants are refused with a typed
    /// [`ErrorCode::Unavailable`]. Tenants whose IMSM sidecar exists next
    /// to the checkpoint resume mid-stream instead of re-warming.
    pub fn start_placed(
        cfg: ServeConfig,
        tenants: Vec<TenantSpec>,
        active: &[bool],
    ) -> Result<Server, ServeError> {
        if tenants.is_empty() {
            return Err(ServeError::Config("no tenants to serve".into()));
        }
        if active.len() != tenants.len() {
            return Err(ServeError::Config(format!(
                "active mask has {} entries for {} tenants",
                active.len(),
                tenants.len()
            )));
        }
        {
            let mut ids: Vec<&str> = tenants.iter().map(|t| t.id.as_str()).collect();
            ids.sort_unstable();
            if ids.windows(2).any(|w| w[0] == w[1]) {
                return Err(ServeError::Config("duplicate tenant ids".into()));
            }
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| ServeError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;

        let n_shards = cfg.shards.max(1).min(tenants.len());
        let completions = Completions::new().map_err(|e| ServeError::Io(e.to_string()))?;
        let inner = Arc::new(ServerInner {
            cfg,
            tenants: tenants
                .into_iter()
                .enumerate()
                .map(|(i, spec)| Arc::new(TenantShared::new(spec, i % n_shards, active[i])))
                .collect(),
            shards: (0..n_shards).map(|_| Shard::default()).collect(),
            queued: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            isolated: AtomicBool::new(false),
            conn_streams: Mutex::new(Vec::new()),
            completions,
        });

        // Shards load their monitors on their own threads (tensors are
        // not Send); wait for all of them before accepting traffic.
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut shard_threads = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let inner = Arc::clone(&inner);
            let tx = ready_tx.clone();
            shard_threads.push(std::thread::spawn(move || shard::shard_main(inner, s, tx)));
        }
        drop(ready_tx);
        let mut startup_err = None;
        for _ in 0..n_shards {
            match ready_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    startup_err.get_or_insert(e);
                }
                Err(_) => {
                    startup_err.get_or_insert(ServeError::Io("a shard died during startup".into()));
                }
            }
        }
        if let Some(e) = startup_err {
            inner.begin_drain();
            for t in shard_threads {
                let _ = t.join();
            }
            return Err(e);
        }

        let loop_thread = {
            let mut tier = Arc::clone(&inner);
            let completions = Arc::clone(&inner.completions);
            let deadlines = Deadlines::from(&inner.cfg);
            std::thread::spawn(move || mux::serve(listener, &completions, deadlines, &mut tier))
        };
        let watcher = inner.cfg.reload_poll.map(|poll| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || control::watcher_main(inner, poll))
        });

        Ok(Server {
            inner,
            addr,
            loop_thread: Some(loop_thread),
            shard_threads,
            watcher,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current model generation of `tenant`, if registered.
    pub fn generation(&self, tenant: &str) -> Option<u64> {
        self.inner
            .tenant_index(tenant)
            .map(|i| self.inner.tenants[i].generation.load(Ordering::SeqCst))
    }

    /// Graceful shutdown: stop accepting, refuse new scoring work, flush
    /// every queued request, join all threads. Queued requests still get
    /// real replies — drain never silently drops work.
    pub fn drain(mut self) {
        // begin_drain wakes the event loop through the completions
        // waker; the loop marks every connection closing, flushes all
        // outstanding replies (shards drain their queues before
        // exiting, and every ReplyTx is send-or-drop), then returns.
        self.inner.begin_drain();
        self.join();
    }

    /// Abrupt crash, for failover drills: queued work is **dropped** (the
    /// opposite of [`Server::drain`]), every open connection is severed
    /// mid-flight and the listener stops. Peers see EOF or a connection
    /// reset, never a reply. The event loop, shards and the watcher are
    /// joined so the process owns no background work afterwards.
    pub fn kill(mut self) {
        // The kill flag goes up before drain's wake-ups, so the shards
        // drop their queues and the event loop, which checks the kill
        // flag first thing, severs whatever connections remain.
        self.inner.killed.store(true, Ordering::SeqCst);
        self.inner.begin_drain();
        self.inner.sever_connections();
        self.join();
    }

    /// Joins the event loop, then the shards, then the watcher.
    fn join(&mut self) {
        if let Some(l) = self.loop_thread.take() {
            let _ = l.join();
        }
        for t in std::mem::take(&mut self.shard_threads) {
            let _ = t.join();
        }
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
    }

    /// Network partition, for failover drills: the replica keeps running
    /// (shards, watcher, cadenced snapshots) but every open connection is
    /// severed and new connections are accepted then immediately dropped.
    /// From the router's side this is indistinguishable from a crash —
    /// heartbeats connect and see EOF — which is exactly the ambiguity a
    /// supervisor must fence before re-placing tenants.
    pub fn isolate(&self) {
        self.inner.isolated.store(true, Ordering::SeqCst);
        self.inner.sever_connections();
    }
}
