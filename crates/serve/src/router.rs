//! Tenant-routing front door for a replicated serving tier.
//!
//! The router owns the only address clients see. Behind it sit N replica
//! servers (spawned by the [supervisor](crate::supervisor)); each tenant
//! is *placed* on exactly one replica by consistent hashing over a ring
//! of virtual nodes, and the router forwards scoring/reload/snapshot
//! frames to the owner, preserving per-connection request order end to
//! end. Control requests that do not belong to a tenant (`Ping`,
//! `ObsSnapshot`, `Drain`) answer locally; `Health` fans out to every
//! live replica and merges the per-tenant reports.
//!
//! # Data plane
//!
//! All client connections are served by **one readiness event loop** —
//! the same `mux::serve` loop the server runs, with the router as its
//! `Tier`, and the same `idle_timeout`/`frame_deadline` taken from
//! [`RouterConfig::replica`]; forwarding is **zero-copy** — a frame is
//! validated in place ([`wire::peek_tenant`] structurally checks the
//! whole payload while borrowing the tenant id out of the read buffer)
//! and its raw bytes are written to the owner replica verbatim, never
//! re-encoded. Each replica gets **one** shared upstream connection for
//! the whole router (not one per client); replies correlate by FIFO
//! order and fan back out to client slots through the loop's completion
//! queue. Router thread count is constant in the number of clients:
//! the loop, one upstream reader per replica, and short-lived `Health`
//! fan-out helpers.
//!
//! # Failure semantics
//!
//! A replica connection that dies mid-flight fails every request queued
//! on it with a typed [`ErrorCode::Interrupted`]: the request *may or
//! may not have been applied* — the honest answer, and safe to act on
//! because a same-sequence-id replay is deduplicated server-side (a
//! fresh id would not be, which is why this case gets its own code).
//! Requests routed to a replica already marked dead are refused with
//! [`ErrorCode::Unavailable`] *before* being sent — provably not
//! applied, safe to retry under any id. Nothing hangs: upstream readers
//! poll with a short timeout and abandon ship as soon as the replica is
//! declared dead or the router drains.
//!
//! Control asymmetry: `Adopt` (activate a tenant) and `Drain` (shut the
//! tier's front door) are supervisor/operator operations; honoring them
//! from an arbitrary client would let one misbehaving peer re-place or
//! take down every tenant, so the router refuses both.
//!
//! Placement is [FNV-1a](https://en.wikipedia.org/wiki/FNV_hash) plus a
//! SplitMix64 avalanche pass over `"replica-{i}-vn{v}"` ring points — a
//! stable, seedless hash, so every process (router, supervisor, chaos
//! harness, a rebooted router) computes the identical ring. `std`'s
//! `RandomState` is banned here: a randomized hash would re-place every
//! tenant on restart and defeat sidecar-based resumption. The avalanche
//! pass matters because raw FNV-1a clusters short sequential keys (see
//! `place_hash`).

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use imdiff_nn::obs;

use crate::mux::{self, Completions, Deadlines, Mode, ReplyTx, Tier};
use crate::server::{ServeConfig, ServeError};
use crate::wire::{self, kind, ErrorCode, Response, TenantHealth, WireError};
use crate::ServeClient;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration for the replicated tier (router + supervisor).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Client-facing listen address (`127.0.0.1:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Number of replica servers to spawn.
    pub replicas: usize,
    /// Virtual nodes per replica on the placement ring. More nodes
    /// spread tenants more evenly; 32 is plenty for single-digit
    /// replica counts.
    pub vnodes: usize,
    /// How often the supervisor pings each replica.
    pub heartbeat_every: Duration,
    /// Read deadline on each heartbeat exchange.
    pub heartbeat_timeout: Duration,
    /// Consecutive missed heartbeats before a replica is declared dead
    /// and failed over.
    pub heartbeat_misses: u32,
    /// Ahead-of-failure checkpoint replication: `Some` makes the
    /// supervisor copy every tenant's IMDE checkpoint + IMSM sidecar
    /// into a standby directory on a cadence, and restore from that
    /// standby during failover when the canonical files were lost with
    /// the dead replica. `None` (the default) preserves the
    /// shared-disk-only behavior.
    pub replication: Option<ReplicationCfg>,
    /// Template for each replica's [`ServeConfig`]; `addr` is overridden
    /// with an ephemeral port per replica. Its `idle_timeout` and
    /// `frame_deadline` also apply to the router's client connections.
    pub replica: ServeConfig,
}

/// Where and how often the supervisor replicates checkpoints ahead of
/// failure (see [`RouterConfig::replication`]).
#[derive(Debug, Clone)]
pub struct ReplicationCfg {
    /// Standby directory receiving the copies (created if absent).
    pub dir: std::path::PathBuf,
    /// Replication cadence.
    pub every: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            vnodes: 32,
            heartbeat_every: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_millis(250),
            heartbeat_misses: 3,
            replication: None,
            replica: ServeConfig::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Consistent hashing
// ---------------------------------------------------------------------------

/// FNV-1a, 64-bit. Stable across processes and releases by
/// construction — the placement ring must never depend on a randomized
/// hasher.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64-style finalizer applied on top of [`fnv1a`] for ring
/// placement. Raw FNV-1a diffuses short, nearly identical keys poorly —
/// sequential tenant ids like `tenant-0..tenant-49` land in a couple of
/// tight clusters on the ring, starving whole replicas no matter how
/// many virtual nodes exist. The avalanche pass spreads those clusters
/// uniformly while staying just as stable and seedless.
fn place_hash(bytes: &[u8]) -> u64 {
    let mut h = fnv1a(bytes);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A consistent-hash ring of virtual nodes over `replicas` replicas.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, replica)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Builds the ring: `vnodes` points per replica at
    /// `fnv1a("replica-{i}-vn{v}")`.
    pub fn new(replicas: usize, vnodes: usize) -> Ring {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(replicas * vnodes);
        for i in 0..replicas {
            for v in 0..vnodes {
                points.push((place_hash(format!("replica-{i}-vn{v}").as_bytes()), i));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// Owner of `tenant` among the replicas still marked alive: the
    /// first live ring point at or after the tenant's hash, wrapping.
    /// `None` when every replica is dead. Dead replicas' tenants thus
    /// fail over to the *next* point on the ring, while tenants on
    /// surviving replicas never move — the property that bounds failover
    /// blast radius.
    pub fn place(&self, tenant: &str, alive: &[bool]) -> Option<usize> {
        if !alive.iter().any(|a| *a) {
            return None;
        }
        let h = place_hash(tenant.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        for k in 0..n {
            let (_, r) = self.points[(start + k) % n];
            if alive[r] {
                return Some(r);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

/// State shared between the router's connection threads and the
/// supervisor (which flips `alive` and rewrites `assignment` during
/// failover).
pub(crate) struct RouterShared {
    pub(crate) cfg: RouterConfig,
    /// Tenant ids, index-aligned with `assignment`.
    pub(crate) tenant_ids: Vec<String>,
    /// Listen address of each replica.
    pub(crate) replica_addrs: Vec<SocketAddr>,
    /// Liveness per replica; cleared by the supervisor on failover.
    pub(crate) alive: Vec<AtomicBool>,
    /// Current owner replica per tenant. `usize::MAX` = unplaced (all
    /// replicas dead); requests answer `Unavailable`.
    pub(crate) assignment: RwLock<Vec<usize>>,
    pub(crate) draining: AtomicBool,
}

impl RouterShared {
    fn tenant_index(&self, id: &str) -> Option<usize> {
        self.tenant_ids.iter().position(|t| t == id)
    }

    pub(crate) fn live_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::SeqCst))
            .count()
    }
}

// ---------------------------------------------------------------------------
// Upstream (router -> replica) connections
// ---------------------------------------------------------------------------

/// One **shared** forwarding connection from the router to one replica,
/// used by every client connection (forwards happen only on the event
/// loop thread, so writes never interleave). Replies come back in
/// request order, so a FIFO of [`ReplyTx`] handles is the whole
/// correlation state. The reader thread owns the receive half; on any
/// loss it marks the upstream dead *then* drains the FIFO under the
/// same lock that guards enqueueing — a new request can never slip into
/// a queue that is being failed, so none is silently dropped.
struct Upstream {
    writer: TcpStream,
    pending: Arc<Mutex<VecDeque<ReplyTx>>>,
    dead: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
}

impl Upstream {
    fn connect(
        shared: &Arc<RouterShared>,
        replica: usize,
    ) -> Result<Upstream, WireError> {
        let stream = TcpStream::connect_timeout(
            &shared.replica_addrs[replica],
            Duration::from_secs(2),
        )
        .map_err(|e| WireError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let writer = stream.try_clone().map_err(|e| WireError::Io(e.to_string()))?;
        let pending: Arc<Mutex<VecDeque<ReplyTx>>> = Arc::default();
        let dead = Arc::new(AtomicBool::new(false));
        let reader = {
            let shared = Arc::clone(shared);
            let pending = Arc::clone(&pending);
            let dead = Arc::clone(&dead);
            let mut stream = stream;
            std::thread::spawn(move || {
                loop {
                    match wire::read_response(&mut stream) {
                        Ok(Some(resp)) => {
                            let tx = pending
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .pop_front();
                            if let Some(tx) = tx {
                                tx.send(resp);
                            }
                        }
                        Ok(None) => break, // replica closed
                        Err(WireError::Idle) => {
                            if shared.draining.load(Ordering::SeqCst)
                                || !shared.alive[replica].load(Ordering::SeqCst)
                            {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                // Fail everything still queued, atomically with refusing
                // new entries.
                let drained: Vec<_> = {
                    let mut q = pending.lock().unwrap_or_else(|e| e.into_inner());
                    dead.store(true, Ordering::SeqCst);
                    q.drain(..).collect()
                };
                for tx in drained {
                    tx.send(Response::Error {
                        code: ErrorCode::Interrupted,
                        message: "replica connection lost; request may or may not \
                                  have been applied — retry with the same sequence id"
                            .into(),
                    });
                }
            })
        };
        Ok(Upstream {
            writer,
            pending,
            dead,
            reader: Some(reader),
        })
    }

    /// Forwards one pre-validated frame **verbatim** (zero-copy: `raw`
    /// is borrowed straight out of the client connection's read
    /// buffer), registering `tx` for its reply. Must only be called
    /// from the event loop thread — the enqueue/write pair is not
    /// atomic against concurrent forwarders.
    fn forward(&mut self, raw: &[u8], tx: ReplyTx) -> ForwardOutcome {
        {
            let mut q = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            if self.dead.load(Ordering::SeqCst) {
                return ForwardOutcome::NotEnqueued(tx);
            }
            q.push_back(tx);
        }
        // A write failure after enqueueing is fine: the socket is broken,
        // so the reader is about to drain the queue with typed errors.
        use std::io::Write;
        if self.writer.write_all(raw).and_then(|()| self.writer.flush()).is_ok() {
            ForwardOutcome::Sent
        } else {
            ForwardOutcome::EnqueuedButBroken
        }
    }
}

/// What became of a forwarded request's reply handle.
enum ForwardOutcome {
    /// Request on the wire; the reader will answer the handle.
    Sent,
    /// Upstream was already dead; the handle was never enqueued — safe
    /// to retry on a fresh connection (returned to the caller).
    NotEnqueued(ReplyTx),
    /// The write failed after enqueueing; the reader's drain will answer
    /// the handle with a typed error. Do NOT retry — that would
    /// double-answer.
    EnqueuedButBroken,
}

impl Drop for Upstream {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Client-facing connections
// ---------------------------------------------------------------------------

/// The router's side of the client-facing event loop ([`mux::serve`]):
/// frames are validated in place and forwarded verbatim over one shared
/// [`Upstream`] per replica; replies fan back in through the completion
/// queue and flush to each client in strict request order. Dropping it
/// (when the loop returns) shuts the upstreams down and joins their
/// readers, which fail any still-pending replies.
struct RouterTier {
    shared: Arc<RouterShared>,
    upstreams: Vec<Option<Upstream>>,
}

impl RouterTier {
    fn new(shared: Arc<RouterShared>) -> RouterTier {
        let mut upstreams = Vec::new();
        upstreams.resize_with(shared.replica_addrs.len(), || None);
        RouterTier { shared, upstreams }
    }
}

impl Tier for RouterTier {
    fn mode(&self) -> Mode {
        if self.shared.draining.load(Ordering::SeqCst) {
            Mode::Drain
        } else {
            Mode::Run
        }
    }

    fn admit(&mut self, _stream: &TcpStream) -> bool {
        obs::counter("serve.router.connections", 1);
        true
    }

    fn frame(&mut self, kind: u8, payload: &[u8], raw: &[u8], reply: ReplyTx) -> Result<(), ()> {
        obs::counter("serve.router.requests", 1);
        route_frame(&self.shared, &mut self.upstreams, kind, payload, raw, reply).map_err(drop)
    }
}

/// Dispatches one validated-or-about-to-be-validated client frame:
/// answer locally, fan out, or forward the raw bytes to the tenant's
/// owner replica. `Err` means the frame was malformed (the reply handle
/// still answers its slot with `BadRequest`) and the connection should
/// close.
fn route_frame(
    shared: &Arc<RouterShared>,
    upstreams: &mut [Option<Upstream>],
    kind_byte: u8,
    payload: &[u8],
    raw: &[u8],
    tx: ReplyTx,
) -> Result<(), WireError> {
    // Structural validation + zero-copy tenant peek. A frame that
    // passes cannot fail decode at the replica — required before
    // forwarding on a *shared* upstream, where a poison frame would
    // sever every client's in-flight requests at once.
    let tenant = match wire::peek_tenant(kind_byte, payload) {
        Ok(t) => t,
        Err(err) => {
            tx.send(Response::Error {
                code: ErrorCode::BadRequest,
                message: err.to_string(),
            });
            return Err(err);
        }
    };
    match kind_byte {
        kind::PING => tx.send(Response::Ok),
        // Draining shuts the whole tier's front door for every tenant —
        // an operator decision (`Replicated::shutdown`), not something
        // any connected client may trigger. Honoring it here would let a
        // single misbehaving client take down serving for everyone.
        kind::DRAIN => tx.send(Response::Error {
            code: ErrorCode::BadRequest,
            message: "Drain is an operator operation; the router does not \
                      accept it from clients"
                .into(),
        }),
        kind::OBS_SNAPSHOT => tx.send(Response::ObsJson {
            json: obs::snapshot_json(),
        }),
        kind::ADOPT => tx.send(Response::Error {
            code: ErrorCode::BadRequest,
            message: "Adopt is an internal supervisor operation".into(),
        }),
        kind::HEALTH => {
            // Fans out over blocking client connections with multi-second
            // budgets — far too slow for the loop; answer off-thread
            // through the completion queue.
            let shared = Arc::clone(shared);
            std::thread::spawn(move || tx.send(merged_health(&shared)));
        }
        _ => {
            let tenant = tenant.expect("peek_tenant yields a tenant for routable kinds");
            let Some(idx) = shared.tenant_index(tenant) else {
                tx.send(Response::Error {
                    code: ErrorCode::UnknownTenant,
                    message: format!("no tenant {tenant:?}"),
                });
                return Ok(());
            };
            let owner = shared.assignment.read().unwrap_or_else(|e| e.into_inner())[idx];
            if owner == usize::MAX || !shared.alive[owner].load(Ordering::SeqCst) {
                tx.send(Response::Error {
                    code: ErrorCode::Unavailable,
                    message: format!("tenant {tenant:?}: failover in progress"),
                });
                return Ok(());
            }
            forward_to(shared, upstreams, owner, raw, tx);
        }
    }
    Ok(())
}

/// Forwards raw frame bytes to `replica` over the shared upstream,
/// dialing or re-dialing it as needed. At most one re-dial per request:
/// a second failure means the replica is really gone and the client
/// gets the typed `Unavailable` now rather than a blocking retry loop
/// inside the router. (Dialing is blocking but loopback-fast: a dead
/// replica refuses the connection immediately.)
fn forward_to(
    shared: &Arc<RouterShared>,
    upstreams: &mut [Option<Upstream>],
    replica: usize,
    raw: &[u8],
    tx: ReplyTx,
) {
    let mut tx = tx;
    for _attempt in 0..2 {
        if upstreams[replica]
            .as_ref()
            .map(|u| u.dead.load(Ordering::SeqCst))
            .unwrap_or(true)
        {
            upstreams[replica] = None;
            match Upstream::connect(shared, replica) {
                Ok(u) => upstreams[replica] = Some(u),
                Err(_) => continue,
            }
        }
        let up = upstreams[replica].as_mut().expect("just ensured");
        match up.forward(raw, tx) {
            ForwardOutcome::Sent => return,
            ForwardOutcome::EnqueuedButBroken => return, // reader answers tx
            ForwardOutcome::NotEnqueued(back) => {
                tx = back;
                upstreams[replica] = None;
            }
        }
    }
    tx.send(Response::Error {
        code: ErrorCode::Unavailable,
        message: "replica unreachable; request was not sent — safe to retry".into(),
    });
}

/// Fans `Health` out to every live replica and merges the reports,
/// sorted by tenant id. Replicas that fail to answer are skipped — their
/// tenants are mid-failover and will reappear once adopted.
fn merged_health(shared: &Arc<RouterShared>) -> Response {
    let mut tenants: Vec<TenantHealth> = Vec::new();
    for (i, addr) in shared.replica_addrs.iter().enumerate() {
        if !shared.alive[i].load(Ordering::SeqCst) {
            continue;
        }
        let report = (|| -> Result<Vec<TenantHealth>, crate::ClientError> {
            let mut c = ServeClient::connect(addr)?;
            c.set_timeout(Some(Duration::from_secs(2)))?;
            c.health()
        })();
        if let Ok(mut r) = report {
            tenants.append(&mut r);
        }
    }
    tenants.sort_by(|a, b| a.id.cmp(&b.id));
    tenants.dedup_by(|a, b| a.id == b.id);
    Response::Health { tenants }
}

// ---------------------------------------------------------------------------
// Router lifecycle
// ---------------------------------------------------------------------------

/// The router's event loop + handle. Owned by the supervisor's
/// [`Replicated`](crate::supervisor::Replicated) tier.
pub(crate) struct RouterHandle {
    pub(crate) shared: Arc<RouterShared>,
    addr: SocketAddr,
    completions: Arc<Completions>,
    loop_thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// Binds the client-facing listener and starts the event loop.
    pub(crate) fn start(shared: Arc<RouterShared>) -> Result<RouterHandle, ServeError> {
        let listener = TcpListener::bind(&shared.cfg.addr)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let completions =
            Completions::new().map_err(|e| ServeError::Io(e.to_string()))?;
        let loop_thread = {
            let mut tier = RouterTier::new(Arc::clone(&shared));
            let completions = Arc::clone(&completions);
            let deadlines = Deadlines::from(&shared.cfg.replica);
            std::thread::spawn(move || mux::serve(listener, &completions, deadlines, &mut tier))
        };
        Ok(RouterHandle {
            shared,
            addr,
            completions,
            loop_thread: Some(loop_thread),
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, flushes in-flight replies and joins the loop
    /// (which drops the shared upstreams, failing anything still
    /// pending with a typed error).
    pub(crate) fn stop(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.completions.wake();
        if let Some(l) = self.loop_thread.take() {
            let _ = l.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        // Reference vectors — these must never change, or restarted
        // routers would re-place every tenant.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"replica-0-vn0"), fnv1a(b"replica-0-vn0"));
        assert_ne!(fnv1a(b"replica-0-vn0"), fnv1a(b"replica-1-vn0"));
        // The finalized placement hash is pinned too — it is what the
        // ring actually sorts on.
        assert_eq!(place_hash(b""), 0xf52a_15e9_a9b5_e89b);
        assert_eq!(place_hash(b"a"), 0x02c0_bdbf_4814_20f8);
    }

    #[test]
    fn placement_is_stable_and_minimal() {
        let ring = Ring::new(3, 32);
        let tenants: Vec<String> = (0..50).map(|i| format!("tenant-{i}")).collect();
        let all = vec![true, true, true];
        let before: Vec<_> = tenants.iter().map(|t| ring.place(t, &all)).collect();
        // Deterministic: same ring, same answer.
        let again: Vec<_> = tenants.iter().map(|t| ring.place(t, &all)).collect();
        assert_eq!(before, again);
        // All three replicas get work (32 vnodes spread 50 tenants).
        for r in 0..3 {
            assert!(before.contains(&Some(r)), "replica {r} unused");
        }
        // Kill replica 1: its tenants move, everyone else stays put.
        let alive = vec![true, false, true];
        for (t, owner) in tenants.iter().zip(&before) {
            let now = ring.place(t, &alive);
            match owner {
                Some(1) => assert!(matches!(now, Some(0) | Some(2))),
                other => assert_eq!(&now, other, "tenant {t} moved needlessly"),
            }
        }
        // All dead: nowhere to place.
        assert_eq!(ring.place("tenant-0", &[false, false, false]), None);
    }

    /// `Drain` and `Adopt` are operator/supervisor operations: a client
    /// sending either gets a typed refusal and the tier-wide state is
    /// untouched — one misbehaving client must not shut the front door
    /// for every tenant.
    #[test]
    fn router_refuses_drain_and_adopt_from_clients() {
        let shared = Arc::new(RouterShared {
            cfg: RouterConfig::default(),
            tenant_ids: vec!["t0".into()],
            replica_addrs: Vec::new(),
            alive: Vec::new(),
            assignment: RwLock::new(vec![usize::MAX]),
            draining: AtomicBool::new(false),
        });
        let mut tier = RouterTier::new(Arc::clone(&shared));
        let completions = Completions::new().expect("completions");
        let mut send = |req: &crate::wire::Request| -> Response {
            let frame = req.to_bytes();
            tier.frame(
                frame[3],
                &frame[wire::HEADER_LEN..],
                &frame,
                ReplyTx::slot(&completions, 1, 0),
            )
            .expect("well-formed frame");
            let mut answered = completions.drain();
            assert_eq!(answered.len(), 1, "answered inline, exactly once");
            answered.remove(0).resp
        };
        use crate::wire::Request;
        for req in [Request::Drain, Request::Adopt { tenant: "t0".into() }] {
            match send(&req) {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
                other => panic!("privileged request was honored: {other:?}"),
            }
        }
        assert!(
            !shared.draining.load(Ordering::SeqCst),
            "a client Drain flipped the tier-wide draining flag"
        );
        // Harmless control requests still answer.
        assert_eq!(send(&Request::Ping), Response::Ok);
    }

    #[test]
    fn ring_skips_dead_replicas_consistently() {
        let ring = Ring::new(4, 16);
        let alive = vec![false, true, false, true];
        for i in 0..100 {
            let t = format!("t{i}");
            let placed = ring.place(&t, &alive).unwrap();
            assert!(placed == 1 || placed == 3);
        }
    }
}
