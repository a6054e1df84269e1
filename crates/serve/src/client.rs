//! Blocking client for the serving wire protocol.
//!
//! The server answers every connection **in request order**, so a client
//! may pipeline: stack several [`ServeClient::send_score`] calls (letting
//! the server coalesce them into one ensemble batch), then collect the
//! replies with [`ServeClient::recv_scored`]. The convenience methods
//! ([`ServeClient::score`], [`ServeClient::health`], ...) are strict
//! request/reply pairs and must not be interleaved with unread pipelined
//! replies.
//!
//! [`ResilientClient`] layers fault tolerance on top: per-request
//! sequence ids, bounded exponential backoff with seeded jitter, and
//! reconnect-and-replay of unacknowledged requests. Replay is safe
//! because the server deduplicates by sequence id and answers already-
//! applied requests from a bounded reply cache, so a request that raced a
//! connection loss is applied exactly once no matter how often it is
//! re-sent.

use std::collections::{HashMap, VecDeque};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use imdiff_nn::obs;

use crate::wire::{
    read_response, write_frame, ErrorCode, PromotionVerdict, Request, Response,
    TenantHealth, WireError, WireVerdict,
};

/// Client-side failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server closed the connection.
    Closed,
    /// The server refused or failed the request (typed).
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a response kind that does not match the
    /// request (protocol misuse, e.g. interleaved pipelining).
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(msg) => write!(f, "unexpected response: {msg}"),
        }
    }
}

impl ClientError {
    /// Whether retrying the same logical request can succeed.
    ///
    /// Transport losses (`Io`, `Idle`, `Truncated`, `CrcMismatch`,
    /// `Closed`) are retryable: the bytes went missing, not the request's
    /// validity. Typed server refusals delegate to
    /// [`ErrorCode::is_retryable`] — transient pressure retries, semantic
    /// rejections do not. Protocol disagreements (`BadMagic`,
    /// `UnsupportedVersion`, malformed frames) are deterministic and
    /// would fail identically forever.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Wire(e) => matches!(
                e,
                WireError::Io(_)
                    | WireError::Idle
                    | WireError::Truncated
                    | WireError::CrcMismatch { .. }
            ),
            ClientError::Closed => true,
            ClientError::Server { code, .. } => code.is_retryable(),
            ClientError::Unexpected(_) => false,
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Outcome of a reload request: the tenant's active model generation
/// after the attempt, plus the last promotion/rollback verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// Model generation currently serving the tenant.
    pub generation: u64,
    /// Latest promotion/rollback decision.
    pub verdict: PromotionVerdict,
    /// Human-readable explanation (gate scores, rollback cause, ...).
    pub detail: String,
    /// Detector family currently serving the tenant.
    pub family: String,
}

/// Verdicts for one score request, all produced by a single model
/// generation.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    /// Model generation that served the request.
    pub generation: u64,
    /// Per-point verdicts, in stream order (may be empty when the rows
    /// did not complete an evaluation hop).
    pub verdicts: Vec<WireVerdict>,
}

/// One connection to an `imdiff-serve` server.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<ServeClient, ClientError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ClientError::Wire(WireError::Io(e.to_string())))?;
        let _ = stream.set_nodelay(true);
        Ok(ServeClient { stream })
    }

    /// Caps how long a blocking read waits for a response.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Wire(WireError::Io(e.to_string())))
    }

    /// Sends one raw request frame without waiting for the reply.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.stream, req.kind(), &req.encode_payload())?;
        Ok(())
    }

    /// Reads the next response frame.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match read_response(&mut self.stream) {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err(ClientError::Closed),
            Err(e) => Err(ClientError::Wire(e)),
        }
    }

    /// Pipelined scoring: sends the request and returns immediately.
    /// Collect each reply later with [`ServeClient::recv_scored`], in
    /// send order.
    pub fn send_score(
        &mut self,
        tenant: &str,
        gap_before: u32,
        rows: Vec<Vec<f32>>,
    ) -> Result<(), ClientError> {
        self.send_score_seq(tenant, 0, u64::MAX, gap_before, rows)
    }

    /// Like [`ServeClient::send_score`] but stamps the request with a
    /// sequence id and a stream-position guard. Non-zero ids must be
    /// strictly increasing per tenant from a single writer; the server
    /// then deduplicates replays, which is what makes
    /// reconnect-and-resend safe. `seq == 0` opts out of deduplication;
    /// `start_row == u64::MAX` opts out of the position check.
    pub fn send_score_seq(
        &mut self,
        tenant: &str,
        seq: u64,
        start_row: u64,
        gap_before: u32,
        rows: Vec<Vec<f32>>,
    ) -> Result<(), ClientError> {
        self.send(&Request::Score {
            tenant: tenant.into(),
            seq,
            start_row,
            gap_before,
            rows,
        })
    }

    /// Reads one pipelined score reply.
    pub fn recv_scored(&mut self) -> Result<Scored, ClientError> {
        match self.recv()? {
            Response::Verdicts {
                generation,
                verdicts,
            } => Ok(Scored {
                generation,
                verdicts,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted verdicts, got kind {}",
                other.kind()
            ))),
        }
    }

    /// Scores one chunk of rows and waits for the verdicts.
    pub fn score(
        &mut self,
        tenant: &str,
        gap_before: u32,
        rows: Vec<Vec<f32>>,
    ) -> Result<Scored, ClientError> {
        self.send_score(tenant, gap_before, rows)?;
        self.recv_scored()
    }

    /// Fetches every tenant's health report (sorted by id).
    pub fn health(&mut self) -> Result<Vec<TenantHealth>, ClientError> {
        self.send(&Request::Health)?;
        match self.recv()? {
            Response::Health { tenants } => Ok(tenants),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted health report, got kind {}",
                other.kind()
            ))),
        }
    }

    /// Fetches the server's observability snapshot (imdiff-obs-v1 JSON).
    pub fn obs_snapshot(&mut self) -> Result<String, ClientError> {
        self.send(&Request::ObsSnapshot)?;
        match self.recv()? {
            Response::ObsJson { json } => Ok(json),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted obs snapshot, got kind {}",
                other.kind()
            ))),
        }
    }

    /// Forces a checkpoint reload check for `tenant` and reports the
    /// outcome: the tenant's **active** model generation (the server
    /// answers after any resulting swap has landed, so a `Promoted`
    /// outcome's generation is the one now serving) plus the latest
    /// promotion/rollback verdict and its human-readable detail.
    pub fn reload(&mut self, tenant: &str) -> Result<ReloadOutcome, ClientError> {
        self.send(&Request::Reload {
            tenant: tenant.into(),
        })?;
        match self.recv()? {
            Response::ReloadStatus {
                generation,
                verdict,
                detail,
                family,
            } => Ok(ReloadOutcome {
                generation,
                verdict,
                detail,
                family,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted reload status, got kind {}",
                other.kind()
            ))),
        }
    }

    /// Asks a replica to adopt (activate and load) a registered tenant,
    /// resuming from its IMSM sidecar when one exists. An internal
    /// supervisor→replica operation: routers refuse it from the outside.
    pub fn adopt(&mut self, tenant: &str) -> Result<(), ClientError> {
        self.send(&Request::Adopt {
            tenant: tenant.into(),
        })?;
        self.expect_ok()
    }

    /// Asks the tenant's server to write its IMSM sidecar now (on the
    /// owning shard, between batches), so a subsequent failover resumes
    /// from this exact stream position.
    pub fn snapshot(&mut self, tenant: &str) -> Result<(), ClientError> {
        self.send(&Request::Snapshot {
            tenant: tenant.into(),
        })?;
        self.expect_ok()
    }

    /// Asks the server to drain gracefully.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Drain)?;
        self.expect_ok()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        self.expect_ok()
    }

    fn expect_ok(&mut self) -> Result<(), ClientError> {
        match self.recv()? {
            Response::Ok => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted ack, got kind {}",
                other.kind()
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Bounded exponential backoff with seeded jitter.
///
/// The delay before retry `k` (1-based) is `min(cap, base * 2^(k-1))`
/// scaled by a jitter factor in `[0.5, 1.0)` drawn from a splitmix64
/// stream seeded by `seed` — deterministic per client, decorrelated
/// across clients, so a fleet retrying after one failure does not
/// stampede the server in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries (first attempt included). `1` disables retries.
    pub max_attempts: u32,
    /// Delay before the first retry, pre-jitter.
    pub base: Duration,
    /// Upper bound on any single pre-jitter delay.
    pub cap: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0x1d1f_f051_0e5e_11e0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never sleeps — for tests, so retry logic can be
    /// exercised without wall-clock delays.
    pub fn instant(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 0,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One retry episode: a counter over [`RetryPolicy`] that hands out the
/// next delay, or `None` once the attempt budget is spent. Deterministic
/// for a given policy (including seed), which is what the backoff unit
/// tests assert.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    failures: u32,
    rng: u64,
}

impl Backoff {
    /// Starts a fresh episode.
    pub fn new(policy: RetryPolicy) -> Backoff {
        Backoff {
            policy,
            failures: 0,
            rng: policy.seed,
        }
    }

    /// Records a failure. Returns how long to sleep before the next try,
    /// or `None` if the policy's attempt budget is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        self.failures += 1;
        if self.failures >= self.policy.max_attempts {
            return None;
        }
        let exp = self.failures.saturating_sub(1).min(32);
        let raw = self
            .policy
            .base
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.policy.cap);
        // Jitter in [0.5, 1.0): 53 random bits scaled into the range.
        let unit = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        Some(raw.mul_f64(0.5 + unit * 0.5))
    }

    /// Records a failure and sleeps out its delay. Returns `false`, without
    /// sleeping, once the attempt budget is spent.
    fn wait(&mut self) -> bool {
        let Some(d) = self.next_delay() else {
            return false;
        };
        if !d.is_zero() {
            std::thread::sleep(d);
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Resilient client
// ---------------------------------------------------------------------------

/// A self-healing connection: stamps every scoring request with a
/// per-tenant sequence id, keeps the not-yet-answered tail, and on any
/// transport loss reconnects (with [`Backoff`]) and replays that tail in
/// order. The server's sequence-id dedup turns the replay into
/// exactly-once application, so a request caught mid-failover surfaces as
/// either its real verdicts or a typed error — never a silent drop and
/// never a double apply.
///
/// Typed server refusals (`Overloaded`, `Timeout`, `Unavailable`, ...)
/// are acknowledgements: the request was **not** applied, the reply said
/// so, and it is removed from the replay tail. [`ResilientClient::score`]
/// retries the retryable ones with a fresh sequence id; pipelined callers
/// get the typed error and decide themselves. The one exception is
/// [`ErrorCode::Interrupted`] — "may or may not have been applied" — which
/// is treated like a transport loss: the request stays in the tail and is
/// replayed under its **original** sequence id, so the server's dedup
/// resolves the ambiguity instead of a fresh-seq resend ingesting the
/// rows twice.
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    timeout: Option<Duration>,
    conn: Option<ServeClient>,
    next_seq: HashMap<String, u64>,
    unacked: VecDeque<Request>,
    replayed: u64,
}

impl ResilientClient {
    /// Creates a client for `addr`. No I/O happens until the first
    /// request; a dead server at construction time is just the first
    /// retryable failure.
    pub fn connect(addr: impl Into<String>, policy: RetryPolicy) -> ResilientClient {
        ResilientClient {
            addr: addr.into(),
            policy,
            timeout: Some(Duration::from_secs(30)),
            conn: None,
            next_seq: HashMap::new(),
            unacked: VecDeque::new(),
            replayed: 0,
        }
    }

    /// Caps how long a blocking read waits before the wait itself counts
    /// as a transport loss (and triggers reconnect-and-replay).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
        if let Some(conn) = self.conn.as_mut() {
            let _ = conn.set_timeout(timeout);
        }
    }

    /// Requests replayed after reconnects over this client's lifetime.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Sequence ids not yet answered (the replay tail length).
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    fn ensure_conn(&mut self) -> Result<&mut ServeClient, ClientError> {
        if self.conn.is_none() {
            let mut conn = ServeClient::connect(&self.addr)?;
            conn.set_timeout(self.timeout)?;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Drops the dead connection, dials again and re-sends the whole
    /// unanswered tail in order.
    fn reconnect_and_replay(&mut self) -> Result<(), ClientError> {
        self.conn = None;
        let n = self.unacked.len();
        let tail: Vec<Request> = self.unacked.iter().cloned().collect();
        let conn = self.ensure_conn()?;
        for req in &tail {
            conn.send(req)?;
        }
        self.replayed += n as u64;
        obs::counter("serve.failover.replayed_requests", n as u64);
        Ok(())
    }

    /// Allocates the tenant's next sequence id (starting at 1).
    fn alloc_seq(&mut self, tenant: &str) -> u64 {
        let slot = self.next_seq.entry(tenant.to_string()).or_insert(0);
        *slot += 1;
        *slot
    }

    /// Pipelined scoring: stamps, records and sends the request, retrying
    /// the send across reconnects. Returns the assigned sequence id.
    /// Collect the reply later with [`ResilientClient::recv_scored`].
    pub fn send_score(
        &mut self,
        tenant: &str,
        gap_before: u32,
        rows: Vec<Vec<f32>>,
    ) -> Result<u64, ClientError> {
        self.send_score_at(tenant, u64::MAX, gap_before, rows)
    }

    /// Like [`ResilientClient::send_score`] but also stamps the chunk's
    /// stream position (`start_row`): the server refuses the request
    /// with a typed `Unavailable` if its stream is anywhere else, which
    /// is how a client discovers that a failover rolled the stream back
    /// to an older snapshot — instead of its rows being ingested at the
    /// wrong offset.
    pub fn send_score_at(
        &mut self,
        tenant: &str,
        start_row: u64,
        gap_before: u32,
        rows: Vec<Vec<f32>>,
    ) -> Result<u64, ClientError> {
        let seq = self.alloc_seq(tenant);
        let req = Request::Score {
            tenant: tenant.into(),
            seq,
            start_row,
            gap_before,
            rows,
        };
        self.unacked.push_back(req.clone());
        let mut backoff = Backoff::new(self.policy);
        loop {
            // On a live connection the older tail is already on the wire,
            // so only the new request needs sending. On a fresh one the
            // WHOLE tail must go out in order — sending just the new
            // request would leave the server answering it first while
            // recv_scored still matches replies FIFO against the older
            // requests, misattributing every verdict that follows.
            let sent = match self.conn.as_mut() {
                Some(conn) => conn.send(&req),
                None => self.reconnect_and_replay(),
            };
            match sent {
                Ok(()) => return Ok(seq),
                Err(e) if e.is_retryable() => {
                    self.conn = None;
                    if !backoff.wait() {
                        self.unacked.pop_back();
                        return Err(e);
                    }
                }
                Err(e) => {
                    self.unacked.pop_back();
                    return Err(e);
                }
            }
        }
    }

    /// Reads the oldest unanswered request's reply, transparently
    /// reconnecting and replaying the tail on transport loss or on a
    /// typed [`ErrorCode::Interrupted`] ("may or may not have been
    /// applied") — both are resolved by re-sending the **same** sequence
    /// ids, which the server deduplicates.
    ///
    /// Every return — verdicts or error — resolves exactly one request
    /// (the oldest), which leaves the replay tail. Surfacing a final
    /// error while *keeping* its request queued would skew the FIFO reply
    /// correlation by one for every later call, so once the retry budget
    /// is spent the oldest request is abandoned and the error is its
    /// outcome; the caller resyncs from the health report's `rows_seen`.
    /// Younger pipelined requests stay queued and replay as usual.
    pub fn recv_scored(&mut self) -> Result<Scored, ClientError> {
        if self.unacked.is_empty() {
            return Err(ClientError::Unexpected(
                "no request in flight".into(),
            ));
        }
        let mut backoff = Backoff::new(self.policy);
        loop {
            // A fresh connection carries none of the tail yet: replay it
            // first or the recv below would wait on requests the server
            // never saw.
            let got = if let Some(conn) = self.conn.as_mut() {
                conn.recv()
            } else {
                match self.reconnect_and_replay() {
                    Ok(()) => self.conn.as_mut().expect("just replayed").recv(),
                    Err(e) => Err(e),
                }
            };
            match got {
                Ok(Response::Error { code, message }) if code.may_be_applied() => {
                    // Not an acknowledgement: the routing tier lost track
                    // of the request mid-flight. Replay the tail under
                    // the same sequence ids; the replica's dedup turns an
                    // already-applied original into a cached reply
                    // instead of a second ingestion. The rest of the old
                    // connection's replies die with it — their requests
                    // are replayed too, keeping FIFO order intact.
                    self.conn = None;
                    if !backoff.wait() {
                        self.unacked.pop_front();
                        return Err(ClientError::Server { code, message });
                    }
                }
                Ok(resp) => {
                    self.unacked.pop_front();
                    return match resp {
                        Response::Verdicts {
                            generation,
                            verdicts,
                        } => Ok(Scored {
                            generation,
                            verdicts,
                        }),
                        Response::Error { code, message } => {
                            Err(ClientError::Server { code, message })
                        }
                        other => Err(ClientError::Unexpected(format!(
                            "wanted verdicts, got kind {}",
                            other.kind()
                        ))),
                    };
                }
                Err(e) if e.is_retryable() => {
                    self.conn = None;
                    if !backoff.wait() {
                        self.unacked.pop_front();
                        return Err(e);
                    }
                }
                Err(e) => {
                    self.unacked.pop_front();
                    return Err(e);
                }
            }
        }
    }

    /// Strict request/reply scoring. Transport losses and typed
    /// `Interrupted` errors replay the same sequence id (deduplicated
    /// server-side); retryable server *refusals* re-submit the rows under
    /// a fresh sequence id, which is safe exactly because a refusal
    /// proves the original was never applied. An `Interrupted` that
    /// outlives the whole retry budget is returned as-is — the rows may
    /// already be ingested, so re-submitting them blindly could double
    /// the stream; resync from the health report's `rows_seen` first.
    pub fn score(
        &mut self,
        tenant: &str,
        gap_before: u32,
        rows: Vec<Vec<f32>>,
    ) -> Result<Scored, ClientError> {
        self.score_at(tenant, u64::MAX, gap_before, rows)
    }

    /// Position-guarded [`ResilientClient::score`]: the server refuses
    /// the chunk with a typed `Unavailable` unless its stream is exactly
    /// at `start_row`. Transient refusals (failover in progress) are
    /// retried with fresh sequence ids up to the policy bound; a
    /// *persistent* mismatch — the stream really is somewhere else,
    /// usually rolled back by a failover — surfaces as the final typed
    /// error so the caller can resync from the health report's
    /// `rows_seen` and re-send the right rows.
    pub fn score_at(
        &mut self,
        tenant: &str,
        start_row: u64,
        gap_before: u32,
        rows: Vec<Vec<f32>>,
    ) -> Result<Scored, ClientError> {
        let mut backoff = Backoff::new(self.policy);
        loop {
            self.send_score_at(tenant, start_row, gap_before, rows.clone())?;
            match self.recv_scored() {
                Ok(s) => return Ok(s),
                // Fresh-seq resubmission is reserved for refusals whose
                // code guarantees the rows were NOT ingested. A
                // may-be-applied error must never take this branch: the
                // fresh id would bypass the server's dedup and a request
                // that actually landed would ingest its rows twice.
                Err(ClientError::Server { code, message })
                    if code.is_retryable() && !code.may_be_applied() =>
                {
                    if !backoff.wait() {
                        return Err(ClientError::Server { code, message });
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches the health report over a fresh strict exchange, retrying
    /// transport losses. Refused while pipelined replies are pending.
    pub fn health(&mut self) -> Result<Vec<TenantHealth>, ClientError> {
        if !self.unacked.is_empty() {
            return Err(ClientError::Unexpected(
                "health() with pipelined replies pending".into(),
            ));
        }
        let mut backoff = Backoff::new(self.policy);
        loop {
            let got = match self.ensure_conn() {
                Ok(conn) => conn.health(),
                Err(e) => Err(e),
            };
            match got {
                Ok(h) => return Ok(h),
                Err(e) if e.is_retryable() => {
                    self.conn = None;
                    if !backoff.wait() {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}
