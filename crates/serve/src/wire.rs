//! Length-prefixed binary wire protocol of the serving layer.
//!
//! Every message — request or response — travels in one *frame*:
//!
//! | bytes     | field                                                |
//! |-----------|------------------------------------------------------|
//! | `0..2`    | magic `b"IW"`                                        |
//! | `2`       | protocol version (currently [`WIRE_VERSION`])        |
//! | `3`       | message kind (see [`kind`])                          |
//! | `4..8`    | payload length, `u32` little-endian                  |
//! | `8..12`   | CRC32 of `version ‖ kind ‖ payload`, little-endian   |
//! | `12..`    | payload                                              |
//!
//! The CRC covers the version and kind bytes as well as the payload, so
//! *any* single corrupted byte outside the magic and length fields is
//! caught as [`WireError::CrcMismatch`]; corrupted magic surfaces as
//! [`WireError::BadMagic`] and corrupted lengths as truncation, trailing
//! bytes or a CRC mismatch. Decoding never panics on hostile input — the
//! `serve_protocol` property suite flips every byte to enforce this.
//!
//! Payload layouts are fixed little-endian structs (no self-describing
//! envelope), written and read with the workspace byte codec
//! (`imdiff_nn::serialize::{ByteWriter, ByteReader}`); see the
//! `encode_payload`/`decode` pairs on [`Request`] and [`Response`]. NaN
//! cells inside a score request declare missing values, exactly as in
//! [`imdiffusion::StreamingMonitor::push_batch`].

use std::fmt;
use std::io::{Read, Write};

use imdiff_nn::serialize::{crc32_finish, crc32_update, ByteReader, ByteWriter, CRC32_INIT};
use imdiff_nn::NnError;

/// Current protocol version byte. v2 added the idempotency sequence id on
/// score requests and the replication control kinds
/// ([`kind::ADOPT`]/[`kind::SNAPSHOT`]); v3 added the typed reload answer
/// ([`kind::RELOAD_STATUS`], carrying the active generation and the last
/// promotion/rollback verdict) and the drift fields of [`TenantHealth`];
/// v4 added the active detector-family name to [`TenantHealth`] and
/// [`Response::ReloadStatus`], so clients can observe which registry
/// family (z-score, IForest, ImDiffusion, ...) is serving a tenant.
/// Older peers are refused with [`WireError::UnsupportedVersion`] rather
/// than mis-parsed.
pub const WIRE_VERSION: u8 = 4;

/// Frame magic: "Imdiffusion Wire".
pub const MAGIC: [u8; 2] = *b"IW";

/// Hard cap on payload size (16 MiB): a corrupted or hostile length field
/// can never force a large allocation.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Frame header size in bytes (magic + version + kind + len + crc).
pub const HEADER_LEN: usize = 12;

/// Largest single allocation step while reading an unverified payload:
/// the buffer grows with the bytes the peer actually delivers instead of
/// trusting the length prefix up front.
pub const PAYLOAD_READ_CHUNK: usize = 64 << 10;

/// Message kind bytes. Requests are `< 128`, responses `>= 128`.
pub mod kind {
    /// Score a chunk of rows for one tenant.
    pub const SCORE: u8 = 1;
    /// Report every tenant's health and model generation.
    pub const HEALTH: u8 = 2;
    /// Export the server's observability snapshot (imdiff-obs-v1 JSON).
    pub const OBS_SNAPSHOT: u8 = 3;
    /// Force a checkpoint reload check for one tenant.
    pub const RELOAD: u8 = 4;
    /// Begin a graceful drain: finish queued work, stop accepting new.
    pub const DRAIN: u8 = 5;
    /// Liveness probe.
    pub const PING: u8 = 6;
    /// Activate one tenant on a replica, restoring its streaming state
    /// from the IMSM sidecar when one exists (failover adoption).
    pub const ADOPT: u8 = 7;
    /// Force an immediate IMSM sidecar write for one tenant.
    pub const SNAPSHOT: u8 = 8;

    /// Per-point verdicts for a score request.
    pub const VERDICTS: u8 = 128;
    /// Typed refusal or failure.
    pub const ERROR: u8 = 129;
    /// Health report for all tenants.
    pub const HEALTH_REPORT: u8 = 130;
    /// Observability snapshot JSON.
    pub const OBS_JSON: u8 = 131;
    /// Bare acknowledgement.
    pub const OK: u8 = 132;
    /// Typed answer to a `RELOAD` request: the tenant's active model
    /// generation plus the last promotion/rollback verdict.
    pub const RELOAD_STATUS: u8 = 133;
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong while framing or parsing a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Underlying transport failure.
    Io(String),
    /// The two magic bytes were wrong.
    BadMagic([u8; 2]),
    /// The version byte named a protocol we do not speak.
    UnsupportedVersion(u8),
    /// The length field exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The buffer or stream ended before the declared frame did.
    Truncated,
    /// Bytes remained after the declared frame (buffer decode only).
    TrailingBytes(usize),
    /// The payload checksum did not match the header.
    CrcMismatch {
        /// Checksum stored in the frame header.
        stored: u32,
        /// Checksum computed over the received bytes.
        actual: u32,
    },
    /// The kind byte is not a known message type.
    UnknownKind(u8),
    /// The frame was intact but its payload did not parse.
    Malformed(String),
    /// No frame arrived before the socket read timeout (only reported
    /// when *zero* bytes of the next frame had been read — a timeout
    /// mid-frame is an [`WireError::Io`] error).
    Idle,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "wire I/O error: {msg}"),
            WireError::BadMagic(m) => {
                write!(f, "bad frame magic {:#04x}{:#04x}", m[0], m[1])
            }
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v}")
            }
            WireError::TooLarge(n) => {
                write!(f, "declared payload of {n} bytes exceeds the {MAX_PAYLOAD} cap")
            }
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the frame")
            }
            WireError::CrcMismatch { stored, actual } => write!(
                f,
                "frame CRC mismatch: header {stored:#010x}, payload {actual:#010x}"
            ),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::Idle => write!(f, "no frame before read timeout"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------------

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score `rows` (rectangular, NaN = declared missing) for `tenant`,
    /// after `gap_before` rows lost by the transport.
    Score {
        /// Stream id the rows belong to.
        tenant: String,
        /// Per-tenant idempotency sequence id. `0` opts out of
        /// deduplication; non-zero ids must be assigned monotonically by
        /// a single writer per tenant. A replayed id is answered from the
        /// server's reply cache without re-ingesting the rows, making
        /// reconnect-and-replay after a transport loss safe.
        seq: u64,
        /// Stream-position guard: the global row index this chunk starts
        /// at, or [`u64::MAX`] to skip the check. When set, the server
        /// refuses the chunk with a typed `Unavailable` unless its
        /// monitor is at exactly this position — so a client whose
        /// stream state raced a failover (the replica restored from an
        /// older snapshot) gets an explicit "resync" signal instead of
        /// silently feeding rows into the wrong position.
        start_row: u64,
        /// Rows dropped immediately before this chunk.
        gap_before: u32,
        /// Observed rows in stream order; all rows share one length.
        rows: Vec<Vec<f32>>,
    },
    /// Ask for every tenant's health report.
    Health,
    /// Ask for the observability snapshot.
    ObsSnapshot,
    /// Force a checkpoint reload check for `tenant`.
    Reload {
        /// Stream id whose checkpoint should be re-examined.
        tenant: String,
    },
    /// Begin a graceful drain.
    Drain,
    /// Liveness probe.
    Ping,
    /// Activate `tenant` on this replica (failover adoption): restore its
    /// streaming state from the IMSM sidecar when present, fall back to a
    /// fresh (re-warming) load when the sidecar is absent or damaged.
    /// Internal supervisor→replica traffic — routers refuse it from
    /// external clients.
    Adopt {
        /// Stream id to activate.
        tenant: String,
    },
    /// Force an immediate IMSM sidecar write for `tenant`, giving callers
    /// a deterministic recovery point.
    Snapshot {
        /// Stream id to snapshot.
        tenant: String,
    },
}

/// Machine-readable refusal/failure category (the `code` byte of an
/// error response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission control rejected the request: queue full. Retry with
    /// backoff; the rows were **not** ingested.
    Overloaded = 1,
    /// The request exceeded its queueing deadline before a worker picked
    /// it up. The rows were **not** ingested.
    Timeout = 2,
    /// No tenant with the given id is registered.
    UnknownTenant = 3,
    /// The request itself was invalid (wrong channel count, non-finite
    /// values outside declared-missing, empty rows, ...).
    BadRequest = 4,
    /// The server is draining and accepts no new scoring work.
    Draining = 5,
    /// Unexpected server-side failure.
    Internal = 6,
    /// The request was **refused before ingestion** — the tenant is
    /// mid-failover, not placed on this replica, or its stream-position
    /// guard did not match. The rows were **not** applied, so retrying
    /// (even under a fresh sequence id) cannot double-ingest.
    Unavailable = 7,
    /// The request was **interrupted in flight** and its applied state is
    /// unknown (a connection to the replica died mid-exchange), or it was
    /// applied but its cached reply is gone. Retry with the **same**
    /// sequence id — the replica's dedup resolves the ambiguity; a fresh
    /// sequence id would bypass it and risk ingesting the rows twice.
    Interrupted = 8,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::Timeout,
            3 => ErrorCode::UnknownTenant,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Draining,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Unavailable,
            8 => ErrorCode::Interrupted,
            _ => return None,
        })
    }

    /// Whether retrying the same request (same sequence id) can succeed.
    /// Mirrors [`imdiff_data::DetectorError::is_retryable`]: transient
    /// refusals ([`ErrorCode::Overloaded`], [`ErrorCode::Timeout`]),
    /// replica loss ([`ErrorCode::Unavailable`], which clears once
    /// failover re-places the tenant) and in-flight interruptions
    /// ([`ErrorCode::Interrupted`]) are retryable; caller bugs, unknown
    /// tenants, drains and internal failures are not.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded
                | ErrorCode::Timeout
                | ErrorCode::Unavailable
                | ErrorCode::Interrupted
        )
    }

    /// Whether the request **may already have been applied** despite the
    /// error. `true` only for [`ErrorCode::Interrupted`]: the reply was
    /// lost, not the refusal decided. Such a request must be replayed
    /// under its **original** sequence id (so the replica's dedup can
    /// answer it idempotently) — never re-submitted under a fresh one,
    /// which would ingest the rows a second time. Every other code is a
    /// refusal issued *before* ingestion, safe to retry fresh.
    pub fn may_be_applied(self) -> bool {
        matches!(self, ErrorCode::Interrupted)
    }
}

/// One scored observation as it travels over the wire (mirrors
/// [`imdiffusion::PointVerdict`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireVerdict {
    /// Global stream index of the observation.
    pub index: u64,
    /// Continuous anomaly score.
    pub score: f64,
    /// Ensemble votes received (0 when degraded).
    pub votes: u32,
    /// Voted anomaly label.
    pub anomalous: bool,
    /// Served by the z-score fallback rather than full inference.
    pub degraded: bool,
}

/// Health state byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireHealthState {
    /// Full ensemble inference.
    Healthy = 0,
    /// Fallback verdicts.
    Degraded = 1,
    /// Buffer (re)filling.
    Warming = 2,
}

impl WireHealthState {
    fn from_u8(b: u8) -> Option<WireHealthState> {
        Some(match b {
            0 => WireHealthState::Healthy,
            1 => WireHealthState::Degraded,
            2 => WireHealthState::Warming,
            _ => return None,
        })
    }
}

/// Outcome of a tenant's most recent promotion attempt, as carried by
/// [`Response::ReloadStatus`]. The server records one per tenant and
/// overwrites it on every reload attempt or automatic rollback, so a
/// `Reload` round-trip always reports the *latest* decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PromotionVerdict {
    /// No reload has been attempted since startup.
    NoAttempt = 0,
    /// The candidate passed validation and is now serving.
    Promoted = 1,
    /// The candidate loaded but lost to the incumbent on the held-out
    /// validation slice; the incumbent keeps serving.
    RejectedGate = 2,
    /// The candidate checkpoint failed to load or to swap (CRC mismatch,
    /// truncation, geometry drift); the incumbent keeps serving.
    RejectedCorrupt = 3,
    /// A promoted candidate regressed in production and the archived
    /// incumbent was automatically restored.
    RolledBack = 4,
}

impl PromotionVerdict {
    fn from_u8(b: u8) -> Option<PromotionVerdict> {
        Some(match b {
            0 => PromotionVerdict::NoAttempt,
            1 => PromotionVerdict::Promoted,
            2 => PromotionVerdict::RejectedGate,
            3 => PromotionVerdict::RejectedCorrupt,
            4 => PromotionVerdict::RolledBack,
            _ => return None,
        })
    }
}

/// Per-tenant entry of a health report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantHealth {
    /// Stream id.
    pub id: String,
    /// Current health state.
    pub state: WireHealthState,
    /// Model generation (bumps on every successful hot reload).
    pub generation: u64,
    /// Observations consumed.
    pub rows_seen: u64,
    /// Rows rejected at ingestion.
    pub rows_rejected: u64,
    /// Evaluations served by the fallback.
    pub degraded_evals: u64,
    /// Long gaps that forced a re-warm.
    pub rewarms: u64,
    /// Degraded → Healthy transitions.
    pub recoveries: u64,
    /// Score requests currently queued for this tenant.
    pub queue_depth: u32,
    /// Whether the drift detector is currently latched (the live input
    /// distribution has left the training-time envelope).
    pub drifted: bool,
    /// Debounced drift trips over the monitor's lifetime.
    pub drift_trips: u64,
    /// Name of the detector family currently serving the tenant
    /// (`"ZScore"`, `"IForest"`, `"ImDiffusion"`, ...). Changes when the
    /// escalation router moves the tenant to a different rung.
    pub family: String,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Verdicts earned by a score request. `generation` is the model
    /// generation that produced **all** of them — one batch never mixes
    /// generations.
    Verdicts {
        /// Model generation at evaluation time.
        generation: u64,
        /// Per-point verdicts, in stream order.
        verdicts: Vec<WireVerdict>,
    },
    /// Typed refusal or failure.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Health report for all tenants, sorted by id.
    Health {
        /// One entry per registered tenant.
        tenants: Vec<TenantHealth>,
    },
    /// Observability snapshot (imdiff-obs-v1 JSON document).
    ObsJson {
        /// The snapshot text.
        json: String,
    },
    /// Bare acknowledgement.
    Ok,
    /// Typed answer to a `Reload` request: the tenant's **active** model
    /// generation (after any swap the reload caused — the server answers
    /// once the swap has landed, not when it was queued) and the last
    /// promotion/rollback verdict with its human-readable detail.
    ReloadStatus {
        /// Model generation currently serving the tenant.
        generation: u64,
        /// Latest promotion/rollback decision.
        verdict: PromotionVerdict,
        /// Human-readable explanation (gate scores, rollback cause, ...).
        detail: String,
        /// Name of the detector family currently serving the tenant.
        family: String,
    },
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    // Streamed over header bytes then payload: no concatenation copy.
    let state = crc32_update(CRC32_INIT, &[WIRE_VERSION, kind]);
    crc32_finish(crc32_update(state, payload))
}

/// Assembles a complete frame for `kind` around `payload`.
pub fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    append_frame(&mut out, kind, payload);
    out
}

/// Appends a complete frame for `kind` to `out` — [`frame_bytes`]
/// without the intermediate allocation, for write-buffered event loops.
pub fn append_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    assert!(payload.len() as u64 <= MAX_PAYLOAD as u64, "payload over cap");
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(kind, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Incrementally scans for one frame at the head of `buf`, which may
/// hold a partial frame or several frames back to back (a connection's
/// read buffer). Returns `Ok(None)` when the buffer ends mid-frame —
/// read more and rescan — and `Ok(Some((kind, total)))` once a whole
/// CRC-checked frame is present, where `total` is the frame length
/// including the header: the payload is `&buf[HEADER_LEN..total]`,
/// borrowed straight from the read buffer with no per-frame allocation.
/// Header fields are validated as soon as the 12 header bytes exist, so
/// a hostile magic/version/length prefix is rejected before any payload
/// accumulates.
pub fn scan_frame(buf: &[u8]) -> Result<Option<(u8, usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let header = FrameHeader::parse(buf)?;
    let total = HEADER_LEN + header.len;
    if buf.len() < total {
        return Ok(None);
    }
    header.check_crc(&buf[HEADER_LEN..total])?;
    Ok(Some((header.kind, total)))
}

/// The fixed 12-byte frame header, validated up to its CRC.
struct FrameHeader {
    kind: u8,
    /// Declared payload length, already checked against the cap.
    len: usize,
    stored_crc: u32,
}

impl FrameHeader {
    /// Validates magic, version and the length cap of the header at the
    /// front of `buf` (which must hold at least [`HEADER_LEN`] bytes).
    fn parse(buf: &[u8]) -> Result<FrameHeader, WireError> {
        if buf[0..2] != MAGIC {
            return Err(WireError::BadMagic([buf[0], buf[1]]));
        }
        if buf[2] != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(buf[2]));
        }
        let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(WireError::TooLarge(len));
        }
        Ok(FrameHeader {
            kind: buf[3],
            len: len as usize,
            stored_crc: u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")),
        })
    }

    /// Checks the stored CRC against the frame's `payload`.
    fn check_crc(&self, payload: &[u8]) -> Result<(), WireError> {
        let actual = frame_crc(self.kind, payload);
        if self.stored_crc != actual {
            return Err(WireError::CrcMismatch {
                stored: self.stored_crc,
                actual,
            });
        }
        Ok(())
    }
}

/// Routing peek: the tenant id of a tenant-addressed request, borrowed
/// straight from the payload — no row materialization, no allocation.
/// `Ok(None)` for request kinds that carry no tenant; `Err` for unknown
/// kinds and malformed payloads.
///
/// This is also a **complete structural validation** of the payload (it
/// checks everything [`Request::decode`] would reject: string bounds,
/// field sizes, the score row grid — `f32` decoding itself is
/// infallible), so a frame that passes `peek_tenant` can be forwarded
/// verbatim to a replica with no risk of a decode error there. The
/// router depends on this: a shared upstream connection must never be
/// poisoned by one client's malformed frame.
pub fn peek_tenant(kind_byte: u8, payload: &[u8]) -> Result<Option<&str>, WireError> {
    let mut r = ByteReader::new(payload);
    let tenant = match kind_byte {
        kind::SCORE => {
            let tenant = short_str(&mut r)?;
            r.take(8 + 8 + 4)?; // seq:u64 ‖ start_row:u64 ‖ gap:u32
            score_grid(&mut r)?;
            return Ok(Some(tenant));
        }
        kind::RELOAD | kind::ADOPT | kind::SNAPSHOT => Some(short_str(&mut r)?),
        kind::HEALTH | kind::OBS_SNAPSHOT | kind::DRAIN | kind::PING => None,
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(tenant)
}

/// Parses one frame from `buf`, requiring the buffer to contain exactly
/// one frame. Returns the kind byte and the payload slice.
pub fn parse_frame(buf: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let header = FrameHeader::parse(buf)?;
    let end = HEADER_LEN + header.len;
    if buf.len() < end {
        return Err(WireError::Truncated);
    }
    if buf.len() > end {
        return Err(WireError::TrailingBytes(buf.len() - end));
    }
    let payload = &buf[HEADER_LEN..end];
    header.check_crc(payload)?;
    Ok((header.kind, payload))
}

/// Reads one frame from `r`. `Ok(None)` means the peer closed the
/// connection cleanly (EOF before any byte of a frame);
/// [`WireError::Idle`] means a read timeout fired before any byte
/// arrived — the connection is still healthy.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(WireError::Idle)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let header = FrameHeader::parse(&header)?;
    // The length prefix is untrusted until the CRC passes: grow the
    // payload buffer only as bytes actually arrive, in bounded chunks,
    // so a garbage header claiming the 16 MiB cap cannot force a
    // cap-sized allocation from a peer that never delivers the bytes.
    let len = header.len;
    let mut payload: Vec<u8> = Vec::new();
    let mut filled = 0usize;
    while filled < len {
        let want = (len - filled).min(PAYLOAD_READ_CHUNK);
        payload.resize(filled + want, 0);
        match r.read(&mut payload[filled..filled + want]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    payload.truncate(len);
    header.check_crc(&payload)?;
    Ok(Some((header.kind, payload)))
}

/// Writes a complete frame to `w`.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), WireError> {
    w.write_all(&frame_bytes(kind, payload))
        .and_then(|()| w.flush())
        .map_err(|e| WireError::Io(e.to_string()))
}

// ---------------------------------------------------------------------------
// Payload helpers over the shared byte codec
// ---------------------------------------------------------------------------

/// Payload decoding runs on the workspace byte codec; every codec error
/// (running off the end, trailing bytes) is a malformed payload.
impl From<NnError> for WireError {
    fn from(e: NnError) -> Self {
        match e {
            NnError::Corrupt(msg) | NnError::InvalidArgument(msg) | NnError::Io(msg) => {
                WireError::Malformed(msg)
            }
            other => WireError::Malformed(other.to_string()),
        }
    }
}

/// A `u16` length-prefixed UTF-8 string (tenant ids), borrowed.
fn short_str<'a>(r: &mut ByteReader<'a>) -> Result<&'a str, WireError> {
    let n = r.u16()? as usize;
    utf8(r.take(n)?)
}

/// A `u32` length-prefixed UTF-8 string (messages, JSON).
fn long_str(r: &mut ByteReader) -> Result<String, WireError> {
    let n = r.u32()? as usize;
    utf8(r.take(n)?).map(str::to_owned)
}

fn utf8(bytes: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("string is not UTF-8".into()))
}

/// The score request's `n:u32 ‖ c:u32` row grid, which must account for
/// exactly the remaining payload bytes (`n · c` `f32` cells). Rows need
/// at least one channel, so a short payload cannot claim unbounded rows.
fn score_grid(r: &mut ByteReader) -> Result<(usize, usize), WireError> {
    let n_rows = r.u32()? as usize;
    let channels = r.u32()? as usize;
    let exact = n_rows
        .checked_mul(channels)
        .and_then(|cells| cells.checked_mul(4))
        .is_some_and(|bytes| bytes == r.remaining());
    if !exact || (n_rows > 0 && channels == 0) {
        return Err(WireError::Malformed(
            "row grid does not match payload size".into(),
        ));
    }
    Ok((n_rows, channels))
}

fn put_short_str(w: &mut ByteWriter, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "string too long for u16 prefix");
    w.u16(s.len() as u16);
    w.bytes(s.as_bytes());
}

fn put_long_str(w: &mut ByteWriter, s: &str) {
    w.u32(s.len() as u32);
    w.bytes(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

impl Request {
    /// The kind byte of this request.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Score { .. } => kind::SCORE,
            Request::Health => kind::HEALTH,
            Request::ObsSnapshot => kind::OBS_SNAPSHOT,
            Request::Reload { .. } => kind::RELOAD,
            Request::Drain => kind::DRAIN,
            Request::Ping => kind::PING,
            Request::Adopt { .. } => kind::ADOPT,
            Request::Snapshot { .. } => kind::SNAPSHOT,
        }
    }

    /// Encodes the payload (without the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::Score {
                tenant,
                seq,
                start_row,
                gap_before,
                rows,
            } => {
                put_short_str(&mut w, tenant);
                w.u64(*seq);
                w.u64(*start_row);
                w.u32(*gap_before);
                let channels = rows.first().map_or(0, Vec::len);
                assert!(
                    rows.iter().all(|r| r.len() == channels),
                    "score rows must be rectangular"
                );
                w.u32(rows.len() as u32);
                w.u32(channels as u32);
                for &v in rows.iter().flatten() {
                    w.f32(v);
                }
            }
            Request::Reload { tenant }
            | Request::Adopt { tenant }
            | Request::Snapshot { tenant } => put_short_str(&mut w, tenant),
            Request::Health | Request::ObsSnapshot | Request::Drain | Request::Ping => {}
        }
        w.finish()
    }

    /// Serializes the request as one complete frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame_bytes(self.kind(), &self.encode_payload())
    }

    /// Parses a request from an exact frame buffer.
    pub fn from_bytes(buf: &[u8]) -> Result<Request, WireError> {
        let (kind, payload) = parse_frame(buf)?;
        Request::decode(kind, payload)
    }

    /// Decodes a request payload for `kind`.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut c = ByteReader::new(payload);
        let req = match kind_byte {
            kind::SCORE => {
                let tenant = short_str(&mut c)?.to_owned();
                let seq = c.u64()?;
                let start_row = c.u64()?;
                let gap_before = c.u32()?;
                let (n_rows, channels) = score_grid(&mut c)?;
                let rows = (0..n_rows)
                    .map(|_| c.f32_array(channels))
                    .collect::<Result<Vec<_>, _>>()?;
                Request::Score {
                    tenant,
                    seq,
                    start_row,
                    gap_before,
                    rows,
                }
            }
            kind::HEALTH => Request::Health,
            kind::OBS_SNAPSHOT => Request::ObsSnapshot,
            kind::RELOAD => Request::Reload {
                tenant: short_str(&mut c)?.to_owned(),
            },
            kind::DRAIN => Request::Drain,
            kind::PING => Request::Ping,
            kind::ADOPT => Request::Adopt {
                tenant: short_str(&mut c)?.to_owned(),
            },
            kind::SNAPSHOT => Request::Snapshot {
                tenant: short_str(&mut c)?.to_owned(),
            },
            other => return Err(WireError::UnknownKind(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

impl Response {
    /// The kind byte of this response.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Verdicts { .. } => kind::VERDICTS,
            Response::Error { .. } => kind::ERROR,
            Response::Health { .. } => kind::HEALTH_REPORT,
            Response::ObsJson { .. } => kind::OBS_JSON,
            Response::Ok => kind::OK,
            Response::ReloadStatus { .. } => kind::RELOAD_STATUS,
        }
    }

    /// Encodes the payload (without the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Verdicts {
                generation,
                verdicts,
            } => {
                w.u64(*generation);
                w.u32(verdicts.len() as u32);
                for v in verdicts {
                    w.u64(v.index);
                    w.f64(v.score);
                    w.u32(v.votes);
                    w.u8(u8::from(v.anomalous) | (u8::from(v.degraded) << 1));
                }
            }
            Response::Error { code, message } => {
                w.u8(*code as u8);
                put_long_str(&mut w, message);
            }
            Response::Health { tenants } => {
                w.u32(tenants.len() as u32);
                for t in tenants {
                    put_short_str(&mut w, &t.id);
                    w.u8(t.state as u8);
                    for counter in [
                        t.generation,
                        t.rows_seen,
                        t.rows_rejected,
                        t.degraded_evals,
                        t.rewarms,
                        t.recoveries,
                    ] {
                        w.u64(counter);
                    }
                    w.u32(t.queue_depth);
                    w.u8(u8::from(t.drifted));
                    w.u64(t.drift_trips);
                    put_short_str(&mut w, &t.family);
                }
            }
            Response::ObsJson { json } => put_long_str(&mut w, json),
            Response::Ok => {}
            Response::ReloadStatus {
                generation,
                verdict,
                detail,
                family,
            } => {
                w.u64(*generation);
                w.u8(*verdict as u8);
                put_long_str(&mut w, detail);
                put_short_str(&mut w, family);
            }
        }
        w.finish()
    }

    /// Serializes the response as one complete frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame_bytes(self.kind(), &self.encode_payload())
    }

    /// Parses a response from an exact frame buffer.
    pub fn from_bytes(buf: &[u8]) -> Result<Response, WireError> {
        let (kind, payload) = parse_frame(buf)?;
        Response::decode(kind, payload)
    }

    /// Decodes a response payload for `kind`.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut c = ByteReader::new(payload);
        let resp = match kind_byte {
            kind::VERDICTS => {
                let generation = c.u64()?;
                let n = c.u32()? as usize;
                // 8 + 8 + 4 + 1 bytes per verdict: reject absurd counts
                // before allocating.
                if n.checked_mul(21) != Some(payload.len().saturating_sub(12)) {
                    return Err(WireError::Malformed(
                        "verdict count does not match payload size".into(),
                    ));
                }
                let mut verdicts = Vec::with_capacity(n);
                for _ in 0..n {
                    let index = c.u64()?;
                    let score = c.f64()?;
                    let votes = c.u32()?;
                    let flags = c.u8()?;
                    if flags & !0b11 != 0 {
                        return Err(WireError::Malformed(format!(
                            "unknown verdict flags {flags:#04x}"
                        )));
                    }
                    verdicts.push(WireVerdict {
                        index,
                        score,
                        votes,
                        anomalous: flags & 0b01 != 0,
                        degraded: flags & 0b10 != 0,
                    });
                }
                Response::Verdicts {
                    generation,
                    verdicts,
                }
            }
            kind::ERROR => {
                let code_byte = c.u8()?;
                let code = ErrorCode::from_u8(code_byte).ok_or_else(|| {
                    WireError::Malformed(format!("unknown error code {code_byte}"))
                })?;
                Response::Error {
                    code,
                    message: long_str(&mut c)?,
                }
            }
            kind::HEALTH_REPORT => {
                let n = c.u32()? as usize;
                // Each entry is at least 64 bytes (empty id).
                if n.checked_mul(64).is_none_or(|min| min > payload.len()) {
                    return Err(WireError::Malformed(
                        "tenant count does not fit payload".into(),
                    ));
                }
                let mut tenants = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = short_str(&mut c)?.to_owned();
                    let state_byte = c.u8()?;
                    let state = WireHealthState::from_u8(state_byte).ok_or_else(|| {
                        WireError::Malformed(format!("unknown health state {state_byte}"))
                    })?;
                    let generation = c.u64()?;
                    let rows_seen = c.u64()?;
                    let rows_rejected = c.u64()?;
                    let degraded_evals = c.u64()?;
                    let rewarms = c.u64()?;
                    let recoveries = c.u64()?;
                    let queue_depth = c.u32()?;
                    let drifted_byte = c.u8()?;
                    if drifted_byte > 1 {
                        return Err(WireError::Malformed(format!(
                            "bad drifted flag {drifted_byte}"
                        )));
                    }
                    tenants.push(TenantHealth {
                        id,
                        state,
                        generation,
                        rows_seen,
                        rows_rejected,
                        degraded_evals,
                        rewarms,
                        recoveries,
                        queue_depth,
                        drifted: drifted_byte == 1,
                        drift_trips: c.u64()?,
                        family: short_str(&mut c)?.to_owned(),
                    });
                }
                Response::Health { tenants }
            }
            kind::OBS_JSON => Response::ObsJson {
                json: long_str(&mut c)?,
            },
            kind::OK => Response::Ok,
            kind::RELOAD_STATUS => {
                let generation = c.u64()?;
                let verdict_byte = c.u8()?;
                let verdict = PromotionVerdict::from_u8(verdict_byte).ok_or_else(|| {
                    WireError::Malformed(format!(
                        "unknown promotion verdict {verdict_byte}"
                    ))
                })?;
                Response::ReloadStatus {
                    generation,
                    verdict,
                    detail: long_str(&mut c)?,
                    family: short_str(&mut c)?.to_owned(),
                }
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Reads one request frame from `r` (server side).
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Request>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((kind, payload)) => Request::decode(kind, &payload).map(Some),
    }
}

/// Reads one response frame from `r` (client side).
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Response>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((kind, payload)) => Response::decode(kind, &payload).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `scan_frame` finds whole frames at every split point: for any
    /// prefix short of the full frame it reports "incomplete" (never an
    /// error, never a frame), and at the exact boundary it yields the
    /// same kind/payload as the strict parser.
    #[test]
    fn scan_frame_handles_every_split_point() {
        for req in sample_requests() {
            let bytes = req.to_bytes();
            for cut in 0..bytes.len() {
                assert_eq!(
                    scan_frame(&bytes[..cut]).expect("prefix never errors"),
                    None,
                    "cut={cut}"
                );
            }
            let (kind, total) = scan_frame(&bytes).expect("scan").expect("complete");
            assert_eq!(total, bytes.len());
            let (pkind, payload) = parse_frame(&bytes).expect("parse");
            assert_eq!(kind, pkind);
            assert_eq!(&bytes[HEADER_LEN..total], payload);
        }
    }

    /// `scan_frame` tolerates trailing bytes (the next pipelined frame)
    /// and reports the first frame's exact extent so the caller can
    /// consume and rescan.
    #[test]
    fn scan_frame_tolerates_pipelined_frames() {
        let a = Request::Ping.to_bytes();
        let b = Request::Health.to_bytes();
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let (kind, total) = scan_frame(&buf).expect("scan").expect("first frame");
        assert_eq!(kind, kind::PING);
        assert_eq!(total, a.len());
        let (kind2, total2) = scan_frame(&buf[total..]).expect("scan").expect("second");
        assert_eq!(kind2, kind::HEALTH);
        assert_eq!(total2, b.len());
    }

    /// Hostile headers are rejected as soon as the 12 header bytes are
    /// present — bad magic, unknown version, oversized length — without
    /// waiting for (or allocating) the claimed payload.
    #[test]
    fn scan_frame_rejects_hostile_headers_early() {
        let mut bad_magic = Request::Ping.to_bytes();
        bad_magic[0] = b'X';
        assert!(matches!(
            scan_frame(&bad_magic[..HEADER_LEN]),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = Request::Ping.to_bytes();
        bad_version[2] = 99;
        assert!(matches!(
            scan_frame(&bad_version[..HEADER_LEN]),
            Err(WireError::UnsupportedVersion(99))
        ));

        let mut huge = Vec::new();
        huge.extend_from_slice(&MAGIC);
        huge.push(WIRE_VERSION);
        huge.push(kind::SCORE);
        huge.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(scan_frame(&huge), Err(WireError::TooLarge(_))));

        // Ping has no payload; flip a CRC byte.
        let mut flipped = Request::Ping.to_bytes();
        flipped[HEADER_LEN - 1] ^= 0x40;
        assert!(matches!(
            scan_frame(&flipped),
            Err(WireError::CrcMismatch { .. })
        ));
    }

    /// `peek_tenant` must agree with the full decoder in both
    /// directions: same tenant on every well-formed request, and a
    /// rejection wherever `Request::decode` would reject — a frame the
    /// router forwards on the strength of a successful peek must never
    /// fail decode at the replica.
    #[test]
    fn peek_tenant_matches_full_decode() {
        for req in sample_requests() {
            let payload = req.encode_payload();
            let expected = match &req {
                Request::Score { tenant, .. }
                | Request::Reload { tenant }
                | Request::Adopt { tenant }
                | Request::Snapshot { tenant } => Some(tenant.as_str()),
                _ => None,
            };
            assert_eq!(
                peek_tenant(req.kind(), &payload).expect("well-formed"),
                expected
            );
        }
        // Truncations and trailing garbage reject exactly like decode.
        for req in sample_requests() {
            let payload = req.encode_payload();
            for cut in 0..payload.len() {
                let truncated = &payload[..cut];
                assert_eq!(
                    peek_tenant(req.kind(), truncated).is_err(),
                    Request::decode(req.kind(), truncated).is_err(),
                    "kind {} cut at {cut}",
                    req.kind()
                );
            }
            let mut padded = payload.clone();
            padded.push(0);
            assert!(peek_tenant(req.kind(), &padded).is_err());
            assert!(Request::decode(req.kind(), &padded).is_err());
        }
        assert!(matches!(
            peek_tenant(kind::VERDICTS, &[]),
            Err(WireError::UnknownKind(_))
        ));
    }

    /// A score payload claiming `u32::MAX` rows of zero channels carries
    /// no cell bytes, so the size check alone cannot bound it; both the
    /// routing peek and the decoder refuse it instead of materializing
    /// billions of empty rows.
    #[test]
    fn zero_channel_rows_are_malformed() {
        let mut w = ByteWriter::new();
        put_short_str(&mut w, "t");
        w.u64(1);
        w.u64(0);
        w.u32(0);
        w.u32(u32::MAX);
        w.u32(0);
        let payload = w.finish();
        assert!(matches!(
            peek_tenant(kind::SCORE, &payload),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            Request::decode(kind::SCORE, &payload),
            Err(WireError::Malformed(_))
        ));
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Score {
                tenant: "smd-1".into(),
                seq: 42,
                start_row: 1024,
                gap_before: 3,
                rows: vec![vec![1.0, f32::NAN, -2.5], vec![0.0, 4.25, 1e-3]],
            },
            Request::Score {
                tenant: "".into(),
                seq: 0,
                start_row: u64::MAX,
                gap_before: 0,
                rows: vec![],
            },
            Request::Health,
            Request::ObsSnapshot,
            Request::Reload { tenant: "gcp-θ".into() },
            Request::Drain,
            Request::Ping,
            Request::Adopt {
                tenant: "smd-1".into(),
            },
            Request::Snapshot {
                tenant: "gcp-θ".into(),
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Verdicts {
                generation: 7,
                verdicts: vec![
                    WireVerdict {
                        index: 41,
                        score: 0.75,
                        votes: 3,
                        anomalous: true,
                        degraded: false,
                    },
                    WireVerdict {
                        index: 42,
                        score: f64::INFINITY,
                        votes: 0,
                        anomalous: false,
                        degraded: true,
                    },
                ],
            },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "request queue full (64/64); retry with backoff".into(),
            },
            Response::Error {
                code: ErrorCode::Unavailable,
                message: "replica lost; failover in progress".into(),
            },
            Response::Error {
                code: ErrorCode::Interrupted,
                message: "replica connection lost; retry with the same seq".into(),
            },
            Response::Health {
                tenants: vec![TenantHealth {
                    id: "smd-1".into(),
                    state: WireHealthState::Healthy,
                    generation: 2,
                    rows_seen: 1000,
                    rows_rejected: 1,
                    degraded_evals: 3,
                    rewarms: 0,
                    recoveries: 3,
                    queue_depth: 5,
                    drifted: true,
                    drift_trips: 2,
                    family: "ImDiffusion".into(),
                }],
            },
            Response::ObsJson {
                json: "{\"schema\": \"imdiff-obs-v1\"}".into(),
            },
            Response::Ok,
            Response::ReloadStatus {
                generation: 3,
                verdict: PromotionVerdict::Promoted,
                detail: "candidate F1 0.91 vs incumbent 0.74 on 6 holdout windows".into(),
                family: "ImDiffusion".into(),
            },
            Response::ReloadStatus {
                generation: 2,
                verdict: PromotionVerdict::RolledBack,
                detail: "post-promotion anomaly rate 0.63 vs baseline 0.02".into(),
                family: "IForest".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = req.to_bytes();
            let back = Request::from_bytes(&bytes).expect("decode");
            // NaN cells break PartialEq; compare via bit patterns.
            match (&req, &back) {
                (
                    Request::Score { rows: a, .. },
                    Request::Score {
                        tenant,
                        seq,
                        start_row,
                        gap_before,
                        rows: b,
                    },
                ) => {
                    if let Request::Score {
                        tenant: ta,
                        seq: sa,
                        start_row: ra,
                        gap_before: ga,
                        ..
                    } = &req
                    {
                        assert_eq!(ta, tenant);
                        assert_eq!(sa, seq);
                        assert_eq!(ra, start_row);
                        assert_eq!(ga, gap_before);
                    }
                    assert_eq!(a.len(), b.len());
                    for (ra, rb) in a.iter().zip(b) {
                        let ba: Vec<u32> = ra.iter().map(|v| v.to_bits()).collect();
                        let bb: Vec<u32> = rb.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(ba, bb);
                    }
                }
                _ => assert_eq!(req, back),
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = resp.to_bytes();
            assert_eq!(Response::from_bytes(&bytes).expect("decode"), resp);
        }
    }

    #[test]
    fn stream_read_matches_buffer_decode() {
        let mut wire = Vec::new();
        for req in sample_requests() {
            wire.extend_from_slice(&req.to_bytes());
        }
        let mut cursor = std::io::Cursor::new(wire);
        let mut seen = 0;
        while let Some(req) = read_request(&mut cursor).expect("read") {
            let _ = req;
            seen += 1;
        }
        assert_eq!(seen, sample_requests().len());
    }

    #[test]
    fn truncated_and_trailing_frames_rejected() {
        let bytes = Request::Ping.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Request::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            Request::from_bytes(&extended),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn kind_byte_corruption_caught_by_crc() {
        // Ping and Health both carry empty payloads, so without the kind
        // byte under the CRC a one-byte flip would silently turn one into
        // the other.
        let mut bytes = Request::Ping.to_bytes();
        bytes[3] = kind::HEALTH;
        assert!(matches!(
            Request::from_bytes(&bytes),
            Err(WireError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn oversized_length_field_rejected_before_allocation() {
        let mut bytes = Request::Ping.to_bytes();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::from_bytes(&bytes), Err(WireError::TooLarge(u32::MAX)));
    }

    #[test]
    fn old_version_frames_refused_not_misparsed() {
        // The version byte precedes the CRC check, so an old peer gets a
        // typed version error instead of a confusing checksum failure.
        for old in [1u8, 2, 3] {
            let mut bytes = Request::Ping.to_bytes();
            bytes[2] = old;
            assert_eq!(
                Request::from_bytes(&bytes),
                Err(WireError::UnsupportedVersion(old))
            );
        }
    }

    #[test]
    fn unknown_promotion_verdict_rejected() {
        let resp = Response::ReloadStatus {
            generation: 1,
            verdict: PromotionVerdict::NoAttempt,
            detail: String::new(),
            family: String::new(),
        };
        let mut payload = resp.encode_payload();
        payload[8] = 9; // verdict byte past the known range
        assert!(matches!(
            Response::decode(kind::RELOAD_STATUS, &payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn error_code_retryability() {
        for (code, want) in [
            (ErrorCode::Overloaded, true),
            (ErrorCode::Timeout, true),
            (ErrorCode::Unavailable, true),
            (ErrorCode::Interrupted, true),
            (ErrorCode::UnknownTenant, false),
            (ErrorCode::BadRequest, false),
            (ErrorCode::Draining, false),
            (ErrorCode::Internal, false),
        ] {
            assert_eq!(code.is_retryable(), want, "wrong retryability for {code:?}");
        }
        // Only Interrupted leaves the applied state ambiguous: every
        // other code is a refusal issued before ingestion. A wrong `true`
        // here would make clients burn their budget replaying refusals; a
        // wrong `false` would let a fresh-seq retry double-ingest.
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::Timeout,
            ErrorCode::Unavailable,
            ErrorCode::UnknownTenant,
            ErrorCode::BadRequest,
            ErrorCode::Draining,
            ErrorCode::Internal,
        ] {
            assert!(!code.may_be_applied(), "{code:?} wrongly ambiguous");
        }
        assert!(ErrorCode::Interrupted.may_be_applied());
    }

    #[test]
    fn unknown_kind_rejected() {
        let frame = frame_bytes(99, b"");
        assert_eq!(Request::from_bytes(&frame), Err(WireError::UnknownKind(99)));
        let frame = frame_bytes(200, b"");
        assert_eq!(Response::from_bytes(&frame), Err(WireError::UnknownKind(200)));
    }
}
