//! The connection event loop both serving listeners run.
//!
//! [`serve`] multiplexes one listener and every connection it accepts
//! over `poll(2)` on a single thread. What a frame *means* is left to a
//! [`Tier`] — the scoring server decodes and dispatches it to a shard,
//! the router validates and forwards it to a replica — so the poll set,
//! accept loop, frame reassembly, reply ordering, flushing, deadlines
//! and close rule exist once. The pieces:
//!
//! * **`sys`** — a minimal `poll(2)` shim over `std::net` raw fds. No
//!   external crates: `std` already links libc on unix, so a one-line
//!   `extern "C"` declaration is all the platform glue required.
//! * **`Waker`** — a self-pipe (non-blocking `UnixStream` pair) whose
//!   read end sits in the poll set, so worker threads can interrupt a
//!   sleeping loop the instant a reply is ready.
//! * **[`Completions`]** + **[`ReplyTx`]** — the bridge between worker
//!   threads and the loop: a worker answers a request by posting
//!   `(conn, slot, response)` and waking the loop. A [`ReplyTx`] that is
//!   dropped unanswered posts a typed `Internal` error instead, so no
//!   request can strand a client slot.
//! * **`Conn`** — the per-connection frame state machine: an append
//!   read buffer scanned zero-copy by [`wire::scan_frame`], slot-ordered
//!   pending replies (responses may complete out of order across
//!   workers; clients see strict FIFO), and a bounded write buffer. A
//!   connection with `WBUF_HIGH_WATER` or more unflushed reply bytes
//!   stops being polled for reads, and resumes as soon as a flush takes
//!   it back under that one threshold.
//!
//! Correctness invariants: every accepted request is assigned exactly
//! one slot and every slot is answered exactly once (send-or-drop on
//! `ReplyTx`); replies are flushed strictly in slot order per
//! connection; a frame in progress must make progress — the loop closes
//! connections that sit mid-frame past the configured deadline
//! (slowloris defense), which plain idle timeouts cannot see.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use imdiff_nn::obs;

use crate::server::ServeConfig;
use crate::wire::{self, ErrorCode, Response};

/// Minimal readiness shim over `poll(2)`.
#[cfg(unix)]
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_ulong};
    pub use std::os::unix::io::{AsRawFd, RawFd};

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// Mirrors `struct pollfd`; layout is identical on every unix libc.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: i16) -> PollFd {
            PollFd { fd, events, revents: 0 }
        }

        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Blocks until some registered fd is ready or `timeout_ms` elapses.
    /// `EINTR` is folded into `Ok(0)` — callers run a tick loop anyway.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `PollFd` is `#[repr(C)]` with `struct pollfd`'s layout,
        // and the pointer/length pair comes from one live, exclusively
        // borrowed slice, so `poll` writes `revents` only inside it.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

/// Degraded portable fallback: every registered fd is reported ready and
/// the caller's non-blocking reads/writes absorb the spurious readiness
/// as `WouldBlock`. Correct but busier than real `poll(2)`; production
/// targets are unix.
#[cfg(not(unix))]
mod sys {
    use std::io;

    pub type RawFd = i64;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: i16) -> PollFd {
            PollFd { fd, events, revents: 0 }
        }

        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
        }
    }

    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        for f in fds.iter_mut() {
            f.revents = f.events;
        }
        if !fds.is_empty() || timeout_ms != 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                (timeout_ms.max(0) as u64).min(2),
            ));
        }
        Ok(fds.len())
    }
}

/// Raw fd of a pollable object.
#[cfg(unix)]
fn raw_fd<T: sys::AsRawFd>(t: &T) -> sys::RawFd {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> sys::RawFd {
    0
}

// ---------------------------------------------------------------------------
// Waker (self-pipe)
// ---------------------------------------------------------------------------

/// Wakes a loop blocked in `sys::poll_fds` from another thread: a
/// non-blocking socket pair whose read end is registered `POLLIN`.
/// Writes and drains both saturate silently — a full pipe already has a
/// wake pending, which is all that matters.
struct Waker {
    #[cfg(unix)]
    tx: Mutex<std::os::unix::net::UnixStream>,
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
    #[cfg(not(unix))]
    _nothing: (),
}

impl Waker {
    fn new() -> std::io::Result<Waker> {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Waker { tx: Mutex::new(tx), rx })
        }
        #[cfg(not(unix))]
        {
            Ok(Waker { _nothing: () })
        }
    }

    /// Fd to register `POLLIN` in the poll set.
    fn poll_fd(&self) -> sys::RawFd {
        #[cfg(unix)]
        {
            raw_fd(&self.rx)
        }
        #[cfg(not(unix))]
        {
            0
        }
    }

    fn wake(&self) {
        #[cfg(unix)]
        {
            let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
            let _ = (&*tx).write(&[1u8]);
        }
    }

    /// Drains pending wake bytes so the next poll can sleep.
    fn drain(&self) {
        #[cfg(unix)]
        {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

// ---------------------------------------------------------------------------
// Completions + ReplyTx
// ---------------------------------------------------------------------------

/// One answered request: connection id, slot within that connection's
/// FIFO, and the response to flush.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) slot: u64,
    pub(crate) resp: Response,
}

/// Queue of answered requests posted by worker threads, drained by the
/// event loop. Posting wakes the loop through the embedded `Waker`.
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Completions {
    pub(crate) fn new() -> std::io::Result<Arc<Completions>> {
        Ok(Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        }))
    }

    fn post(&self, conn: u64, slot: u64, resp: Response) {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion { conn, slot, resp });
        self.waker.wake();
    }

    /// Takes everything posted so far and resets the waker.
    pub(crate) fn drain(&self) -> Vec<Completion> {
        self.waker.drain();
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Wakes the loop without posting, so it re-reads [`Tier::mode`].
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// Single-use reply handle carried by every dispatched request. Exactly
/// one of: [`ReplyTx::send`] consumes it with the real response, or its
/// `Drop` posts a typed `Internal` error — so a worker that dies or a
/// code path that forgets to answer can never strand a client slot
/// (the event loop would otherwise hold that connection's reply FIFO
/// open forever).
pub(crate) struct ReplyTx {
    /// `None` once answered.
    q: Option<Arc<Completions>>,
    conn: u64,
    slot: u64,
}

impl ReplyTx {
    pub(crate) fn slot(q: &Arc<Completions>, conn: u64, slot: u64) -> ReplyTx {
        ReplyTx { q: Some(Arc::clone(q)), conn, slot }
    }

    pub(crate) fn send(mut self, resp: Response) {
        if let Some(q) = self.q.take() {
            q.post(self.conn, self.slot, resp);
        }
    }
}

impl Drop for ReplyTx {
    fn drop(&mut self) {
        if let Some(q) = self.q.take() {
            q.post(
                self.conn,
                self.slot,
                Response::Error {
                    code: ErrorCode::Internal,
                    message: "reply lost: worker dropped the request without answering"
                        .into(),
                },
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------------

/// Poll tick: the upper bound on how stale the idle / frame-progress
/// deadline checks and [`Tier::mode`] reads can run. Wake-ups for
/// completions, readable sockets and accepts interrupt the sleep
/// immediately.
const POLL_TICK_MS: i32 = 25;

/// What the loop does this tick, as the tier's lifecycle flags decide.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Mode {
    /// Accept, read and answer.
    Run,
    /// Stop accepting and reading; flush every outstanding reply, close
    /// each connection once flushed, and return when none remain.
    Drain,
    /// Sever every connection now and return.
    Kill,
}

/// The two liveness timers the loop applies to every connection.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Deadlines {
    /// Closes a connection with no frame activity at all for this long
    /// (`None` keeps silent peers forever).
    pub(crate) idle: Option<Duration>,
    /// Closes a connection that started a frame and has not finished it
    /// within this long — the slowloris case `idle` cannot see.
    pub(crate) frame: Option<Duration>,
}

impl From<&ServeConfig> for Deadlines {
    fn from(cfg: &ServeConfig) -> Deadlines {
        Deadlines {
            idle: cfg.idle_timeout,
            frame: cfg.frame_deadline,
        }
    }
}

/// What a listener does with its connections; [`serve`] does the rest.
pub(crate) trait Tier {
    /// Read once per tick.
    fn mode(&self) -> Mode;

    /// Called for each accepted stream before it joins the poll set;
    /// `false` drops it at once (the peer sees EOF).
    fn admit(&mut self, stream: &TcpStream) -> bool;

    /// Handles one complete, CRC-checked frame: `raw` is the whole frame
    /// and `payload` its body, both borrowed from the read buffer.
    /// `reply` answers the frame's slot, now or later from any thread.
    /// `Err` means the frame was malformed and `reply` has already
    /// answered it; the loop then stops reading the connection and
    /// closes it once flushed.
    fn frame(&mut self, kind: u8, payload: &[u8], raw: &[u8], reply: ReplyTx) -> Result<(), ()>;

    /// Called after a connection is shut down and dropped.
    fn closed(&mut self, _peer: Option<SocketAddr>) {}
}

/// Runs one listener until the tier asks to stop: per tick, poll the
/// completions waker, the listener (while accepting) and every
/// connection's read/write interest; fold posted replies into their
/// connections; accept; read and hand complete frames to the tier; fold
/// the replies those frames answered inline; flush; apply the idle and
/// frame-progress [`Deadlines`]; close connections that are finished.
///
/// A connection closes once it is dead (a write failed), or once it
/// stopped reading (peer EOF, protocol error, deadline, drain) and every
/// reply it is owed has been flushed — a peer that half-closes still
/// gets all its answers. Returns when draining leaves no connection, or
/// at once on [`Mode::Kill`].
pub(crate) fn serve<T: Tier>(
    listener: TcpListener,
    completions: &Arc<Completions>,
    deadlines: Deadlines,
    tier: &mut T,
) {
    let _ = listener.set_nonblocking(true);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    // Reused each iteration: poll set + the conn id each slot refers to.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut fd_ids: Vec<u64> = Vec::new();

    loop {
        let accepting = match tier.mode() {
            Mode::Run => true,
            Mode::Drain => {
                for c in conns.values_mut() {
                    c.closing = true;
                }
                false
            }
            Mode::Kill => {
                for (_, c) in conns.drain() {
                    let _ = c.stream.shutdown(Shutdown::Both);
                }
                return;
            }
        };

        fds.clear();
        fd_ids.clear();
        fds.push(sys::PollFd::new(completions.waker.poll_fd(), sys::POLLIN));
        if accepting {
            fds.push(sys::PollFd::new(raw_fd(&listener), sys::POLLIN));
        }
        let base = fds.len();
        for c in conns.values() {
            let mut ev = 0i16;
            if c.wants_read() {
                ev |= sys::POLLIN;
            }
            if c.wants_write() {
                ev |= sys::POLLOUT;
            }
            fds.push(sys::PollFd::new(raw_fd(&c.stream), ev));
            fd_ids.push(c.id);
        }
        if sys::poll_fds(&mut fds, POLL_TICK_MS).is_err() {
            // EBADF and friends only happen mid-shutdown races; the mode
            // read at the top of the loop decides what to do.
            continue;
        }

        // Completions first: frees write buffers before new reads.
        collect(completions, &mut conns);

        if accepting && fds[base - 1].readable() {
            while let Ok((stream, _)) = listener.accept() {
                if !tier.admit(&stream) {
                    continue;
                }
                if let Ok(conn) = Conn::new(stream, next_id) {
                    conns.insert(next_id, conn);
                    next_id += 1;
                }
            }
        }

        for (fd, id) in fds[base..].iter().zip(&fd_ids) {
            if !fd.readable() {
                continue;
            }
            let Some(c) = conns.get_mut(id) else {
                continue;
            };
            c.fill();
            read_frames(tier, completions, c);
        }

        // Inline answers (ping, health, refusals) post completions
        // synchronously; fold them in before flushing.
        collect(completions, &mut conns);

        for c in conns.values_mut() {
            if c.wants_write() && c.flush().is_err() {
                c.dead = true;
            }
        }

        for c in conns.values_mut() {
            if c.dead || c.closing || c.eof {
                continue;
            }
            match c.frame_started {
                None => {
                    if deadlines.idle.is_some_and(|d| c.last_frame.elapsed() >= d) {
                        obs::counter("serve.idle_closed", 1);
                        c.closing = true;
                    }
                }
                Some(started) => {
                    if deadlines.frame.is_some_and(|d| started.elapsed() >= d) {
                        obs::counter("serve.frame_stalled_closed", 1);
                        c.eof = true;
                        c.closing = true;
                    }
                }
            }
        }

        conns.retain(|_, c| {
            let done = c.dead || ((c.eof || c.closing) && c.fully_flushed());
            if done {
                let _ = c.stream.shutdown(Shutdown::Both);
                tier.closed(c.peer);
            }
            !done
        });

        if !accepting && conns.is_empty() {
            return;
        }
    }
}

/// Files every posted reply under its connection's slot.
fn collect(completions: &Completions, conns: &mut HashMap<u64, Conn>) {
    for comp in completions.drain() {
        if let Some(c) = conns.get_mut(&comp.conn) {
            c.push_response(comp.slot, comp.resp);
        }
    }
}

/// Hands every complete frame at the head of `c`'s read buffer to the
/// tier, each under the connection's next reply slot. A framing error
/// (bad magic, CRC or length) is answered `BadRequest` inline; a frame
/// the tier refuses was answered by the tier. Either way the stream is
/// unreliable past that point, so the connection stops reading and
/// closes once flushed.
fn read_frames<T: Tier>(tier: &mut T, completions: &Arc<Completions>, c: &mut Conn) {
    while !c.closing {
        match wire::scan_frame(&c.rbuf[c.rpos..]) {
            Ok(None) => return,
            Ok(Some((kind, total))) => {
                let reply = ReplyTx::slot(completions, c.id, c.assign_slot());
                let raw = &c.rbuf[c.rpos..c.rpos + total];
                if tier.frame(kind, &raw[wire::HEADER_LEN..], raw, reply).is_ok() {
                    c.consume(total);
                    continue;
                }
            }
            Err(err) => {
                let slot = c.assign_slot();
                c.push_response(
                    slot,
                    Response::Error {
                        code: ErrorCode::BadRequest,
                        message: err.to_string(),
                    },
                );
            }
        }
        c.eof = true;
        c.closing = true;
    }
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

/// Pause reads while this many reply bytes or more are buffered
/// unflushed — the peer is not draining its receive side, so stop
/// ingesting new work from it (backpressure instead of unbounded
/// buffering). Reads resume as soon as a flush takes the backlog back
/// under it.
const WBUF_HIGH_WATER: usize = 1 << 20;

/// A read buffer may hold at most one maximum frame plus the next
/// header before reads pause; bounds per-connection memory while never
/// stalling a legal frame.
const RBUF_PAUSE: usize = wire::MAX_PAYLOAD as usize + 2 * wire::HEADER_LEN;

const READ_CHUNK: usize = 64 << 10;
const COMPACT_AT: usize = 256 << 10;

/// Per-connection state for the event loop: frame reassembly in, slot
/// ordering + write buffering out.
struct Conn {
    stream: TcpStream,
    id: u64,
    peer: Option<SocketAddr>,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    next_slot: u64,
    next_flush: u64,
    ready: BTreeMap<u64, Response>,
    /// Last instant a complete frame was consumed (idle accounting).
    last_frame: Instant,
    /// Set while a partial frame sits in the buffer (progress deadline).
    frame_started: Option<Instant>,
    /// Peer closed / fatal read error: no more reads.
    eof: bool,
    /// Flush pending replies, then close (protocol error, drain).
    closing: bool,
    /// Socket write failed: drop immediately, nothing can be flushed.
    dead: bool,
}

impl Conn {
    /// Adopts an accepted stream: non-blocking, Nagle off.
    fn new(stream: TcpStream, id: u64) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let peer = stream.peer_addr().ok();
        Ok(Conn {
            stream,
            id,
            peer,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            next_slot: 0,
            next_flush: 0,
            ready: BTreeMap::new(),
            last_frame: Instant::now(),
            frame_started: None,
            eof: false,
            closing: false,
            dead: false,
        })
    }

    /// Whether the loop should poll this connection for reads.
    fn wants_read(&self) -> bool {
        !self.eof
            && !self.closing
            && self.wbuf.len() - self.wpos < WBUF_HIGH_WATER
            && self.rbuf.len() - self.rpos < RBUF_PAUSE
    }

    /// Whether unflushed reply bytes are pending.
    fn wants_write(&self) -> bool {
        self.wbuf.len() > self.wpos
    }

    /// Every assigned slot answered and flushed — safe to close without
    /// losing a reply.
    fn fully_flushed(&self) -> bool {
        self.next_flush == self.next_slot && !self.wants_write()
    }

    /// Reads until `WouldBlock`, EOF, or the pause watermarks trip. EOF
    /// (the peer closed its write half, or the socket died) stops
    /// reading; pending replies still flush before the close.
    fn fill(&mut self) {
        let mut chunk = [0u8; READ_CHUNK];
        while self.wants_read() {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if self.frame_started.is_none() && self.rbuf.len() > self.rpos {
                        self.frame_started = Some(Instant::now());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => self.eof = true,
            }
        }
    }

    /// Consumes one scanned frame and resets the progress clock.
    fn consume(&mut self, total: usize) {
        self.rpos += total;
        self.last_frame = Instant::now();
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos > COMPACT_AT {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        self.frame_started =
            if self.rbuf.len() > self.rpos { Some(Instant::now()) } else { None };
    }

    /// Assigns the next request slot (replies flush in slot order).
    fn assign_slot(&mut self) -> u64 {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }

    /// Files a completed response under its slot and promotes every
    /// now-contiguous reply into the write buffer.
    fn push_response(&mut self, slot: u64, resp: Response) {
        self.ready.insert(slot, resp);
        while let Some(resp) = self.ready.remove(&self.next_flush) {
            wire::append_frame(&mut self.wbuf, resp.kind(), &resp.encode_payload());
            self.next_flush += 1;
        }
    }

    /// Writes buffered replies until `WouldBlock` or empty. `Err` means
    /// the socket is dead and the connection should be dropped.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer closed",
                    ))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > COMPACT_AT {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    use crate::wire::{kind, Request};

    #[test]
    fn waker_wakes_poll() {
        let w = Waker::new().expect("waker");
        let mut fds = [sys::PollFd::new(w.poll_fd(), sys::POLLIN)];
        // Nothing pending: poll times out promptly.
        let n = sys::poll_fds(&mut fds, 0).expect("poll");
        #[cfg(unix)]
        assert_eq!(n, 0);
        let _ = n;
        w.wake();
        let mut fds = [sys::PollFd::new(w.poll_fd(), sys::POLLIN)];
        let n = sys::poll_fds(&mut fds, 1000).expect("poll");
        assert!(n >= 1);
        assert!(fds[0].readable());
        w.drain();
        let mut fds = [sys::PollFd::new(w.poll_fd(), sys::POLLIN)];
        let n = sys::poll_fds(&mut fds, 0).expect("poll");
        #[cfg(unix)]
        assert_eq!(n, 0);
        let _ = n;
    }

    #[test]
    fn reply_tx_drop_posts_internal_error() {
        let q = Completions::new().expect("completions");
        {
            let tx = ReplyTx::slot(&q, 7, 3);
            drop(tx);
        }
        let drained = q.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].conn, 7);
        assert_eq!(drained[0].slot, 3);
        match &drained[0].resp {
            Response::Error { code, message } => {
                assert_eq!(*code, ErrorCode::Internal);
                assert!(message.contains("reply lost"), "{message}");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn reply_tx_send_wins_over_drop() {
        let q = Completions::new().expect("completions");
        ReplyTx::slot(&q, 1, 0).send(Response::Ok);
        let drained = q.drain();
        assert_eq!(drained.len(), 1);
        assert!(matches!(drained[0].resp, Response::Ok));
    }

    #[test]
    fn completions_post_is_pollable() {
        let q = Completions::new().expect("completions");
        q.post(1, 0, Response::Ok);
        let mut fds = [sys::PollFd::new(q.waker.poll_fd(), sys::POLLIN)];
        let n = sys::poll_fds(&mut fds, 1000).expect("poll");
        assert!(n >= 1);
        assert_eq!(q.drain().len(), 1);
    }

    /// The stub's answer to a `Ping` or `Health`.
    fn answer(kind: u8, reply: ReplyTx) {
        reply.send(match kind {
            kind::PING => Response::Ok,
            _ => Response::Health { tenants: Vec::new() },
        });
    }

    /// A tier that answers `Ping` with `Ok` and `Health` with an empty
    /// report, but holds every reply until a `Health` arrives and then
    /// releases the held ones newest first — so replies reach the loop
    /// out of slot order and only the loop can put them back.
    struct Stub {
        stop: Arc<AtomicBool>,
        /// Loop iterations started (one [`Tier::mode`] read each).
        ticks: Arc<AtomicU64>,
        held: Vec<(u8, ReplyTx)>,
        /// Where a `Health` hands the released replies for the test to
        /// answer; `None` answers them inline.
        hand_off: Option<mpsc::Sender<Vec<(u8, ReplyTx)>>>,
    }

    impl Tier for Stub {
        fn mode(&self) -> Mode {
            self.ticks.fetch_add(1, Ordering::SeqCst);
            if self.stop.load(Ordering::SeqCst) {
                Mode::Drain
            } else {
                Mode::Run
            }
        }

        fn admit(&mut self, _stream: &TcpStream) -> bool {
            true
        }

        fn frame(&mut self, kind: u8, _: &[u8], _: &[u8], reply: ReplyTx) -> Result<(), ()> {
            match kind {
                kind::PING => self.held.push((kind, reply)),
                kind::HEALTH => {
                    self.held.push((kind, reply));
                    let released: Vec<_> = self.held.drain(..).rev().collect();
                    match &self.hand_off {
                        Some(tx) => tx.send(released).expect("test is listening"),
                        None => released.into_iter().for_each(|(k, r)| answer(k, r)),
                    }
                }
                _ => {
                    reply.send(Response::Error {
                        code: ErrorCode::BadRequest,
                        message: "stub answers only Ping and Health".into(),
                    });
                    return Err(());
                }
            }
            Ok(())
        }
    }

    /// A running stub listener; `stop` drains it and joins the loop.
    struct Running {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        ticks: Arc<AtomicU64>,
        completions: Arc<Completions>,
        thread: JoinHandle<()>,
    }

    impl Running {
        fn start(
            deadlines: Deadlines,
            hand_off: Option<mpsc::Sender<Vec<(u8, ReplyTx)>>>,
        ) -> Running {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let stop = Arc::new(AtomicBool::new(false));
            let ticks = Arc::new(AtomicU64::new(0));
            let completions = Completions::new().expect("completions");
            let thread = {
                let mut stub = Stub {
                    stop: Arc::clone(&stop),
                    ticks: Arc::clone(&ticks),
                    held: Vec::new(),
                    hand_off,
                };
                let completions = Arc::clone(&completions);
                std::thread::spawn(move || serve(listener, &completions, deadlines, &mut stub))
            };
            Running { addr, stop, ticks, completions, thread }
        }

        fn connect(&self) -> TcpStream {
            let s = TcpStream::connect(self.addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            s
        }

        /// Blocks until the loop has completed `n` more iterations.
        fn await_ticks(&self, n: u64) {
            let target = self.ticks.load(Ordering::SeqCst) + n + 1;
            while self.ticks.load(Ordering::SeqCst) < target {
                std::thread::yield_now();
            }
        }

        fn stop(self) {
            self.stop.store(true, Ordering::SeqCst);
            self.completions.wake();
            self.thread.join().expect("loop thread");
        }
    }

    /// One `Ping` + `Health` round trip on `s`.
    fn ping_health(s: &mut TcpStream) {
        let mut bytes = Request::Ping.to_bytes();
        bytes.extend(Request::Health.to_bytes());
        s.write_all(&bytes).expect("write");
        assert_eq!(wire::read_response(s).expect("read"), Some(Response::Ok));
        assert_eq!(
            wire::read_response(s).expect("read"),
            Some(Response::Health { tenants: Vec::new() })
        );
    }

    /// A peer that pipelines its requests and then shuts its write half
    /// still gets every reply, in request order, before the loop closes
    /// the connection — even when the replies are posted only after the
    /// loop has seen the EOF.
    #[test]
    fn half_closed_peer_gets_every_reply_in_order_then_eof() {
        let (tx, rx) = mpsc::channel();
        let running = Running::start(Deadlines::default(), Some(tx));
        let mut s = running.connect();
        let mut bytes = Vec::new();
        for _ in 0..3 {
            bytes.extend(Request::Ping.to_bytes());
        }
        bytes.extend(Request::Health.to_bytes());
        s.write_all(&bytes).expect("write");
        s.shutdown(Shutdown::Write).expect("half-close");
        let released = rx.recv_timeout(Duration::from_secs(10)).expect("all four frames");
        // The FIN was queued behind the frames before they reached the
        // tier, so one full iteration later the loop has read the EOF.
        running.await_ticks(1);
        for (kind, reply) in released {
            answer(kind, reply);
        }
        for i in 0..3 {
            assert_eq!(
                wire::read_response(&mut s).expect("read"),
                Some(Response::Ok),
                "reply {i}"
            );
        }
        assert_eq!(
            wire::read_response(&mut s).expect("read"),
            Some(Response::Health { tenants: Vec::new() })
        );
        assert_eq!(wire::read_response(&mut s).expect("read"), None, "expected EOF");
        running.stop();
    }

    /// A peer stalled mid-header is closed once the frame deadline
    /// passes, while another connection keeps getting answers.
    #[test]
    fn stalled_frame_is_closed_while_other_connections_are_served() {
        let deadline = Duration::from_millis(200);
        let running = Running::start(Deadlines { idle: None, frame: Some(deadline) }, None);
        let mut stalled = running.connect();
        stalled.write_all(&Request::Ping.to_bytes()[..5]).expect("write");
        let started = Instant::now();
        stalled.set_read_timeout(Some(Duration::from_millis(20))).expect("timeout");
        let mut honest = running.connect();
        loop {
            ping_health(&mut honest);
            match stalled.read(&mut [0u8; 1]) {
                Ok(0) => break,
                Ok(_) => panic!("a stalled peer was answered"),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break, // reset: closed just the same
            }
            assert!(started.elapsed() < Duration::from_secs(10), "stalled peer never closed");
        }
        assert!(started.elapsed() >= deadline, "closed before its deadline");
        ping_health(&mut honest);
        running.stop();
    }
}
