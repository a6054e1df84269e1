//! The data plane: one thread multiplexing the listener and every client
//! connection over `poll(2)`, and the request router that turns decoded
//! frames into inline answers, queued score jobs or shard commands.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use imdiff_data::DetectorError;
use imdiff_nn::obs;
use imdiffusion::BatchItem;

use super::{lock, not_placed, ScoreJob, ServerInner, ShardCmd};
use crate::mux::{self, sys, Completions, Conn, FillOutcome, ReplyTx};
use crate::wire::{ErrorCode, Request, Response};

/// Poll tick: the upper bound on how stale the idle / frame-progress
/// deadline checks can run. Wake-ups for completions, readable sockets
/// and accepts interrupt the sleep immediately.
const POLL_TICK_MS: i32 = 25;

/// The server's data plane: one thread multiplexing the listener and
/// every client connection over `poll(2)`.
///
/// Per iteration: drain shard completions into per-connection
/// slot-ordered reply queues, accept, read + frame + dispatch, flush,
/// then enforce the idle and per-frame-progress deadlines. A connection
/// whose write buffer is over the high-water mark stops being polled
/// for reads (backpressure); one that dies or misbehaves is closed with
/// its `conn_streams` clone cleaned up.
///
/// Exit: `kill` severs everything immediately; `drain` stops accepting,
/// flushes every outstanding reply, then closes connections and
/// returns.
pub(super) fn event_loop_main(inner: Arc<ServerInner>, listener: TcpListener) {
    let _ = listener.set_nonblocking(true);
    let completions = Arc::clone(&inner.completions);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    // Reused each iteration: poll set + the conn id each slot refers to.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut fd_ids: Vec<u64> = Vec::new();

    loop {
        if inner.killed.load(Ordering::SeqCst) {
            for (_, c) in conns.drain() {
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
            }
            return;
        }
        let draining = inner.draining.load(Ordering::SeqCst);
        if draining {
            for c in conns.values_mut() {
                c.closing = true;
            }
        }

        fds.clear();
        fd_ids.clear();
        fds.push(sys::PollFd::new(completions.poll_fd(), sys::POLLIN));
        let accepting = !draining;
        if accepting {
            fds.push(sys::PollFd::new(mux::raw_fd(&listener), sys::POLLIN));
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
            fds.push(sys::PollFd::new(mux::raw_fd(&c.stream), ev));
            fd_ids.push(c.id);
        }
        if sys::poll_fds(&mut fds, POLL_TICK_MS).is_err() {
            // EBADF and friends only happen mid-shutdown races; the flag
            // checks at the top of the loop decide what to do.
            continue;
        }

        // Completions first: frees write buffers before new reads.
        for comp in completions.drain() {
            if let Some(c) = conns.get_mut(&comp.conn) {
                c.push_response(comp.slot, comp.resp);
            }
        }

        if accepting && fds[base - 1].readable() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if inner.isolated.load(Ordering::SeqCst) {
                            // Partitioned: accept then drop, so peers see
                            // an immediate EOF rather than a served reply.
                            drop(stream);
                            continue;
                        }
                        obs::counter("serve.connections", 1);
                        if let Ok(clone) = stream.try_clone() {
                            lock(&inner.conn_streams).push(clone);
                        }
                        if let Ok(conn) = Conn::new(stream, next_id) {
                            conns.insert(next_id, conn);
                            next_id += 1;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        for (i, fd) in fds[base..].iter().enumerate() {
            if !fd.readable() {
                continue;
            }
            let Some(c) = conns.get_mut(&fd_ids[i]) else {
                continue;
            };
            if let FillOutcome::Eof = c.fill() {
                // Half-close: stop reading but still flush every pending
                // reply before dropping the connection.
            }
            process_frames(&inner, &completions, c);
        }

        // Inline dispatches (ping, health, refusals) post completions
        // synchronously; fold them in before flushing.
        for comp in completions.drain() {
            if let Some(c) = conns.get_mut(&comp.conn) {
                c.push_response(comp.slot, comp.resp);
            }
        }

        for c in conns.values_mut() {
            if c.wants_write() && c.flush().is_err() {
                c.dead = true;
            }
        }

        // Deadline ticks: idle (no frame activity at all) and per-frame
        // progress (slowloris: a started frame must finish in time).
        for c in conns.values_mut() {
            if c.dead || c.closing || c.eof {
                continue;
            }
            match c.frame_started {
                None => {
                    if let Some(budget) = inner.cfg.idle_timeout {
                        if c.last_frame.elapsed() >= budget {
                            obs::counter("serve.idle_closed", 1);
                            c.closing = true;
                        }
                    }
                }
                Some(started) => {
                    if let Some(budget) = inner.cfg.frame_deadline {
                        if started.elapsed() >= budget {
                            obs::counter("serve.frame_stalled_closed", 1);
                            c.eof = true;
                            c.closing = true;
                        }
                    }
                }
            }
        }

        let done: Vec<u64> = conns
            .values()
            .filter(|c| c.dead || ((c.eof || c.closing) && c.fully_flushed()))
            .map(|c| c.id)
            .collect();
        for id in done {
            if let Some(c) = conns.remove(&id) {
                close_conn(&inner, c);
            }
        }

        if draining && conns.is_empty() {
            return;
        }
    }
}

/// Scans every complete frame out of `c`'s read buffer, decoding
/// payloads zero-copy (borrowed straight from the buffer) and
/// dispatching each request under the connection's next reply slot. A
/// framing or decode error answers `BadRequest` on the slot and marks
/// the connection closing — the stream is unreliable past that point.
fn process_frames(inner: &Arc<ServerInner>, completions: &Arc<Completions>, c: &mut Conn) {
    loop {
        if c.closing {
            return;
        }
        match c.scan() {
            Ok(None) => return,
            Ok(Some(frame)) => {
                let decoded = Request::decode(
                    frame.kind,
                    c.rbuf_slice(frame.payload_start, frame.payload_end),
                );
                match decoded {
                    Ok(req) => {
                        c.consume(frame.total);
                        obs::counter("serve.requests", 1);
                        let slot = c.assign_slot();
                        dispatch(inner, req, ReplyTx::slot(completions, c.id, slot));
                    }
                    Err(err) => {
                        c.push_inline(Response::Error {
                            code: ErrorCode::BadRequest,
                            message: err.to_string(),
                        });
                        c.eof = true;
                        c.closing = true;
                        return;
                    }
                }
            }
            Err(err) => {
                c.push_inline(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: err.to_string(),
                });
                c.eof = true;
                c.closing = true;
                return;
            }
        }
    }
}

/// Drops one connection: shutdown acts on the socket across every clone
/// (the peer sees EOF even though `conn_streams` holds a duplicate),
/// then the clone is retired.
fn close_conn(inner: &ServerInner, c: Conn) {
    let _ = c.stream.shutdown(std::net::Shutdown::Both);
    let peer = c.peer;
    lock(&inner.conn_streams).retain(|s| match s.peer_addr() {
        Ok(a) => Some(a) != peer,
        Err(_) => false, // already dead — drop it too
    });
}

/// Routes one request. Cheap requests answer through `reply` inline
/// (which posts a completion); the score path moves `reply` into a
/// queued job and the shard answers later. Heavy control work (reload
/// validation) runs on a short-lived thread so the event loop never
/// stalls behind it.
fn dispatch(inner: &Arc<ServerInner>, req: Request, reply: ReplyTx) {
    let tenant = match &req {
        Request::Ping => return reply.send(Response::Ok),
        Request::Health => return reply.send(inner.health_report()),
        Request::ObsSnapshot => {
            return reply.send(Response::ObsJson {
                json: obs::snapshot_json(),
            })
        }
        Request::Drain => {
            inner.begin_drain();
            return reply.send(Response::Ok);
        }
        Request::Score { tenant, .. } => {
            obs::counter("serve.score_requests", 1);
            tenant
        }
        Request::Reload { tenant } | Request::Adopt { tenant } | Request::Snapshot { tenant } => {
            tenant
        }
    };
    let Some(idx) = inner.tenant_index(tenant) else {
        return reply.send(Response::Error {
            code: ErrorCode::UnknownTenant,
            message: format!("no tenant {tenant:?}"),
        });
    };
    let shared = &inner.tenants[idx];
    let active = shared.active.load(Ordering::SeqCst);
    match req {
        // Checkpoint load + holdout gating are far too heavy for the
        // event loop; validate off-thread. The answer is a ReloadStatus
        // sent by the gate (on rejection) or by the shard after the
        // install lands (on promotion).
        Request::Reload { .. } => {
            let inner = Arc::clone(inner);
            std::thread::spawn(move || inner.reload_tenant(idx, None, Some(reply)));
        }
        Request::Adopt { .. } if active => reply.send(Response::Ok), // idempotent
        // Monitor creation must happen on the owning shard thread; the
        // shard answers through `reply` when done.
        Request::Adopt { .. } => {
            inner.enqueue(idx, |q| q.cmds.push(ShardCmd::Adopt { tenant: idx, reply }))
        }
        _ if !active => reply.send(not_placed(&shared.spec.id)),
        Request::Snapshot { .. } => inner.enqueue(idx, |q| {
            q.cmds.push(ShardCmd::Snapshot { tenant: idx, reply })
        }),
        Request::Score {
            seq,
            start_row,
            gap_before,
            rows,
            ..
        } => {
            let channels = shared.spec.channels;
            if let Some(bad) = rows.iter().find(|r| r.len() != channels) {
                return reply.send(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "row has {} channels, tenant {:?} expects {channels}",
                        bad.len(),
                        shared.spec.id
                    ),
                });
            }
            // Admission control, cheapest checks first.
            if inner.draining.load(Ordering::SeqCst) {
                return reply.send(Response::Error {
                    code: ErrorCode::Draining,
                    message: "server is draining; no new scoring work".into(),
                });
            }
            let queued = inner.queued.fetch_add(1, Ordering::SeqCst);
            if queued >= inner.cfg.max_queue {
                inner.queued.fetch_sub(1, Ordering::SeqCst);
                obs::counter("serve.overloaded", 1);
                return reply.send(Response::Error {
                    code: ErrorCode::Overloaded,
                    message: DetectorError::Overloaded {
                        queued,
                        limit: inner.cfg.max_queue,
                    }
                    .to_string(),
                });
            }
            let job = ScoreJob {
                tenant: idx,
                seq,
                start_row,
                item: BatchItem {
                    gap_before: gap_before as usize,
                    rows,
                    shed: false,
                },
                enqueued: Instant::now(),
                reply,
            };
            shared.queue_depth.fetch_add(1, Ordering::SeqCst);
            inner.enqueue(idx, |q| q.jobs.push_back(job));
        }
        // Answered before the tenant lookup.
        Request::Ping | Request::Health | Request::ObsSnapshot | Request::Drain => {}
    }
}
