//! The server's side of the data plane: the [`Tier`] the shared event
//! loop (`mux::serve`) drives for the scoring listener, and the
//! request `dispatch` that turns decoded frames into inline answers,
//! queued score jobs or shard commands.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use imdiff_data::DetectorError;
use imdiff_nn::obs;
use imdiffusion::BatchItem;

use super::{lock, not_placed, ScoreJob, ServerInner, ShardCmd};
use crate::mux::{Mode, ReplyTx, Tier};
use crate::wire::{ErrorCode, Request, Response};

/// The scoring listener: `kill` severs, `drain` flushes then stops, and
/// an `isolate`d server accepts then drops (peers see an immediate EOF
/// rather than a served reply). Every accepted stream leaves a clone in
/// `conn_streams` so `kill`/`isolate` can sever it from the caller's
/// thread; the clone is retired when the loop closes the connection.
impl Tier for Arc<ServerInner> {
    fn mode(&self) -> Mode {
        if self.killed.load(Ordering::SeqCst) {
            Mode::Kill
        } else if self.draining.load(Ordering::SeqCst) {
            Mode::Drain
        } else {
            Mode::Run
        }
    }

    fn admit(&mut self, stream: &TcpStream) -> bool {
        if self.isolated.load(Ordering::SeqCst) {
            return false;
        }
        obs::counter("serve.connections", 1);
        if let Ok(clone) = stream.try_clone() {
            lock(&self.conn_streams).push(clone);
        }
        true
    }

    /// Decodes the payload zero-copy (borrowed straight from the read
    /// buffer) and dispatches the request; a decode error is answered
    /// `BadRequest`.
    fn frame(&mut self, kind: u8, payload: &[u8], _raw: &[u8], reply: ReplyTx) -> Result<(), ()> {
        match Request::decode(kind, payload) {
            Ok(req) => {
                obs::counter("serve.requests", 1);
                dispatch(self, req, reply);
                Ok(())
            }
            Err(err) => {
                reply.send(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: err.to_string(),
                });
                Err(())
            }
        }
    }

    /// Retires the connection's `conn_streams` clone (and any clone
    /// whose socket already died).
    fn closed(&mut self, peer: Option<SocketAddr>) {
        lock(&self.conn_streams).retain(|s| match s.peer_addr() {
            Ok(a) => Some(a) != peer,
            Err(_) => false,
        });
    }
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
