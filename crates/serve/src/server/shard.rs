//! Shard workers: each owns the monitors of its tenants, schedules
//! their queued score jobs into batches, and applies control commands
//! between batches.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use imdiff_data::DetectorError;
use imdiff_nn::obs;

use super::control::{self, Cause, PromoState};
use super::{
    lock, not_placed, ScoreJob, ServeError, ServeMonitor, ServerInner, Shard, ShardCmd,
    TenantShared,
};
use crate::mux::ReplyTx;
use crate::wire::{ErrorCode, PromotionVerdict, Response, WireVerdict};

/// Shard-local state of one tenant this shard serves: the monitor plus
/// the session bookkeeping that belongs to it. Built fresh on every
/// activation, so an adopted tenant starts a new replica session.
pub(super) struct Live {
    pub(super) monitor: ServeMonitor,
    /// Sequence-id dedup for idempotent replay.
    seq: SeqState,
    /// Post-promotion regression sentinel.
    pub(super) promo: PromoState,
    /// The drift latch as of the previous batch, for the escalation
    /// router's edge detection. (Which rung is pinned is not duplicated
    /// here — the monitor's detector family is the truth.)
    pub(super) was_drifted: bool,
}

impl Live {
    pub(super) fn new(monitor: ServeMonitor) -> Live {
        Live {
            monitor,
            seq: SeqState::default(),
            promo: PromoState::default(),
            was_drifted: false,
        }
    }
}

/// Ids tracked individually above [`SeqState::floor`] before the floor is
/// forced up. Bounds memory; must comfortably exceed any client's
/// pipelining depth so a *refused* id (a gap among the applied ones) is
/// still readmittable when its prompt retry arrives.
const SEQ_TRACK_WINDOW: usize = 1024;

/// Per-tenant reply-cache capacity for sequence-id deduplication: a
/// replayed request whose reply was already evicted is answered with a
/// typed [`ErrorCode::Interrupted`] (resync, do not re-submit fresh)
/// instead of being re-ingested.
const REPLAY_CACHE: usize = 32;

/// Per-tenant sequence-id bookkeeping for idempotent replay. Lives on the
/// owning shard — the serialization point for the tenant's stream — so
/// dedup decisions and ingestion are atomic with respect to each other.
/// State is per replica session: after failover the adopter starts fresh
/// and the authoritative stream position is the health report's
/// `rows_seen`.
///
/// Applied ids are tracked **exactly** (contiguous floor + out-of-order
/// set), not as a running max: a refusal (deadline expiry, position
/// guard) deliberately does not spend its id, and with a max a refused
/// id below a later-applied one would be misread as "already applied"
/// on retry instead of being admitted as new work.
#[derive(Default)]
struct SeqState {
    /// Every id `<= floor` is treated as spent. Advanced by contiguous
    /// application, or forced up when `applied` outgrows
    /// [`SEQ_TRACK_WINDOW`] (an abandoned gap that old stops being
    /// readmittable — it answers as a stale replay instead, which is
    /// safe: stale replays never ingest).
    floor: u64,
    /// Applied ids above `floor` (gaps below a refused id keep ids
    /// non-contiguous).
    applied: BTreeSet<u64>,
    /// Recent (seq, reply) pairs for answering replays bit-identically.
    cache: VecDeque<(u64, Response)>,
}

impl SeqState {
    /// Were `seq`'s rows ingested in this replica session?
    fn is_applied(&self, seq: u64) -> bool {
        seq <= self.floor || self.applied.contains(&seq)
    }

    /// Records an ingested id, advancing the contiguous floor and
    /// bounding the out-of-order set.
    fn note_applied(&mut self, seq: u64) {
        self.applied.insert(seq);
        while self.applied.remove(&(self.floor + 1)) {
            self.floor += 1;
        }
        while self.applied.len() > SEQ_TRACK_WINDOW {
            let oldest = *self.applied.iter().next().expect("non-empty");
            self.applied.remove(&oldest);
            self.floor = self.floor.max(oldest);
        }
    }

    /// The cached reply of an applied `seq`, if it is still cached.
    fn cached(&self, seq: u64) -> Option<Response> {
        self.cache
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, resp)| resp.clone())
    }
}

/// Activates `tenant` on this shard: loads its monitor and installs it.
fn activate(inner: &ServerInner, tenant: usize) -> Result<Live, DetectorError> {
    let shared = &inner.tenants[tenant];
    let mut live = Live::new(control::load_monitor(
        &shared.spec,
        inner.cfg.snapshot_every,
    )?);
    control::install(&inner.cfg, shared, &mut live, Cause::Activate)?;
    Ok(live)
}

/// Loads the monitors this shard owns, then serves its queue until the
/// server drains. `ready` reports startup success or the first load error.
pub(super) fn shard_main(
    inner: Arc<ServerInner>,
    shard_idx: usize,
    ready: mpsc::Sender<Result<(), ServeError>>,
) {
    let mut lives: Vec<Option<Live>> = Vec::with_capacity(inner.tenants.len());
    for (i, t) in inner.tenants.iter().enumerate() {
        if t.shard != shard_idx || !t.active.load(Ordering::SeqCst) {
            lives.push(None);
            continue;
        }
        match activate(&inner, i) {
            Ok(live) => lives.push(Some(live)),
            Err(source) => {
                let _ = ready.send(Err(ServeError::Tenant {
                    id: t.spec.id.clone(),
                    source,
                }));
                return;
            }
        }
    }
    let _ = ready.send(Ok(()));
    drop(ready);

    let shard = &inner.shards[shard_idx];
    loop {
        match next_work(&inner, shard) {
            Work::Exit => return,
            // Installs apply strictly between batches: a batch never
            // observes two generations.
            Work::Cmds(cmds) => {
                for cmd in cmds {
                    apply_cmd(&inner, &mut lives, cmd);
                }
            }
            Work::Batch { tenant, jobs } => {
                let live = lives[tenant].as_mut().expect("shard owns this tenant");
                run_batch(&inner, &inner.tenants[tenant], live, jobs);
            }
        }
    }
}

/// What a shard found on its queue.
enum Work {
    /// Draining and nothing left to do.
    Exit,
    /// Pending commands (always delivered before the next batch).
    Cmds(Vec<ShardCmd>),
    /// A coalesced batch of score jobs for one tenant, oldest first.
    Batch { tenant: usize, jobs: Vec<ScoreJob> },
}

/// Blocks until the shard has commands or queued jobs, or is fully
/// drained. Batching is work-conserving: an idle shard never holds a job
/// back to let a batch fill. It flushes the tenant of the oldest queued
/// job at once ([`take_batch`]), and jobs that arrive while that batch
/// runs coalesce into the next one, so batches grow with load and a
/// lone request pays no batching delay.
///
/// Enqueues edit the queue under its lock, and drain and kill notify
/// while holding it, so no wake-up can fall between a check here and the
/// wait: the idle wait needs no timeout.
fn next_work(inner: &ServerInner, shard: &Shard) -> Work {
    let mut q = lock(&shard.q);
    loop {
        if inner.killed.load(Ordering::SeqCst) {
            // Abrupt death: queued jobs are *dropped*, not flushed. Their
            // reply senders fall out of scope, which the transport layer
            // surfaces as a typed connection loss upstream.
            return Work::Exit;
        }
        if !q.cmds.is_empty() {
            return Work::Cmds(std::mem::take(&mut q.cmds));
        }
        if let Some((tenant, jobs)) = take_batch(&mut q.jobs, inner.cfg.max_batch) {
            return Work::Batch { tenant, jobs };
        }
        if inner.draining.load(Ordering::SeqCst) {
            return Work::Exit;
        }
        q = shard.cv.wait(q).unwrap_or_else(|e| e.into_inner());
    }
}

/// Removes the next batch from a shard queue: the tenant of the front
/// (oldest) job and up to `max_batch` of its jobs (at least one), in
/// arrival order. Every job left behind keeps its relative order, so
/// per-tenant streams stay FIFO and the verdicts never depend on how
/// jobs were grouped. `None` when the queue is empty.
fn take_batch(jobs: &mut VecDeque<ScoreJob>, max_batch: usize) -> Option<(usize, Vec<ScoreJob>)> {
    let tenant = jobs.front()?.tenant;
    let max_batch = max_batch.max(1);
    let mut batch = Vec::with_capacity(max_batch.min(jobs.len()));
    // One rotation through the queue: taken jobs leave, the rest go back
    // to the end in the order they came off the front.
    for _ in 0..jobs.len() {
        let job = jobs.pop_front().expect("counted");
        if job.tenant == tenant && batch.len() < max_batch {
            batch.push(job);
        } else {
            jobs.push_back(job);
        }
    }
    Some((tenant, batch))
}

/// Applies dequeue-time admission control and sequence-id deduplication,
/// runs one coalesced `push_batch`, answers every job, then runs the
/// post-batch control steps (regression sentinel, escalation routing,
/// cadenced sidecar snapshot).
fn run_batch(inner: &ServerInner, shared: &TenantShared, live: &mut Live, jobs: Vec<ScoreJob>) {
    inner.queued.fetch_sub(jobs.len(), Ordering::SeqCst);
    shared
        .queue_depth
        .fetch_sub(jobs.len() as u32, Ordering::SeqCst);

    // Expired jobs are refused un-ingested; over-budget jobs are shed to
    // the degraded path but still ingested and answered. Sequenced jobs
    // whose id was already applied are answered from the reply cache
    // without re-ingesting (idempotent replay); a duplicate of a request
    // *in this very batch* is deferred and answered from the cache once
    // the original's reply lands there.
    let mut admitted: Vec<ScoreJob> = Vec::with_capacity(jobs.len());
    let mut deferred_dups: Vec<(u64, ReplyTx)> = Vec::new();
    for mut job in jobs {
        if job.seq != 0 && live.seq.is_applied(job.seq) {
            obs::counter("serve.failover.replay_hits", 1);
            // `Interrupted`, not `Unavailable`: the rows WERE ingested,
            // so the client must not re-submit them under a fresh id —
            // only resync. (A same-id retry just gets this answer again,
            // bounded by the client's budget.)
            job.reply
                .send(live.seq.cached(job.seq).unwrap_or_else(|| Response::Error {
                    code: ErrorCode::Interrupted,
                    message: format!(
                        "sequence id {} was already applied but its reply left the \
                         cache; resync from the health report's rows_seen",
                        job.seq
                    ),
                }));
            continue;
        }
        if job.seq != 0 && admitted.iter().any(|a| a.seq == job.seq) {
            obs::counter("serve.failover.replay_hits", 1);
            deferred_dups.push((job.seq, job.reply));
            continue;
        }
        let waited = job.enqueued.elapsed();
        obs::histogram("serve.queue_wait_s", waited.as_secs_f64());
        if waited > inner.cfg.deadline {
            obs::counter("serve.timeouts", 1);
            // Not ingested and not applied: a retry with the same
            // sequence id is admitted as new work.
            job.reply.send(Response::Error {
                code: ErrorCode::Timeout,
                message: DetectorError::Timeout {
                    waited_ms: waited.as_millis() as u64,
                }
                .to_string(),
            });
            continue;
        }
        if waited > inner.cfg.shed_after {
            obs::counter("serve.shed", 1);
            job.item.shed = true;
        }
        admitted.push(job);
    }

    // Stream-position guard: a guarded chunk must start exactly where
    // the monitor is once its predecessors in this batch have landed.
    // After a failover the restored monitor sits at the snapshot
    // position while the client may be ahead — without this check its
    // rows would be silently ingested at the wrong offset, corrupting
    // the stream instead of failing it. Refused jobs do not spend their
    // sequence id, so the client's resync-and-resend is admitted fresh.
    let mut expected = live.monitor.seen();
    let mut items = Vec::with_capacity(admitted.len());
    let mut senders = Vec::with_capacity(admitted.len());
    for job in admitted {
        if job.start_row != u64::MAX && job.start_row != expected {
            obs::counter("serve.failover.position_refusals", 1);
            job.reply.send(Response::Error {
                code: ErrorCode::Unavailable,
                message: format!(
                    "stream position mismatch for {}: request claims row {}, stream \
                     is at {expected}; resync from the health report's rows_seen and \
                     re-send",
                    shared.spec.id, job.start_row
                ),
            });
            continue;
        }
        // Bridged gap rows advance the stream position too; a gap large
        // enough to re-warm resets the buffer but still advances `seen`,
        // so this prediction holds either way.
        expected += job.item.gap_before as u64 + job.item.rows.len() as u64;
        items.push(job.item);
        senders.push((job.seq, job.reply));
    }
    if senders.is_empty() {
        answer_deferred(&live.seq, deferred_dups);
        return;
    }

    let generation = shared.generation.load(Ordering::SeqCst);
    let replies = {
        let _span = obs::span("serve.batch");
        live.monitor.push_batch(&items)
    };
    obs::counter("serve.batches", 1);
    obs::counter("serve.batch_items", items.len() as u64);
    obs::histogram("serve.batch_size", items.len() as f64);
    *lock(&shared.health) = Some(live.monitor.health());

    // The tenant's verdict stream, in order, for the regression sentinel.
    let batch_flags: Vec<bool> = replies
        .iter()
        .filter(|r| r.error.is_none())
        .flat_map(|r| r.verdicts.iter().map(|v| v.anomalous))
        .collect();

    for ((seq, sender), reply) in senders.into_iter().zip(replies) {
        let resp = match reply.error {
            Some(e) => Response::Error {
                code: match e {
                    DetectorError::DimensionMismatch { .. }
                    | DetectorError::NonFiniteInput { .. }
                    | DetectorError::InvalidTrainingData(_) => ErrorCode::BadRequest,
                    _ => ErrorCode::Internal,
                },
                message: e.to_string(),
            },
            None => Response::Verdicts {
                generation,
                verdicts: reply
                    .verdicts
                    .iter()
                    .map(|v| WireVerdict {
                        index: v.index,
                        score: v.score,
                        votes: v.votes,
                        anomalous: v.anomalous,
                        degraded: v.degraded,
                    })
                    .collect(),
            },
        };
        if seq != 0 {
            // The rows are ingested either way (push_batch answered), so
            // the id is spent: record it and cache the reply verbatim.
            let st = &mut live.seq;
            st.note_applied(seq);
            st.cache.push_back((seq, resp.clone()));
            while st.cache.len() > REPLAY_CACHE {
                st.cache.pop_front();
            }
        }
        sender.send(resp);
    }
    answer_deferred(&live.seq, deferred_dups);

    // Post-promotion regression sentinel: runs after the batch answered,
    // so a rollback lands between batches exactly like a promotion.
    control::observe_promotion(&inner.cfg, shared, live, &batch_flags);

    // Escalation routing: edge-triggered on the drift latch, applied
    // between batches like every other install.
    control::route_escalation(&inner.cfg, shared, live);

    // Cadenced sidecar snapshot: bounded failover loss. Runs after the
    // batch so the sidecar always captures a between-batches state.
    if live.monitor.snapshot_due() {
        let _ = write_sidecar(&mut live.monitor, shared);
    }
}

/// Writes the tenant's IMSM sidecar next to its checkpoint.
fn write_sidecar(monitor: &mut ServeMonitor, shared: &TenantShared) -> Result<(), DetectorError> {
    let t0 = Instant::now();
    match monitor.checkpoint_stream(&shared.spec.checkpoint) {
        Ok(()) => {
            monitor.mark_snapshotted();
            obs::counter("serve.failover.sidecar_writes", 1);
            obs::histogram(
                "serve.failover.sidecar_write_ms",
                t0.elapsed().as_secs_f64() * 1e3,
            );
            Ok(())
        }
        Err(e) => {
            obs::counter("serve.failover.sidecar_write_errors", 1);
            Err(e)
        }
    }
}

/// Answers same-batch duplicates from the reply cache once (if) their
/// original's reply landed there. An original refused by admission or
/// the position guard never reaches the cache, so its duplicates get a
/// typed error instead — `Interrupted`, because from here the refused
/// and the applied-then-evicted cases are indistinguishable, and a
/// same-sequence-id retry is the one response that is correct for both
/// (admitted fresh if refused, answered by dedup if applied).
fn answer_deferred(st: &SeqState, deferred: Vec<(u64, ReplyTx)>) {
    for (seq, sender) in deferred {
        sender.send(st.cached(seq).unwrap_or_else(|| Response::Error {
            code: ErrorCode::Interrupted,
            message: format!(
                "duplicate of in-flight sequence id {seq} could not be answered \
                 from the reply cache"
            ),
        }));
    }
}

fn apply_cmd(inner: &ServerInner, lives: &mut [Option<Live>], cmd: ShardCmd) {
    match cmd {
        ShardCmd::Swap {
            tenant,
            spec,
            reply,
        } => {
            let shared = &inner.tenants[tenant];
            let Some(live) = lives[tenant].as_mut() else {
                // The tenant was never activated here (or a reload raced
                // adoption): count and skip, never panic the shard.
                obs::counter("serve.reload_errors", 1);
                if let Some(tx) = reply {
                    tx.send(not_placed(&shared.spec.id));
                }
                return;
            };
            let installed = control::install(&inner.cfg, shared, live, Cause::Promote(spec));
            let (verdict, detail) = match installed {
                Ok(generation) => {
                    obs::counter("serve.reloads", 1);
                    obs::counter("serve.promotion.promoted", 1);
                    (
                        PromotionVerdict::Promoted,
                        format!("promoted candidate is serving as generation {generation}"),
                    )
                }
                Err(e) => {
                    obs::counter("serve.reload_errors", 1);
                    obs::counter("serve.promotion.rejected_corrupt", 1);
                    (
                        PromotionVerdict::RejectedCorrupt,
                        format!("swap refused for {}: {e}", shared.spec.id),
                    )
                }
            };
            shared.decide(verdict, detail, reply);
        }
        ShardCmd::Adopt { tenant, reply } => {
            let shared = &inner.tenants[tenant];
            if lives[tenant].is_some() {
                reply.send(Response::Ok); // idempotent
                return;
            }
            // Any promotion history belongs to the dead replica and is
            // discarded with it: activation starts a fresh session.
            match activate(inner, tenant) {
                Ok(live) => {
                    lives[tenant] = Some(live);
                    shared.active.store(true, Ordering::SeqCst);
                    obs::counter("serve.failover.adoptions", 1);
                    reply.send(Response::Ok);
                }
                Err(e) => reply.send(Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("adoption of {} failed: {e}", shared.spec.id),
                }),
            }
        }
        ShardCmd::Snapshot { tenant, reply } => {
            let shared = &inner.tenants[tenant];
            let Some(live) = lives[tenant].as_mut() else {
                return reply.send(not_placed(&shared.spec.id));
            };
            reply.send(match write_sidecar(&mut live.monitor, shared) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("snapshot of {} failed: {e}", shared.spec.id),
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::Completions;
    use imdiffusion::BatchItem;

    /// A queue of jobs for `tenants`, in that arrival order; each job's
    /// `seq` is its arrival index.
    fn queue(tenants: &[usize]) -> VecDeque<ScoreJob> {
        let completions = Completions::new().expect("completions");
        tenants
            .iter()
            .enumerate()
            .map(|(i, &tenant)| ScoreJob {
                tenant,
                seq: i as u64,
                start_row: u64::MAX,
                item: BatchItem {
                    gap_before: 0,
                    rows: Vec::new(),
                    shed: false,
                },
                enqueued: Instant::now(),
                reply: ReplyTx::slot(&completions, 0, i as u64),
            })
            .collect()
    }

    fn seqs<'a>(jobs: impl IntoIterator<Item = &'a ScoreJob>) -> Vec<u64> {
        jobs.into_iter().map(|j| j.seq).collect()
    }

    /// Takes one batch and returns `(tenant, arrival ids)`.
    fn take(q: &mut VecDeque<ScoreJob>, max_batch: usize) -> Option<(usize, Vec<u64>)> {
        take_batch(q, max_batch).map(|(tenant, jobs)| (tenant, seqs(&jobs)))
    }

    #[test]
    fn oldest_tenant_goes_first_even_past_a_full_batch() {
        // Tenant 0 has a full batch queued, but tenant 1 holds the
        // oldest job: no tenant's work waits on another's batch filling.
        let mut q = queue(&[1, 0, 0, 0]);
        assert_eq!(take(&mut q, 3), Some((1, vec![0])));
        assert_eq!(take(&mut q, 3), Some((0, vec![1, 2, 3])));
        assert_eq!(take(&mut q, 3), None);
    }

    #[test]
    fn batches_are_capped_fifo_and_leave_the_rest_in_order() {
        let mut q = queue(&[2, 0, 2, 1, 2, 0, 2, 2]);
        // At most `max_batch` of the front tenant's jobs, in arrival order.
        assert_eq!(take(&mut q, 3), Some((2, vec![0, 2, 4])));
        // Other tenants' jobs and tenant 2's remainder keep their order.
        assert_eq!(seqs(&q), vec![1, 3, 5, 6, 7]);
        assert_eq!(take(&mut q, 3), Some((0, vec![1, 5])));
        assert_eq!(seqs(&q), vec![3, 6, 7]);
        assert_eq!(take(&mut q, 3), Some((1, vec![3])));
        assert_eq!(take(&mut q, 3), Some((2, vec![6, 7])));
        assert!(q.is_empty());
        assert_eq!(take(&mut q, 3), None);
    }

    #[test]
    fn a_batch_always_makes_progress() {
        // A zero cap still flushes one job rather than spinning.
        let mut q = queue(&[0, 0]);
        assert_eq!(take(&mut q, 0), Some((0, vec![0])));
        assert_eq!(take(&mut q, 0), Some((0, vec![1])));
    }
}
