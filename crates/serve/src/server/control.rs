//! The control plane: the one detector-install transition, and
//! everything that decides to call it — reload with its validation gate,
//! the post-promotion regression sentinel, escalation routing and the
//! checkpoint watcher.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imdiff_data::{DetectorError, Mts};
use imdiff_nn::obs;
use imdiff_registry::{evaluate_ladder, AnyDetector, AnySpec};
use imdiffusion::{EnsembleOutput, StreamingMonitor, WindowScorer};

use super::shard::Live;
use super::{
    lock, not_placed, stamp, EscalationSpec, FileStamp, HoldoutSpec, ServeConfig, ServeMonitor,
    ServerInner, Serving, ShardCmd, TenantShared, TenantSpec,
};
use crate::mux::ReplyTx;
use crate::wire::PromotionVerdict;

// ---------------------------------------------------------------------------
// The install transition
// ---------------------------------------------------------------------------

/// Why a detector is being installed; see [`install`].
pub(super) enum Cause {
    /// First serve on this replica (startup placement or failover
    /// adoption): the fresh [`Live`] was just built around the detector
    /// loaded from the canonical checkpoint.
    Activate,
    /// The envelope of a reload candidate that passed the gate.
    Promote(Box<AnySpec>),
    /// The regression sentinel restoring the archived incumbent.
    Rollback(Box<AnySpec>),
    /// The escalation router pinning another ladder rung (boxed: a
    /// loaded detector dwarfs the other variants).
    Repin(Box<AnyDetector>),
}

/// Installs a detector for `shared`'s tenant. Every change of a tenant's
/// serving detector goes through here, and each invariant below is
/// written in exactly one step:
///
/// 1. **Swap.** `Activate` has nothing to swap — the monitor was built
///    around the detector, with fresh session state. Every other cause
///    swaps between batches via `swap_detector`, which keeps the stream
///    state. An envelope that fails to build or a refused swap returns
///    its error and changes nothing.
/// 2. **Generation.** Every cause but `Activate` bumps it once.
/// 3. **Canonical envelope.** `Repin` and `Rollback` install a detector
///    that did not come from the canonical checkpoint, so it is written
///    there — a restart or failover must restore what is serving. The
///    watcher stamp is refreshed under its lock together with the write,
///    so the server never reloads its own write. `Activate` refreshes the
///    stamp only (the file was just read, or written by an initial
///    ladder pin). `Promote` touches neither: the reload path stamped the
///    file when it read the candidate.
/// 4. **Serving record.** Family (from the built detector) and envelope
///    are published together.
/// 5. **Rollback target and sentinel.** `Promote` archives the previous
///    incumbent and arms the regression watch (when enabled). Every other
///    cause drops any archive and resets the sentinel: its baseline was
///    measured on a different incumbent.
/// 6. **Health** is published.
/// 7. **Drift edge.** The router's `was_drifted` is resynced from the
///    monitor: a swap re-arms the latch against the replacement's own
///    drift reference, and must not read as a drift edge.
///
/// Returns the tenant's generation after the install.
pub(super) fn install(
    cfg: &ServeConfig,
    shared: &TenantShared,
    live: &mut Live,
    cause: Cause,
) -> Result<u64, DetectorError> {
    let ckpt = &shared.spec.checkpoint;
    let (activate, promote) = (
        matches!(cause, Cause::Activate),
        matches!(cause, Cause::Promote(..)),
    );
    let (det, spec) = match cause {
        Cause::Activate => (None, None),
        Cause::Promote(spec) | Cause::Rollback(spec) => (Some(spec.build()?), Some(spec)),
        Cause::Repin(det) => (Some(*det), None),
    };

    // 1. Swap.
    let kind = match det {
        Some(det) => {
            let kind = det.kind();
            live.monitor.swap_detector(det)?;
            kind
        }
        None => live.monitor.detector().kind(),
    };
    let monitor = &live.monitor;

    // 2. Generation.
    let generation = if activate {
        shared.generation.load(Ordering::SeqCst)
    } else {
        shared.generation.fetch_add(1, Ordering::SeqCst) + 1
    };

    // 3. Canonical envelope and watcher stamp.
    if !promote {
        let mut recorded = lock(&shared.reload_stamp);
        if !activate && monitor.detector().save(ckpt).is_err() {
            // Serving continues on the installed detector either way;
            // only the restart/failover pin is stale until the next
            // successful write.
            obs::counter("serve.persist_errors", 1);
        }
        *recorded = stamp(ckpt);
    }

    // 4. Serving record.
    let spec = spec.or_else(|| monitor.detector().to_spec().ok().map(Box::new));
    let prev = std::mem::replace(&mut *lock(&shared.serving), Serving { family: kind, spec }).spec;

    // 5. Rollback target and sentinel.
    live.promo = match prev.filter(|_| promote && cfg.regression_watch > 0) {
        Some(archive) => PromoState {
            recent: VecDeque::new(),
            watch: Some(RegressionWatch {
                archive,
                baseline: live.promo.baseline_rate(),
                seen: 0,
                anomalous: 0,
            }),
        },
        None => PromoState::default(),
    };

    // 6. Health.
    *lock(&shared.health) = Some(monitor.health());

    // 7. Drift edge.
    live.was_drifted = monitor.drift_status().drifted;
    Ok(generation)
}

// ---------------------------------------------------------------------------
// Regression sentinel
// ---------------------------------------------------------------------------

/// Verdicts remembered for the regression baseline (pre-swap anomaly
/// rate). Bounds memory; large enough that one noisy batch cannot skew
/// the rate.
const REGRESSION_BASELINE_WINDOW: usize = 256;

/// A promotion rolls back when the post-swap anomaly rate exceeds this
/// many times the pre-swap baseline rate (and [`REGRESSION_MIN_RATE`]).
const REGRESSION_FACTOR: f64 = 4.0;

/// Anomaly-rate floor for the sentinel: the post-swap rate must also
/// exceed this absolute rate to roll back, so a near-zero baseline does
/// not turn a single anomalous verdict into a rollback.
const REGRESSION_MIN_RATE: f64 = 0.25;

/// Shard-local post-promotion regression sentinel for one tenant. Fed
/// the tenant's verdict stream in order, so its decisions depend only on
/// that stream and the config — deterministic at any thread count or
/// batch coalescing.
#[derive(Default)]
pub(super) struct PromoState {
    /// Rolling recent verdicts (`true` = anomalous) while no watch is
    /// active; their anomaly rate is the baseline a promotion must not
    /// regress from.
    recent: VecDeque<bool>,
    /// Active post-swap watch, armed by a successful promotion.
    watch: Option<RegressionWatch>,
}

struct RegressionWatch {
    /// The pre-promotion incumbent, restored if the watch trips.
    archive: Box<AnySpec>,
    /// Pre-swap anomaly rate.
    baseline: f64,
    /// Post-swap verdicts observed so far.
    seen: usize,
    /// How many of them were anomalous.
    anomalous: usize,
}

impl PromoState {
    fn baseline_rate(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.recent.iter().filter(|&&b| b).count() as f64 / self.recent.len() as f64
        }
    }
}

/// Feeds the tenant's post-batch verdict stream to its regression
/// sentinel. While a watch is active, the decision fires on **exactly**
/// `regression_watch` post-swap verdicts — mid-batch if need be — so the
/// outcome is independent of batch coalescing and thread count. A tripped
/// watch installs the archived incumbent back (`Cause::Rollback`) and
/// records a `RolledBack` verdict for the next `Reload` round-trip; a
/// passed one drops the archive.
pub(super) fn observe_promotion(
    cfg: &ServeConfig,
    shared: &TenantShared,
    live: &mut Live,
    flags: &[bool],
) {
    for &flag in flags {
        let Some(w) = live.promo.watch.as_mut() else {
            live.promo.recent.push_back(flag);
            while live.promo.recent.len() > REGRESSION_BASELINE_WINDOW {
                live.promo.recent.pop_front();
            }
            continue;
        };
        w.seen += 1;
        w.anomalous += usize::from(flag);
        if w.seen < cfg.regression_watch {
            continue;
        }
        let w = live.promo.watch.take().expect("watch is active");
        let rate = w.anomalous as f64 / w.seen as f64;
        let tripwire = (REGRESSION_FACTOR * w.baseline).max(REGRESSION_MIN_RATE);
        if rate <= tripwire {
            // Promotion confirmed: the archive is dropped and the
            // post-swap verdicts seed the next baseline.
            obs::counter("serve.promotion.confirmed", 1);
            continue;
        }
        match install(cfg, shared, live, Cause::Rollback(w.archive)) {
            Ok(generation) => {
                obs::counter("serve.promotion.rollbacks", 1);
                let detail = format!(
                    "post-promotion regression: anomaly rate {rate:.3} over {} verdicts vs \
                     pre-swap baseline {:.3}; archived incumbent restored as generation \
                     {generation}",
                    w.seen, w.baseline
                );
                shared.decide(PromotionVerdict::RolledBack, detail, None);
            }
            Err(_) => obs::counter("serve.reload_errors", 1),
        }
    }
}

// ---------------------------------------------------------------------------
// Escalation routing
// ---------------------------------------------------------------------------

/// The escalation router: runs after every batch, edge-triggered on the
/// monitor's debounced drift latch. A **trip** (the live distribution
/// left the pinned rung's training envelope) repins the ladder apex — a
/// regime change is exactly when the expensive model earns its cost. A
/// **clear** re-runs the holdout evaluation so a tenant whose regime
/// settled can de-escalate back to the cheapest adequate rung.
pub(super) fn route_escalation(cfg: &ServeConfig, shared: &TenantShared, live: &mut Live) {
    let Some(ladder) = &shared.spec.escalation else {
        return;
    };
    let now = live.monitor.drift_status().drifted;
    if std::mem::replace(&mut live.was_drifted, now) == now {
        return;
    }
    let serving = live.monitor.detector().kind();
    let chosen = if now {
        let apex = ladder.rungs.last().expect("ladder validated non-empty");
        if serving == apex.kind {
            return;
        }
        obs::counter("serve.escalation.drift_escalations", 1);
        let s = &shared.spec;
        AnyDetector::load(&s.cfg, s.seed, s.channels, &apex.checkpoint)
    } else {
        match evaluate_and_choose(ladder, &shared.spec) {
            Ok(det) if det.kind() == serving => return,
            Ok(det) => {
                obs::counter("serve.escalation.deescalations", 1);
                Ok(det)
            }
            Err(e) => Err(e),
        }
    };
    match chosen.and_then(|det| install(cfg, shared, live, Cause::Repin(Box::new(det)))) {
        Ok(_) => obs::counter("serve.escalation.repins", 1),
        Err(_) => obs::counter("serve.escalation.errors", 1),
    }
}

/// Builds every rung of an escalation ladder from its envelope
/// checkpoint, verifying the configured family and that all rungs share
/// one serving window (repins are in-place swaps on a live monitor).
fn build_rungs(esc: &EscalationSpec, spec: &TenantSpec) -> Result<Vec<AnyDetector>, DetectorError> {
    if esc.rungs.is_empty() {
        return Err(DetectorError::InvalidTrainingData(format!(
            "tenant {} has an empty escalation ladder",
            spec.id
        )));
    }
    let mut dets = Vec::with_capacity(esc.rungs.len());
    for rung in &esc.rungs {
        let det = AnyDetector::load(&spec.cfg, spec.seed, spec.channels, &rung.checkpoint)?;
        if det.kind() != rung.kind {
            return Err(DetectorError::CorruptCheckpoint(format!(
                "rung checkpoint {} carries family {}, ladder declares {}",
                rung.checkpoint.display(),
                det.kind(),
                rung.kind
            )));
        }
        if dets
            .iter()
            .any(|d: &AnyDetector| d.kind() == det.kind() || d.window() != det.window())
        {
            return Err(DetectorError::InvalidTrainingData(format!(
                "escalation rungs for {} must have distinct families and one shared \
                 serving window",
                spec.id
            )));
        }
        dets.push(det);
    }
    Ok(dets)
}

/// Packs escalation holdout rows into a series.
fn holdout_mts(rows: &[Vec<f32>], channels: usize) -> Result<Mts, DetectorError> {
    if rows.is_empty() || rows.iter().any(|r| r.len() != channels) {
        return Err(DetectorError::InvalidTrainingData(format!(
            "escalation holdout must be non-empty rows of {channels} channels"
        )));
    }
    Ok(Mts::new(rows.concat(), rows.len(), channels))
}

/// Evaluates the full ladder on its labeled holdout and returns the
/// chosen rung's detector. Deterministic: ladder order + F1 only.
fn evaluate_and_choose(
    esc: &EscalationSpec,
    spec: &TenantSpec,
) -> Result<AnyDetector, DetectorError> {
    let _span = obs::span("serve.escalation.evaluate");
    let rungs = build_rungs(esc, spec)?;
    let holdout = holdout_mts(&esc.holdout_rows, spec.channels)?;
    let refs: Vec<&AnyDetector> = rungs.iter().collect();
    let decision = evaluate_ladder(&refs, &holdout, &esc.holdout_labels, esc.f1_tolerance)?;
    obs::counter("serve.escalation.evaluations", 1);
    Ok(rungs
        .into_iter()
        .nth(decision.chosen)
        .expect("chosen index is in ladder range"))
}

// ---------------------------------------------------------------------------
// Activation loads
// ---------------------------------------------------------------------------

/// Loads the tenant's detector from its canonical checkpoint. When the
/// checkpoint exists, its envelope family **is** the pinned rung — this
/// is what lets a failover or restart resume the exact pin the dead
/// replica persisted. When it is missing (or unreadable) and an
/// escalation ladder is configured, the ladder is evaluated instead and
/// the winner is persisted as the new canonical envelope before serving.
fn load_or_escalate(spec: &TenantSpec) -> Result<AnyDetector, DetectorError> {
    match AnyDetector::load(&spec.cfg, spec.seed, spec.channels, &spec.checkpoint) {
        Ok(det) => {
            spec.check_family(det.kind())?;
            Ok(det)
        }
        Err(e) => {
            let Some(esc) = &spec.escalation else {
                return Err(e);
            };
            let winner = evaluate_and_choose(esc, spec)?;
            obs::counter("serve.escalation.initial_pins", 1);
            winner.save(&spec.checkpoint)?;
            Ok(winner)
        }
    }
}

/// Builds the serving monitor for one tenant: restore from the IMSM
/// sidecar when one exists (failover adoption, replica restart) so the
/// verdict stream resumes without re-warming; fall back to a fresh
/// (warming) load when the sidecar is absent. A *damaged* sidecar is a
/// typed, counted event — [`DetectorError::CorruptCheckpoint`] — that
/// degrades to a fresh load rather than refusing the tenant: losing warm
/// state is recoverable, losing the tenant is not. Weight-file failures
/// still propagate.
pub(super) fn load_monitor(
    spec: &TenantSpec,
    snapshot_every: Option<u64>,
) -> Result<ServeMonitor, DetectorError> {
    let t0 = Instant::now();
    let det = load_or_escalate(spec)?;
    let mut monitor = match StreamingMonitor::restore_with(det, &spec.checkpoint) {
        Ok(m) => {
            obs::counter("serve.failover.sidecar_restores", 1);
            obs::histogram(
                "serve.failover.sidecar_restore_ms",
                t0.elapsed().as_secs_f64() * 1e3,
            );
            m
        }
        Err(e) => {
            if !matches!(e, DetectorError::Io(_)) {
                // Sidecar present but unusable (CRC mismatch, bad tag,
                // geometry drift): surface the typed corruption, then
                // re-warm from weights alone. `restore_with` consumed the
                // detector, so reload it — the canonical checkpoint is
                // guaranteed present now (load_or_escalate persisted any
                // fresh pin).
                obs::counter("serve.failover.sidecar_corrupt", 1);
            }
            let det = load_or_escalate(spec)?;
            StreamingMonitor::new(det, spec.channels, spec.hop)?
        }
    };
    monitor.set_snapshot_cadence(snapshot_every);
    if let Some((threshold, debounce)) = spec.drift_policy {
        // Arms only when the checkpoint carries a training-time drift
        // reference; without one the tenant serves unarmed (and
        // bit-identically to a monitor without drift detection).
        let _ = monitor.set_drift_policy(threshold, debounce);
    }
    Ok(monitor)
}

// ---------------------------------------------------------------------------
// Reload and the validation gate
// ---------------------------------------------------------------------------

impl ServerInner {
    /// Loads `tenant`'s checkpoint, runs the validation gate when the
    /// tenant has one, and hands a passing candidate to its shard.
    /// Validation (CRC, family, shapes, holdout scoring) happens here, off
    /// the shard thread: a bad or losing candidate never interrupts
    /// serving.
    ///
    /// When `reply` is present (wire `Reload` requests) every outcome is
    /// answered through it — an unplaced tenant or a rejected candidate
    /// inline, a promoted one by the shard *after* the install lands.
    pub(super) fn reload_tenant(
        &self,
        tenant: usize,
        new_stamp: Option<FileStamp>,
        reply: Option<ReplyTx>,
    ) {
        let t = &self.tenants[tenant];
        if !t.active.load(Ordering::SeqCst) {
            if let Some(tx) = reply {
                tx.send(not_placed(&t.spec.id));
            }
            return;
        }
        *lock(&t.reload_stamp) = new_stamp.or_else(|| stamp(&t.spec.checkpoint));
        let s = &t.spec;
        let loaded = AnyDetector::load(&s.cfg, s.seed, s.channels, &s.checkpoint).and_then(|det| {
            // A rewrite may legitimately change the family (an
            // escalation repin, a mirrored pin from another replica)
            // — but only to a family this tenant is configured for.
            s.check_family(det.kind())?;
            det.to_spec()
        });
        let spec = match loaded {
            Ok(spec) => spec,
            Err(e) => {
                // A corrupt rewrite (CRC mismatch, truncation, geometry
                // drift, foreign family) is refused here and never
                // reaches the shard — the incumbent keeps serving.
                obs::counter("serve.reload_errors", 1);
                obs::counter("serve.promotion.rejected_corrupt", 1);
                let msg = format!("cannot reload {}: {e}", s.id);
                return t.decide(PromotionVerdict::RejectedCorrupt, msg, reply);
            }
        };
        if let Some(holdout) = &s.holdout {
            let incumbent = lock(&t.serving).spec.clone();
            if let Some(inc) = incumbent {
                obs::counter("serve.promotion.evaluated", 1);
                if let Err(msg) = gate_candidate(&spec, &inc, holdout, s) {
                    obs::counter("serve.promotion.rejected_gate", 1);
                    return t.decide(PromotionVerdict::RejectedGate, msg, reply);
                }
            }
        }
        self.enqueue(tenant, |q| {
            // One pending swap per tenant is enough; newest wins. A
            // superseded reload's requester still gets an answer.
            q.cmds.retain_mut(|cmd| match cmd {
                ShardCmd::Swap {
                    tenant: i, reply, ..
                } if *i == tenant => {
                    if let Some(tx) = reply.take() {
                        let verdict = lock(&t.promo).0;
                        let detail = "superseded by a newer reload of the same tenant";
                        tx.send(t.reload_status(verdict, detail.into()));
                    }
                    false
                }
                _ => true,
            });
            q.cmds.push(ShardCmd::Swap {
                tenant,
                spec: Box::new(spec),
                reply,
            });
        });
    }
}

/// The validation gate: scores the tenant's held-out replay slice with
/// both the candidate and the incumbent (read-only batched inference —
/// serving is never paused) and decides the promotion. `Ok(detail)`
/// promotes, `Err(detail)` keeps the incumbent. Fail-closed: a holdout
/// too short for one window, mis-shaped rows, or a scoring failure all
/// reject — loudly, via the reload verdict — rather than promoting an
/// unvalidated candidate.
fn gate_candidate(
    candidate: &AnySpec,
    incumbent: &AnySpec,
    holdout: &HoldoutSpec,
    spec: &TenantSpec,
) -> Result<String, String> {
    let _span = obs::span("serve.promotion.gate");
    let cand = candidate
        .build()
        .map_err(|e| format!("candidate failed to rebuild: {e}"))?;
    let inc = incumbent
        .build()
        .map_err(|e| format!("incumbent failed to rebuild: {e}"))?;
    // Holdout windows must fit both scorers: families may serve windows
    // wider than the configured one, so the *built* detectors decide.
    let (w, k) = (cand.window(), spec.channels);
    if inc.window() != w {
        return Err(format!(
            "candidate serving window {w} != incumbent window {}; cannot compare \
             on one holdout slicing",
            inc.window()
        ));
    }
    if holdout.rows.iter().any(|r| r.len() != k) {
        return Err(format!("holdout rows must all be {k} channels wide"));
    }
    let n_win = holdout.rows.len() / w;
    if n_win == 0 {
        return Err(format!(
            "holdout has {} rows, shorter than one {w}-row window; refusing to \
             promote unvalidated",
            holdout.rows.len()
        ));
    }
    let windows: Vec<Mts> = holdout
        .rows
        .chunks_exact(w)
        .map(|rows| Mts::new(rows.concat(), w, k))
        .collect();
    let refs: Vec<(&Mts, Option<&[bool]>)> = windows.iter().map(|m| (m, None)).collect();
    let cand_out = cand
        .score_windows(&refs)
        .map_err(|e| format!("candidate failed holdout scoring: {e}"))?;
    let inc_out = inc
        .score_windows(&refs)
        .map_err(|e| format!("incumbent failed holdout scoring: {e}"))?;
    match &holdout.labels {
        Some(labels) => {
            if labels.len() < n_win * w {
                return Err(format!(
                    "holdout labels cover {} of {} scored rows",
                    labels.len(),
                    n_win * w
                ));
            }
            let truth = &labels[..n_win * w];
            let cand_f1 = point_f1(&verdict_flags(&cand_out), truth);
            let inc_f1 = point_f1(&verdict_flags(&inc_out), truth);
            // Ties promote: equal accuracy plus a fresh drift baseline
            // beats equal accuracy alone.
            if cand_f1 + 1e-12 >= inc_f1 {
                Ok(format!(
                    "candidate F1 {cand_f1:.4} vs incumbent {inc_f1:.4} over {n_win} \
                     holdout windows"
                ))
            } else {
                Err(format!(
                    "candidate F1 {cand_f1:.4} lost to incumbent {inc_f1:.4} over \
                     {n_win} holdout windows"
                ))
            }
        }
        None => {
            let mut dev = 0.0f64;
            let mut n = 0usize;
            for (c, i) in cand_out.iter().zip(&inc_out) {
                for (a, b) in c.scores.iter().zip(&i.scores) {
                    dev += (a - b).abs();
                    n += 1;
                }
            }
            let mean = if n == 0 { 0.0 } else { dev / n as f64 };
            if mean.is_finite() && mean <= holdout.score_tolerance {
                Ok(format!(
                    "candidate score deviation {mean:.4} within tolerance {:.4} over \
                     {n_win} holdout windows",
                    holdout.score_tolerance
                ))
            } else {
                Err(format!(
                    "candidate score deviation {mean:.4} exceeds tolerance {:.4} over \
                     {n_win} holdout windows",
                    holdout.score_tolerance
                ))
            }
        }
    }
}

/// Concatenated per-point voted labels of a holdout scoring pass.
fn verdict_flags(outs: &[EnsembleOutput]) -> Vec<bool> {
    outs.iter().flat_map(|o| o.labels.iter().copied()).collect()
}

/// Point F1 with the convention that perfect agreement on "no anomalies
/// anywhere" scores 1.0 (both models may legitimately flag nothing).
fn point_f1(pred: &[bool], truth: &[bool]) -> f64 {
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    for (&p, &t) in pred.iter().zip(truth) {
        match (p, t) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let denom = 2 * tp + fp + fn_;
    if denom == 0 {
        1.0
    } else {
        2.0 * tp as f64 / denom as f64
    }
}

// ---------------------------------------------------------------------------
// Watcher
// ---------------------------------------------------------------------------

/// Polls every active tenant's checkpoint stamp and reloads on change.
pub(super) fn watcher_main(inner: Arc<ServerInner>, poll: Duration) {
    let mut last_scan = Instant::now();
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20).min(poll));
        if last_scan.elapsed() < poll {
            continue;
        }
        last_scan = Instant::now();
        for (idx, t) in inner.tenants.iter().enumerate() {
            if !t.active.load(Ordering::SeqCst) {
                continue;
            }
            // Stamped under the lock, so an install's own write (made
            // under the same lock) is never mistaken for a rewrite.
            let changed = {
                let recorded = lock(&t.reload_stamp);
                let now = stamp(&t.spec.checkpoint);
                (now.is_some() && *recorded != now).then_some(now)
            };
            if let Some(now) = changed {
                // Errors are counted inside reload_tenant; the stamp is
                // recorded either way so one bad rewrite is not retried
                // in a loop.
                inner.reload_tenant(idx, now, None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RungSpec;
    use imdiff_data::scenario::{drift, ScenarioProfile};
    use imdiff_data::Detector;
    use imdiff_registry::DetectorKind;
    use imdiffusion::ImDiffusionConfig;

    /// A ladder tenant drift-latched at the apex whose regression watch
    /// trips: the rollback swap clears the latch, and the router must not
    /// read that as a drift *clear* — which would run a full ladder
    /// evaluation on the shard thread and de-escalate the tenant.
    #[test]
    fn rollback_at_the_apex_is_not_read_as_a_drift_clear() {
        const SEED: u64 = 11;
        const HOP: usize = 8;
        const WATCH: usize = 8;
        let sc = drift(&ScenarioProfile::quick(), SEED);
        let channels = sc.train.dim();
        let dir = std::env::temp_dir().join(format!("imdiff-install-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ImDiffusionConfig {
            window: 16,
            ..ImDiffusionConfig::quick()
        };
        let fit = |kind: DetectorKind, seed: u64| {
            let mut det = AnyDetector::new(kind, cfg.clone(), seed);
            det.fit(&sc.train).unwrap();
            det
        };
        let rung = |kind: DetectorKind, file: &str| {
            let checkpoint = dir.join(file);
            fit(kind, SEED).save(&checkpoint).unwrap();
            RungSpec { kind, checkpoint }
        };
        let ladder = EscalationSpec {
            rungs: vec![
                rung(DetectorKind::ZScore, "zscore.imde"),
                rung(DetectorKind::IForest, "iforest.imde"),
            ],
            // Any clear-edge evaluation pins the cheap rung.
            f1_tolerance: 1.0,
            holdout_rows: (0..48).map(|l| sc.stream.row(l).to_vec()).collect(),
            holdout_labels: sc.labels[..48].to_vec(),
        };
        let spec = TenantSpec {
            id: "t".into(),
            checkpoint: dir.join("canon.imde"),
            cfg: cfg.clone(),
            seed: SEED,
            channels,
            hop: HOP,
            holdout: None,
            drift_policy: Some((3.0, 2)),
            family: DetectorKind::IForest,
            escalation: Some(ladder),
        };
        let serve = ServeConfig {
            regression_watch: WATCH,
            ..ServeConfig::default()
        };
        let shared = TenantShared::new(spec, 0, true);

        // The tenant serves the apex rung with drift detection armed.
        let mut monitor =
            StreamingMonitor::new(fit(DetectorKind::IForest, SEED), channels, HOP).unwrap();
        assert!(monitor.set_drift_policy(3.0, 2));
        let mut live = Live::new(monitor);
        install(&serve, &shared, &mut live, Cause::Activate).unwrap();

        // Feeds the shifted regime until the router has seen the latch
        // trip; at the apex a trip edge repins nothing.
        let mut row = sc.change_start;
        let mut drift_in = |live: &mut Live| {
            while !live.was_drifted {
                assert!(row < sc.stream.len(), "drift never latched");
                live.monitor.push(sc.stream.row(row)).unwrap();
                row += 1;
                route_escalation(&serve, &shared, live);
            }
        };
        drift_in(&mut live);

        // Promote a retrained apex candidate: the incumbent is archived
        // and the watch armed. The swap clears the latch, which re-trips
        // on the still-shifted stream.
        let candidate = Box::new(fit(DetectorKind::IForest, SEED + 1).to_spec().unwrap());
        install(&serve, &shared, &mut live, Cause::Promote(candidate)).unwrap();
        drift_in(&mut live);
        assert_eq!(shared.generation.load(Ordering::SeqCst), 2);

        // The watch trips and restores the incumbent; the router then
        // runs right after it, exactly as in `run_batch`.
        observe_promotion(&serve, &shared, &mut live, &[true; WATCH]);
        route_escalation(&serve, &shared, &mut live);

        assert_eq!(lock(&shared.promo).0, PromotionVerdict::RolledBack);
        assert_eq!(
            live.monitor.detector().kind(),
            DetectorKind::IForest,
            "the rollback was read as a drift clear and de-escalated"
        );
        assert_eq!(
            shared.generation.load(Ordering::SeqCst),
            3,
            "only the rollback may bump the generation"
        );
        assert_eq!(live.was_drifted, live.monitor.drift_status().drifted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
