//! The served workloads: `serve_imdiff` (closed loop, one writer per
//! ImDiffusion tenant) and `serve_fanin` (open loop into eight z-score
//! tenants with hot reloads and sidecar snapshots beside the scoring).
//!
//! The server runs in this process and is driven only over its wire
//! protocol. Every verdict is checked after the timed phase against a
//! local `StreamingMonitor<AnyDetector>` mirror that replays the same
//! rows and applies each reload where the reply generation changes.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
use imdiff_data::{Detector, Mts};
use imdiff_registry::{AnyDetector, DetectorKind};
use imdiff_serve::wire::{self, Request, Response, WireVerdict};
use imdiff_serve::{PromotionVerdict, ServeConfig, Server, TenantSpec};
use imdiffusion::{BatchItem, ImDiffusionConfig, StreamingMonitor};

use crate::common::{
    mark_slices, median, mix, percentile, Budget, E2e, Mark, OpSample, Ops, Outcome, RunDir, Setups,
};
use crate::trace::{self, LayerInputs, Segments};

/// Set-ups within the steal limit per run. A served set-up takes tens of
/// milliseconds, so many repetitions cost little and keep one slow
/// wake-up from deciding the number.
const SETUP_REPS: usize = 15;
/// How long a client waits for any one reply before declaring it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

// serve_imdiff ---------------------------------------------------------

const IMDIFF_TENANTS: usize = 2;
const IMDIFF_HOP: usize = 4;
/// A reply slower than this misses `goodput_rps`.
const IMDIFF_LIMIT_MS: f64 = 50.0;

// serve_fanin ----------------------------------------------------------

const FANIN_TENANTS: usize = 8;
const FANIN_SHARDS: usize = 2;
const FANIN_WINDOW: usize = 32;
const FANIN_HOP: usize = 16;
/// Offered rate of score requests, about half the capacity measured on
/// a 2-core x86-64 host (see README.md).
const FANIN_RATE: f64 = 1000.0;
/// One tenant's envelope is re-saved and reloaded this often.
const FANIN_RELOAD_EVERY: Duration = Duration::from_millis(1000);
/// How far ahead of its slot the control thread re-saves an envelope.
const SAVE_LEAD: Duration = Duration::from_millis(100);
/// Rows between IMSM sidecar snapshots per tenant.
const FANIN_SNAPSHOT_ROWS: u64 = 8192;
const FANIN_LIMIT_MS: f64 = 50.0;
/// The run is invalid when the sender's median lateness exceeds this.
const FANIN_MAX_MEDIAN_LATE_MS: f64 = 1.0;

/// The `bench_serve` serving config: a small ImDiffusion model whose
/// one-window evaluation runs inline on the shard thread.
fn bench_serve_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        window: 16,
        train_stride: 8,
        hidden: 8,
        heads: 2,
        residual_blocks: 1,
        diffusion_steps: 5,
        train_steps: 10,
        batch_size: 2,
        vote_span: 5,
        vote_every: 2,
        ..ImDiffusionConfig::quick()
    }
}

fn fanin_cfg() -> ImDiffusionConfig {
    ImDiffusionConfig {
        window: FANIN_WINDOW,
        ..ImDiffusionConfig::quick()
    }
}

/// How the server answered one score request.
#[derive(Clone)]
enum Reply {
    Verdicts {
        generation: u64,
        verdicts: Vec<WireVerdict>,
    },
    Refused,
    Lost,
}

impl Reply {
    fn from_response(resp: Result<Response, String>) -> Reply {
        match resp {
            Ok(Response::Verdicts {
                generation,
                verdicts,
            }) => Reply::Verdicts {
                generation,
                verdicts,
            },
            Ok(Response::Error { .. }) => Reply::Refused,
            _ => Reply::Lost,
        }
    }

    /// Served on the degraded path because it waited past `shed_after`.
    fn shed(&self) -> bool {
        matches!(self, Reply::Verdicts { verdicts, .. }
            if !verdicts.is_empty() && verdicts.iter().all(|v| v.degraded))
    }
}

/// One score request as the mirror needs it: where its rows start in the
/// tenant's series and what the server answered.
struct Sent {
    cursor: usize,
    reply: Reply,
}

/// One tenant's input stream and serving identity.
struct Tenant {
    id: String,
    series: Arc<Mts>,
    det_seed: u64,
    /// IMDE envelope images by generation (index 0 = generation 1).
    envelopes: Vec<Vec<u8>>,
}

fn rows_at(series: &Mts, cursor: usize, hop: usize) -> Vec<Vec<f32>> {
    (0..hop)
        .map(|i| series.row((cursor + i) % series.len()).to_vec())
        .collect()
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = s.set_nodelay(true);
    s.set_read_timeout(Some(REPLY_TIMEOUT))
        .and_then(|_| s.set_write_timeout(Some(REPLY_TIMEOUT)))
        .map_err(|e| format!("set timeout: {e}"))?;
    Ok(s)
}

/// Encodes and writes one request frame (`wire.encode` is the encode).
fn send(stream: &mut TcpStream, req: &Request, id: u64) -> Result<(), String> {
    let bytes = trace::timed("wire.encode", "client", id, || req.to_bytes());
    stream.write_all(&bytes).map_err(|e| format!("send: {e}"))
}

/// Reads one response frame with the program's own `wire::read_frame`
/// (header, bounded payload read, CRC) and decodes its payload
/// (`wire.decode` is the decode, not the wait).
fn recv(stream: &mut TcpStream, id: u64) -> Result<Response, String> {
    let (kind, payload) = wire::read_frame(stream)
        .map_err(|e| format!("recv: {e}"))?
        .ok_or("recv: connection closed")?;
    trace::timed("wire.decode", "client", id, || {
        Response::decode(kind, &payload)
    })
    .map_err(|e| format!("decode: {e}"))
}

fn score_request(tenant: &str, seq: u64, rows: Vec<Vec<f32>>) -> Request {
    Request::Score {
        tenant: tenant.into(),
        seq,
        start_row: u64::MAX,
        gap_before: 0,
        rows,
    }
}

/// Writes generation-1 envelopes into `dir` and returns the specs.
fn tenant_specs(
    dir: &Path,
    tenants: &[Tenant],
    cfg: &ImDiffusionConfig,
    family: DetectorKind,
    channels: usize,
    hop: usize,
) -> Result<Vec<TenantSpec>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    tenants
        .iter()
        .map(|t| {
            let checkpoint = dir.join(format!("{}.imde", t.id));
            std::fs::write(&checkpoint, &t.envelopes[0]).map_err(|e| e.to_string())?;
            Ok(TenantSpec {
                id: t.id.clone(),
                checkpoint,
                cfg: cfg.clone(),
                seed: t.det_seed,
                channels,
                hop,
                holdout: None,
                drift_policy: None,
                family,
                escalation: None,
            })
        })
        .collect()
}

/// Fits one detector per tenant (untimed preparation) and keeps its
/// envelope image.
fn fit_envelope(
    kind: DetectorKind,
    cfg: &ImDiffusionConfig,
    seed: u64,
    train: &Mts,
    path: &Path,
    traced: bool,
) -> Result<Vec<u8>, String> {
    let mut det = AnyDetector::new(kind, cfg.clone(), seed);
    det.fit(train).map_err(|e| format!("fit: {e}"))?;
    trace::timed_when(traced, "registry.save", "prep", 0, || det.save(path))
        .map_err(|e| format!("save: {e}"))?;
    std::fs::read(path).map_err(|e| e.to_string())
}

/// Result of replaying one tenant's traffic through a local mirror.
#[derive(Default)]
struct MirrorReport {
    ops: Ops,
    push_ns: u128,
    rows: u64,
    eval_ms: Vec<f64>,
}

/// Replays `log` through a local `StreamingMonitor<AnyDetector>` built
/// from the same envelopes, swapping detectors where the reply
/// generation changes, and checks every verdict bit-for-bit.
fn mirror(
    tenant: &Tenant,
    cfg: &ImDiffusionConfig,
    channels: usize,
    hop: usize,
    log: &[Sent],
    traced: bool,
) -> MirrorReport {
    let mut rep = MirrorReport::default();
    let load = |generation: u64| {
        let bytes = tenant.envelopes.get(generation as usize - 1)?;
        trace::timed_when(traced, "registry.load", "mirror", 0, || {
            AnyDetector::load_bytes(cfg, tenant.det_seed, channels, bytes).ok()
        })
    };
    let Some(mut monitor) = load(1).and_then(|d| StreamingMonitor::new(d, channels, hop).ok())
    else {
        rep.ops.fail();
        return rep;
    };
    let mut generation = 1u64;
    for sent in log {
        let (g, verdicts) = match &sent.reply {
            Reply::Verdicts {
                generation,
                verdicts,
            } => (generation, verdicts),
            // Refused requests were never ingested.
            Reply::Refused => continue,
            // A lost reply cannot be verified: the connection failed.
            Reply::Lost => {
                rep.ops.fail();
                continue;
            }
        };
        if *g != generation {
            let swapped = load(*g).is_some_and(|d| monitor.swap_detector(d).is_ok());
            if !swapped {
                rep.ops.fail();
                return rep;
            }
            generation = *g;
        }
        let item = BatchItem {
            gap_before: 0,
            rows: rows_at(&tenant.series, sent.cursor, hop),
            shed: sent.reply.shed(),
        };
        let t0 = Instant::now();
        let replies = monitor.push_batch(std::slice::from_ref(&item));
        let dt = t0.elapsed();
        rep.push_ns += dt.as_nanos();
        rep.rows += hop as u64;
        let local = &replies[0];
        if !local.verdicts.is_empty() {
            rep.eval_ms.push(dt.as_secs_f64() * 1e3);
        }
        let same = local.error.is_none()
            && local.verdicts.len() == verdicts.len()
            && local.verdicts.iter().zip(verdicts).all(|(l, w)| {
                l.index == w.index
                    && l.score.to_bits() == w.score.to_bits()
                    && l.votes == w.votes
                    && l.anomalous == w.anomalous
                    && l.degraded == w.degraded
            });
        if same {
            rep.ops.ok();
        } else {
            rep.ops.fail();
        }
    }
    rep
}

fn merge_mirrors(reports: &[MirrorReport]) -> (Ops, f64, f64) {
    let mut ops = Ops::default();
    let (mut ns, mut rows) = (0u128, 0u64);
    let mut eval = Vec::new();
    for r in reports {
        ops.add(r.ops);
        ns += r.push_ns;
        rows += r.rows;
        eval.extend_from_slice(&r.eval_ms);
    }
    let us_per_row = if rows > 0 {
        ns as f64 / 1e3 / rows as f64
    } else {
        0.0
    };
    (ops, us_per_row, crate::common::mean(&eval))
}

/// How long the control thread sleeps: until its next piece of work,
/// but briefly enough to switch trace segments (2 ms) or to notice the
/// end of the phase (20 ms).
fn nap(traced: bool, until_next: Duration) -> Duration {
    let most = Duration::from_millis(if traced { 2 } else { 20 });
    until_next.clamp(Duration::from_micros(100), most)
}

/// One latency sample of the timed phase.
struct Sample {
    done: Instant,
    ms: f64,
    traced: bool,
    /// Answered with full verdicts within the latency limit.
    good: bool,
    /// Answered with verdicts at all (scored rows count).
    scored: bool,
}

struct LoadReport {
    samples: Vec<Sample>,
    timed: Ops,
    marks: Vec<Mark>,
    peak_rss_mb: f64,
    traced_wall: Duration,
}

fn summarize(r: LoadReport, setups: Setups, rows_per_op: u64) -> (E2e, f64, f64) {
    let p50 = |traced: bool| {
        let v: Vec<f64> = r
            .samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.ms)
            .collect();
        median(&v)
    };
    let (p50_u, p50_t) = (p50(false), p50(true));
    let e2e = E2e {
        setups,
        ops: r
            .samples
            .iter()
            .filter(|s| !s.traced)
            .map(|s| OpSample {
                done: s.done,
                ms: s.ms,
                rows: if s.scored { rows_per_op } else { 0 },
                good: s.good,
            })
            .collect(),
        marks: r.marks,
        peak_rss_mb: r.peak_rss_mb,
    };
    (e2e, p50_u, p50_t)
}

/// Builds the outcome. Refused or late requests are failed ops, not
/// gate failures: the run is correct when every phase named in `gates`
/// (mirror replay, reload generations, generator validity) is clean.
fn finish(
    traced: bool,
    e2e: E2e,
    phases: Vec<(&'static str, Ops)>,
    gates: &[&str],
    inp: LayerInputs,
    mut notes: Vec<String>,
) -> Outcome {
    let correct = phases
        .iter()
        .all(|(name, o)| o.failed == 0 || !gates.contains(name));
    if traced {
        let metrics = trace::per_layer(&inp);
        let get = |n: &str| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .map_or(0.0, |m| m.value)
        };
        notes.push(format!(
            "reconciliation: client p50 {:.3} ms = queue wait {:.3} + batch {:.3} + client codec {:.3} + unattributed {:.3}",
            get("serve.client_p50_ms"),
            get("serve.queue_wait_ms"),
            get("serve.batch_ms"),
            get("serve.client_codec_ms"),
            get("serve.unattributed_ms"),
        ));
        return Outcome {
            correct,
            phases,
            metrics,
            notes,
        };
    }
    let (metrics, e2e_notes) = e2e.metrics();
    notes.extend(e2e_notes);
    Outcome {
        correct,
        phases,
        metrics,
        notes,
    }
}

// ---------------------------------------------------------------------
// serve_imdiff
// ---------------------------------------------------------------------

/// One closed-loop writer: a connection that is the single writer of
/// its tenant's stream.
struct Writer {
    tenant: usize,
    stream: TcpStream,
    seq: u64,
    cursor: usize,
    log: Vec<Sent>,
}

impl Writer {
    fn score(&mut self, tenant: &Tenant) -> (Reply, Duration) {
        self.seq += 1;
        let id = ((self.tenant as u64) << 40) | self.seq;
        let req = score_request(
            &tenant.id,
            self.seq,
            rows_at(&tenant.series, self.cursor, IMDIFF_HOP),
        );
        let t0 = Instant::now();
        let resp = send(&mut self.stream, &req, id).and_then(|_| recv(&mut self.stream, id));
        let dt = t0.elapsed();
        let reply = Reply::from_response(resp);
        let cursor = self.cursor;
        // A refused chunk was not ingested: the writer sends it again.
        if !matches!(reply, Reply::Refused) {
            self.cursor += IMDIFF_HOP;
        }
        self.log.push(Sent {
            cursor,
            reply: reply.clone(),
        });
        (reply, dt)
    }

    /// Scores until the first reply carrying verdicts (the monitor's
    /// window is full and the tenant answers).
    fn warm(&mut self, tenant: &Tenant, ops: &mut Ops) -> bool {
        for _ in 0..64 {
            match self.score(tenant).0 {
                Reply::Verdicts { verdicts, .. } => {
                    ops.ok();
                    if !verdicts.is_empty() {
                        return true;
                    }
                }
                _ => ops.fail(),
            }
        }
        false
    }
}

/// Closed loop: two connections, each the single writer of its own
/// ImDiffusion tenant, one request in flight, default `ServeConfig`.
pub fn serve_imdiff(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let cfg = bench_serve_cfg();
    let dir = RunDir::new("imdiff").map_err(|e| e.to_string())?;
    let mut tenants = Vec::new();
    let mut channels = 0;
    for t in 0..IMDIFF_TENANTS {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 2048,
            },
            mix(seed, 10 + t as u64),
        );
        channels = ds.train.dim();
        let det_seed = mix(seed, 20 + t as u64);
        let id = format!("imdiff-{t}");
        let env = fit_envelope(
            DetectorKind::ImDiffusion,
            &cfg,
            det_seed,
            &ds.train,
            &dir.path(&format!("{id}.fit.imde")),
            traced,
        )?;
        tenants.push(Tenant {
            id,
            series: Arc::new(ds.test),
            det_seed,
            envelopes: vec![env],
        });
    }
    let tenants = Arc::new(tenants);

    // Set-up, several times: server start, checkpoint load and warm-up
    // until every tenant answers. The last server is the one measured.
    let mut setup_ops = Ops::default();
    let mut setups = Setups::new(SETUP_REPS);
    let mut rep = 0;
    let (server, writers) = loop {
        rep += 1;
        let specs = tenant_specs(
            &dir.path(&format!("rep{rep}")),
            &tenants,
            &cfg,
            DetectorKind::ImDiffusion,
            channels,
            IMDIFF_HOP,
        )?;
        let t0 = Mark::now();
        let server =
            Server::start(ServeConfig::default(), specs).map_err(|e| format!("start: {e}"))?;
        let addr = server.addr();
        let handles: Vec<_> = (0..IMDIFF_TENANTS)
            .map(|t| {
                let tenants = Arc::clone(&tenants);
                std::thread::spawn(move || -> Result<(Writer, Ops, bool), String> {
                    let mut w = Writer {
                        tenant: t,
                        stream: connect(addr)?,
                        seq: 0,
                        cursor: 0,
                        log: Vec::new(),
                    };
                    let mut ops = Ops::default();
                    let ready = w.warm(&tenants[t], &mut ops);
                    Ok((w, ops, ready))
                })
            })
            .collect();
        let mut writers = Vec::new();
        let mut all_ready = true;
        for h in handles {
            match h
                .join()
                .map_err(|_| "warm-up thread panicked".to_string())?
            {
                Ok((w, ops, ready)) => {
                    setup_ops.add(ops);
                    all_ready &= ready;
                    writers.push(w);
                }
                Err(e) => {
                    server.drain();
                    return Err(e);
                }
            }
        }
        let more = setups.record(&t0);
        if !all_ready {
            drop(writers);
            server.drain();
            return Err("a tenant never answered with verdicts during warm-up".into());
        }
        if !more {
            break (server, writers);
        }
        drop(writers);
        server.drain();
    };

    // Timed phase.
    let total = Duration::from_secs_f64(seconds);
    let segs = Segments::start(total, traced);
    let t0 = Instant::now();
    let (stop, marker) = mark_slices(Budget::new(seconds, !traced));
    let handles: Vec<_> = writers
        .into_iter()
        .map(|mut w| {
            let tenants = Arc::clone(&tenants);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                let mut ops = Ops::default();
                while !stop.load(Ordering::SeqCst) {
                    let in_trace = trace::tracing();
                    let (reply, dt) = w.score(&tenants[w.tenant]);
                    let ms = dt.as_secs_f64() * 1e3;
                    let scored = matches!(reply, Reply::Verdicts { .. });
                    if scored {
                        ops.ok();
                    } else {
                        ops.fail();
                    }
                    samples.push(Sample {
                        done: Instant::now(),
                        ms,
                        traced: in_trace,
                        good: scored && !reply.shed() && ms <= IMDIFF_LIMIT_MS,
                        scored,
                    });
                    if matches!(reply, Reply::Lost) {
                        break;
                    }
                }
                (w, samples, ops)
            })
        })
        .collect();
    while !stop.load(Ordering::SeqCst) {
        segs.tick();
        std::thread::sleep(nap(traced, Duration::MAX));
    }
    let mut samples = Vec::new();
    let mut timed = Ops::default();
    let mut writers = Vec::new();
    for h in handles {
        let (w, s, ops) = h.join().map_err(|_| "client thread panicked".to_string())?;
        samples.extend(s);
        timed.add(ops);
        writers.push(w);
    }
    let wall = t0.elapsed();
    trace::stop();
    let (marks, budget) = marker
        .join()
        .map_err(|_| "marker thread panicked".to_string())?;
    let load = LoadReport {
        samples,
        timed,
        marks,
        peak_rss_mb: budget.peak_rss_mb(),
        traced_wall: segs.traced_wall(wall),
    };
    let logs: Vec<Vec<Sent>> = writers.into_iter().map(|w| w.log).collect();
    server.drain();

    // Verification: replay each tenant through its own mirror, one
    // thread per tenant (detectors are thread-local).
    let handles: Vec<_> = logs
        .into_iter()
        .enumerate()
        .map(|(t, log)| {
            let tenants = Arc::clone(&tenants);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                mirror(&tenants[t], &cfg, channels, IMDIFF_HOP, &log, traced)
            })
        })
        .collect();
    let mut reports = Vec::new();
    for h in handles {
        reports.push(h.join().map_err(|_| "mirror thread panicked".to_string())?);
    }
    let (verify, push_us_per_row, eval_ms) = merge_mirrors(&reports);

    let traced_ops = load.samples.iter().filter(|s| s.traced).count() as u64;
    let (traced_wall, timed) = (load.traced_wall, load.timed);
    let (e2e, p50_u, p50_t) = summarize(load, setups, IMDIFF_HOP as u64);
    let inp = LayerInputs {
        ops: traced_ops,
        traced_wall,
        p50_untraced_ms: p50_u,
        p50_traced_ms: p50_t,
        served: true,
        measured: if traced {
            vec![
                ("stream.push_batch_us_per_row", push_us_per_row),
                ("stream.evaluate_ms", eval_ms),
                ("pool.dispatch_us", trace::pool_dispatch_us()),
            ]
        } else {
            Vec::new()
        },
    };
    let phases = vec![("setup", setup_ops), ("timed", timed), ("verify", verify)];
    Ok(finish(traced, e2e, phases, &["verify"], inp, Vec::new()))
}

// ---------------------------------------------------------------------
// serve_fanin
// ---------------------------------------------------------------------

/// What the sender told the receiver it sent, in send order.
enum Event {
    Score {
        tenant: usize,
        cursor: usize,
        due: Instant,
        traced: bool,
    },
    Reload {
        tenant: usize,
        due: Instant,
        traced: bool,
    },
}

/// Open loop at `FANIN_RATE` over one connection (one sender thread,
/// one receiver thread) into eight z-score tenants on two shards, with a
/// reload every `FANIN_RELOAD_EVERY` and cadenced sidecar snapshots.
pub fn serve_fanin(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let cfg = fanin_cfg();
    let dir = RunDir::new("fanin").map_err(|e| e.to_string())?;
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut trains = Vec::new();
    let mut channels = 0;
    for t in 0..FANIN_TENANTS {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 512,
                test_len: 2048,
            },
            mix(seed, 100 + t as u64),
        );
        channels = ds.train.dim();
        let det_seed = mix(seed, 200 + t as u64);
        let id = format!("fanin-{t}");
        let env = fit_envelope(
            DetectorKind::ZScore,
            &cfg,
            det_seed,
            &ds.train,
            &dir.path(&format!("{id}.fit.imde")),
            traced,
        )?;
        tenants.push(Tenant {
            id,
            series: Arc::new(ds.test),
            det_seed,
            envelopes: vec![env],
        });
        trains.push(ds.train);
    }

    let mut setup_ops = Ops::default();
    let mut setups = Setups::new(SETUP_REPS);
    let mut rep = 0;
    let (server, (stream, mut logs, mut seqs, mut cursors), paths) = loop {
        rep += 1;
        let specs = tenant_specs(
            &dir.path(&format!("rep{rep}")),
            &tenants,
            &cfg,
            DetectorKind::ZScore,
            channels,
            FANIN_HOP,
        )?;
        let serve_cfg = ServeConfig {
            shards: FANIN_SHARDS,
            snapshot_every: Some(FANIN_SNAPSHOT_ROWS),
            // Reloads arrive over the wire only, and promotions are
            // final, so every generation maps to one re-saved envelope.
            reload_poll: None,
            regression_watch: 0,
            ..ServeConfig::default()
        };
        let paths: Vec<_> = specs.iter().map(|s| s.checkpoint.clone()).collect();
        let t0 = Mark::now();
        let server = Server::start(serve_cfg, specs).map_err(|e| format!("start: {e}"))?;
        let warmed = warm_fanin(server.addr(), &tenants, &mut setup_ops);
        let more = setups.record(&t0);
        match warmed {
            Ok(w) if !more => break (server, w, paths),
            Ok(_) => server.drain(),
            Err(e) => {
                server.drain();
                return Err(e);
            }
        }
    };

    let total = Duration::from_secs_f64(seconds);
    let budget = Budget::new(seconds, !traced);
    let mut write_half = stream.try_clone().map_err(|e| e.to_string())?;
    let mut read_half = stream;
    let (tx, rx) = mpsc::channel::<Event>();
    let (ready_tx, ready_rx) = mpsc::channel::<usize>();
    let ids: Vec<String> = tenants.iter().map(|t| t.id.clone()).collect();
    let series: Vec<Arc<Mts>> = tenants.iter().map(|t| Arc::clone(&t.series)).collect();

    // Reload candidates: z-score refits on shifted training slices, one
    // per reload slot inside the run (reload k goes to tenant k mod 8).
    let slots = (budget.cap_seconds() / FANIN_RELOAD_EVERY.as_secs_f64()).ceil() as usize;
    let mut cands = Vec::with_capacity(slots);
    for k in 0..slots {
        let t = k % FANIN_TENANTS;
        let train = &trains[t];
        let off = (k * 37) % (train.len() - 256);
        let mut d = AnyDetector::new(DetectorKind::ZScore, cfg.clone(), mix(seed, 300 + k as u64));
        d.fit(&train.slice_time(off, 256))
            .map_err(|e| format!("candidate fit: {e}"))?;
        cands.push((t, d));
    }

    let segs = Segments::start(total, traced);
    let t0 = Instant::now();
    let (stop, marker) = mark_slices(budget);
    let sender = {
        let ids = ids.clone();
        let series = series.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<Vec<f64>, String> {
            let period = Duration::from_secs_f64(1.0 / FANIN_RATE);
            let mut late_ms = Vec::new();
            let (mut j, mut k) = (0u32, 0usize);
            loop {
                let score_due = t0 + period * j;
                let reload_due = t0 + FANIN_RELOAD_EVERY * (k as u32 + 1);
                let is_reload = k < slots && reload_due <= score_due;
                let due = if is_reload { reload_due } else { score_due };
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let in_trace = trace::tracing();
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                if is_reload {
                    // The control thread re-saved the envelope ahead of
                    // this slot; the sender only puts the request on the
                    // wire, in order with the scoring traffic.
                    // A closed channel: the control thread saw the end
                    // of the phase before this slot's save.
                    let Ok(t) = ready_rx.recv() else { break };
                    tx.send(Event::Reload {
                        tenant: t,
                        due,
                        traced: in_trace,
                    })
                    .map_err(|e| e.to_string())?;
                    send(
                        &mut write_half,
                        &Request::Reload {
                            tenant: ids[t].clone(),
                        },
                        k as u64,
                    )?;
                    k += 1;
                } else {
                    let t = j as usize % FANIN_TENANTS;
                    seqs[t] += 1;
                    let rows = rows_at(&series[t], cursors[t], FANIN_HOP);
                    tx.send(Event::Score {
                        tenant: t,
                        cursor: cursors[t],
                        due,
                        traced: in_trace,
                    })
                    .map_err(|e| e.to_string())?;
                    cursors[t] += FANIN_HOP;
                    send(
                        &mut write_half,
                        &score_request(&ids[t], seqs[t], rows),
                        j as u64,
                    )?;
                    j += 1;
                }
            }
            Ok(late_ms)
        })
    };
    let receiver = std::thread::spawn(move || {
        let mut samples = Vec::new();
        let mut timed = Ops::default();
        let mut reloads = Ops::default();
        let mut reload_gens = [1u64; FANIN_TENANTS];
        let mut n = 0u64;
        for ev in rx {
            n += 1;
            let resp = recv(&mut read_half, n);
            let done = Instant::now();
            match ev {
                Event::Score {
                    tenant,
                    cursor,
                    due,
                    traced,
                } => {
                    let ms = done.saturating_duration_since(due).as_secs_f64() * 1e3;
                    let reply = Reply::from_response(resp);
                    let scored = matches!(reply, Reply::Verdicts { .. });
                    if scored {
                        timed.ok();
                    } else {
                        timed.fail();
                    }
                    samples.push(Sample {
                        done,
                        ms,
                        traced,
                        good: scored && !reply.shed() && ms <= FANIN_LIMIT_MS,
                        scored,
                    });
                    let lost = matches!(reply, Reply::Lost);
                    logs[tenant].push(Sent { cursor, reply });
                    if lost {
                        break;
                    }
                }
                Event::Reload {
                    tenant,
                    due,
                    traced,
                } => {
                    if traced {
                        trace::record("serve.reload", "client", n, due, done - due);
                    }
                    reload_gens[tenant] += 1;
                    match resp {
                        Ok(Response::ReloadStatus {
                            generation,
                            verdict: PromotionVerdict::Promoted,
                            ..
                        }) if generation == reload_gens[tenant] => reloads.ok(),
                        _ => reloads.fail(),
                    }
                }
            }
        }
        (samples, timed, reloads, logs)
    });

    // Control plane on this thread: re-save each reload's envelope
    // (`AnyDetector::save`, atomic write with fsync) shortly before its
    // slot, so disk latency never stalls the open-loop sender.
    let mut saved = Vec::with_capacity(slots);
    let mut save_error = None;
    while !stop.load(Ordering::SeqCst) {
        segs.tick();
        let k = saved.len();
        if k < slots && t0.elapsed() + SAVE_LEAD >= FANIN_RELOAD_EVERY * (k as u32 + 1) {
            let (t, det) = &cands[k];
            let r = trace::timed("registry.save", "reload", k as u64, || det.save(&paths[*t]))
                .and_then(|_| det.save_bytes());
            match r {
                Ok(bytes) => {
                    saved.push((*t, bytes));
                    let _ = ready_tx.send(*t);
                }
                Err(e) => {
                    save_error = Some(format!("save: {e}"));
                    break;
                }
            }
        }
        let next_save = (FANIN_RELOAD_EVERY * (saved.len() as u32 + 1)).saturating_sub(SAVE_LEAD);
        std::thread::sleep(nap(traced, next_save.saturating_sub(t0.elapsed())));
    }
    drop(ready_tx);
    let sent = sender
        .join()
        .map_err(|_| "sender thread panicked".to_string());
    let (samples, timed, reloads, logs) = receiver
        .join()
        .map_err(|_| "receiver thread panicked".to_string())?;
    let wall = t0.elapsed();
    trace::stop();
    let (marks, budget) = marker
        .join()
        .map_err(|_| "marker thread panicked".to_string())?;
    server.drain();
    if let Some(e) = save_error {
        return Err(e);
    }
    let late_ms = sent??;

    for (t, bytes) in saved {
        tenants[t].envelopes.push(bytes);
    }
    let reports: Vec<MirrorReport> = tenants
        .iter()
        .zip(&logs)
        .map(|(t, log)| mirror(t, &cfg, channels, FANIN_HOP, log, traced))
        .collect();
    let (verify, push_us_per_row, eval_ms) = merge_mirrors(&reports);

    let load = LoadReport {
        samples,
        timed,
        marks,
        peak_rss_mb: budget.peak_rss_mb(),
        traced_wall: segs.traced_wall(wall),
    };
    let traced_ops = load.samples.iter().filter(|s| s.traced).count() as u64;
    let (traced_wall, timed) = (load.traced_wall, load.timed);
    let (e2e, p50_u, p50_t) = summarize(load, setups, FANIN_HOP as u64);
    let late_p50 = median(&late_ms);
    let mut generator = Ops::default();
    if late_p50 <= FANIN_MAX_MEDIAN_LATE_MS {
        generator.ok();
    } else {
        generator.fail();
    }
    let notes = vec![format!(
        "generator lateness: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms over {} sends ({})",
        late_p50,
        percentile(&late_ms, 99.0),
        percentile(&late_ms, 100.0),
        late_ms.len(),
        if generator.failed == 0 {
            "valid"
        } else {
            "INVALID: sender fell behind"
        }
    )];
    let inp = LayerInputs {
        ops: traced_ops,
        traced_wall,
        p50_untraced_ms: p50_u,
        p50_traced_ms: p50_t,
        served: true,
        measured: if traced {
            vec![
                ("stream.push_batch_us_per_row", push_us_per_row),
                ("stream.evaluate_ms", eval_ms),
                ("gen.late_ms", crate::common::mean(&late_ms)),
                ("pool.dispatch_us", trace::pool_dispatch_us()),
            ]
        } else {
            Vec::new()
        },
    };
    let phases = vec![
        ("setup", setup_ops),
        ("timed", timed),
        ("reload", reloads),
        ("generator", generator),
        ("verify", verify),
    ];
    Ok(finish(
        traced,
        e2e,
        phases,
        &["reload", "generator", "verify"],
        inp,
        notes,
    ))
}

type Warmed = (TcpStream, Vec<Vec<Sent>>, Vec<u64>, Vec<usize>);

/// Pipelines two hops per tenant over one connection; every tenant must
/// answer its second hop with verdicts.
fn warm_fanin(addr: SocketAddr, tenants: &[Tenant], ops: &mut Ops) -> Result<Warmed, String> {
    let mut stream = connect(addr)?;
    let hops = FANIN_WINDOW / FANIN_HOP;
    let mut logs: Vec<Vec<Sent>> = tenants.iter().map(|_| Vec::new()).collect();
    let mut seqs = vec![0u64; tenants.len()];
    let mut cursors = vec![0usize; tenants.len()];
    let mut order = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        for _ in 0..hops {
            seqs[t] += 1;
            let rows = rows_at(&tenant.series, cursors[t], FANIN_HOP);
            send(&mut stream, &score_request(&tenant.id, seqs[t], rows), 0)?;
            order.push((t, cursors[t]));
            cursors[t] += FANIN_HOP;
        }
    }
    for (t, cursor) in order {
        let reply = Reply::from_response(recv(&mut stream, 0));
        let answered = matches!(&reply, Reply::Verdicts { .. });
        if answered {
            ops.ok();
        } else {
            ops.fail();
        }
        logs[t].push(Sent { cursor, reply });
    }
    for (t, log) in logs.iter().enumerate() {
        let last = log.last().map(|s| &s.reply);
        if !matches!(last, Some(Reply::Verdicts { verdicts, .. }) if !verdicts.is_empty()) {
            return Err(format!(
                "tenant {} gave no verdicts after warm-up",
                tenants[t].id
            ));
        }
    }
    Ok((stream, logs, seqs, cursors))
}
