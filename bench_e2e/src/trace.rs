//! The traced run: alternating untraced/traced segments, benchmark-side
//! spans kept in memory, and the per-layer metrics derived from them and
//! from the program's own obs registry.
//!
//! A traced run (`--trace 1`) splits the timed phase into eight equal
//! segments that alternate untraced / traced, so slow drifts of the host
//! fall on both sides of `obs.overhead_pct` alike. During traced
//! segments the program's obs registry is on (the programmatic form of
//! `IMDIFF_OBS=1`) and the benchmark records its own spans around calls
//! into public functions. Per-layer numbers come from the traced
//! segments only; the untraced ones give the baseline for
//! `obs.overhead_pct`. End-to-end metrics never come from a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use imdiff_nn::obs;

use crate::common::{mean, out_dir, Metric};

static TRACING: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One benchmark-side span. Spans of one request share `req`; `parent`
/// names the enclosing layer boundary.
pub struct SpanRec {
    pub name: &'static str,
    pub parent: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Whether the current segment is traced.
pub fn tracing() -> bool {
    TRACING.load(Ordering::SeqCst)
}

/// Process CPU seconds spent in traced segments, and the reading taken
/// when the current traced segment began.
static TRACED_CPU: Mutex<(f64, Option<f64>)> = Mutex::new((0.0, None));

fn set_tracing(on: bool) {
    obs::set_enabled(on);
    TRACING.store(on, Ordering::SeqCst);
    let now = crate::common::cpu_seconds();
    let mut cpu = TRACED_CPU.lock().unwrap_or_else(|e| e.into_inner());
    match (on, cpu.1) {
        (true, None) => cpu.1 = Some(now),
        (false, Some(since)) => *cpu = (cpu.0 + now - since, None),
        _ => {}
    }
}

/// Stops tracing for good (after the timed phase).
pub fn stop() {
    set_tracing(false);
}

/// Records a span that started at `start` and lasted `dur`.
pub fn record(name: &'static str, parent: &'static str, req: u64, start: Instant, dur: Duration) {
    let epoch = *EPOCH.get_or_init(Instant::now);
    let rec = SpanRec {
        name,
        parent,
        req,
        start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
        dur_ns: dur.as_nanos() as u64,
    };
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
}

/// Runs `f`, recording it as span `name` when the segment is traced.
pub fn timed<R>(name: &'static str, parent: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    timed_when(tracing(), name, parent, req, f)
}

/// Runs `f`, recording it as span `name` when `on` (for set-up and
/// verification work of a traced run, which runs outside the segments).
pub fn timed_when<R>(
    on: bool,
    name: &'static str,
    parent: &'static str,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    record(name, parent, req, t0, t0.elapsed());
    r
}

/// Mean duration in milliseconds of the benchmark spans named `name`.
pub fn span_mean_ms(name: &str) -> f64 {
    let spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    mean(&v)
}

/// Segments of a traced run's timed phase (an even count).
const SEGMENTS: u32 = 8;

/// The segment schedule of the timed phase.
pub struct Segments {
    start: Instant,
    seg: Duration,
    enabled: bool,
}

impl Segments {
    /// Starts the schedule now. With `enabled == false` every segment is
    /// untraced (the end-to-end runs).
    pub fn start(total: Duration, enabled: bool) -> Segments {
        EPOCH.get_or_init(Instant::now);
        Segments {
            start: Instant::now(),
            seg: total / SEGMENTS,
            enabled,
        }
    }

    /// Switches tracing to match the segment the clock is in and reports
    /// whether it is traced.
    pub fn tick(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let idx = self.start.elapsed().as_nanos() / self.seg.as_nanos().max(1);
        let on = idx % 2 == 1;
        if tracing() != on {
            set_tracing(on);
        }
        on
    }

    /// Wall time spent in traced segments during the first `elapsed` of
    /// the schedule.
    pub fn traced_wall(&self, elapsed: Duration) -> Duration {
        if !self.enabled {
            return Duration::ZERO;
        }
        let mut total = Duration::ZERO;
        let mut t = Duration::ZERO;
        let mut idx = 0u32;
        while t < elapsed {
            let end = (t + self.seg).min(elapsed);
            if idx % 2 == 1 {
                total += end - t;
            }
            t += self.seg;
            idx += 1;
        }
        total
    }
}

/// Measurements of a traced run that only the workload knows.
#[derive(Default)]
pub struct LayerInputs {
    /// Ops completed during traced segments.
    pub ops: u64,
    /// Wall time of the traced segments.
    pub traced_wall: Duration,
    /// Median op latency in untraced and traced segments.
    pub p50_untraced_ms: f64,
    pub p50_traced_ms: f64,
    /// Whether the workload is served over the wire (enables the
    /// reconciliation row).
    pub served: bool,
    /// Workload-measured layer values (mirror replay, generator
    /// lateness, pool probe), by metric name.
    pub measured: Vec<(&'static str, f64)>,
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.batch_ms", "ms"),
    ("serve.client_codec_ms", "ms"),
    ("serve.client_p50_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.refused_per_k", "per_k"),
    ("serve.reload_ms", "ms"),
    ("gen.late_ms", "ms"),
    ("registry.load_ms", "ms"),
    ("registry.save_ms", "ms"),
    ("stream.push_batch_us_per_row", "us/row"),
    ("stream.evaluate_ms", "ms"),
    ("infer.ensemble_ms", "ms"),
    ("infer.denoise_step_ms", "ms"),
    ("infer.windows_per_group", "count"),
    ("trainer.step_ms", "ms"),
    ("trainer.steps", "count"),
    ("nn.matmul_ms", "ms"),
    ("nn.matmul.simd_share", "ratio"),
    ("nn.sdpa_ms", "ms"),
    ("nn.layer_norm_ms", "ms"),
    ("nn.softmax_ms", "ms"),
    ("nn.elementwise_ms", "ms"),
    ("nn.shape_ms", "ms"),
    ("pool.dispatches", "count"),
    ("pool.tasks_per_dispatch", "count"),
    ("pool.fanout_share", "ratio"),
    ("pool.busy_share", "ratio"),
    ("pool.dispatch_us", "us"),
    ("obs.overhead_pct", "%"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives the per-layer metrics from the obs registry, the benchmark
/// spans and the workload's own measurements. A layer the workload does
/// not exercise reads 0.
pub fn per_layer(inp: &LayerInputs) -> Vec<Metric> {
    let snap = obs::snapshot();
    let ops = inp.ops.max(1) as f64;
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    let span_total_ms = |n: &str| snap.span(n).map_or(0.0, |s| s.total_ns as f64 / 1e6);
    let span_self_ms = |n: &str| snap.span(n).map_or(0.0, |s| s.self_ns as f64 / 1e6);
    let span_count = |n: &str| snap.span(n).map_or(0.0, |s| s.count as f64);
    let span_mean = |n: &str| ratio(span_total_ms(n), span_count(n));
    let self_per_op = |names: &[&str]| names.iter().map(|n| span_self_ms(n)).sum::<f64>() / ops;

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let encode_us = span_mean_ms("wire.encode") * 1e3;
    let decode_us = span_mean_ms("wire.decode") * 1e3;
    m.insert("wire.encode_us", encode_us);
    m.insert("wire.decode_us", decode_us);
    let wait = snap.histogram("serve.queue_wait_s");
    let queue_wait_ms = wait.map_or(0.0, |h| ratio(h.sum, h.count as f64) * 1e3);
    m.insert("serve.queue_wait_ms", queue_wait_ms);
    m.insert(
        "serve.batch_size",
        ratio(counter("serve.batch_items"), counter("serve.batches")),
    );
    let batch_ms = span_mean("serve.batch");
    m.insert("serve.batch_ms", batch_ms);
    if inp.served {
        let codec_ms = (encode_us + decode_us) / 1e3;
        m.insert("serve.client_codec_ms", codec_ms);
        m.insert("serve.client_p50_ms", inp.p50_traced_ms);
        m.insert(
            "serve.unattributed_ms",
            inp.p50_traced_ms - queue_wait_ms - batch_ms - codec_ms,
        );
    }
    m.insert(
        "serve.refused_per_k",
        1e3 * ratio(
            counter("serve.overloaded") + counter("serve.timeouts") + counter("serve.shed"),
            counter("serve.score_requests"),
        ),
    );
    m.insert("serve.reload_ms", span_mean_ms("serve.reload"));
    m.insert("registry.load_ms", span_mean_ms("registry.load"));
    m.insert("registry.save_ms", span_mean_ms("registry.save"));
    m.insert(
        "infer.ensemble_ms",
        ratio(
            span_total_ms("infer.ensemble") + span_total_ms("infer.ensemble_windows"),
            span_count("infer.ensemble") + span_count("infer.ensemble_windows"),
        ),
    );
    m.insert(
        "infer.denoise_step_ms",
        ratio(
            span_self_ms("infer.denoise_step"),
            span_count("infer.denoise_step"),
        ),
    );
    m.insert(
        "infer.windows_per_group",
        ratio(counter("infer.windows"), counter("infer.window_groups")),
    );
    m.insert("trainer.step_ms", span_mean("trainer.step"));
    m.insert("trainer.steps", counter("trainer.steps") / ops);
    m.insert("nn.matmul_ms", self_per_op(&["nn.matmul"]));
    m.insert(
        "nn.matmul.simd_share",
        ratio(counter("nn.matmul.simd"), counter("nn.matmul.calls")),
    );
    m.insert("nn.sdpa_ms", self_per_op(&["nn.sdpa"]));
    m.insert("nn.layer_norm_ms", self_per_op(&["nn.layer_norm"]));
    m.insert("nn.softmax_ms", self_per_op(&["nn.softmax"]));
    m.insert("nn.elementwise_ms", self_per_op(&["nn.binary", "nn.unary"]));
    m.insert(
        "nn.shape_ms",
        self_per_op(&["nn.permute", "nn.reshape", "nn.concat", "nn.slice"]),
    );
    let dispatches = counter("pool.dispatches");
    m.insert("pool.dispatches", dispatches / ops);
    m.insert(
        "pool.tasks_per_dispatch",
        ratio(counter("pool.tasks"), dispatches),
    );
    m.insert(
        "pool.fanout_share",
        if dispatches > 0.0 {
            1.0 - counter("pool.inline_runs") / dispatches
        } else {
            0.0
        },
    );
    // Process CPU rather than `pool.worker` time: inline dispatches inside
    // a fanned-out worker open their own nested `pool.worker` span, so
    // that span's total counts the same time more than once. Only the
    // offline workloads, where the pool is the main user of CPU; on the
    // served ones client, event-loop and shard threads would dominate it.
    if !inp.served {
        let width = imdiff_nn::pool::max_threads() as f64;
        let traced_cpu = TRACED_CPU.lock().unwrap_or_else(|e| e.into_inner()).0;
        m.insert(
            "pool.busy_share",
            ratio(traced_cpu, inp.traced_wall.as_secs_f64() * width),
        );
    }
    m.insert(
        "obs.overhead_pct",
        if inp.p50_untraced_ms > 0.0 {
            (inp.p50_traced_ms / inp.p50_untraced_ms - 1.0) * 100.0
        } else {
            0.0
        },
    );
    for &(name, v) in &inp.measured {
        m.insert(name, v);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Writes the benchmark spans, the obs snapshot and the per-layer
/// metrics of a traced run to `out/trace-<workload>-<seed>.json`.
pub fn write_out(
    workload: &str,
    seed: u64,
    metrics: &[Metric],
) -> std::io::Result<std::path::PathBuf> {
    let spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = String::with_capacity(64 * spans.len() + 4096);
    let _ = write!(
        s,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"per_layer\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(s, "{sep}\"{}\": {v}", m.name);
    }
    s.push_str("},\n\"spans\": [");
    for (i, r) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            s,
            "{sep}{{\"name\": \"{}\", \"parent\": \"{}\", \"req\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
            r.name, r.parent, r.req, r.start_ns, r.dur_ns
        );
    }
    let _ = write!(s, "],\n\"obs\": {}}}\n", obs::snapshot().to_json());
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("trace-{workload}-{seed}.json"));
    std::fs::write(&path, s)?;
    Ok(path)
}

/// `pool.dispatch_us`: median cost of one `pool::parallel_for` with a
/// trivial body at the default width, timed from outside the pool.
pub fn pool_dispatch_us() -> f64 {
    use std::sync::atomic::AtomicU64;
    let sink = AtomicU64::new(0);
    let width = imdiff_nn::pool::max_threads();
    let mut samples = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t0 = Instant::now();
        imdiff_nn::pool::parallel_for(width, 1, |r| {
            sink.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    std::hint::black_box(sink.load(Ordering::Relaxed));
    crate::common::median(&samples)
}
