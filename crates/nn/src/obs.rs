//! Structured observability: nestable timed spans, monotonic counters and
//! fixed-bucket histograms behind one thread-safe global registry.
//!
//! The workspace runs offline and dependency-free, so this module is the
//! telemetry stack: no `tracing`, no `metrics` crate, just a [`Mutex`]ed
//! registry of named aggregates and a JSON snapshot exporter built on
//! [`crate::serialize::atomic_write`]. Three primitives cover the hot
//! paths:
//!
//! * **Spans** ([`span`]) — RAII timers. Spans nest *per thread*: each
//!   span records its total wall time and its *self* time (total minus
//!   the time spent in child spans opened on the same thread). A span
//!   opened on a worker thread is a root on that thread; cross-thread
//!   parentage is intentionally not tracked — aggregation by name makes
//!   per-worker busy time legible without a distributed-context protocol.
//! * **Counters** ([`counter`]) — monotonic `u64` sums.
//! * **Histograms** ([`histogram`]) — fixed decade buckets spanning
//!   `1e-9 ..= 1e9` plus an overflow bucket, with count/sum/min/max.
//!   Fixed bounds keep merging and snapshot diffing trivial.
//!
//! # Enablement and the no-op fast path
//!
//! Observability is **off by default**. It is switched on either by the
//! `IMDIFF_OBS` environment variable (`1`/`true`/`on`/`yes`, read once,
//! lazily) or programmatically via [`set_enabled`] (which overrides the
//! environment). Every primitive first performs a single relaxed atomic
//! load; when disabled, no clock is read, no lock is taken and nothing
//! allocates — instrumented hot loops cost one predictable branch.
//!
//! # Determinism guarantee
//!
//! Instrumentation only ever *observes*: it reads the monotonic clock and
//! updates the registry. It never draws from an RNG, never reorders a
//! merge, and never changes a partition — so every detector verdict,
//! training trajectory and RNG stream is bit-identical with observability
//! enabled or disabled, at any thread count. The `thread_determinism` and
//! `train_resilience` suites enforce this contract.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

fn env_enabled() -> bool {
    std::env::var("IMDIFF_OBS")
        .map(|v| {
            matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "1" | "true" | "on" | "yes"
            )
        })
        .unwrap_or(false)
}

/// Whether observability is currently enabled. The first call resolves
/// the `IMDIFF_OBS` environment variable; afterwards this is a single
/// relaxed atomic load — the no-op fast path of every primitive.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = env_enabled();
            // A concurrent set_enabled may win; respect whatever landed.
            let _ = STATE.compare_exchange(
                STATE_UNINIT,
                if on { STATE_ON } else { STATE_OFF },
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            STATE.load(Ordering::Relaxed) == STATE_ON
        }
    }
}

/// Programmatic toggle, overriding the `IMDIFF_OBS` environment variable.
/// Already-recorded aggregates are kept; see [`reset`] to clear them.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Upper bounds of the fixed histogram buckets (decades, `1e-9 ..= 1e9`);
/// one final overflow bucket catches everything larger. A value lands in
/// the first bucket whose bound it does not exceed.
pub const HIST_BOUNDS: [f64; 19] = [
    1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5,
    1e6, 1e7, 1e8, 1e9,
];

/// Bucket count including the overflow bucket.
pub const HIST_BUCKETS: usize = HIST_BOUNDS.len() + 1;

/// Aggregated statistics of one named span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Completed calls.
    pub count: u64,
    /// Total wall time across calls, in nanoseconds.
    pub total_ns: u64,
    /// Total time minus time spent in same-thread child spans.
    pub self_ns: u64,
    /// Shortest single call.
    pub min_ns: u64,
    /// Longest single call.
    pub max_ns: u64,
}

impl SpanStat {
    fn record(&mut self, elapsed_ns: u64, self_ns: u64) {
        if self.count == 0 {
            self.min_ns = elapsed_ns;
            self.max_ns = elapsed_ns;
        } else {
            self.min_ns = self.min_ns.min(elapsed_ns);
            self.max_ns = self.max_ns.max(elapsed_ns);
        }
        self.count += 1;
        self.total_ns += elapsed_ns;
        self.self_ns += self_ns;
    }
}

/// Aggregated statistics of one named histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistStat {
    /// Values recorded (finite and non-finite alike).
    pub count: u64,
    /// Sum of the finite values.
    pub sum: f64,
    /// Smallest finite value (0.0 until one is recorded).
    pub min: f64,
    /// Largest finite value (0.0 until one is recorded).
    pub max: f64,
    /// Per-bucket counts; bucket `i` counts values `<=` [`HIST_BOUNDS`]`[i]`
    /// and the last bucket is the overflow for finite values above the
    /// largest bound. Non-finite values increment `count` only.
    pub buckets: Vec<u64>,
}

impl Default for HistStat {
    fn default() -> Self {
        HistStat {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl HistStat {
    fn record(&mut self, value: f64) {
        self.count += 1;
        if !value.is_finite() {
            return;
        }
        let bucket = HIST_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(HIST_BOUNDS.len());
        if self.buckets.iter().all(|&b| b == 0) {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.sum += value;
        self.buckets[bucket] += 1;
    }
}

#[derive(Default)]
struct Registry {
    spans: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistStat>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Registry::default))
}

/// Clears every recorded span, counter and histogram (the enable state is
/// untouched). Tests and long-lived processes use this to scope snapshots.
pub fn reset() {
    with_registry(|r| {
        r.spans.clear();
        r.counters.clear();
        r.histograms.clear();
    });
}

/// Adds `delta` to the monotonic counter `name`. No-op when disabled.
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| *r.counters.entry(name).or_insert(0) += delta);
}

/// Records `value` into the fixed-bucket histogram `name`. No-op when
/// disabled. Non-finite values land in the overflow bucket and are
/// excluded from `sum`/`min`/`max`.
pub fn histogram(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_registry(|r| r.histograms.entry(name).or_default().record(value));
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread stack of child-time accumulators: one frame per open
    /// span on this thread, counting nanoseconds spent in its children.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records itself into the registry on drop. Returned
/// disarmed (a pure no-op) when observability is disabled at open time.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    inner: Option<(&'static str, Instant)>,
}

impl Span {
    /// Whether this span will record on drop.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }
}

/// Opens a timed span named `name`. Spans opened while the returned guard
/// is alive (on the same thread) count as children: their wall time is
/// subtracted from this span's *self* time.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    CHILD_NS.with(|s| s.borrow_mut().push(0));
    Span {
        inner: Some((name, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((name, start)) = self.inner.take() else {
            return;
        };
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let child = CHILD_NS.with(|s| {
            let mut stack = s.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += elapsed;
            }
            child
        });
        let self_ns = elapsed.saturating_sub(child);
        with_registry(|r| r.spans.entry(name).or_default().record(elapsed, self_ns));
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of the registry, ordered by name (the registry is
/// a `BTreeMap`, so snapshots of identical state are identical).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Span aggregates, sorted by name.
    pub spans: Vec<(String, SpanStat)>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram aggregates, sorted by name.
    pub histograms: Vec<(String, HistStat)>,
}

impl Snapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// The aggregate for span `name`, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The aggregate for histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistStat> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serializes the snapshot as pretty-printed JSON (schema
    /// `imdiff-obs-v1`). Floats use Rust's shortest round-trip formatting,
    /// so [`Snapshot::from_json`] reproduces the snapshot exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"imdiff-obs-v1\",\n  \"spans\": [");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \
                 \"min_ns\": {}, \"max_ns\": {}}}",
                json_escape(name),
                s.count,
                s.total_ns,
                s.self_ns,
                s.min_ns,
                s.max_ns
            ));
        }
        out.push_str(if self.spans.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"counters\": [");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {v}}}",
                json_escape(name)
            ));
        }
        out.push_str(if self.counters.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"histograms\": [");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"sum\": {:?}, \"min\": {:?}, \
                 \"max\": {:?}, \"buckets\": [{}]}}",
                json_escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                buckets.join(", ")
            ));
        }
        out.push_str(if self.histograms.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }

    /// Parses a snapshot previously produced by [`Snapshot::to_json`].
    /// Accepts any JSON with the `imdiff-obs-v1` structure; rejects other
    /// schemas and malformed documents with a descriptive message.
    pub fn from_json(text: &str) -> std::result::Result<Snapshot, String> {
        let root = json::parse(text)?;
        let obj = root.as_obj().ok_or("snapshot root must be an object")?;
        match json::get(obj, "schema").and_then(Json::as_str) {
            Some("imdiff-obs-v1") => {}
            Some(other) => return Err(format!("unsupported snapshot schema {other:?}")),
            None => return Err("snapshot is missing the schema field".into()),
        }
        let mut snap = Snapshot::default();
        for item in json::get_arr(obj, "spans")? {
            let o = item.as_obj().ok_or("span entry must be an object")?;
            snap.spans.push((
                json::req_str(o, "name")?,
                SpanStat {
                    count: json::req_u64(o, "count")?,
                    total_ns: json::req_u64(o, "total_ns")?,
                    self_ns: json::req_u64(o, "self_ns")?,
                    min_ns: json::req_u64(o, "min_ns")?,
                    max_ns: json::req_u64(o, "max_ns")?,
                },
            ));
        }
        for item in json::get_arr(obj, "counters")? {
            let o = item.as_obj().ok_or("counter entry must be an object")?;
            snap.counters
                .push((json::req_str(o, "name")?, json::req_u64(o, "value")?));
        }
        for item in json::get_arr(obj, "histograms")? {
            let o = item.as_obj().ok_or("histogram entry must be an object")?;
            let buckets: Vec<u64> = json::get(o, "buckets")
                .and_then(Json::as_arr)
                .ok_or("histogram entry is missing buckets")?
                .iter()
                .map(|b| {
                    b.as_u64()
                        .ok_or_else(|| "bucket counts must be integers".to_string())
                })
                .collect::<std::result::Result<_, _>>()?;
            if buckets.len() != HIST_BUCKETS {
                return Err(format!(
                    "histogram has {} buckets, expected {HIST_BUCKETS}",
                    buckets.len()
                ));
            }
            snap.histograms.push((
                json::req_str(o, "name")?,
                HistStat {
                    count: json::req_u64(o, "count")?,
                    sum: json::req_f64(o, "sum")?,
                    min: json::req_f64(o, "min")?,
                    max: json::req_f64(o, "max")?,
                    buckets,
                },
            ));
        }
        Ok(snap)
    }
}

/// Copies the current registry contents into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    with_registry(|r| Snapshot {
        spans: r.spans.iter().map(|(&n, s)| (n.to_string(), *s)).collect(),
        counters: r.counters.iter().map(|(&n, &v)| (n.to_string(), v)).collect(),
        histograms: r
            .histograms
            .iter()
            .map(|(&n, h)| (n.to_string(), h.clone()))
            .collect(),
    })
}

/// [`snapshot`] serialized as JSON.
pub fn snapshot_json() -> String {
    snapshot().to_json()
}

/// Writes the current snapshot to `path` as JSON, atomically (temp file +
/// rename via [`crate::serialize::atomic_write`]).
pub fn export(path: &Path) -> std::io::Result<()> {
    crate::serialize::atomic_write(path, snapshot_json().as_bytes())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (subset: objects, arrays, strings, numbers, bools)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

mod json {
    use super::Json;

    pub(super) fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub(super) fn get_arr<'a>(
        obj: &'a [(String, Json)],
        key: &str,
    ) -> Result<&'a [Json], String> {
        get(obj, key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("snapshot is missing the {key} array"))
    }

    pub(super) fn req_str(obj: &[(String, Json)], key: &str) -> Result<String, String> {
        get(obj, key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("entry is missing string field {key}"))
    }

    pub(super) fn req_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
        get(obj, key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("entry is missing integer field {key}"))
    }

    pub(super) fn req_f64(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
        get(obj, key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("entry is missing number field {key}"))
    }

    pub(super) fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }

        fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.lit("true", Json::Bool(true)),
                Some(b'f') => self.lit("false", Json::Bool(false)),
                Some(b'n') => self.lit("null", Json::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(format!("unexpected byte at {}", self.i)),
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut out = Vec::new();
            self.ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(Json::Obj(out));
            }
            loop {
                self.ws();
                let key = self.string()?;
                self.ws();
                self.expect(b':')?;
                self.ws();
                out.push((key, self.value()?));
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Json::Obj(out));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            self.ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(Json::Arr(out));
            }
            loop {
                self.ws();
                out.push(self.value()?);
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Json::Arr(out));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        let esc = self.peek().ok_or("unterminated escape")?;
                        self.i += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .b
                                    .get(self.i..self.i + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "invalid \\u escape")?;
                                self.i += 4;
                                out.push(
                                    char::from_u32(code).ok_or("invalid \\u code point")?,
                                );
                            }
                            _ => return Err(format!("invalid escape at byte {}", self.i)),
                        }
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input is a &str, so
                        // byte boundaries are valid).
                        let rest = &self.b[self.i..];
                        let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                        let ch = s.chars().next().ok_or("unterminated string")?;
                        out.push(ch);
                        self.i += ch.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.i;
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.i += 1;
                } else {
                    break;
                }
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes access to the global enable toggle + registry across
    /// tests in this module (cargo runs them on parallel threads). Op
    /// tests that run many kernels take it too, so that a snapshot here
    /// holds only what the obs test itself recorded.
    pub(crate) fn with_exclusive_obs<R>(f: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was = enabled();
        let out = f();
        set_enabled(was);
        out
    }

    #[test]
    fn disabled_primitives_record_nothing() {
        with_exclusive_obs(|| {
            set_enabled(false);
            reset();
            counter("test.disabled.counter", 3);
            histogram("test.disabled.hist", 1.0);
            let s = span("test.disabled.span");
            assert!(!s.is_armed());
            drop(s);
            let snap = snapshot();
            assert!(snap.counter("test.disabled.counter").is_none());
            assert!(snap.histogram("test.disabled.hist").is_none());
            assert!(snap.span("test.disabled.span").is_none());
        });
    }

    #[test]
    fn counters_accumulate() {
        with_exclusive_obs(|| {
            set_enabled(true);
            reset();
            counter("test.counter", 2);
            counter("test.counter", 5);
            assert_eq!(snapshot().counter("test.counter"), Some(7));
        });
    }

    #[test]
    fn histogram_buckets_and_extrema() {
        with_exclusive_obs(|| {
            set_enabled(true);
            reset();
            histogram("test.hist", f64::NAN); // counted, no bucket
            histogram("test.hist", 0.5); // <= 1e0 bucket
            histogram("test.hist", 250.0); // <= 1e3 bucket
            histogram("test.hist", 1e12); // overflow bucket
            let snap = snapshot();
            let h = snap.histogram("test.hist").expect("histogram recorded");
            assert_eq!(h.count, 4);
            assert_eq!(h.min, 0.5);
            assert_eq!(h.max, 1e12);
            assert!((h.sum - (0.5 + 250.0 + 1e12)).abs() < 1e-6);
            let le_1 = HIST_BOUNDS.iter().position(|&b| b == 1e0).unwrap();
            let le_1e3 = HIST_BOUNDS.iter().position(|&b| b == 1e3).unwrap();
            assert_eq!(h.buckets[le_1], 1);
            assert_eq!(h.buckets[le_1e3], 1);
            assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
            assert_eq!(h.buckets.iter().sum::<u64>(), 3);
        });
    }

    #[test]
    fn span_nesting_splits_self_time() {
        with_exclusive_obs(|| {
            set_enabled(true);
            reset();
            {
                let _outer = span("test.outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span("test.inner");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            let snap = snapshot();
            let outer = snap.span("test.outer").expect("outer recorded");
            let inner = snap.span("test.inner").expect("inner recorded");
            assert_eq!(outer.count, 1);
            assert_eq!(inner.count, 1);
            // The child's wall time is carved out of the parent's self time.
            assert!(outer.total_ns >= inner.total_ns);
            assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
            assert_eq!(inner.self_ns, inner.total_ns);
            assert!(outer.min_ns <= outer.max_ns);
        });
    }

    #[test]
    fn worker_thread_spans_aggregate_by_name() {
        with_exclusive_obs(|| {
            set_enabled(true);
            reset();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        let _w = span("test.worker");
                    });
                }
            });
            assert_eq!(snapshot().span("test.worker").map(|s| s.count), Some(3));
        });
    }

    #[test]
    fn json_snapshot_round_trips() {
        with_exclusive_obs(|| {
            set_enabled(true);
            reset();
            counter("test.rt.counter", 11);
            histogram("test.rt.hist", 3.25);
            histogram("test.rt.hist", 0.125);
            {
                let _s = span("test.rt.span");
            }
            let snap = snapshot();
            let parsed = Snapshot::from_json(&snap.to_json()).expect("parse own JSON");
            assert_eq!(parsed, snap);
        });
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(parsed, snap);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("{").is_err());
        assert!(Snapshot::from_json("[]").is_err());
        assert!(Snapshot::from_json("{\"schema\": \"other\"}").is_err());
        assert!(Snapshot::from_json(
            "{\"schema\": \"imdiff-obs-v1\", \"spans\": [], \"counters\": 3, \
             \"histograms\": []}"
        )
        .is_err());
    }

    #[test]
    fn export_writes_parseable_file() {
        with_exclusive_obs(|| {
            set_enabled(true);
            reset();
            counter("test.export.counter", 1);
            let path = std::env::temp_dir()
                .join(format!("imdiff-obs-{}.json", std::process::id()));
            export(&path).expect("export");
            let text = std::fs::read_to_string(&path).expect("read back");
            let parsed = Snapshot::from_json(&text).expect("parse exported JSON");
            assert_eq!(parsed.counter("test.export.counter"), Some(1));
            std::fs::remove_file(&path).ok();
        });
    }

    #[test]
    fn reset_clears_everything() {
        with_exclusive_obs(|| {
            set_enabled(true);
            reset();
            counter("test.reset.counter", 1);
            assert!(!snapshot().is_empty());
            reset();
            assert!(snapshot().is_empty());
        });
    }
}
