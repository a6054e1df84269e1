//! Shared plumbing: argument parsing, sample statistics, process
//! counters (CPU time, peak RSS), per-phase op accounting and the
//! one-line JSON result.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// SplitMix64: derives independent, reproducible sub-seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `u64` words: bit-exact digests for correctness gates.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Median of a sample (upper median for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile `p` (0..=100) of a sample; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Process user+system CPU time so far, all threads included (live and
/// exited), from `/proc/self/stat` in USER_HZ (100 Hz) ticks.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after ")".
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Cumulative `(steal, total)` CPU ticks of the whole machine from
/// `/proc/stat`: time the hypervisor gave this machine's CPUs to others.
fn host_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Share of machine CPU time stolen by the hypervisor between two
/// [`host_ticks`] readings, in percent.
fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// A slice whose host steal exceeds this share of the machine's CPU time
/// is left out of the end-to-end metrics. Steal is CPU time the
/// hypervisor gave to other guests while this one wanted to run; at a
/// few percent it already stretches wall times by tens of percent.
const STEAL_LIMIT_PCT: f64 = 5.0;
/// An untraced timed phase runs until it holds `--seconds` of slices
/// within the steal limit, but never longer than this many times
/// `--seconds`.
const MAX_EXTEND: f64 = 3.0;
/// When fewer slices than this share of the timed wall pass the steal
/// limit, the least-stolen slices up to this share are kept instead.
const MIN_KEPT_SHARE: f64 = 0.25;
/// Length of the slices of an open or closed serving loop. Offline
/// workloads cut one slice per op instead.
const SLICE: Duration = Duration::from_millis(250);

/// One reading of the clocks that delimit a slice of the timed phase.
#[derive(Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    host: (u64, u64),
    cpu_s: f64,
}

impl Mark {
    pub fn now() -> Mark {
        Mark {
            at: Instant::now(),
            host: host_ticks(),
            cpu_s: cpu_seconds(),
        }
    }
}

/// Decides when a timed phase ends. A traced phase (or `extend ==
/// false`) lasts exactly `seconds`; an untraced one lasts until `seconds`
/// of its slices are within the steal limit, or `MAX_EXTEND × seconds`.
pub struct Budget {
    need: f64,
    cap: f64,
    extend: bool,
    kept: f64,
    rss_mb: Option<f64>,
}

impl Budget {
    pub fn new(seconds: f64, extend: bool) -> Budget {
        Budget {
            need: seconds,
            cap: if extend {
                MAX_EXTEND * seconds
            } else {
                seconds
            },
            extend,
            kept: 0.0,
            rss_mb: None,
        }
    }

    /// Peak resident memory once `--seconds` had passed: the same amount
    /// of traffic in every run, however long the steal filter extends
    /// the phase (the benchmark's own logs grow with it).
    pub fn peak_rss_mb(&self) -> f64 {
        self.rss_mb.unwrap_or_else(peak_rss_mb)
    }

    /// The longest the phase can last, in seconds.
    pub fn cap_seconds(&self) -> f64 {
        self.cap
    }

    /// Accounts the slice `from..to` of a phase that began at `start`
    /// and says whether the phase goes on.
    pub fn more(&mut self, start: &Mark, from: &Mark, to: &Mark) -> bool {
        let elapsed = (to.at - start.at).as_secs_f64();
        if elapsed >= self.need && self.rss_mb.is_none() {
            self.rss_mb = Some(peak_rss_mb());
        }
        if !self.extend {
            return elapsed < self.need;
        }
        if steal_pct(from.host, to.host) <= STEAL_LIMIT_PCT {
            self.kept += (to.at - from.at).as_secs_f64();
        }
        self.kept < self.need && elapsed < self.cap
    }
}

/// Takes a [`Mark`] every [`SLICE`] on a thread of its own, for the
/// serving loops, and raises the returned flag when `budget` ends the
/// phase. The thread returns the marks and the budget.
pub fn mark_slices(mut budget: Budget) -> (Arc<AtomicBool>, JoinHandle<(Vec<Mark>, Budget)>) {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let start = Mark::now();
    let handle = std::thread::spawn(move || {
        let mut marks = vec![start];
        let mut next = start.at + SLICE;
        loop {
            let now = Instant::now();
            if next > now {
                std::thread::sleep(next - now);
            }
            let m = Mark::now();
            let prev = marks[marks.len() - 1];
            marks.push(m);
            if !budget.more(&start, &prev, &m) {
                flag.store(true, Ordering::SeqCst);
                return (marks, budget);
            }
            next += SLICE;
        }
    });
    (stop, handle)
}

/// One completed op of the timed phase.
pub struct OpSample {
    /// When the reply arrived or the call returned.
    pub done: Instant,
    pub ms: f64,
    /// Rows the op scored or trained (0 when it was refused or failed).
    pub rows: u64,
    /// Answered within the workload's latency limit.
    pub good: bool,
}

/// One timed set-up and the host steal during it.
struct Setup {
    secs: f64,
    steal: f64,
}

/// The repeated set-ups of a run. Set-up repeats until `want`
/// repetitions ran within the steal limit, or `MAX_EXTEND × want` ran in
/// all; `setup_s` is the median of those the steal filter keeps.
pub struct Setups {
    reps: Vec<Setup>,
    want: usize,
}

impl Setups {
    pub fn new(want: usize) -> Setups {
        Setups {
            reps: Vec::new(),
            want,
        }
    }

    /// Records the set-up that began at `start` and ends now, and says
    /// whether another one is needed.
    pub fn record(&mut self, start: &Mark) -> bool {
        let end = Mark::now();
        self.reps.push(Setup {
            secs: (end.at - start.at).as_secs_f64(),
            steal: steal_pct(start.host, end.host),
        });
        let clean = self
            .reps
            .iter()
            .filter(|r| r.steal <= STEAL_LIMIT_PCT)
            .count();
        clean < self.want && (self.reps.len() as f64) < MAX_EXTEND * self.want as f64
    }
}

/// The steal filter: keeps every slice within [`STEAL_LIMIT_PCT`], or,
/// when those hold less than `MIN_KEPT_SHARE` of the total weight (wall
/// time), the least-stolen slices up to that share.
fn keep(steal: &[f64], weight: &[f64]) -> Vec<bool> {
    let total: f64 = weight.iter().sum();
    let mut mask: Vec<bool> = steal.iter().map(|&s| s <= STEAL_LIMIT_PCT).collect();
    let kept: f64 = (0..steal.len())
        .filter(|&i| mask[i])
        .map(|i| weight[i])
        .sum();
    if kept < MIN_KEPT_SHARE * total {
        let mut order: Vec<usize> = (0..steal.len()).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        let mut acc = 0.0;
        for i in order {
            if acc >= MIN_KEPT_SHARE * total {
                break;
            }
            mask[i] = true;
            acc += weight[i];
        }
    }
    mask
}

/// Index of the slice (between consecutive marks) holding `at`; `None`
/// outside the phase (a reply that arrived after its end).
fn slice_of(marks: &[Mark], at: Instant) -> Option<usize> {
    let i = marks.partition_point(|m| m.at <= at);
    (i >= 1 && i < marks.len()).then(|| i - 1)
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Op accounting for one phase of a run.
#[derive(Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Ops {
    pub fn ok(&mut self) {
        self.attempted += 1;
        self.succeeded += 1;
    }
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }
}

/// Everything the end-to-end metrics are computed from.
pub struct E2e {
    pub setups: Setups,
    /// Ops of the timed phase (untraced segments only).
    pub ops: Vec<OpSample>,
    /// Slice boundaries of the timed phase, in time order.
    pub marks: Vec<Mark>,
    /// See [`Budget::peak_rss_mb`].
    pub peak_rss_mb: f64,
}

impl E2e {
    /// The end-to-end metrics over the slices the steal filter kept,
    /// and the report lines (tail rank, filter) for standard error.
    pub fn metrics(&self) -> (Vec<Metric>, Vec<String>) {
        let m = &self.marks;
        let steal: Vec<f64> = m
            .windows(2)
            .map(|w| steal_pct(w[0].host, w[1].host))
            .collect();
        let walls: Vec<f64> = m
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_secs_f64())
            .collect();
        let kept = keep(&steal, &walls);
        let setup_steal: Vec<f64> = self.setups.reps.iter().map(|s| s.steal).collect();
        let setup_secs: Vec<f64> = self.setups.reps.iter().map(|s| s.secs).collect();
        let setup_kept = keep(&setup_steal, &setup_secs);
        let setups: Vec<f64> = (0..setup_secs.len())
            .filter(|&i| setup_kept[i])
            .map(|i| setup_secs[i])
            .collect();
        let mut lat = Vec::new();
        let (mut rows, mut good) = (0u64, 0u64);
        for op in &self.ops {
            if slice_of(m, op.done).is_some_and(|i| kept[i]) {
                lat.push(op.ms);
                rows += op.rows;
                good += op.good as u64;
            }
        }
        let (mut wall, mut cpu_s) = (0.0, 0.0);
        for (i, w) in m.windows(2).enumerate() {
            if kept[i] {
                wall += walls[i];
                cpu_s += w[1].cpu_s - w[0].cpu_s;
            }
        }
        let all_wall: f64 = walls.iter().sum();
        let wall = f64::max(wall, 1e-9);
        let metrics = vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("p50_ms", median(&lat), "ms"),
            Metric::new("rows_per_s", rows as f64 / wall, "rows/s"),
            Metric::new("goodput_rps", good as f64 / wall, "req/s"),
            Metric::new("cpu_us_per_row", cpu_s * 1e6 / rows.max(1) as f64, "us/row"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ];
        let n_kept = kept.iter().filter(|&&k| k).count();
        let notes = vec![
            format!(
                "steal filter: kept {n_kept} of {} slices ({:.0}% of {:.1} s) and {} of {} set-ups \
                 at <= {STEAL_LIMIT_PCT}% host steal; slice steal p50 {:.1}% max {:.1}%; \
                 whole phase {:.1}%",
                kept.len(),
                100.0 * wall / all_wall.max(1e-9),
                all_wall,
                setups.len(),
                setup_secs.len(),
                median(&steal),
                percentile(&steal, 100.0),
                steal_pct(m[0].host, m[m.len() - 1].host),
            ),
            tail_note(&lat),
        ];
        (metrics, notes)
    }
}

/// The tail report printed with every end-to-end run: the highest
/// percentile with at least ten samples beyond it, the sample count, and
/// the distribution above the median. Not a gated metric (see README.md).
fn tail_note(l: &[f64]) -> String {
    let n = l.len();
    let tail = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    format!(
        "tail: p{tail} = {:.3} ms over {n} kept samples; p75 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} \
         p99.9 {:.3} max {:.3} ms",
        percentile(l, tail),
        percentile(l, 75.0),
        percentile(l, 90.0),
        percentile(l, 95.0),
        percentile(l, 99.0),
        percentile(l, 99.9),
        percentile(l, 100.0),
    )
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The outcome of one workload run.
pub struct Outcome {
    pub correct: bool,
    /// `(phase, ops)` in execution order.
    pub phases: Vec<(&'static str, Ops)>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for standard error (tail rank, reconciliation).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn totals(&self) -> Ops {
        let mut t = Ops::default();
        for (_, o) in &self.phases {
            t.add(*o);
        }
        t
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let t = self.totals();
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            t.attempted.max(1),
            t.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The human-readable report on standard error.
    pub fn report(&self, workload: &str) -> String {
        let mut s = format!("== {workload}\n");
        for (phase, o) in &self.phases {
            let _ = writeln!(
                s,
                "  ops[{phase}]: attempted {} succeeded {} failed {}",
                o.attempted, o.succeeded, o.failed
            );
        }
        for m in &self.metrics {
            let _ = writeln!(s, "  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(s, "  {n}");
        }
        s
    }
}

/// A scratch directory under the benchmark's `out/`, removed on drop.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn new(tag: &str) -> std::io::Result<RunDir> {
        let dir = out_dir().join(format!("run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `bench_e2e/out` inside the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
