//! Continual-learning scenario generator.
//!
//! The synthetic benchmarks ([`crate::synthetic`]) evaluate detection on a
//! *stationary* distribution: train and test are drawn from the same
//! process. The continual-learning loop needs the opposite — a stream
//! whose distribution departs from the training split in a controlled,
//! labelled way — so [`drift`] generates one with ground truth: the
//! process parameters *ramp* gradually from the training distribution to
//! a shifted/rescaled one (sensor aging, load growth).
//!
//! All randomness flows from the caller's seed; the same `(profile, seed)`
//! always yields the same scenario, which is what lets the end-to-end
//! drift→retrain→promote tests assert bit-identical behaviour across
//! thread counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Mts;

/// Shape of a generated scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioProfile {
    /// Channel count.
    pub channels: usize,
    /// Length of the anomaly-free, pre-change training split.
    pub train_len: usize,
    /// Length of the live stream (the change begins inside it).
    pub stream_len: usize,
    /// Stream row at which the distribution starts departing.
    pub change_start: usize,
    /// Rows over which the drift reaches full strength.
    pub ramp_len: usize,
}

impl ScenarioProfile {
    /// CPU-friendly default sized for the quick detector config.
    pub fn quick() -> Self {
        ScenarioProfile {
            channels: 4,
            train_len: 600,
            stream_len: 900,
            change_start: 300,
            ramp_len: 150,
        }
    }
}

/// A generated continual-learning scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario family name.
    pub name: String,
    /// Anomaly-free training split drawn from the *pre-change* process.
    pub train: Mts,
    /// The live stream; rows `change_start..` come from the changed
    /// process.
    pub stream: Mts,
    /// Ground-truth point-anomaly labels for the stream (`true` =
    /// injected anomaly). Distribution change alone is *not* labelled
    /// anomalous — it is normal-but-shifted data the loop must adapt to.
    pub labels: Vec<bool>,
    /// First stream row of the changed distribution (ground truth for
    /// drift-detection latency assertions).
    pub change_start: usize,
}

/// Per-channel process parameters of the base (pre-change) signal.
struct Proc {
    period: f32,
    phase: f32,
    amp: f32,
    offset: f32,
    ar_phi: f32,
    ar_sigma: f32,
    ar_state: f32,
    /// Drift targets: additive shift and multiplicative scale at full
    /// ramp strength.
    shift: f32,
    scale: f32,
}

fn base_procs(profile: &ScenarioProfile, rng: &mut StdRng) -> Vec<Proc> {
    (0..profile.channels)
        .map(|_| Proc {
            period: rng.gen_range(40.0..90.0),
            phase: rng.gen_range(0.0..std::f32::consts::TAU),
            amp: rng.gen_range(0.6..1.2),
            offset: rng.gen_range(-0.3..0.3),
            ar_phi: rng.gen_range(0.7..0.9),
            ar_sigma: rng.gen_range(0.03..0.08),
            ar_state: 0.0,
            shift: rng.gen_range(1.5..2.5) * if rng.gen::<bool>() { 1.0 } else { -1.0 },
            scale: rng.gen_range(1.6..2.2),
        })
        .collect()
}

fn normal(rng: &mut StdRng) -> f32 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Samples one row of the base process; `ramp` in `[0, 1]` is the drift
/// strength (0 = training distribution, 1 = fully drifted).
fn sample_row(procs: &mut [Proc], t: usize, ramp: f32, rng: &mut StdRng) -> Vec<f32> {
    procs
        .iter_mut()
        .map(|p| {
            let season =
                (2.0 * std::f32::consts::PI * t as f32 / p.period + p.phase).sin() * p.amp;
            p.ar_state = p.ar_phi * p.ar_state + normal(rng) * p.ar_sigma;
            let clean = season + p.ar_state + p.offset;
            clean * (1.0 + ramp * (p.scale - 1.0)) + ramp * p.shift
        })
        .collect()
}

/// Injects a few short spike anomalies (ground truth for post-recovery
/// detection checks), avoiding the first `spare` rows.
fn inject_spikes(
    stream: &mut Mts,
    labels: &mut [bool],
    spare: usize,
    rng: &mut StdRng,
) {
    let len = stream.len();
    let dim = stream.dim();
    for _ in 0..3 {
        let dur = rng.gen_range(2..5);
        if spare + dur + 2 >= len {
            continue;
        }
        let start = rng.gen_range(spare..len - dur - 1);
        if labels[start.saturating_sub(6)..(start + dur + 6).min(len)]
            .iter()
            .any(|&b| b)
        {
            continue;
        }
        let k = rng.gen_range(0..dim);
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        let mag = sign * rng.gen_range(6.0..9.0);
        for (l, lab) in labels.iter_mut().enumerate().skip(start).take(dur) {
            let v = stream.get(l, k);
            stream.set(l, k, v + mag);
            *lab = true;
        }
    }
}

/// Gradual drift: from `change_start` the per-channel mean and scale ramp
/// linearly over `ramp_len` rows toward a shifted, wider distribution and
/// stay there. Values remain finite and individually plausible — only the
/// *distribution* moves, which is exactly what a point-anomaly detector
/// trained on the old process mis-scores.
pub fn drift(profile: &ScenarioProfile, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_4713_05A5u64.wrapping_mul(7));
    let mut procs = base_procs(profile, &mut rng);
    let dim = profile.channels;

    let mut train_raw = Vec::with_capacity(profile.train_len * dim);
    for t in 0..profile.train_len {
        train_raw.extend(sample_row(&mut procs, t, 0.0, &mut rng));
    }
    let mut stream_raw = Vec::with_capacity(profile.stream_len * dim);
    for t in 0..profile.stream_len {
        let ramp = if t < profile.change_start {
            0.0
        } else {
            (((t - profile.change_start) as f32) / profile.ramp_len.max(1) as f32).min(1.0)
        };
        stream_raw.extend(sample_row(&mut procs, profile.train_len + t, ramp, &mut rng));
    }

    let train = Mts::new(train_raw, profile.train_len, dim);
    let mut stream = Mts::new(stream_raw, profile.stream_len, dim);
    let mut labels = vec![false; profile.stream_len];
    // Spikes only after the ramp has settled, so "healthy post-change
    // rows" and "anomalies" are cleanly separable ground truth.
    let spare = (profile.change_start + profile.ramp_len).min(profile.stream_len);
    inject_spikes(&mut stream, &mut labels, spare, &mut rng);

    Scenario {
        name: "drift".to_string(),
        train,
        stream,
        labels,
        change_start: profile.change_start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col_stats(m: &Mts, k: usize, lo: usize, hi: usize) -> (f64, f64) {
        let vals: Vec<f64> = (lo..hi).map(|l| m.get(l, k) as f64).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var =
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn drift_is_deterministic_and_shifts_distribution() {
        let p = ScenarioProfile::quick();
        let a = drift(&p, 11);
        let b = drift(&p, 11);
        assert_eq!(a.train.values(), b.train.values());
        assert_eq!(a.stream.values(), b.stream.values());
        assert_eq!(a.labels, b.labels);
        assert!(a.stream.values().iter().all(|v| v.is_finite()));

        // Post-ramp clean rows must sit in a visibly different
        // distribution than the pre-change rows on at least one channel.
        let settled = p.change_start + p.ramp_len;
        let moved = (0..p.channels).any(|k| {
            let (m0, s0) = col_stats(&a.stream, k, 0, p.change_start);
            let (m1, _) = col_stats(&a.stream, k, settled, p.stream_len);
            (m1 - m0).abs() > 2.0 * s0
        });
        assert!(moved, "drift did not move the distribution");
    }

    #[test]
    fn pre_change_stream_matches_training_process() {
        let p = ScenarioProfile::quick();
        let s = drift(&p, 5);
        for k in 0..p.channels {
            let (mt, st) = col_stats(&s.train, k, 0, p.train_len);
            let (ms, _) = col_stats(&s.stream, k, 0, p.change_start);
            assert!(
                (ms - mt).abs() < 4.0 * st.max(0.05),
                "channel {k}: pre-change stream mean {ms} far from train {mt}"
            );
        }
    }

    #[test]
    fn spikes_are_labelled_and_after_settling() {
        let p = ScenarioProfile::quick();
        for seed in [1, 9, 42] {
            let s = drift(&p, seed);
            let n = s.labels.iter().filter(|&&b| b).count();
            assert!(n > 0, "seed {seed}: no spikes injected");
            let first = s.labels.iter().position(|&b| b).unwrap();
            assert!(first >= p.change_start + p.ramp_len);
        }
    }
}
