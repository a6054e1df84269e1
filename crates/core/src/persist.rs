//! Checkpoint payloads for trained ImDiffusion detectors and the stream
//! state of live monitors.
//!
//! A detector's payload ([`ImDiffusionDetector::snapshot_payload`]) holds
//! the ImTransformer weights plus the fitted normalization statistics as
//! one tensor list, with no framing of its own: it travels inside the
//! registry's `IMDE` envelope, which adds the family tag, seed, channel
//! count, drift reference and the CRC-checked record frame. The
//! configuration is *not* stored — the architecture is rebuilt from the
//! same [`crate::ImDiffusionConfig`], and mismatches are caught by shape
//! checks.
//!
//! A monitor's stream state ([`StreamingMonitor::checkpoint_stream`]) —
//! window buffer, missing flags, fallback history, health state,
//! fault counters and drift tracker — goes to an `IMSM` sidecar next to
//! the detector checkpoint, so a restarted serving process resumes
//! mid-stream and produces byte-identical subsequent verdicts (inference
//! is reseeded per call, so the buffered window fully determines the
//! output). The sidecar is one `imdiff_nn::serialize` record at exactly
//! one version, written atomically (temp file + rename): a torn
//! write or a flipped bit anywhere surfaces as
//! [`DetectorError::CorruptCheckpoint`] — never as silently altered
//! monitor state.

use std::path::{Path, PathBuf};

use imdiff_data::DetectorError;
use imdiff_nn::layers::Module;
use imdiff_nn::serialize::{atomic_write, open_record, ByteReader, ByteWriter};
use imdiff_nn::{NnError, Tensor};

use crate::detector::ImDiffusionDetector;
use crate::scorer::WindowScorer;
use crate::streaming::{HealthState, StreamingMonitor};

impl ImDiffusionDetector {
    /// The detector's checkpoint payload: model parameters followed by
    /// the normalizer's per-channel offset and scale, as one tensor list.
    ///
    /// Returns [`DetectorError::NotFitted`] when called before
    /// [`imdiff_data::Detector::fit`].
    pub fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError> {
        let (model, normalizer) = self.fitted_parts().ok_or(DetectorError::NotFitted)?;
        let mut params = model.params();
        let (offset, scale) = normalizer.stats();
        let k = offset.len();
        params.push(Tensor::from_vec(offset, &[k]).expect("offset"));
        params.push(Tensor::from_vec(scale, &[k]).expect("scale"));
        let mut w = ByteWriter::new();
        w.tensors(&params);
        Ok(w.finish())
    }

    /// Rebuilds a detector from [`Self::snapshot_payload`] bytes.
    ///
    /// `cfg` and `seed` must match the saving detector's configuration
    /// (the architecture is rebuilt from them); `channels` is the channel
    /// count of the training data. Shape mismatches surface as
    /// [`DetectorError::InvalidTrainingData`], damaged bytes as
    /// [`DetectorError::CorruptCheckpoint`]. The drift reference is not
    /// part of the payload; the envelope restores it.
    pub fn restore_from_payload(
        cfg: crate::ImDiffusionConfig,
        seed: u64,
        channels: usize,
        bytes: &[u8],
    ) -> Result<Self, DetectorError> {
        let mut det = ImDiffusionDetector::new(cfg, seed);
        // Build an architecture-matching skeleton, then overwrite every
        // parameter and the normalizer from the payload.
        det.init_untrained(channels);
        let (model, _) = det.fitted_parts().expect("skeleton just initialised");
        let mut params = model.params();
        let offset = Tensor::zeros(&[channels]);
        let scale = Tensor::ones(&[channels]);
        params.push(offset.clone());
        params.push(scale.clone());
        let mut r = ByteReader::new(bytes);
        r.tensors_into(&params)?;
        r.finish()?;
        det.set_normalizer_vectors(&offset.to_vec(), &scale.to_vec());
        Ok(det)
    }
}

// ---------------------------------------------------------------------------
// Streaming-state checkpointing
// ---------------------------------------------------------------------------

const STREAM_MAGIC: &[u8; 4] = b"IMSM";
/// The one `IMSM` sidecar version this build reads and writes.
const STREAM_VERSION: u32 = 5;

/// The sidecar path holding streaming state for a detector checkpoint at
/// `path` (`<path>.stream`). Public so supervisors and fault-injection
/// harnesses can archive, inspect or (deliberately) damage the sidecar
/// without re-deriving the naming convention.
pub fn stream_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".stream");
    PathBuf::from(os)
}

/// One buffered row: `channels` values, then one missing flag byte each.
fn write_row(w: &mut ByteWriter, row: &[f32], miss: &[bool]) {
    for &v in row {
        w.f32(v);
    }
    for &m in miss {
        w.u8(u8::from(m));
    }
}

/// Inverse of [`write_row`].
fn read_row(r: &mut ByteReader, channels: usize) -> Result<(Vec<f32>, Vec<bool>), NnError> {
    let row = r.f32_array(channels)?;
    let miss = r.take(channels)?.iter().map(|&b| b == 1).collect();
    Ok((row, miss))
}

fn corrupt(msg: String) -> DetectorError {
    DetectorError::CorruptCheckpoint(msg)
}

impl<D: WindowScorer> StreamingMonitor<D> {
    /// The complete `IMSM` sidecar record for the current stream state.
    fn encode_stream(&self) -> Vec<u8> {
        let mut w = ByteWriter::record(STREAM_MAGIC, STREAM_VERSION);
        w.u32(self.window as u32);
        w.u32(self.hop as u32);
        w.u32(self.channels as u32);
        w.u64(self.seen);
        w.u32(self.since_eval as u32);
        w.u8(match self.health {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Warming => 2,
        });
        w.u32(self.pending_gap as u32);
        for counter in [
            self.rows_rejected,
            self.cells_imputed,
            self.gaps_bridged,
            self.rows_bridged,
            self.rewarms,
            self.degraded_evals,
            self.recoveries,
        ] {
            w.u64(counter);
        }
        w.u8(u8::from(self.fallback_tau.is_some()));
        w.f64(self.fallback_tau.unwrap_or(0.0));
        let reason = self.last_degraded_reason.as_deref().unwrap_or("");
        w.u32(reason.len() as u32);
        w.bytes(reason.as_bytes());

        w.u32(self.buffer.len() as u32);
        for (row, miss) in self.buffer.iter().zip(&self.missing) {
            write_row(&mut w, row, miss);
        }
        w.u32(self.fallback_history.len() as u32);
        for &v in &self.fallback_history {
            w.f64(v);
        }
        for st in &self.fallback_stats {
            w.u64(st.count);
            w.f64(st.mean);
            w.f64(st.m2);
        }

        // Drift-tracker state. The reference is excluded: it lives in the
        // detector checkpoint and re-arms the tracker on restore.
        match &self.drift {
            Some(t) => {
                w.u8(1);
                w.u32(t.capacity as u32);
                w.f64(t.threshold);
                w.u32(t.debounce);
                w.u32(t.consecutive);
                w.u32(t.clear_streak);
                w.u8(u8::from(t.latched));
                w.u64(t.evals);
                w.u64(t.trips);
                w.f64(t.last_score);
                w.u32(t.ring.len() as u32);
                for (row, miss) in &t.ring {
                    write_row(&mut w, row, miss);
                }
            }
            None => w.u8(0),
        }
        w.finish()
    }

    /// Writes the `IMSM` streaming-state sidecar at `<path>.stream`,
    /// leaving the detector checkpoint at `path` untouched. This is the
    /// periodic-snapshot path of the serving layer: weights change only on
    /// hot reload (and the checkpoint file on disk is already the source
    /// of those weights), while the stream state advances with every row —
    /// so the cadenced write covers just the cheap, frequently-changing
    /// half. Atomic (temp file + rename) and CRC-protected.
    pub fn checkpoint_stream(&self, path: &Path) -> Result<(), DetectorError> {
        atomic_write(&stream_path(path), &self.encode_stream())
            .map_err(|e| DetectorError::Io(format!("cannot write stream checkpoint: {e}")))
    }

    /// Restores a monitor around an **already loaded** detector from the
    /// `IMSM` sidecar at `<path>.stream` — the one restore path, used by
    /// the detector registry and the serving layer's failover adoption.
    /// The detector must be fitted and match the sidecar's window;
    /// everything else — channel count, hop, buffer, fallback history, health,
    /// counters, drift tracker — comes from the sidecar, and subsequent
    /// verdicts are identical to the ones the saved monitor would have
    /// produced.
    pub fn restore_with(detector: D, path: &Path) -> Result<Self, DetectorError> {
        let bytes = std::fs::read(stream_path(path)).map_err(|e| {
            DetectorError::Io(format!("cannot read stream checkpoint: {e}"))
        })?;
        Self::decode_stream(detector, &bytes).map_err(|e| match e {
            DetectorError::CorruptCheckpoint(msg) => {
                corrupt(format!("stream checkpoint: {msg}"))
            }
            other => other,
        })
    }

    /// Inverse of [`Self::encode_stream`], around `detector`.
    fn decode_stream(detector: D, bytes: &[u8]) -> Result<Self, DetectorError> {
        let mut r = ByteReader::new(open_record(bytes, STREAM_MAGIC, STREAM_VERSION)?);
        let window = r.u32()? as usize;
        let hop = r.u32()? as usize;
        let channels = r.u32()? as usize;
        if detector.window() != window {
            return Err(DetectorError::InvalidTrainingData(format!(
                "checkpoint window {window} != detector window {}",
                detector.window()
            )));
        }
        if channels == 0 {
            return Err(corrupt("zero channels".into()));
        }
        let mut m = StreamingMonitor::new(detector, channels, hop)?;
        m.seen = r.u64()?;
        m.since_eval = r.u32()? as usize;
        m.health = match r.u8()? {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            2 => HealthState::Warming,
            t => return Err(corrupt(format!("unknown health state tag {t}"))),
        };
        m.pending_gap = r.u32()? as usize;
        for counter in [
            &mut m.rows_rejected,
            &mut m.cells_imputed,
            &mut m.gaps_bridged,
            &mut m.rows_bridged,
            &mut m.rewarms,
            &mut m.degraded_evals,
            &mut m.recoveries,
        ] {
            *counter = r.u64()?;
        }
        let (has_tau, tau) = (r.u8()? == 1, r.f64()?);
        m.fallback_tau = has_tau.then_some(tau);
        let reason_len = r.u32()? as usize;
        let reason = String::from_utf8(r.take(reason_len)?.to_vec())
            .map_err(|_| corrupt("corrupt degraded-reason string".into()))?;
        m.last_degraded_reason = (!reason.is_empty()).then_some(reason);

        let n_rows = r.u32()? as usize;
        if n_rows > window {
            return Err(corrupt(format!(
                "checkpoint buffer has {n_rows} rows, window is {window}"
            )));
        }
        for _ in 0..n_rows {
            let (row, miss) = read_row(&mut r, channels)?;
            m.buffer.push_back(row);
            m.missing.push_back(miss);
        }
        for _ in 0..r.u32()? {
            m.fallback_history.push_back(r.f64()?);
        }
        for st in &mut m.fallback_stats {
            st.count = r.u64()?;
            st.mean = r.f64()?;
            st.m2 = r.f64()?;
        }

        // A drift block means the saved monitor had drift armed: re-arm
        // against the detector's reference, then restore the tracker's
        // mutable state on top. A detector without a reference leaves
        // drift unarmed (that monitor could never have armed it).
        if r.u8()? == 1 {
            let capacity = r.u32()? as usize;
            let threshold = r.f64()?;
            let debounce = r.u32()?;
            m.set_drift_policy(threshold, debounce);
            let (consecutive, clear_streak) = (r.u32()?, r.u32()?);
            let latched = r.u8()? == 1;
            let (evals, trips, last_score) = (r.u64()?, r.u64()?, r.f64()?);
            let n_ring = r.u32()? as usize;
            if n_ring > capacity {
                return Err(corrupt(format!(
                    "drift ring has {n_ring} rows, capacity is {capacity}"
                )));
            }
            let mut ring = std::collections::VecDeque::with_capacity(
                r.capacity(n_ring, 5 * channels),
            );
            for _ in 0..n_ring {
                ring.push_back(read_row(&mut r, channels)?);
            }
            if let Some(tracker) = &mut m.drift {
                tracker.capacity = capacity;
                tracker.consecutive = consecutive;
                tracker.clear_streak = clear_streak;
                tracker.latched = latched;
                tracker.evals = evals;
                tracker.trips = trips;
                tracker.last_score = last_score;
                tracker.ring = ring;
            }
        }
        r.finish()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamingMonitor;
    use crate::ImDiffusionConfig;
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};
    use imdiff_data::Detector;

    fn tiny_cfg() -> ImDiffusionConfig {
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

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("imdiffusion-{}-{name}", std::process::id()))
    }

    /// A payload round trip plus the drift reference, which the registry
    /// envelope carries next to the payload.
    fn reload(det: &ImDiffusionDetector) -> ImDiffusionDetector {
        let bytes = det.snapshot_payload().unwrap();
        let k = det.channels().unwrap();
        let mut out =
            ImDiffusionDetector::restore_from_payload(det.config().clone(), det.seed(), k, &bytes)
                .unwrap();
        out.set_drift_reference(det.drift_reference().cloned());
        out
    }

    #[test]
    fn snapshot_requires_fit() {
        let det = ImDiffusionDetector::new(tiny_cfg(), 1);
        assert!(matches!(det.snapshot_payload(), Err(DetectorError::NotFitted)));
    }

    #[test]
    fn armed_drift_tracker_survives_monitor_checkpoint() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 64,
            },
            23,
        );
        let k = ds.train.dim();
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 17);
        det.fit(&ds.train).unwrap();
        let restored_det = reload(&det);
        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();
        assert!(monitor.set_drift_policy(2.5, 2));
        for l in 0..40 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        let path = tmp("drift-monitor.ckpt");
        monitor.checkpoint_stream(&path).unwrap();
        let mut restored = StreamingMonitor::restore_with(restored_det, &path).unwrap();
        assert_eq!(restored.drift_status(), monitor.drift_status());
        // The tracker keeps evolving identically after the restore.
        for l in 40..ds.test.len() {
            let a = monitor.push(ds.test.row(l)).unwrap();
            let b = restored.push(ds.test.row(l)).unwrap();
            assert_eq!(a, b, "verdicts diverged at row {l}");
        }
        assert_eq!(restored.drift_status(), monitor.drift_status());
        assert_eq!(restored.health(), monitor.health());
        std::fs::remove_file(stream_path(&path)).ok();
    }

    #[test]
    fn payload_roundtrip_reproduces_detections() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            3,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 9);
        det.fit(&ds.train).unwrap();
        let mut restored = reload(&det);
        let a = det.detect(&ds.test).unwrap();
        let b = restored.detect(&ds.test).unwrap();
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn monitor_checkpoint_restores_identical_verdicts() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 64,
            },
            5,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 5);
        det.fit(&ds.train).unwrap();
        let restored_det = reload(&det);
        let k = ds.train.dim();
        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();

        // Stream half the data (with a NaN cell to exercise the missing
        // path), then kill the process at an arbitrary mid-stream point.
        for l in 0..30 {
            let mut row = ds.test.row(l).to_vec();
            if l == 10 {
                row[0] = f32::NAN;
            }
            monitor.push(&row).unwrap();
        }
        let path = tmp("monitor.ckpt");
        monitor.checkpoint_stream(&path).unwrap();
        let mut restored = StreamingMonitor::restore_with(restored_det, &path).unwrap();
        assert_eq!(restored.seen(), monitor.seen());
        assert_eq!(restored.health(), monitor.health());

        // The restored monitor must produce byte-identical verdicts for
        // the rest of the stream.
        for l in 30..ds.test.len() {
            let a = monitor.push(ds.test.row(l)).unwrap();
            let b = restored.push(ds.test.row(l)).unwrap();
            assert_eq!(a, b, "diverged at row {l}");
        }
        assert_eq!(restored.health(), monitor.health());
        std::fs::remove_file(stream_path(&path)).ok();
    }

    /// Failover can land while a tenant is Degraded. The restored monitor
    /// must come back *in* Degraded — with the z-score fallback
    /// statistics, calibrated fallback threshold and health counters
    /// intact — not silently reset to Warming (which would drop verdicts
    /// for a full window and erase the fault history operators alarm on).
    #[test]
    fn restore_mid_stream_preserves_degraded_state() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 64,
            },
            11,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 11);
        det.fit(&ds.train).unwrap();
        let restored_det = reload(&det);
        let k = ds.train.dim();
        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();

        // Healthy warm-up, then blind the stream (majority-missing
        // windows) until the health machine degrades.
        for l in 0..24 {
            monitor.push(ds.test.row(l)).unwrap();
        }
        assert_eq!(monitor.health().state, HealthState::Healthy);
        for _ in 24..40 {
            monitor.push(&vec![f32::NAN; k]).unwrap();
        }
        let before = monitor.health();
        assert_eq!(before.state, HealthState::Degraded);
        assert!(before.degraded_evals > 0);

        let path = tmp("degraded-monitor.ckpt");
        monitor.checkpoint_stream(&path).unwrap();
        let mut restored = StreamingMonitor::restore_with(restored_det, &path).unwrap();

        let after = restored.health();
        assert_eq!(after.state, HealthState::Degraded, "restore reset health");
        assert_eq!(after.degraded_evals, before.degraded_evals);
        assert_eq!(after.rows_seen, before.rows_seen);
        assert_eq!(after.cells_imputed, before.cells_imputed);
        assert_eq!(after.recoveries, before.recoveries);
        assert_eq!(
            restored.last_degraded_reason(),
            monitor.last_degraded_reason(),
            "degraded reason lost"
        );

        // Still blind: both monitors must keep serving through the
        // fallback path with bit-identical scores (same Welford stats and
        // calibrated tau survived the roundtrip).
        for _ in 0..16 {
            let a = monitor.push(&vec![f32::NAN; k]).unwrap();
            let b = restored.push(&vec![f32::NAN; k]).unwrap();
            assert_eq!(a, b, "fallback verdicts diverged after restore");
            assert!(a.iter().all(|v| v.degraded));
        }
        assert_eq!(restored.health().state, HealthState::Degraded);

        // Clean data returns: both recover in lockstep (counters advanced
        // from the restored values, not from zero).
        for l in 40..ds.test.len() {
            let a = monitor.push(ds.test.row(l)).unwrap();
            let b = restored.push(ds.test.row(l)).unwrap();
            assert_eq!(a, b, "diverged at recovery row {l}");
        }
        assert_eq!(restored.health(), monitor.health());
        assert!(restored.health().recoveries > before.recoveries);
        std::fs::remove_file(stream_path(&path)).ok();
    }

    /// The serving layer's periodic snapshots rewrite only the sidecar;
    /// the cadence trigger is pure policy and never persisted.
    #[test]
    fn sidecar_only_checkpoint_and_cadence() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 80,
                test_len: 48,
            },
            13,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 13);
        det.fit(&ds.train).unwrap();
        let restored_det = reload(&det);
        let k = ds.train.dim();
        let mut monitor = StreamingMonitor::new(det, k, 8).unwrap();
        monitor.set_snapshot_cadence(Some(10));

        let path = tmp("cadence-monitor.ckpt");
        let weight_bytes = monitor.detector().snapshot_payload().unwrap();
        std::fs::write(&path, &weight_bytes).unwrap();
        monitor.checkpoint_stream(&path).unwrap();
        monitor.mark_snapshotted();

        assert!(!monitor.snapshot_due());
        for l in 0..24 {
            monitor.push(ds.test.row(l)).unwrap();
            if monitor.snapshot_due() {
                monitor.checkpoint_stream(&path).unwrap();
                monitor.mark_snapshotted();
            }
        }
        // 24 rows at a cadence of 10 → sidecar rewrites at rows 10 and
        // 20, and the trigger re-arms after each one (4 < 10 ⇒ not due).
        assert!(!monitor.snapshot_due());

        // Drain-time flush, as a serving host would do on shutdown: the
        // cadenced snapshots cover only up to row 20, so an explicit
        // final write captures rows 21..24.
        monitor.checkpoint_stream(&path).unwrap();
        monitor.mark_snapshotted();

        // The weight file was never rewritten by any sidecar snapshot.
        assert_eq!(std::fs::read(&path).unwrap(), weight_bytes);

        // The sidecar alone restores the advanced stream position.
        let mut restored = StreamingMonitor::restore_with(restored_det, &path).unwrap();
        assert_eq!(restored.seen(), monitor.seen());
        assert!(!restored.snapshot_due(), "cadence must not persist");
        for l in 24..ds.test.len() {
            let a = monitor.push(ds.test.row(l)).unwrap();
            let b = restored.push(ds.test.row(l)).unwrap();
            assert_eq!(a, b, "diverged at row {l}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(stream_path(&path)).ok();
    }

    #[test]
    fn monitor_restore_rejects_missing_or_garbage_state() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 16,
            },
            5,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 5);
        det.fit(&ds.train).unwrap();

        let path = tmp("missing-monitor.ckpt");
        assert!(matches!(
            StreamingMonitor::restore_with(reload(&det), &path),
            Err(DetectorError::Io(_))
        ));
        let stream = stream_path(&path);
        std::fs::write(&stream, b"garbage").unwrap();
        let err = match StreamingMonitor::restore_with(det, &path) {
            Ok(_) => panic!("garbage stream state must not restore"),
            Err(e) => e,
        };
        assert!(matches!(err, DetectorError::CorruptCheckpoint(_)));
        assert!(err.to_string().contains("stream checkpoint"));
        std::fs::remove_file(&stream).ok();
    }

    /// A v4 sidecar (it carried the threshold mode, the gap-bridge limit
    /// and an error history) is refused by version, even with a valid CRC.
    #[test]
    fn version_4_sidecar_is_refused() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 24,
            },
            7,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 7);
        det.fit(&ds.train).unwrap();
        let restored_det = reload(&det);
        let mut monitor = StreamingMonitor::new(det, ds.train.dim(), 8).unwrap();
        for l in 0..ds.test.len() {
            monitor.push(ds.test.row(l)).unwrap();
        }
        let path = tmp("v4-monitor.ckpt");
        monitor.checkpoint_stream(&path).unwrap();
        let stream = stream_path(&path);
        let current = std::fs::read(&stream).unwrap();
        let mut w = ByteWriter::record(STREAM_MAGIC, 4);
        w.bytes(&current[12..]);
        std::fs::write(&stream, w.finish()).unwrap();
        let err = match StreamingMonitor::restore_with(restored_det, &path) {
            Ok(_) => panic!("a v4 sidecar must not restore"),
            Err(e) => e,
        };
        assert!(matches!(err, DetectorError::CorruptCheckpoint(_)));
        assert!(err.to_string().contains("version 4"), "{err}");
        std::fs::remove_file(&stream).ok();
    }

    #[test]
    fn wrong_architecture_rejected() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 64,
                test_len: 32,
            },
            3,
        );
        let mut det = ImDiffusionDetector::new(tiny_cfg(), 9);
        det.fit(&ds.train).unwrap();
        let bytes = det.snapshot_payload().unwrap();

        let bigger = ImDiffusionConfig {
            hidden: 16,
            ..tiny_cfg()
        };
        let err = match ImDiffusionDetector::restore_from_payload(bigger, 9, ds.train.dim(), &bytes)
        {
            Ok(_) => panic!("mismatched architecture must not load"),
            Err(e) => e,
        };
        assert!(matches!(err, DetectorError::InvalidTrainingData(_)));
    }
}
