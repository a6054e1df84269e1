//! The IMDE checkpoint envelope — the one detector checkpoint format, for
//! every family.
//!
//! An envelope is one `imdiff_nn::serialize` record (magic `"IMDE"`,
//! exactly [`ENVELOPE_VERSION`], CRC over header and body) whose body is,
//! all integers little-endian:
//!
//! | field | size | meaning |
//! |---|---|---|
//! | family | u8 | [`DetectorKind::tag`] |
//! | seed | u64 | construction seed (restore rebuilds RNG state from it) |
//! | serving window | u32 | rows per streaming evaluation |
//! | channels | u32 | channel count K of the fitted model |
//! | τ | f64 | synthesized vote threshold (baselines; 0 for ImDiffusion) |
//! | drift flag | u8 | 1 ⇒ a `[4, K]` f32 drift reference follows |
//! | payload len | u32 | length of the family-native payload |
//! | payload | … | the family's `snapshot_payload` bytes |
//!
//! The drift field is the only persisted drift reference, for every
//! family; family payloads carry model state only.

use std::path::Path;

use imdiff_data::DetectorError;
use imdiff_nn::serialize::{atomic_write, open_record, ByteReader, ByteWriter};
use imdiffusion::{DriftReference, ImDiffusionConfig, WindowScorer};

use crate::any::{AnyDetector, Model};
use crate::kind::DetectorKind;

/// Magic prefix of a registry envelope.
pub const ENVELOPE_MAGIC: &[u8; 4] = b"IMDE";
/// The one envelope format version this build reads and writes.
pub const ENVELOPE_VERSION: u32 = 2;

fn corrupt(msg: impl std::fmt::Display) -> DetectorError {
    DetectorError::CorruptCheckpoint(format!("registry envelope: {msg}"))
}

impl AnyDetector {
    /// The full envelope image as an in-memory byte buffer — exactly what
    /// [`Self::save`] writes to disk.
    pub fn save_bytes(&self) -> Result<Vec<u8>, DetectorError> {
        let channels = self.channels().ok_or(DetectorError::NotFitted)?;
        let payload = self.native_payload()?;
        let mut w = ByteWriter::record(ENVELOPE_MAGIC, ENVELOPE_VERSION);
        w.u8(self.kind().tag());
        w.u64(self.seed());
        w.u32(self.window() as u32);
        w.u32(channels as u32);
        w.f64(self.tau());
        match self.drift_reference() {
            Some(r) => {
                w.u8(1);
                for v in r.to_flat() {
                    w.f32(v);
                }
            }
            None => w.u8(0),
        }
        w.u32(payload.len() as u32);
        w.bytes(&payload);
        Ok(w.finish())
    }

    /// Persists the envelope atomically (write-to-temp + rename).
    pub fn save(&self, path: &Path) -> Result<(), DetectorError> {
        let bytes = self.save_bytes()?;
        atomic_write(path, &bytes)
            .map_err(|e| DetectorError::Io(format!("cannot write envelope: {e}")))
    }

    /// Restores a detector from envelope bytes.
    ///
    /// `cfg` rebuilds the ImDiffusion architecture when the envelope holds
    /// that family (and supplies the serving window for its validation);
    /// the envelope carries its own seed and channel count.
    /// `_seed`/`_channels` are no longer read; removing them waits for a
    /// benchmark change, since the end-to-end benchmark calls this form.
    pub fn load_bytes(
        cfg: &ImDiffusionConfig,
        _seed: u64,
        _channels: usize,
        bytes: &[u8],
    ) -> Result<AnyDetector, DetectorError> {
        decode(cfg, bytes)
    }

    /// File form of [`Self::load_bytes`] (same unread `_seed`/`_channels`).
    pub fn load(
        cfg: &ImDiffusionConfig,
        _seed: u64,
        _channels: usize,
        path: &Path,
    ) -> Result<AnyDetector, DetectorError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DetectorError::Io(format!("cannot read {}: {e}", path.display())))?;
        decode(cfg, &bytes)
    }

    /// A [`Send`]-safe snapshot of this detector (the cross-thread
    /// currency of the serving stack — model tensors are not `Send`).
    pub fn to_spec(&self) -> Result<AnySpec, DetectorError> {
        Ok(AnySpec {
            cfg: self.config().clone(),
            bytes: self.save_bytes()?,
        })
    }
}

/// A `Send`-safe detector snapshot: the full IMDE envelope plus the
/// configuration needed to rebuild architecture skeletons. Build on the
/// destination thread with [`AnySpec::build`].
#[derive(Clone)]
pub struct AnySpec {
    /// Configuration (architecture + serving window source).
    pub cfg: ImDiffusionConfig,
    /// The envelope image ([`AnyDetector::save_bytes`]).
    pub bytes: Vec<u8>,
}

impl AnySpec {
    /// Reconstructs the detector (typically on another thread).
    pub fn build(&self) -> Result<AnyDetector, DetectorError> {
        decode(&self.cfg, &self.bytes)
    }

    /// The family recorded in the snapshot's envelope tag; `None` when
    /// the bytes are unparseable.
    pub fn kind(&self) -> Option<DetectorKind> {
        sniff_family(&self.bytes)
    }
}

/// Reads only the family tag from an envelope image without full
/// decoding — what supervisors use to report the family of an on-disk
/// checkpoint they haven't adopted yet.
pub fn sniff_family(bytes: &[u8]) -> Option<DetectorKind> {
    if bytes.len() >= 13 && &bytes[..4] == ENVELOPE_MAGIC {
        return DetectorKind::from_tag(bytes[12]);
    }
    None
}

/// Decodes and validates an envelope image into a restored detector.
fn decode(cfg: &ImDiffusionConfig, bytes: &[u8]) -> Result<AnyDetector, DetectorError> {
    let mut r = ByteReader::new(open_record(bytes, ENVELOPE_MAGIC, ENVELOPE_VERSION)?);
    let kind = DetectorKind::from_tag(r.u8()?).ok_or_else(|| corrupt("unknown family tag"))?;
    let seed = r.u64()?;
    let serving_window = r.u32()? as usize;
    let channels = r.u32()? as usize;
    let tau = r.f64()?;
    if channels == 0 {
        return Err(corrupt("zero channels"));
    }
    if !tau.is_finite() {
        return Err(corrupt("non-finite tau"));
    }
    if kind == DetectorKind::ImDiffusion {
        if serving_window != cfg.window {
            return Err(DetectorError::InvalidTrainingData(format!(
                "envelope serving window {serving_window} does not match \
                 configured diffusion window {}",
                cfg.window
            )));
        }
    } else if serving_window < kind.min_serving_window() {
        return Err(corrupt(format!(
            "serving window {serving_window} below the {} family floor {}",
            kind.name(),
            kind.min_serving_window()
        )));
    }
    let drift_ref = match r.u8()? {
        0 => None,
        1 => Some(
            DriftReference::from_flat(&r.f32_array(4 * channels)?, channels)
                .ok_or_else(|| corrupt("malformed drift reference"))?,
        ),
        other => return Err(corrupt(format!("bad drift flag {other}"))),
    };
    let payload_len = r.u32()? as usize;
    let payload = r.take(payload_len)?;
    r.finish()?;
    let model = Model::restore(kind, cfg, seed, channels, payload)?;
    Ok(AnyDetector::from_parts(
        kind,
        cfg.clone(),
        seed,
        serving_window,
        tau,
        drift_ref,
        channels,
        model,
    ))
}
