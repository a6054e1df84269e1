//! The workspace's one record codec: a CRC-checked record frame plus a
//! little-endian byte writer/reader pair.
//!
//! Every checkpoint file in the workspace — the `IMDE` detector envelope,
//! the `IMSM` stream sidecar and the `IMTS` training state — is one
//! *record*:
//!
//! | bytes | field |
//! |---|---|
//! | `0..4` | magic |
//! | `4..8` | version, `u32` LE |
//! | `8..12` | CRC32 of magic ‖ version ‖ body, `u32` LE |
//! | `12..` | body |
//!
//! The CRC covers the header as well as the body, so a flipped bit
//! anywhere — version included — is a CRC error, and
//! [`open_record`] accepts exactly one version per magic. Bodies (and
//! the record-less payloads nested inside them, and the wire protocol's
//! payloads) are written with [`ByteWriter`] and read back with
//! [`ByteReader`]: running off the end, leaving trailing bytes or
//! claiming a count the remaining bytes cannot hold is a typed
//! [`NnError::Corrupt`], never a panic or an oversized allocation.
//! Intact data that does not fit the model it is loaded into (tensor
//! count or shape) is [`NnError::InvalidArgument`].
//!
//! Files are written through [`atomic_write`] — temp file plus atomic
//! rename — so a crash mid-write leaves either the old file or none,
//! never a half-written one.

use std::fs;
use std::io::Write;
use std::path::Path;

use crate::{NnError, Result, Tensor};

/// CRC32 (IEEE 802.3, polynomial `0xEDB88320`) lookup table, built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Initial CRC32 (IEEE) state — the integrity check of every record and
/// wire frame in the workspace: feed chunks through [`crc32_update`] and
/// close with [`crc32_finish`]. Streaming lets callers checksum logically
/// concatenated buffers (e.g. a frame header followed by a borrowed
/// payload slice) without materialising the concatenation.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into a streaming CRC32 `state` (see [`CRC32_INIT`]).
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Finalizes a streaming CRC32 `state` into the checksum value.
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// Writes `bytes` to `path` atomically: the payload goes to a sibling
/// temp file which is then renamed over the target, so readers never see
/// a partially written checkpoint. Creates parent directories as needed.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result
}

// ---------------------------------------------------------------------------
// Record frame
// ---------------------------------------------------------------------------

/// Length of the record header: magic, version, CRC.
const RECORD_HEADER: usize = 12;

/// CRC of a framed record: magic ‖ version ‖ body, skipping the CRC slot.
fn record_crc(record: &[u8]) -> u32 {
    let state = crc32_update(CRC32_INIT, &record[..8]);
    crc32_finish(crc32_update(state, &record[RECORD_HEADER..]))
}

/// Validates a record frame and returns its body: the magic must match,
/// the version must be exactly `version`, and the CRC must cover the
/// header and body. Every failure is [`NnError::Corrupt`].
pub fn open_record<'a>(bytes: &'a [u8], magic: &[u8; 4], version: u32) -> Result<&'a [u8]> {
    let name = || String::from_utf8_lossy(magic);
    if bytes.len() < RECORD_HEADER {
        return Err(NnError::Corrupt(format!(
            "{} record truncated: {} header bytes",
            name(),
            bytes.len()
        )));
    }
    if &bytes[..4] != magic {
        return Err(NnError::Corrupt(format!("not an {} record", name())));
    }
    let stored_version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if stored_version != version {
        return Err(NnError::Corrupt(format!(
            "unsupported {} version {stored_version} (expected {version})",
            name()
        )));
    }
    let stored = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let actual = record_crc(bytes);
    if stored != actual {
        return Err(NnError::Corrupt(format!(
            "{} record CRC mismatch: header {stored:#010x}, computed {actual:#010x}",
            name()
        )));
    }
    Ok(&bytes[RECORD_HEADER..])
}

// ---------------------------------------------------------------------------
// Byte writer
// ---------------------------------------------------------------------------

/// Little-endian byte writer. [`ByteWriter::new`] writes a bare body (a
/// payload nested in another record, a wire payload);
/// [`ByteWriter::record`] reserves a record header whose CRC
/// [`ByteWriter::finish`] seals.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    record: bool,
}

impl ByteWriter {
    /// A writer for a bare body.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer for a framed record: the body follows the header.
    pub fn record(magic: &[u8; 4], version: u32) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        ByteWriter { buf, record: true }
    }

    /// The written bytes; a record gets its CRC sealed first.
    pub fn finish(mut self) -> Vec<u8> {
        if self.record {
            let crc = record_crc(&self.buf);
            self.buf[8..12].copy_from_slice(&crc.to_le_bytes());
        }
        self.buf
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f32`.
    pub fn f32(&mut self, v: f32) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64`.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u32` length-prefixed `f32` slice.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.f32(v);
        }
    }

    /// A `u32` length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.f64(v);
        }
    }

    /// A tensor list in order: count, then per tensor its rank, dims and
    /// `f32` values. Read back with [`ByteReader::tensors_into`].
    pub fn tensors(&mut self, tensors: &[Tensor]) {
        self.u32(tensors.len() as u32);
        for t in tensors {
            self.u32(t.dims().len() as u32);
            for &d in t.dims() {
                self.u32(d as u32);
            }
            let data = t.data();
            self.buf.reserve(data.len() * 4);
            for &v in data.iter() {
                self.f32(v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Byte reader
// ---------------------------------------------------------------------------

/// Little-endian cursor over a body. Every shortfall is a typed
/// [`NnError::Corrupt`]; error messages are only built on failure.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A pre-allocation for `n` items of at least `min_bytes` bytes each,
    /// capped at what the remaining bytes can hold — an untrusted count
    /// can never reserve more memory than the input could fill.
    pub fn capacity(&self, n: usize, min_bytes: usize) -> usize {
        n.min(self.remaining() / min_bytes.max(1))
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(NnError::Corrupt(format!(
                "ended early: {n} bytes needed at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f32`.
    pub fn f32(&mut self) -> Result<f32> {
        self.array().map(f32::from_le_bytes)
    }

    /// An `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// Exactly `n` `f32` values (no prefix); fails before allocating when
    /// the remaining bytes cannot hold them.
    pub fn f32_array(&mut self, n: usize) -> Result<Vec<f32>> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// A `u32` length-prefixed `f32` slice.
    pub fn f32s(&mut self) -> Result<Vec<f32>> {
        let n = self.u32()? as usize;
        self.f32_array(n)
    }

    /// A `u32` length-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Loads a [`ByteWriter::tensors`] list into `params` (e.g. a freshly
    /// built model skeleton). A count or shape that differs from
    /// `params` is [`NnError::InvalidArgument`] — the data is intact but
    /// belongs to a different architecture, and is never truncated into
    /// the model.
    pub fn tensors_into(&mut self, params: &[Tensor]) -> Result<()> {
        let count = self.u32()? as usize;
        if count != params.len() {
            return Err(NnError::InvalidArgument(format!(
                "checkpoint has {count} tensors, model expects {}",
                params.len()
            )));
        }
        for (i, p) in params.iter().enumerate() {
            let rank = self.u32()? as usize;
            let mut dims = Vec::with_capacity(self.capacity(rank, 4));
            for _ in 0..rank {
                dims.push(self.u32()? as usize);
            }
            if dims != p.dims() {
                return Err(NnError::InvalidArgument(format!(
                    "tensor {i}: checkpoint shape {dims:?} != model shape {:?}",
                    p.dims()
                )));
            }
            p.set_data(&self.f32_array(p.numel())?);
        }
        Ok(())
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(NnError::Corrupt(format!("{n} trailing bytes after the body"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Module};
    use crate::rng::seeded;

    const MAGIC: &[u8; 4] = b"TEST";

    /// A small record exercising every value kind.
    fn sample_record() -> Vec<u8> {
        let mut w = ByteWriter::record(MAGIC, 3);
        w.u8(7);
        w.u16(513);
        w.u32(42);
        w.u64(1 << 40);
        w.f32(1.5);
        w.f64(-2.25);
        w.f32s(&[1.0, 2.0]);
        w.f64s(&[3.0]);
        w.finish()
    }

    /// Decodes [`sample_record`] in full, including the trailing-bytes
    /// check.
    fn decode_sample(bytes: &[u8]) -> Result<()> {
        let mut r = ByteReader::new(open_record(bytes, MAGIC, 3)?);
        assert_eq!(r.u8()?, 7);
        assert_eq!(r.u16()?, 513);
        assert_eq!(r.u32()?, 42);
        assert_eq!(r.u64()?, 1 << 40);
        assert_eq!(r.f32()?, 1.5);
        assert_eq!(r.f64()?, -2.25);
        assert_eq!(r.f32s()?, vec![1.0, 2.0]);
        assert_eq!(r.f64s()?, vec![3.0]);
        r.finish()
    }

    #[test]
    fn crc32_matches_reference_vector() {
        let crc32 = |b: &[u8]| crc32_finish(crc32_update(CRC32_INIT, b));
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrips_every_value_kind() {
        decode_sample(&sample_record()).unwrap();
    }

    #[test]
    fn every_single_bit_flip_is_corrupt() {
        let bytes = sample_record();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[i] ^= 1 << bit;
                assert!(
                    matches!(decode_sample(&b), Err(NnError::Corrupt(_))),
                    "flip of byte {i} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_corrupt() {
        let bytes = sample_record();
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_sample(&bytes[..cut]), Err(NnError::Corrupt(_))),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn trailing_byte_is_corrupt() {
        // Appended to the body under a valid CRC: the frame passes, the
        // body reader refuses the leftover byte.
        let body = &sample_record()[RECORD_HEADER..];
        let mut w = ByteWriter::record(MAGIC, 3);
        w.bytes(body);
        w.u8(0);
        assert!(matches!(decode_sample(&w.finish()), Err(NnError::Corrupt(_))));
    }

    #[test]
    fn other_versions_and_magics_are_refused() {
        let mut w = ByteWriter::record(MAGIC, 2);
        w.u8(7);
        let older = w.finish();
        assert!(matches!(open_record(&older, MAGIC, 3), Err(NnError::Corrupt(_))));
        let err = open_record(&older, b"ELSE", 2).unwrap_err();
        assert!(err.to_string().contains("ELSE"), "{err}");
    }

    #[test]
    fn huge_count_with_valid_crc_fails_without_reserving() {
        // A CRC-valid record whose count field claims u32::MAX values:
        // the reader must refuse it from the remaining length alone.
        for read in [
            (|r: &mut ByteReader| r.f32s().map(drop)) as fn(&mut ByteReader) -> Result<()>,
            |r| r.f64s().map(drop),
        ] {
            let mut w = ByteWriter::record(MAGIC, 1);
            w.u32(u32::MAX);
            w.f32(1.0);
            let bytes = w.finish();
            let mut r = ByteReader::new(open_record(&bytes, MAGIC, 1).unwrap());
            assert!(matches!(read(&mut r), Err(NnError::Corrupt(_))));
        }
        let r = ByteReader::new(&[0u8; 8]);
        assert_eq!(r.capacity(u32::MAX as usize, 4), 2);
    }

    #[test]
    fn tensors_roundtrip_values() {
        let l1 = Linear::new(&mut seeded(1), 4, 3);
        let mut w = ByteWriter::new();
        w.tensors(&l1.params());
        let bytes = w.finish();

        let l2 = Linear::new(&mut seeded(99), 4, 3);
        assert_ne!(l1.params()[0].to_vec(), l2.params()[0].to_vec());
        let mut r = ByteReader::new(&bytes);
        r.tensors_into(&l2.params()).unwrap();
        r.finish().unwrap();
        for (a, b) in l1.params().iter().zip(l2.params().iter()) {
            assert_eq!(a.to_vec(), b.to_vec());
        }
    }

    #[test]
    fn tensor_count_and_shape_mismatch_are_invalid_argument() {
        let l1 = Linear::new(&mut seeded(1), 4, 3);
        let mut w = ByteWriter::new();
        w.tensors(&l1.params());
        let bytes = w.finish();

        let wrong_shape = Linear::new(&mut seeded(2), 4, 5);
        assert!(matches!(
            ByteReader::new(&bytes).tensors_into(&wrong_shape.params()),
            Err(NnError::InvalidArgument(_))
        ));
        let one = &l1.params()[..1];
        assert!(matches!(
            ByteReader::new(&bytes).tensors_into(one),
            Err(NnError::InvalidArgument(_))
        ));
        // A truncated tensor body is damage, not a mismatch.
        assert!(matches!(
            ByteReader::new(&bytes[..bytes.len() - 3]).tensors_into(&l1.params()),
            Err(NnError::Corrupt(_))
        ));
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("imdf-atomic-{}", std::process::id()));
        let path = dir.join("nested/out.bin");
        atomic_write(&path, b"payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        let left: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left.len(), 1, "temp files left behind: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
