//! MSCRED (Zhang et al., AAAI 2019) — reconstruction baseline (ix).
//!
//! The original builds multi-scale *signature matrices* (pairwise inner
//! products of recent channel segments) and reconstructs them with a
//! ConvLSTM autoencoder; anomalies are scored by the residual of the
//! reconstructed matrices. This reproduction keeps the signature-matrix
//! front end (three scales) and reconstructs with a convolutional
//! autoencoder over a random-projected signature vector — the ConvLSTM is
//! simplified away (DESIGN.md, substitution 5). Scoring is the signature
//! residual, mapped back to timestamps.

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Conv1d, Linear, Module};
use imdiff_nn::ops::mse;
use imdiff_nn::optim::Adam;
use imdiff_nn::rng::normal_vec;
use imdiff_nn::{no_grad, Tensor};
use imdiff_nn::serialize::{ByteReader, ByteWriter};
use rand::rngs::StdRng;

use crate::common::{
    corrupt, require_len, rng_for, run_training, NormState,
};
use rand::Rng;

/// Segment lengths of the three signature scales.
const SCALES: [usize; 3] = [8, 16, 32];
/// Random-projection width per scale.
const PROJ: usize = 24;
const HIDDEN: usize = 48;
const TRAIN_STEPS: usize = 120;
const BATCH: usize = 16;

/// Signature vector at position `t` (end-exclusive) for one scale:
/// the upper triangle of the channel inner-product matrix, randomly
/// projected to `PROJ` dims with a fixed seeded matrix.
struct SignatureExtractor {
    /// `[n_pairs, PROJ]` per scale.
    projections: Vec<Vec<f32>>,
    k: usize,
}

impl SignatureExtractor {
    fn new(k: usize, rng: &mut StdRng) -> Self {
        let n_pairs = k * (k + 1) / 2;
        let scale_factor = 1.0 / (n_pairs as f32).sqrt();
        let projections = SCALES
            .iter()
            .map(|_| {
                normal_vec(rng, n_pairs * PROJ)
                    .into_iter()
                    .map(|v| v * scale_factor)
                    .collect()
            })
            .collect();
        SignatureExtractor { projections, k }
    }

    /// Feature vector (3 * PROJ) at end-position `t` (needs `t >= max scale`).
    fn features(&self, x: &Mts, t: usize) -> Vec<f32> {
        let k = self.k;
        let mut out = Vec::with_capacity(SCALES.len() * PROJ);
        for (si, &w) in SCALES.iter().enumerate() {
            // Signature matrix entries: s_ij = <x_i, x_j> / w over [t-w, t).
            let mut sig = Vec::with_capacity(k * (k + 1) / 2);
            for i in 0..k {
                for j in i..k {
                    let mut acc = 0.0f32;
                    for l in (t - w)..t {
                        acc += x.get(l, i) * x.get(l, j);
                    }
                    sig.push(acc / w as f32);
                }
            }
            let proj = &self.projections[si];
            for p in 0..PROJ {
                let mut acc = 0.0f32;
                for (e, &s) in sig.iter().enumerate() {
                    acc += s * proj[e * PROJ + p];
                }
                out.push(acc);
            }
        }
        out
    }
}

struct AutoEncoder {
    conv: Conv1d,
    enc: Linear,
    dec1: Linear,
    dec2: Linear,
}

impl AutoEncoder {
    fn new(rng: &mut StdRng) -> Self {
        let feat_dim = SCALES.len() * PROJ;
        AutoEncoder {
            conv: Conv1d::new(rng, SCALES.len(), SCALES.len(), 3, 1),
            enc: Linear::new(rng, feat_dim, HIDDEN),
            dec1: Linear::new(rng, HIDDEN, HIDDEN),
            dec2: Linear::new(rng, HIDDEN, feat_dim),
        }
    }

    /// `[B, 3*PROJ]` -> reconstruction of the same shape.
    fn forward(&self, x: &Tensor) -> Tensor {
        let b = x.dims()[0];
        // Treat the three scales as channels for the conv front end.
        let conv_in = x.reshape(&[b, SCALES.len(), PROJ]);
        let h = self.conv.forward(&conv_in).relu().reshape(&[b, SCALES.len() * PROJ]);
        let z = self.enc.forward(&h).relu();
        self.dec2.forward(&self.dec1.forward(&z).relu())
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.conv.params();
        p.extend(self.enc.params());
        p.extend(self.dec1.params());
        p.extend(self.dec2.params());
        p
    }
}

/// Signature-matrix convolutional autoencoder.
pub struct Mscred {
    seed: u64,
    state: Option<Fitted>,
}

struct Fitted {
    norm: NormState,
    extractor: SignatureExtractor,
    ae: AutoEncoder,
}

impl Mscred {
    /// Creates the detector.
    pub fn new(seed: u64) -> Self {
        Mscred { seed, state: None }
    }

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        let test_n = st.norm.transform_masked(test, missing)?;
        let max_scale = *SCALES.iter().max().expect("scales non-empty");
        require_len(&test_n, max_scale + 1)?;
        let feat_dim = SCALES.len() * PROJ;
        let positions: Vec<usize> = (max_scale..=test_n.len()).collect();
        let mut scores = vec![0.0f64; test_n.len()];
        for chunk in positions.chunks(64) {
            let batch: Vec<f32> = chunk
                .iter()
                .flat_map(|&t| st.extractor.features(&test_n, t))
                .collect();
            let x = Tensor::from_vec(batch, &[chunk.len(), feat_dim]).expect("batch");
            let recon = no_grad(|| st.ae.forward(&x));
            let (xd, rd) = (x.data(), recon.data());
            for (bi, &t) in chunk.iter().enumerate() {
                let err: f64 = (0..feat_dim)
                    .map(|j| ((xd[bi * feat_dim + j] - rd[bi * feat_dim + j]) as f64).powi(2))
                    .sum::<f64>()
                    / feat_dim as f64;
                scores[t - 1] = err; // signature at end-position t covers t-1
            }
        }
        // Warm-up region inherits the first computed score.
        let first = scores[max_scale - 1];
        for s in scores.iter_mut().take(max_scale - 1) {
            *s = first;
        }
        Ok(scores)
    }

    /// Serializes the fitted state as the family's registry payload. The
    /// random projections are stored explicitly so a restored detector is
    /// independent of the RNG draw order at fit time.
    pub fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        let mut w = ByteWriter::new();
        st.norm.encode(&mut w);
        w.u32(st.extractor.projections.len() as u32);
        for p in &st.extractor.projections {
            w.f32s(p);
        }
        w.tensors(&st.ae.params());
        Ok(w.finish())
    }

    /// Rebuilds a fitted detector from [`Self::snapshot_payload`] bytes.
    pub fn restore_from_payload(seed: u64, bytes: &[u8]) -> Result<Self, DetectorError> {
        let mut r = ByteReader::new(bytes);
        let norm = NormState::decode(&mut r)?;
        let k = norm.channels;
        let n_scales = r.u32()? as usize;
        if n_scales != SCALES.len() {
            return Err(corrupt("signature scale count mismatch"));
        }
        let n_pairs = k * (k + 1) / 2;
        let mut projections = Vec::with_capacity(n_scales);
        for _ in 0..n_scales {
            let p = r.f32s()?;
            if p.len() != n_pairs * PROJ {
                return Err(corrupt("projection matrix shape mismatch"));
            }
            projections.push(p);
        }
        let extractor = SignatureExtractor { projections, k };
        let mut rng = rng_for(seed, 0x35c7ed);
        let ae = AutoEncoder::new(&mut rng);
        r.tensors_into(&ae.params())?;
        r.finish()?;
        Ok(Mscred {
            seed,
            state: Some(Fitted {
                norm,
                extractor,
                ae,
            }),
        })
    }
}

impl Detector for Mscred {
    fn name(&self) -> &'static str {
        "MSCRED"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        let max_scale = *SCALES.iter().max().expect("scales non-empty");
        require_len(&train_n, max_scale + 2)?;
        let mut rng = rng_for(self.seed, 0x35c7ed);
        let extractor = SignatureExtractor::new(train_n.dim(), &mut rng);
        let feat_dim = SCALES.len() * PROJ;
        let ae = AutoEncoder::new(&mut rng);
        // Precompute training features on a stride-2 grid.
        let positions: Vec<usize> = (max_scale..train_n.len()).step_by(2).collect();
        let feats: Vec<Vec<f32>> = positions
            .iter()
            .map(|&t| extractor.features(&train_n, t))
            .collect();
        let mut opt = Adam::new(ae.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let batch: Vec<f32> = (0..BATCH)
                .flat_map(|_| feats[rng.gen_range(0..feats.len())].clone())
                .collect();
            let x = Tensor::from_vec(batch, &[BATCH, feat_dim]).expect("batch shape");
            mse(&ae.forward(&x), &x)
        });
        self.state = Some(Fitted {
            norm,
            extractor,
            ae,
        });
        Ok(())
    }

    fn detect(&mut self, test: &Mts) -> Result<Detection, DetectorError> {
        Ok(Detection::from_scores(self.score_series(test, None)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdiff_data::synthetic::{generate, Benchmark, SizeProfile};

    #[test]
    fn signature_features_are_deterministic() {
        let m = Mts::new((0..200).map(|v| (v as f32 * 0.1).sin()).collect(), 100, 2);
        let mut rng = rng_for(1, 2);
        let ex = SignatureExtractor::new(2, &mut rng);
        assert_eq!(ex.features(&m, 40), ex.features(&m, 40));
        assert_ne!(ex.features(&m, 40), ex.features(&m, 60));
    }

    #[test]
    fn correlation_break_raises_score() {
        let len = 400;
        let mut data = Vec::new();
        for t in 0..len {
            let v = (t as f32 * 0.2).sin();
            data.push(v);
            data.push(v * 0.8);
        }
        let train = Mts::new(data.clone(), len, 2);
        let mut test = Mts::new(data, len, 2);
        for l in 250..300 {
            let v = test.get(l, 1);
            test.set(l, 1, -v);
        }
        let mut det = Mscred::new(3);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let anom: f64 = d.scores[260..295].iter().sum::<f64>() / 35.0;
        let norm: f64 = d.scores[50..240].iter().sum::<f64>() / 190.0;
        assert!(anom > norm, "anomaly {anom} vs normal {norm}");
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 150,
                test_len: 80,
            },
            4,
        );
        let mut det = Mscred::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = Mscred::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn benchmark_shapes() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 150,
                test_len: 80,
            },
            4,
        );
        let mut det = Mscred::new(1);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 80);
    }
}
