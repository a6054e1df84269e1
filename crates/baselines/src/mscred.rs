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
use imdiff_nn::ops::{mse, Act};
use imdiff_nn::optim::Adam;
use imdiff_nn::rng::normal_vec;
use imdiff_nn::serialize::{ByteReader, ByteWriter};
use imdiff_nn::{no_grad, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{
    channel_mse, corrupt, neural_lifecycle, require_len, rng_for, run_training, score_next_rows,
    Fitted, Network, NormState,
};

/// Segment lengths of the three signature scales.
const SCALES: [usize; 3] = [8, 16, 32];
/// The largest scale: rows one signature reads.
const MAX_SCALE: usize = SCALES[SCALES.len() - 1];
/// Width of one signature feature vector.
const FEAT_DIM: usize = SCALES.len() * PROJ;
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
        let mut out = Vec::with_capacity(FEAT_DIM);
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
        AutoEncoder {
            conv: Conv1d::new(rng, SCALES.len(), SCALES.len(), 3, 1),
            enc: Linear::new(rng, FEAT_DIM, HIDDEN),
            dec1: Linear::new(rng, HIDDEN, HIDDEN),
            dec2: Linear::new(rng, HIDDEN, FEAT_DIM),
        }
    }

    /// `[B, 3*PROJ]` -> reconstruction of the same shape.
    fn forward(&self, x: &Tensor) -> Tensor {
        let b = x.dims()[0];
        // Treat the three scales as channels for the conv front end.
        let conv_in = x.reshape(&[b, SCALES.len(), PROJ]);
        let h = self.conv.forward(&conv_in).relu().reshape(&[b, FEAT_DIM]);
        let z = self.enc.forward_act(&h, Act::Relu);
        self.dec2.forward(&self.dec1.forward_act(&z, Act::Relu))
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.conv.params();
        p.extend(self.enc.params());
        p.extend(self.dec1.params());
        p.extend(self.dec2.params());
        p
    }
}

struct Model {
    extractor: SignatureExtractor,
    ae: AutoEncoder,
}

impl Network for Model {
    const TAG: u64 = 0x35c7ed;

    /// The projections are left empty: `fit` draws them before the
    /// autoencoder, and a payload stores them.
    fn build(rng: &mut StdRng, k: usize) -> Self {
        Model {
            extractor: SignatureExtractor {
                projections: Vec::new(),
                k,
            },
            ae: AutoEncoder::new(rng),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        self.ae.params()
    }

    /// The random projections are stored explicitly so a restored
    /// detector is independent of the RNG draw order at fit time.
    fn encode(&self, w: &mut ByteWriter) {
        w.u32(self.extractor.projections.len() as u32);
        for p in &self.extractor.projections {
            w.f32s(p);
        }
        w.tensors(&self.params());
    }

    fn decode(&mut self, r: &mut ByteReader) -> Result<(), DetectorError> {
        if r.u32()? as usize != SCALES.len() {
            return Err(corrupt("signature scale count mismatch"));
        }
        let k = self.extractor.k;
        for _ in SCALES {
            let p = r.f32s()?;
            if p.len() != k * (k + 1) / 2 * PROJ {
                return Err(corrupt("projection matrix shape mismatch"));
            }
            self.extractor.projections.push(p);
        }
        Ok(r.tensors_into(&self.params())?)
    }
}

/// Signature-matrix convolutional autoencoder.
pub struct Mscred {
    seed: u64,
    state: Option<Fitted<Model>>,
}

impl Mscred {
    /// Fewest rows [`Self::score_series`] accepts: the largest scale, the
    /// rows of one signature.
    pub const MIN_WINDOW: usize = MAX_SCALE;

    /// Read-only scoring with an optional declared-missing mask. The
    /// signature of rows `[s, s + MAX_SCALE)` scores its last row, so the
    /// context window of the next-row driver is `MAX_SCALE - 1` rows.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        let (state, w) = (self.state.as_ref(), MAX_SCALE - 1);
        score_next_rows(
            state,
            test,
            missing,
            w,
            |m, data, starts| {
                let batch: Vec<f32> = starts
                    .iter()
                    .flat_map(|&s| m.extractor.features(data, s + MAX_SCALE))
                    .collect();
                let x = Tensor::from_vec(batch, &[starts.len(), FEAT_DIM]).expect("batch");
                channel_mse(&x, &no_grad(|| m.ae.forward(&x)))
            },
        )
    }
}

neural_lifecycle!(Mscred);

impl Detector for Mscred {
    fn name(&self) -> &'static str {
        "MSCRED"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, MAX_SCALE + 2)?;
        let mut rng = rng_for(self.seed, Model::TAG);
        let extractor = SignatureExtractor::new(train_n.dim(), &mut rng);
        let ae = AutoEncoder::new(&mut rng);
        // Precompute training features on a stride-2 grid.
        let positions: Vec<usize> = (MAX_SCALE..train_n.len()).step_by(2).collect();
        let feats: Vec<Vec<f32>> = positions
            .iter()
            .map(|&t| extractor.features(&train_n, t))
            .collect();
        let mut opt = Adam::new(ae.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let batch: Vec<f32> = (0..BATCH)
                .flat_map(|_| feats[rng.gen_range(0..feats.len())].clone())
                .collect();
            let x = Tensor::from_vec(batch, &[BATCH, FEAT_DIM]).expect("batch shape");
            mse(&ae.forward(&x), &x)
        });
        self.state = Some(Fitted {
            norm,
            model: Model { extractor, ae },
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
