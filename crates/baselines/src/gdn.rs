//! GDN — Graph Deviation Network (Deng & Hooi, AAAI 2021) — baseline (vi).
//!
//! Each sensor gets a learned embedding; a top-`k` similarity graph over
//! embeddings defines which sensors attend to which. A graph-attention
//! layer aggregates neighbour histories to forecast each sensor's next
//! value; the anomaly score is the maximum (robustly normalized) per-sensor
//! forecast deviation — the scoring rule of the original paper.

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Linear, Module};
use imdiff_nn::ops::{mse, Act};
use imdiff_nn::optim::Adam;
use imdiff_nn::serialize::{ByteReader, ByteWriter};
use imdiff_nn::{forward_only, init, Tensor};
use rand::rngs::StdRng;

use crate::common::{
    batch_windows, corrupt, neural_lifecycle, next_rows, require_len, rng_for, run_training,
    sample_starts, score_next_rows, Fitted, Network, NormState, NEXT_ROW_BATCH,
};

const WINDOW: usize = 12;
const EMBED: usize = 16;
const TOP_K: usize = 5;
const TRAIN_STEPS: usize = 150;
const BATCH: usize = 16;

struct Model {
    /// Sensor embeddings `[K, E]`.
    embed: Tensor,
    /// Projects a sensor's own window history to a feature vector.
    history_proj: Linear,
    /// Output head combining own + neighbour features with the embedding.
    out1: Linear,
    out2: Linear,
    /// Adjacency: for each sensor, the indices of its top-k neighbours.
    neighbours: Vec<Vec<usize>>,
    /// Per-sensor robust scale (median + IQR) of training errors.
    err_scale: Vec<f64>,
    k: usize,
}

impl Model {
    /// Forecast `[B, K]` next values from `[B, W, K]` windows.
    fn forward(&self, x: &Tensor) -> Tensor {
        let dims = x.dims().to_vec();
        let (b, w, k) = (dims[0], dims[1], dims[2]);
        debug_assert_eq!(k, self.k);
        // Per-sensor history features: [B*K, W] -> [B*K, E].
        let hist = x.permute(&[0, 2, 1]).reshape(&[b * k, w]);
        let feat = self.history_proj.forward_act(&hist, Act::Relu); // [B*K, E]
                                                                    // Attention over the static neighbour graph, weighted by embedding
                                                                    // similarity (the graph attention of GDN, without per-step
                                                                    // recomputation of the graph).
        let emb = &self.embed;
        let emb_d = emb.data();
        // Precompute attention weights per (sensor, neighbour) pair from
        // embeddings: softmax over cosine similarities.
        let mut attn = vec![0.0f32; k * TOP_K];
        for s in 0..k {
            let mut sims = Vec::with_capacity(self.neighbours[s].len());
            for &n in &self.neighbours[s] {
                let mut dot = 0.0f32;
                let (mut na, mut nb) = (0.0f32, 0.0f32);
                for e in 0..EMBED {
                    let a = emb_d[s * EMBED + e];
                    let b2 = emb_d[n * EMBED + e];
                    dot += a * b2;
                    na += a * a;
                    nb += b2 * b2;
                }
                sims.push(dot / (na.sqrt() * nb.sqrt() + 1e-6));
            }
            let max = sims.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = sims.iter().map(|&s2| (s2 - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for (j, e) in exps.iter().enumerate() {
                attn[s * TOP_K + j] = e / sum;
            }
        }
        drop(emb_d);
        // Aggregate neighbour features (data-side gather; gradients flow
        // through `feat` via the weighted sum below).
        let feat_d = feat.data();
        let mut agg = vec![0.0f32; b * k * EMBED];
        for bi in 0..b {
            for s in 0..k {
                for (j, &n) in self.neighbours[s].iter().enumerate() {
                    let wgt = attn[s * TOP_K + j];
                    for e in 0..EMBED {
                        agg[(bi * k + s) * EMBED + e] += wgt * feat_d[(bi * k + n) * EMBED + e];
                    }
                }
            }
        }
        drop(feat_d);
        let agg_t = Tensor::from_vec(agg, &[b * k, EMBED]).expect("agg shape");
        // Tile sensor embeddings over the batch.
        let emb_tiled = Tensor::zeros(&[b, k, EMBED])
            .add(&emb.reshape(&[1, k, EMBED]))
            .reshape(&[b * k, EMBED]);
        let joint = Tensor::concat(&[&feat, &agg_t, &emb_tiled], 1);
        let out = self.out2.forward(&self.out1.forward_act(&joint, Act::Relu)); // [B*K, 1]
        out.reshape(&[b, k])
    }

    /// `|truth - forecast|` of the row after each window, `[B * K]`.
    fn deviations(&self, data: &Mts, starts: &[usize]) -> Vec<f64> {
        let pred = forward_only(|| self.forward(&batch_windows(data, starts, WINDOW)));
        let truth = next_rows(data, starts, WINDOW);
        let (td, pd) = (truth.data(), pred.data());
        td.iter()
            .zip(pd.iter())
            .map(|(&t, &p)| ((t - p) as f64).abs())
            .collect()
    }
}

impl Network for Model {
    const TAG: u64 = 0x6d4;

    /// The neighbour graph and the error scales are data-derived: `fit`
    /// computes them and a payload carries them.
    fn build(rng: &mut StdRng, k: usize) -> Self {
        Model {
            embed: init::normal_init(rng, &[k, EMBED], 0.1),
            history_proj: Linear::new(rng, WINDOW, EMBED),
            out1: Linear::new(rng, 3 * EMBED, EMBED),
            out2: Linear::new(rng, EMBED, 1),
            neighbours: vec![vec![0; TOP_K]; k],
            err_scale: Vec::new(),
            k,
        }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = vec![self.embed.clone()];
        p.extend(self.history_proj.params());
        p.extend(self.out1.params());
        p.extend(self.out2.params());
        p
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.tensors(&self.params());
        w.u32(self.neighbours.len() as u32);
        for &n in self.neighbours.iter().flatten() {
            w.u32(n as u32);
        }
        w.f64s(&self.err_scale);
    }

    fn decode(&mut self, r: &mut ByteReader) -> Result<(), DetectorError> {
        let k = self.k;
        r.tensors_into(&self.params())?;
        if r.u32()? as usize != k {
            return Err(corrupt("neighbour graph sensor count mismatch"));
        }
        for slot in self.neighbours.iter_mut().flatten() {
            *slot = r.u32()? as usize;
            if *slot >= k {
                return Err(corrupt("neighbour index out of range"));
            }
        }
        self.err_scale = r.f64s()?;
        if self.err_scale.len() != k || self.err_scale.iter().any(|&e| !e.is_finite() || e <= 0.0) {
            return Err(corrupt("invalid error scales"));
        }
        Ok(())
    }
}

/// Graph Deviation Network forecaster.
pub struct Gdn {
    seed: u64,
    state: Option<Fitted<Model>>,
}

impl Gdn {
    /// Fewest rows [`Self::score_series`] accepts: one context window and
    /// the row it forecasts.
    pub const MIN_WINDOW: usize = WINDOW + 1;

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        let state = self.state.as_ref();
        score_next_rows(
            state,
            test,
            missing,
            WINDOW,
            |m, data, starts| {
                // GDN scoring: max over sensors of normalized deviation.
                m.deviations(data, starts)
                    .chunks(m.k)
                    .map(|row| {
                        row.iter()
                            .zip(&m.err_scale)
                            .map(|(&d, &s)| d / s)
                            .fold(0.0f64, f64::max)
                    })
                    .collect()
            },
        )
    }
}

neural_lifecycle!(Gdn);

fn build_neighbours(train: &Mts, k: usize) -> Vec<Vec<usize>> {
    // Correlation-based top-k graph (the learned graph converges to
    // correlated sensors; using data correlations keeps it deterministic).
    let len = train.len();
    let mut means = vec![0.0f64; k];
    for l in 0..len {
        for (m, v) in means.iter_mut().zip(train.row(l)) {
            *m += *v as f64;
        }
    }
    for m in &mut means {
        *m /= len as f64;
    }
    let mut cov = vec![0.0f64; k * k];
    let mut var = vec![0.0f64; k];
    for l in 0..len {
        let row = train.row(l);
        for a in 0..k {
            let da = row[a] as f64 - means[a];
            var[a] += da * da;
            for b in (a + 1)..k {
                cov[a * k + b] += da * (row[b] as f64 - means[b]);
            }
        }
    }
    (0..k)
        .map(|s| {
            let mut sims: Vec<(usize, f64)> = (0..k)
                .filter(|&o| o != s)
                .map(|o| {
                    let c = if s < o {
                        cov[s * k + o]
                    } else {
                        cov[o * k + s]
                    };
                    let d = (var[s] * var[o]).sqrt().max(1e-9);
                    (o, (c / d).abs())
                })
                .collect();
            sims.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite corr"));
            let mut ns: Vec<usize> = sims.iter().take(TOP_K).map(|&(o, _)| o).collect();
            while ns.len() < TOP_K {
                ns.push(s); // degenerate tiny-K case: self-loops pad
            }
            ns
        })
        .collect()
}

impl Detector for Gdn {
    fn name(&self) -> &'static str {
        "GDN"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 2)?;
        let k = train_n.dim();
        let mut rng = rng_for(self.seed, Model::TAG);
        let mut model = Model::build(&mut rng, k);
        model.neighbours = build_neighbours(&train_n, k);
        let mut opt = Adam::new(model.params(), 2e-3);
        run_training(&mut opt, TRAIN_STEPS, 1.0, |_| {
            let starts = sample_starts(&mut rng, train_n.len() - 1, WINDOW, BATCH);
            let x = batch_windows(&train_n, &starts, WINDOW);
            mse(&model.forward(&x), &next_rows(&train_n, &starts, WINDOW))
        });

        // Per-sensor robust error scale on the training split.
        let mut per_sensor: Vec<Vec<f64>> = vec![Vec::new(); k];
        let positions: Vec<usize> = (0..train_n.len() - WINDOW).step_by(4).collect();
        for chunk in positions.chunks(NEXT_ROW_BATCH) {
            for (c, d) in (0..k).cycle().zip(model.deviations(&train_n, chunk)) {
                per_sensor[c].push(d);
            }
        }
        model.err_scale = per_sensor
            .into_iter()
            .map(|mut v| {
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let med = v[v.len() / 2];
                let iqr = v[(v.len() * 3) / 4] - v[v.len() / 4];
                (med + iqr).max(1e-4)
            })
            .collect();
        self.state = Some(Fitted { norm, model });
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
    fn neighbour_graph_prefers_correlated_sensors() {
        // Channels 0 and 1 identical, channel 2 independent noise-free ramp.
        let len = 200;
        let mut data = Vec::new();
        for t in 0..len {
            let v = (t as f32 * 0.3).sin();
            data.push(v);
            data.push(v);
            data.push(t as f32 / len as f32);
        }
        let m = Mts::new(data, len, 3);
        let ns = build_neighbours(&m, 3);
        assert_eq!(ns[0][0], 1);
        assert_eq!(ns[1][0], 0);
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 150,
                test_len: 70,
            },
            5,
        );
        let mut det = Gdn::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = Gdn::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    #[test]
    fn detects_single_sensor_deviation() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 200,
                test_len: 100,
            },
            5,
        );
        let mut det = Gdn::new(2);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 100);
        assert!(d.scores.iter().all(|s| s.is_finite()));
    }
}
