//! Isolation Forest (Liu et al., 2008/2012) — baseline (i) of the paper.
//!
//! A full implementation of the classic algorithm: `n_trees` isolation
//! trees, each grown on a bootstrap subsample with random axis-aligned
//! splits; the anomaly score of a point is `2^(−E[h(x)]/c(ψ))` where
//! `E[h]` is the mean path length over trees and `c(ψ)` the expected path
//! length of an unsuccessful BST search.

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::serialize::{ByteReader, ByteWriter};
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{corrupt, read_payload, rng_for, write_payload, NormState};

/// Decode recursion guard: real trees are ≤ log2(ψ)=8 deep, so anything
/// past this is corrupt data, not a stack to unwind.
const MAX_DECODE_DEPTH: usize = 64;

enum Node {
    Leaf {
        size: usize,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

fn grow(points: &[&[f32]], depth: usize, max_depth: usize, rng: &mut StdRng) -> Node {
    if points.len() <= 1 || depth >= max_depth {
        return Node::Leaf { size: points.len() };
    }
    let dim = points[0].len();
    // Pick a feature with spread; give up after a few attempts.
    for _ in 0..8 {
        let f = rng.gen_range(0..dim);
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for p in points {
            lo = lo.min(p[f]);
            hi = hi.max(p[f]);
        }
        if hi > lo {
            let th = rng.gen_range(lo..hi);
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for &p in points {
                if p[f] < th {
                    left.push(p);
                } else {
                    right.push(p);
                }
            }
            if left.is_empty() || right.is_empty() {
                continue;
            }
            return Node::Split {
                feature: f,
                threshold: th,
                left: Box::new(grow(&left, depth + 1, max_depth, rng)),
                right: Box::new(grow(&right, depth + 1, max_depth, rng)),
            };
        }
    }
    Node::Leaf { size: points.len() }
}

/// Preorder tree encoding: tag byte, then leaf size or split payload.
fn encode_node(node: &Node, w: &mut ByteWriter) {
    match node {
        Node::Leaf { size } => {
            w.u8(0);
            w.u32(*size as u32);
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            w.u8(1);
            w.u32(*feature as u32);
            w.f32(*threshold);
            encode_node(left, w);
            encode_node(right, w);
        }
    }
}

fn decode_node(r: &mut ByteReader, dim: usize, depth: usize) -> Result<Node, DetectorError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(corrupt("isolation tree deeper than any valid forest"));
    }
    match r.u8()? {
        0 => Ok(Node::Leaf {
            size: r.u32()? as usize,
        }),
        1 => {
            let feature = r.u32()? as usize;
            if feature >= dim {
                return Err(corrupt("split feature out of range"));
            }
            let threshold = r.f32()?;
            if !threshold.is_finite() {
                return Err(corrupt("non-finite split threshold"));
            }
            Ok(Node::Split {
                feature,
                threshold,
                left: Box::new(decode_node(r, dim, depth + 1)?),
                right: Box::new(decode_node(r, dim, depth + 1)?),
            })
        }
        _ => Err(corrupt("unknown tree node tag")),
    }
}

/// Average path length of an unsuccessful search in a BST of `n` nodes.
fn c_factor(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let n = n as f64;
    2.0 * ((n - 1.0).ln() + 0.577_215_66) - 2.0 * (n - 1.0) / n
}

fn path_length(node: &Node, x: &[f32], depth: f64) -> f64 {
    match node {
        Node::Leaf { size } => depth + c_factor(*size),
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            if x[*feature] < *threshold {
                path_length(left, x, depth + 1.0)
            } else {
                path_length(right, x, depth + 1.0)
            }
        }
    }
}

/// The classic isolation-forest detector applied per timestamp.
pub struct IsolationForest {
    seed: u64,
    n_trees: usize,
    subsample: usize,
    state: Option<Fitted>,
}

struct Fitted {
    norm: NormState,
    trees: Vec<Node>,
    c_psi: f64,
}

impl IsolationForest {
    /// Standard configuration: 100 trees on ψ = 256 subsamples.
    pub fn new(seed: u64) -> Self {
        IsolationForest {
            seed,
            n_trees: 100,
            subsample: 256,
            state: None,
        }
    }

    /// Read-only scoring with an optional declared-missing mask.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        let test_n = st.norm.transform_masked(test, missing)?;
        Ok((0..test_n.len())
            .map(|l| {
                let x = test_n.row(l);
                let mean_path: f64 = st
                    .trees
                    .iter()
                    .map(|t| path_length(t, x, 0.0))
                    .sum::<f64>()
                    / st.trees.len() as f64;
                (2.0f64).powf(-mean_path / st.c_psi.max(1e-9))
            })
            .collect())
    }

    /// Serializes the fitted forest as the family's registry payload.
    pub fn snapshot_payload(&self) -> Result<Vec<u8>, DetectorError> {
        let st = self.state.as_ref().ok_or(DetectorError::NotFitted)?;
        Ok(write_payload(&st.norm, |w| {
            w.u32(self.subsample as u32);
            w.f64(st.c_psi);
            w.u32(st.trees.len() as u32);
            for t in &st.trees {
                encode_node(t, w);
            }
        }))
    }

    /// Rebuilds a fitted detector from [`Self::snapshot_payload`] bytes.
    pub fn restore_from_payload(seed: u64, bytes: &[u8]) -> Result<Self, DetectorError> {
        let (norm, (subsample, trees, c_psi)) = read_payload(bytes, |r, k| {
            let subsample = r.u32()? as usize;
            let c_psi = r.f64()?;
            if !c_psi.is_finite() || c_psi < 0.0 {
                return Err(corrupt("invalid c(ψ) factor"));
            }
            let n_trees = r.u32()? as usize;
            if n_trees == 0 || n_trees > 10_000 {
                return Err(corrupt("implausible tree count"));
            }
            let trees = (0..n_trees)
                .map(|_| decode_node(r, k, 0))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((subsample, trees, c_psi))
        })?;
        Ok(IsolationForest {
            seed,
            n_trees: trees.len(),
            subsample,
            state: Some(Fitted { norm, trees, c_psi }),
        })
    }
}

impl Detector for IsolationForest {
    fn name(&self) -> &'static str {
        "IForest"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        let mut rng = rng_for(self.seed, 0x1f);
        let psi = self.subsample.min(train_n.len());
        let max_depth = (psi as f64).log2().ceil() as usize;
        let rows: Vec<&[f32]> = (0..train_n.len()).map(|l| train_n.row(l)).collect();
        let trees = (0..self.n_trees)
            .map(|_| {
                let sample: Vec<&[f32]> = (0..psi)
                    .map(|_| rows[rng.gen_range(0..rows.len())])
                    .collect();
                grow(&sample, 0, max_depth, &mut rng)
            })
            .collect();
        self.state = Some(Fitted {
            norm,
            trees,
            c_psi: c_factor(psi),
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

    fn gaussian_cloud(n: usize, seed: u64) -> Mts {
        let mut rng = rng_for(seed, 1);
        let data: Vec<f32> = (0..n * 2)
            .map(|_| {
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
            })
            .collect();
        Mts::new(data, n, 2)
    }

    #[test]
    fn outliers_score_higher() {
        let train = gaussian_cloud(400, 3);
        let mut forest = IsolationForest::new(7);
        forest.fit(&train).unwrap();
        // Test: mostly inliers plus one far outlier.
        let mut test = gaussian_cloud(50, 9);
        test.set(25, 0, 9.0);
        test.set(25, 1, -9.0);
        let det = forest.detect(&test).unwrap();
        let outlier = det.scores[25];
        let max_inlier = det
            .scores
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 25)
            .map(|(_, &s)| s)
            .fold(0.0f64, f64::max);
        assert!(
            outlier > max_inlier,
            "outlier {outlier} vs max inlier {max_inlier}"
        );
    }

    #[test]
    fn scores_in_unit_interval() {
        let train = gaussian_cloud(200, 5);
        let mut forest = IsolationForest::new(1);
        forest.fit(&train).unwrap();
        let det = forest.detect(&train).unwrap();
        assert!(det.scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn deterministic_per_seed() {
        let train = gaussian_cloud(200, 5);
        let test = gaussian_cloud(40, 6);
        let run = |seed| {
            let mut f = IsolationForest::new(seed);
            f.fit(&train).unwrap();
            f.detect(&test).unwrap().scores
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn c_factor_monotone() {
        assert_eq!(c_factor(1), 0.0);
        assert!(c_factor(100) > c_factor(10));
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let train = gaussian_cloud(200, 5);
        let test = gaussian_cloud(40, 6);
        let mut f = IsolationForest::new(7);
        f.fit(&train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || f.score_series(&test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || f.score_series(&test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = f.snapshot_payload().unwrap();
        let restored = IsolationForest::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&test, None).unwrap());
    }

    #[test]
    fn not_fitted_error() {
        let mut f = IsolationForest::new(1);
        assert!(matches!(
            f.detect(&Mts::zeros(3, 2)),
            Err(DetectorError::NotFitted)
        ));
    }
}
