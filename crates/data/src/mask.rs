//! Masking strategies for self-supervised imputation (§4.2 of the paper).
//!
//! A [`Mask`] marks each `(l, k)` cell of a window as *observed* (`m = 1`)
//! or *masked/imputation target* (`m = 0`). ImDiffusion always builds
//! **complementary pairs** of masks (policies `p ∈ {0, 1}`) so every cell
//! is imputed by exactly one of the two passes and the merged error covers
//! the whole window.

use rand::rngs::StdRng;
use rand::Rng;

/// A boolean observation mask over an `[L, K]` window.
///
/// `true` means the cell is observed (the paper's `m = 1`); `false` means
/// it is masked and must be imputed (`m = 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    bits: Vec<bool>,
    len: usize,
    dim: usize,
}

impl Mask {
    /// Builds a mask from raw bits (row-major `[L, K]`).
    pub fn new(bits: Vec<bool>, len: usize, dim: usize) -> Self {
        assert_eq!(bits.len(), len * dim, "mask buffer length mismatch");
        Mask { bits, len, dim }
    }

    /// Window length `L`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero timestamps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Channel count `K`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether cell `(l, k)` is observed.
    pub fn observed(&self, l: usize, k: usize) -> bool {
        self.bits[l * self.dim + k]
    }

    /// Number of masked (imputation target) cells.
    pub fn masked_count(&self) -> usize {
        self.bits.iter().filter(|&&b| !b).count()
    }

    /// The complementary mask (observed ↔ masked everywhere).
    pub fn complement(&self) -> Mask {
        Mask {
            bits: self.bits.iter().map(|&b| !b).collect(),
            len: self.len,
            dim: self.dim,
        }
    }

    /// Raw bits, row-major.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }
}

/// The masking strategy applied to each detection window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaskStrategy {
    /// Equal-interval alternating windows along time (§4.2, Fig. 3). The
    /// window is cut into `masked_windows + unmasked_windows` equal chunks;
    /// policy 0 masks the even chunks, policy 1 the odd chunks.
    Grating {
        /// Number of masked chunks (paper default 5).
        masked_windows: usize,
        /// Number of unmasked chunks (paper default 5).
        unmasked_windows: usize,
    },
    /// I.i.d. Bernoulli masking per cell (CSDI's strategy; the ablation of
    /// §5.3.4). Policy 1 is the exact complement of policy 0.
    Random {
        /// Probability that a cell is masked.
        p: f64,
    },
}

impl MaskStrategy {
    /// The paper's default: 5 masked + 5 unmasked grating chunks.
    pub fn default_grating() -> Self {
        MaskStrategy::Grating {
            masked_windows: 5,
            unmasked_windows: 5,
        }
    }

    /// The complementary mask pair `(p = 0, p = 1)` for an `[len, dim]`
    /// window. For the grating strategy the RNG is unused; for random
    /// masking it drives the Bernoulli draws.
    pub fn masks(&self, rng: &mut StdRng, len: usize, dim: usize) -> [Mask; 2] {
        match *self {
            MaskStrategy::Grating {
                masked_windows,
                unmasked_windows,
            } => {
                let chunks = masked_windows + unmasked_windows;
                assert!(chunks > 0, "grating needs at least one chunk");
                // Chunk sizes distribute the remainder over leading chunks.
                let base = len / chunks;
                let rem = len % chunks;
                let mut bits0 = Vec::with_capacity(len * dim);
                let mut chunk_idx = 0usize;
                let mut produced = 0usize;
                let mut chunk_len = base + usize::from(rem > 0);
                let mut used_in_chunk = 0usize;
                for _ in 0..len {
                    // Even chunk index => masked under policy 0.
                    let observed = chunk_idx % 2 == 1;
                    for _ in 0..dim {
                        bits0.push(observed);
                    }
                    used_in_chunk += 1;
                    produced += 1;
                    if used_in_chunk == chunk_len && produced < len {
                        chunk_idx += 1;
                        used_in_chunk = 0;
                        chunk_len = base + usize::from(chunk_idx < rem);
                        // Degenerate chunk lengths (len < chunks) collapse;
                        // skip empty chunks.
                        while chunk_len == 0 {
                            chunk_idx += 1;
                            chunk_len = base + usize::from(chunk_idx < rem);
                        }
                    }
                }
                let m0 = Mask::new(bits0, len, dim);
                let m1 = m0.complement();
                [m0, m1]
            }
            MaskStrategy::Random { p } => {
                assert!((0.0..=1.0).contains(&p), "mask probability out of range");
                let bits0: Vec<bool> = (0..len * dim).map(|_| rng.gen::<f64>() >= p).collect();
                let m0 = Mask::new(bits0, len, dim);
                let m1 = m0.complement();
                [m0, m1]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn grating_masks_are_complementary() {
        let [m0, m1] = MaskStrategy::default_grating().masks(&mut rng(), 100, 4);
        for l in 0..100 {
            for k in 0..4 {
                assert_ne!(m0.observed(l, k), m1.observed(l, k));
            }
        }
    }

    #[test]
    fn grating_masks_half_the_cells() {
        let [m0, _] = MaskStrategy::default_grating().masks(&mut rng(), 100, 4);
        assert_eq!(m0.masked_count(), 200); // half of 400
    }

    #[test]
    fn grating_alternates_in_chunks_of_ten() {
        // 100 steps, 10 chunks => chunk length 10, starting masked.
        let [m0, _] = MaskStrategy::default_grating().masks(&mut rng(), 100, 1);
        for l in 0..100 {
            let chunk = l / 10;
            let expected_observed = chunk % 2 == 1;
            assert_eq!(m0.observed(l, 0), expected_observed, "at {l}");
        }
    }

    #[test]
    fn grating_is_time_only() {
        // All channels share the same temporal pattern.
        let [m0, _] = MaskStrategy::default_grating().masks(&mut rng(), 50, 3);
        for l in 0..50 {
            let first = m0.observed(l, 0);
            for k in 1..3 {
                assert_eq!(m0.observed(l, k), first);
            }
        }
    }

    #[test]
    fn grating_handles_non_divisible_lengths() {
        let [m0, m1] = MaskStrategy::default_grating().masks(&mut rng(), 97, 2);
        assert_eq!(m0.masked_count() + m1.masked_count(), 97 * 2);
        // Complementarity still holds.
        for l in 0..97 {
            assert_ne!(m0.observed(l, 0), m1.observed(l, 0));
        }
    }

    #[test]
    fn random_masks_are_complementary_and_near_p() {
        let [m0, m1] = (MaskStrategy::Random { p: 0.5 }).masks(&mut rng(), 200, 10);
        for i in 0..200 * 10 {
            assert_ne!(m0.bits()[i], m1.bits()[i]);
        }
        let frac = m0.masked_count() as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "masked fraction {frac}");
    }

    #[test]
    fn random_masks_vary_per_cell_not_per_row() {
        let [m0, _] = (MaskStrategy::Random { p: 0.5 }).masks(&mut rng(), 50, 8);
        // At least one row must mix observed and masked cells.
        let mixed = (0..50).any(|l| {
            let first = m0.observed(l, 0);
            (1..8).any(|k| m0.observed(l, k) != first)
        });
        assert!(mixed);
    }

    #[test]
    fn short_window_grating_still_covers_everything() {
        // Window shorter than the chunk count.
        let [m0, m1] = MaskStrategy::default_grating().masks(&mut rng(), 7, 1);
        assert_eq!(m0.masked_count() + m1.masked_count(), 7);
    }
}
