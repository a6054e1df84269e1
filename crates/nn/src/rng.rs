//! Seeded random number helpers.
//!
//! Every stochastic component of the workspace takes a seeded [`StdRng`] so
//! experiments are reproducible run-to-run. Gaussian variates use an
//! in-crate Box–Muller transform to keep the dependency footprint minimal.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draws one standard-normal variate via the Box–Muller transform.
pub fn normal(rng: &mut StdRng) -> f32 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Fills a vector with `n` standard-normal variates.
pub fn normal_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| normal(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = seeded(42);
        let xs = normal_vec(&mut rng, 50_000);
        let n = xs.len() as f64;
        let mean: f64 = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_is_finite() {
        let mut rng = seeded(0);
        assert!(normal_vec(&mut rng, 10_000).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn seeded_is_reproducible() {
        let a = normal_vec(&mut seeded(9), 8);
        let b = normal_vec(&mut seeded(9), 8);
        assert_eq!(a, b);
    }
}
