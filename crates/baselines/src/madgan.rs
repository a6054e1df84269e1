//! MAD-GAN (Li et al., ICANN 2019) — reconstruction baseline (vii).
//!
//! An LSTM generator maps latent noise to windows; an LSTM discriminator
//! separates real from generated windows. Anomalies are scored with the
//! original paper's DR-score: a reconstruction term obtained by
//! gradient-searching the latent space for the best-matching generation,
//! combined with the discriminator's suspicion of the window.

use imdiff_data::{Detection, Detector, DetectorError, Mts};
use imdiff_nn::layers::{Gru, Linear, Module};
use imdiff_nn::ops::{bce_with_logits, Act};
use imdiff_nn::optim::{Adam, Optimizer};
use imdiff_nn::rng::normal_vec;
use imdiff_nn::{backward, forward_only, Tensor};
use rand::rngs::StdRng;

use crate::common::{
    batch_windows, neural_lifecycle, require_len, rng_for, sample_starts, score_windows, Fitted,
    Network, NormState,
};

const WINDOW: usize = 16;
const LATENT: usize = 8;
const HIDDEN: usize = 32;
const TRAIN_STEPS: usize = 120;
const BATCH: usize = 12;
/// Gradient steps of latent inversion per window batch at scoring time.
const INVERSION_STEPS: usize = 12;
/// Weight of the discriminator term in the DR-score.
const DISC_WEIGHT: f64 = 0.3;

struct Generator {
    proj: Linear,
    gru: Gru,
    head: Linear,
    k: usize,
}

impl Generator {
    /// `[B, Z]` latent -> `[B, W, K]` window.
    fn forward(&self, z: &Tensor) -> Tensor {
        let b = z.dims()[0];
        // Repeat the latent across time, then unroll the GRU.
        let seq = Tensor::zeros(&[b, WINDOW, LATENT]).add(&z.reshape(&[b, 1, LATENT]));
        let proj = self.proj.forward_act(&seq, Act::Relu);
        let h = self.gru.forward_seq(&proj);
        self.head.forward(&h)
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.proj.params();
        p.extend(self.gru.params());
        p.extend(self.head.params());
        p
    }
}

struct Discriminator {
    gru: Gru,
    head: Linear,
}

impl Discriminator {
    /// `[B, W, K]` -> `[B, 1]` real/fake logit.
    fn forward(&self, x: &Tensor) -> Tensor {
        self.head.forward(&self.gru.forward_last(x))
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.gru.params();
        p.extend(self.head.params());
        p
    }
}

struct Gan {
    gen: Generator,
    disc: Discriminator,
}

impl Gan {
    /// DR-scores of a `[B, W, K]` batch, one per (window, position).
    fn dr_scores(&self, x: &Tensor) -> Vec<f64> {
        let (b, k) = (x.dims()[0], self.gen.k);
        let logits = forward_only(|| self.disc.forward(x));

        // MAD-GAN latent inversion: optimize z so G(z) reconstructs the
        // windows; anomalous windows remain poorly reconstructible
        // because the generator only models normal behaviour. This needs
        // the tape, and mutates only the fresh per-call `z`. The loss is
        // the sum over windows of each window's own mean squared error,
        // so each window's `z` row descends its own error alone and its
        // score does not depend on which windows share the batch.
        let z = Tensor::zeros(&[b, LATENT]).into_param();
        let mut z_opt = Adam::new(vec![z.clone()], 0.1);
        let per_window = 1.0 / (WINDOW * k) as f32;
        for _ in 0..INVERSION_STEPS {
            let recon = self.gen.forward(&z);
            let loss = recon.sub(x).square().sum_all().scale(per_window);
            backward(&loss);
            z_opt.step();
            z_opt.zero_grad();
            // The generator's own accumulated gradients are discarded.
            for p in self.gen.params() {
                p.zero_grad();
            }
        }
        let recon = forward_only(|| self.gen.forward(&z));
        let (ld, xd, rd) = (logits.data(), x.data(), recon.data());
        (0..b * WINDOW)
            .map(|row| {
                // Discriminator suspicion: low logit = looks fake/anomalous.
                let disc_score = 1.0 - 1.0 / (1.0 + (-ld[row / WINDOW] as f64).exp());
                let mut err = 0.0f64;
                for idx in row * k..(row + 1) * k {
                    let d = (xd[idx] - rd[idx]) as f64;
                    err += d * d;
                }
                (1.0 - DISC_WEIGHT) * err / k as f64 + DISC_WEIGHT * disc_score
            })
            .collect()
    }
}

impl Network for Gan {
    const TAG: u64 = 0x6a2d;

    fn build(rng: &mut StdRng, k: usize) -> Self {
        let gen = Generator {
            proj: Linear::new(rng, LATENT, HIDDEN),
            gru: Gru::new(rng, HIDDEN, HIDDEN),
            head: Linear::new(rng, HIDDEN, k),
            k,
        };
        let disc = Discriminator {
            gru: Gru::new(rng, k, HIDDEN),
            head: Linear::new(rng, HIDDEN, 1),
        };
        Gan { gen, disc }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.gen.params();
        p.extend(self.disc.params());
        p
    }
}

/// MAD-GAN with gradient latent-inversion scoring.
pub struct MadGan {
    seed: u64,
    state: Option<Fitted<Gan>>,
}

impl MadGan {
    /// Fewest rows [`Self::score_series`] accepts: one window.
    pub const MIN_WINDOW: usize = WINDOW;

    /// Read-only scoring with an optional declared-missing mask. The
    /// latent inversion mutates only a fresh per-call `z` tensor, so the
    /// fitted weights stay untouched.
    pub fn score_series(
        &self,
        test: &Mts,
        missing: Option<&[bool]>,
    ) -> Result<Vec<f64>, DetectorError> {
        score_windows(self.state.as_ref(), test, missing, WINDOW, Gan::dr_scores)
    }
}

neural_lifecycle!(MadGan);

impl Detector for MadGan {
    fn name(&self) -> &'static str {
        "MAD-GAN"
    }

    fn fit(&mut self, train: &Mts) -> Result<(), DetectorError> {
        let (norm, train_n) = NormState::fit(train)?;
        require_len(&train_n, WINDOW + 1)?;
        let k = train_n.dim();
        let mut rng = rng_for(self.seed, Gan::TAG);
        let Gan { gen, disc } = Gan::build(&mut rng, k);
        let mut g_opt = Adam::new(gen.params(), 2e-3);
        let mut d_opt = Adam::new(disc.params(), 1e-3);
        let ones = Tensor::ones(&[BATCH, 1]);
        let zeros = Tensor::zeros(&[BATCH, 1]);

        for _ in 0..TRAIN_STEPS {
            // Discriminator update.
            let starts = sample_starts(&mut rng, train_n.len(), WINDOW, BATCH);
            let real = batch_windows(&train_n, &starts, WINDOW);
            let z = Tensor::from_vec(normal_vec(&mut rng, BATCH * LATENT), &[BATCH, LATENT])
                .expect("z shape");
            let fake = forward_only(|| gen.forward(&z));
            let d_loss = bce_with_logits(&disc.forward(&real), &ones)
                .add(&bce_with_logits(&disc.forward(&fake), &zeros))
                .scale(0.5);
            backward(&d_loss);
            d_opt.clip_grad_norm(1.0);
            d_opt.step();
            d_opt.zero_grad();

            // Generator update: fool the discriminator.
            let z2 = Tensor::from_vec(normal_vec(&mut rng, BATCH * LATENT), &[BATCH, LATENT])
                .expect("z2 shape");
            let fake2 = gen.forward(&z2);
            let g_loss = bce_with_logits(&disc.forward(&fake2), &ones);
            backward(&g_loss);
            g_opt.clip_grad_norm(1.0);
            g_opt.step();
            g_opt.zero_grad();
            d_opt.zero_grad();
        }
        self.state = Some(Fitted {
            norm,
            model: Gan { gen, disc },
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
    fn benchmark_shapes_and_finiteness() {
        let ds = generate(
            Benchmark::Smap,
            &SizeProfile {
                train_len: 150,
                test_len: 80,
            },
            7,
        );
        let mut det = MadGan::new(3);
        det.fit(&ds.train).unwrap();
        let d = det.detect(&ds.test).unwrap();
        assert_eq!(d.scores.len(), 80);
        assert!(d.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn determinism_and_snapshot_roundtrip() {
        let ds = generate(
            Benchmark::Smap,
            &SizeProfile {
                train_len: 120,
                test_len: 60,
            },
            4,
        );
        let mut det = MadGan::new(7);
        det.fit(&ds.train).unwrap();
        let s1 = imdiff_nn::pool::with_threads(1, || det.score_series(&ds.test, None).unwrap());
        let s4 = imdiff_nn::pool::with_threads(4, || det.score_series(&ds.test, None).unwrap());
        assert_eq!(s1, s4, "scores must be bit-identical across thread counts");
        let bytes = det.snapshot_payload().unwrap();
        let restored = MadGan::restore_from_payload(7, &bytes).unwrap();
        assert_eq!(s1, restored.score_series(&ds.test, None).unwrap());
    }

    /// A window's score depends on that window alone: row 0 (covered by
    /// the first window only) scores the same bits whether the series is
    /// one window, a few or many, i.e. whichever windows share its batch.
    #[test]
    fn row_score_is_independent_of_the_batch() {
        let ds = generate(
            Benchmark::Gcp,
            &SizeProfile {
                train_len: 150,
                test_len: 128,
            },
            4,
        );
        let mut det = MadGan::new(4);
        det.fit(&ds.train).unwrap();
        let full = det.score_series(&ds.test, None).unwrap();
        for rows in [16, 40] {
            let part = det
                .score_series(&ds.test.slice_time(0, rows), None)
                .unwrap();
            assert_eq!(part[0].to_bits(), full[0].to_bits(), "{rows}-row slice");
        }
    }

    #[test]
    fn large_deviations_score_higher_than_normal() {
        let len = 260;
        let data: Vec<f32> = (0..len).map(|t| (t as f32 * 0.4).sin() * 0.3).collect();
        let train = Mts::new(data.clone(), len, 1);
        let mut test = Mts::new(data, len, 1);
        for l in 120..140 {
            test.set(l, 0, 6.0);
        }
        let mut det = MadGan::new(1);
        det.fit(&train).unwrap();
        let d = det.detect(&test).unwrap();
        let anom: f64 = d.scores[122..138].iter().sum::<f64>() / 16.0;
        let norm: f64 = d.scores[..100].iter().sum::<f64>() / 100.0;
        assert!(anom > norm, "anomaly {anom} vs normal {norm}");
    }
}
