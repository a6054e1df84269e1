//! Fused scaled-dot-product attention (inference only).
//!
//! `softmax(scale · Q Kᵀ) V` computed row by row without materializing the
//! `[L, L]` score matrix, its softmax, or the transposed K — the three
//! intermediates the unfused `layers::attention` path allocates per head.
//! One query row's scores live in a single reused `L`-vector; the weighted
//! V-sum accumulates straight into the output row.
//!
//! The op is forward-only by design: training keeps the unfused graph path
//! (which records per-op backward closures), inference — tape or tape-free,
//! it is gated on gradient *tracking* being off, not on the arena — always
//! takes this kernel, so both inference modes see identical arithmetic and
//! stay bit-identical to each other on a given dispatch tier.

use crate::pool;
use crate::shape::Shape;
use crate::simd::{self, Tier};
use crate::tensor::Tensor;

/// FLOPs below which one `[L, Dh]` block is not worth a worker.
const MIN_PAR_FLOPS: usize = 1 << 19;

#[inline]
fn dot(simd_on: bool, x: &[f32], y: &[f32]) -> f32 {
    if simd_on {
        // Safety: callers set `simd_on` only under the Avx2Fma tier.
        unsafe { simd::dot_avx2(x, y) }
    } else {
        let mut s = 0.0f32;
        for (a, b) in x.iter().zip(y) {
            s += a * b;
        }
        s
    }
}

/// Fused attention for one `[L, Dh]` block with `Dh < 8` — the shape the
/// ImTransformer actually runs at (hidden 8, 2 heads → Dh 4), where the
/// generic path drowns in per-call overhead: 2·L² calls into length-4
/// `dot_avx2`/`axpy_avx2` across the `#[target_feature]` boundary, each
/// doing a wasted horizontal reduction before its scalar tail.
///
/// Bit-identical to the generic Avx2Fma path by construction:
/// * scores — each lane `j` runs the same ascending-`d` scalar `mul_add`
///   chain (`s = fma(q_d, k_jd, s)`) that `dot_avx2`'s tail loop runs for
///   a length-<8 dot (the vector loop contributes exactly +0.0 there),
///   then multiplies by `scale`;
/// * softmax — the caller's code, untouched (same `vexp_avx2` slice);
/// * V-sum — each lane `d` runs the same ascending-`j` `fma(alpha, v_jd,
///   acc)` chain as `axpy_avx2`'s tail into a zeroed output row.
///
/// `kt` is a `dh × lp` scratch transpose of K (lp = L padded to 8) so the
/// score lanes can stream keys column-major; padded lanes hold zeros and
/// their scores are never read (`srow[..l]` slicing, as before).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn sdpa_block_smalldh(
    qb: &[f32],
    kt: &mut [f32],
    vb: &[f32],
    ob: &mut [f32],
    srow: &mut [f32],
    l: usize,
    dh: usize,
    lp: usize,
    scale: f32,
) {
    use std::arch::x86_64::*;
    debug_assert!(dh < 8 && lp.is_multiple_of(8) && srow.len() >= 4 * lp && kt.len() >= dh * lp);
    let nv = lp / 8;
    // Lane mask for the Dh-wide masked loads/stores on the V side.
    let mask = {
        let mut m = [0i32; 8];
        for slot in m.iter_mut().take(dh) {
            *slot = -1;
        }
        _mm256_loadu_si256(m.as_ptr() as *const __m256i)
    };
    // Four query rows per pass: each row's fma chains are serial by
    // construction (the arithmetic order is the contract), so the only
    // way to fill the FMA pipes is independent chains from independent
    // rows — which also lets one K/V load feed four rows.
    let mut i = 0;
    while i < l {
        let nr = 4.min(l - i);
        // scores: lanes over j, ascending-d fma chain per lane and row.
        for v in 0..nv {
            let mut acc = [_mm256_setzero_ps(); 4];
            for d in 0..dh {
                let kv = _mm256_loadu_ps(kt.as_ptr().add(d * lp + v * 8));
                for (r, a) in acc.iter_mut().enumerate().take(nr) {
                    let qd = _mm256_set1_ps(*qb.get_unchecked((i + r) * dh + d));
                    *a = _mm256_fmadd_ps(qd, kv, *a);
                }
            }
            let vscale = _mm256_set1_ps(scale);
            for (r, a) in acc.iter().enumerate().take(nr) {
                _mm256_storeu_ps(
                    srow.as_mut_ptr().add(r * lp + v * 8),
                    _mm256_mul_ps(vscale, *a),
                );
            }
        }
        // Softmax per row: identical per-element arithmetic to the generic
        // path, but the four rows' (serial) max/sum fold chains run
        // interleaved, and the exp runs as one call over all four padded
        // rows — `exp_ps` is lane-independent, so padding lanes change
        // nothing for the real elements. Each row's fold still walks its
        // elements in ascending order.
        let mut maxs = [f32::NEG_INFINITY; 4];
        for j in 0..l {
            for (r, m) in maxs.iter_mut().enumerate().take(nr) {
                *m = m.max(*srow.get_unchecked(r * lp + j));
            }
        }
        for (r, &m) in maxs.iter().enumerate().take(nr) {
            let vm = _mm256_set1_ps(m);
            for v in 0..nv {
                let p = srow.as_mut_ptr().add(r * lp + v * 8);
                _mm256_storeu_ps(p, _mm256_sub_ps(_mm256_loadu_ps(p), vm));
            }
        }
        simd::vexp_avx2(&mut srow[..nr * lp]);
        let mut inv = [0.0f32; 4];
        for j in 0..l {
            for (r, acc) in inv.iter_mut().enumerate().take(nr) {
                *acc += *srow.get_unchecked(r * lp + j);
            }
        }
        for acc in inv.iter_mut().take(nr) {
            *acc = 1.0 / *acc;
        }
        // V-sum: one masked accumulator register per row, shared V loads.
        let mut out = [_mm256_setzero_ps(); 4];
        for j in 0..l {
            let vj = _mm256_maskload_ps(vb.as_ptr().add(j * dh), mask);
            for (r, o) in out.iter_mut().enumerate().take(nr) {
                let alpha = *srow.get_unchecked(r * lp + j) * inv[r];
                *o = _mm256_fmadd_ps(_mm256_set1_ps(alpha), vj, *o);
            }
        }
        for (r, o) in out.iter().enumerate().take(nr) {
            _mm256_maskstore_ps(ob.as_mut_ptr().add((i + r) * dh), mask, *o);
        }
        i += nr;
    }
}

#[inline]
fn axpy(simd_on: bool, alpha: f32, x: &[f32], y: &mut [f32]) {
    if simd_on {
        // Safety: callers set `simd_on` only under the Avx2Fma tier.
        unsafe { simd::axpy_avx2(alpha, x, y) }
    } else {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv += alpha * xv;
        }
    }
}

impl Tensor {
    /// Fused attention over head-major `[BH, L, Dh]` operands:
    /// `softmax(scale · q kᵀ) v`, sharded across the worker pool by
    /// `(batch · head)` block. Per-tier bit-deterministic at any thread
    /// count (each output block is computed by exactly one worker in a
    /// fixed order).
    ///
    /// Panics if gradient tracking is enabled and an operand requires
    /// gradients — use the unfused matmul/softmax path for training.
    pub fn sdpa(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
        assert!(
            !crate::is_grad_enabled()
                || !(q.requires_grad() || k.requires_grad() || v.requires_grad()),
            "sdpa is forward-only; use the unfused attention path for training"
        );
        let (qd, kd, vd) = (q.dims(), k.dims(), v.dims());
        assert!(
            qd.len() == 3 && qd == kd && kd == vd,
            "sdpa expects matching [BH, L, Dh] operands, got {} {} {}",
            q.shape(),
            k.shape(),
            v.shape()
        );
        let (bh, l, dh) = (qd[0], qd[1], qd[2]);

        let _kernel = crate::obs::span("nn.sdpa");
        let simd_on = simd::tier() == Tier::Avx2Fma;
        let mut out = crate::arena::zeroed(bh * l * dh);
        {
            let (qr, kr, vr) = (q.data(), k.data(), v.data());
            let (qs, ks, vs): (&[f32], &[f32], &[f32]) = (&qr, &kr, &vr);
            let block = l * dh;
            let grain = MIN_PAR_FLOPS.div_ceil((4 * l * block).max(1)).max(1);
            // The Dh<8 fast path needs L padded to full vectors plus a
            // K-transpose scratch; both are reused across the chunk.
            let lp = l.next_multiple_of(8);
            let small_dh = simd_on && dh < 8 && cfg!(target_arch = "x86_64");
            pool::parallel_slices_mut(&mut out, block, grain, |b0, blocks| {
                // One score row, reused across every query in the chunk
                // (padded so the fast path can store whole vectors).
                let mut srow = vec![0.0f32; if small_dh { 4 * lp } else { lp }];
                let mut kt = vec![0.0f32; if small_dh { dh * lp } else { 0 }];
                for (off, ob) in blocks.chunks_mut(block).enumerate() {
                    let base = (b0 + off) * block;
                    let (qb, kb, vb) = (
                        &qs[base..base + block],
                        &ks[base..base + block],
                        &vs[base..base + block],
                    );
                    #[cfg(target_arch = "x86_64")]
                    if small_dh {
                        for (j, krow) in kb.chunks_exact(dh).enumerate() {
                            for (d, &kv) in krow.iter().enumerate() {
                                kt[d * lp + j] = kv;
                            }
                        }
                        // Safety: small_dh holds only under the Avx2Fma tier.
                        unsafe {
                            sdpa_block_smalldh(qb, &mut kt, vb, ob, &mut srow, l, dh, lp, scale);
                        }
                        continue;
                    }
                    for i in 0..l {
                        let qrow = &qb[i * dh..(i + 1) * dh];
                        for (j, s) in srow[..l].iter_mut().enumerate() {
                            *s = scale * dot(simd_on, qrow, &kb[j * dh..(j + 1) * dh]);
                        }
                        // Same stable-softmax arithmetic as `softmax_last`
                        // on the matching tier (vectorized exp on Avx2Fma,
                        // libm on Scalar; sum order is identical in both).
                        let max = srow[..l].iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let mut sum = 0.0f32;
                        if simd_on {
                            for s in srow[..l].iter_mut() {
                                *s -= max;
                            }
                            // Safety: simd_on holds only under Avx2Fma.
                            unsafe { simd::vexp_avx2(&mut srow[..l]) };
                            for &e in srow[..l].iter() {
                                sum += e;
                            }
                        } else {
                            for s in srow[..l].iter_mut() {
                                let e = (*s - max).exp();
                                *s = e;
                                sum += e;
                            }
                        }
                        let inv = 1.0 / sum;
                        let orow = &mut ob[i * dh..(i + 1) * dh];
                        for (j, &p) in srow[..l].iter().enumerate() {
                            axpy(simd_on, p * inv, &vb[j * dh..(j + 1) * dh], orow);
                        }
                    }
                }
            });
        }
        Tensor::op_output(out, Shape::new(&[bh, l, dh]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::with_threads;
    use crate::rng::seeded;
    use crate::{no_grad, simd::with_tier};

    /// Unfused reference: explicit matmul → scale → softmax → matmul.
    fn reference(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Vec<f32> {
        no_grad(|| {
            q.matmul(&k.transpose_last2())
                .scale(scale)
                .softmax_last()
                .matmul(v)
                .to_vec()
        })
    }

    #[test]
    fn matches_unfused_path_within_tolerance() {
        let mut rng = seeded(11);
        for &(bh, l, dh) in &[(1usize, 3usize, 4usize), (8, 16, 8), (4, 31, 16)] {
            let q = Tensor::randn(&mut rng, &[bh, l, dh]);
            let k = Tensor::randn(&mut rng, &[bh, l, dh]);
            let v = Tensor::randn(&mut rng, &[bh, l, dh]);
            let scale = 1.0 / (dh as f32).sqrt();
            let want = reference(&q, &k, &v, scale);
            let got = Tensor::sdpa(&q, &k, &v, scale).to_vec();
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                    "bh={bh} l={l} dh={dh}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn bit_identical_across_thread_counts_per_tier() {
        let mut rng = seeded(12);
        let q = Tensor::randn(&mut rng, &[6, 24, 8]);
        let k = Tensor::randn(&mut rng, &[6, 24, 8]);
        let v = Tensor::randn(&mut rng, &[6, 24, 8]);
        let mut tiers = vec![Tier::Scalar];
        if simd::avx2_available() {
            tiers.push(Tier::Avx2Fma);
        }
        for tier in tiers {
            let reference = with_tier(tier, || {
                with_threads(1, || Tensor::sdpa(&q, &k, &v, 0.35).to_vec())
            });
            for t in [2usize, 4, 8] {
                let got = with_tier(tier, || {
                    with_threads(t, || Tensor::sdpa(&q, &k, &v, 0.35).to_vec())
                });
                assert_eq!(got, reference, "tier={tier:?} threads={t}");
            }
        }
    }

    /// The Dh<8 fast path must be bit-identical to the generic Avx2Fma
    /// path it replaces. The generic arithmetic for a short dot is the
    /// scalar `mul_add` tail (the vector loop contributes +0.0), softmax
    /// goes through `vexp_avx2`, and the V-sum is an ascending-`j`
    /// `mul_add` chain per output element — emulated here exactly.
    #[test]
    fn smalldh_fast_path_matches_generic_arithmetic() {
        if !simd::avx2_available() {
            return;
        }
        let mut rng = seeded(13);
        for &(bh, l, dh) in &[(3usize, 16usize, 4usize), (2, 19, 4), (1, 5, 2), (4, 24, 6)] {
            let q = Tensor::randn(&mut rng, &[bh, l, dh]);
            let k = Tensor::randn(&mut rng, &[bh, l, dh]);
            let v = Tensor::randn(&mut rng, &[bh, l, dh]);
            let scale = 1.0 / (dh as f32).sqrt();
            let got = with_tier(Tier::Avx2Fma, || Tensor::sdpa(&q, &k, &v, scale).to_vec());
            let (qd, kd, vd) = (q.to_vec(), k.to_vec(), v.to_vec());
            let block = l * dh;
            let mut want = vec![0.0f32; bh * block];
            for b in 0..bh {
                let (qb, kb, vb) = (
                    &qd[b * block..(b + 1) * block],
                    &kd[b * block..(b + 1) * block],
                    &vd[b * block..(b + 1) * block],
                );
                let ob = &mut want[b * block..(b + 1) * block];
                let mut srow = vec![0.0f32; l];
                for i in 0..l {
                    for (j, s) in srow.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for d in 0..dh {
                            acc = qb[i * dh + d].mul_add(kb[j * dh + d], acc);
                        }
                        *s = scale * acc;
                    }
                    let max = srow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    for s in srow.iter_mut() {
                        *s -= max;
                    }
                    // Safety: guarded by avx2_available above.
                    unsafe { simd::vexp_avx2(&mut srow) };
                    let mut sum = 0.0f32;
                    for &e in srow.iter() {
                        sum += e;
                    }
                    let inv = 1.0 / sum;
                    for (j, &p) in srow.iter().enumerate() {
                        for d in 0..dh {
                            ob[i * dh + d] =
                                (p * inv).mul_add(vb[j * dh + d], ob[i * dh + d]);
                        }
                    }
                }
            }
            assert_eq!(got, want, "bh={bh} l={l} dh={dh}");
        }
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn rejects_training_operands() {
        let q = Tensor::param_from_vec(vec![0.0; 8], &[1, 2, 4]).unwrap();
        let k = q.clone();
        let v = q.clone();
        let _ = Tensor::sdpa(&q, &k, &v, 0.5);
    }
}
