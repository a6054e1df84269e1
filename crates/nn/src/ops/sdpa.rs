//! Fused scaled-dot-product attention (inference only).
//!
//! `softmax(scale · Q Kᵀ) V` computed row by row without materializing the
//! `[L, L]` score matrix, its softmax, or a transposed-K tensor — the three
//! intermediates the unfused `layers::attention` path allocates per head.
//! A query row's scores live in a reused `L`-vector (eight of them per
//! pass on the Avx2Fma tier, which also keeps a per-worker K transpose of
//! the current block); the weighted V-sum accumulates straight into the
//! output row.
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

/// Query rows per pass of the Avx2Fma block kernel: eight independent
/// rows, so the serial per-row sum chains overlap in the pipeline.
const ROWS: usize = 8;

/// Fused attention for one `[L, Dh]` block on the Avx2Fma tier, at any
/// head width.
///
/// Bit-identical, element for element, to the per-row arithmetic of one
/// `dot_avx2` per score and one `axpy_avx2` per key:
/// * scores — lanes run over keys `j` through `kt`, a `dh × lp` transpose
///   of K (lp = L padded to 8; padded lanes hold zeros). Per lane, eight
///   accumulators `A[d']` each run `dot_avx2`'s fma chain over the 8-wide
///   chunks from zero, fold in its fixed tree
///   `((A0+A4)+(A2+A6)) + ((A1+A5)+(A3+A7))`, and then its scalar-tail
///   `mul_add`s for `d ≥ 8·chunks`; the score is `scale · s`. For
///   `Dh < 8` there are no chunks and the tree sums zeros, so only the
///   tail chain runs;
/// * softmax — each row's max is folded with `max_ps` (NaN skipped, as
///   `f32::max` does; the sign of a zero max cannot change `s − max`),
///   the exp is `vexp_avx2`'s lane kernel, the sum runs over `j` in
///   ascending order from `0.0`, and `p · inv` is formed once per key;
/// * V-sum — each output element runs the ascending-`j`
///   `fma(p·inv, v_jd, acc)` chain from a zero accumulator, which is what
///   `axpy_avx2` does into a zeroed output row.
///
/// `srow` holds `ROWS` padded score rows.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. Slice lengths are checked on entry
/// (`qb`, `vb`, `ob` hold `l·dh`, `kt` at least `dh·lp`, `srow` at least
/// `ROWS·lp`, with `lp = l` rounded up to 8), and the helpers below index
/// only within them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn sdpa_block_avx2(
    qb: &[f32],
    kt: &[f32],
    vb: &[f32],
    ob: &mut [f32],
    srow: &mut [f32],
    l: usize,
    dh: usize,
    lp: usize,
    scale: f32,
) {
    use std::arch::x86_64::*;
    let block = l * dh;
    assert!(
        lp == l.next_multiple_of(8)
            && qb.len() == block
            && vb.len() == block
            && ob.len() == block
            && kt.len() >= dh * lp
            && srow.len() >= ROWS * lp,
        "sdpa block kernel: operand lengths do not match [{l}, {dh}]"
    );
    let nv = lp / 8;
    let vscale = _mm256_set1_ps(scale);
    let ninf = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut i = 0;
    while i < l {
        let nr = ROWS.min(l - i);
        if dh < 8 {
            // Four query rows share each K load; each row's chain is
            // serial, so independent rows are what fill the FMA pipes.
            for r0 in (0..nr).step_by(4) {
                scores_short(qb, kt, &mut srow[r0 * lp..], i + r0, (nr - r0).min(4), dh, lp, vscale);
            }
        } else {
            for r in 0..nr {
                scores_long(qb, kt, &mut srow[r * lp..(r + 1) * lp], i + r, dh, lp, vscale);
            }
        }
        // Padded lanes become −inf so the vector max can read whole rows;
        // they are never summed or read by the V-sum.
        for r in 0..nr {
            srow[r * lp + l..(r + 1) * lp].fill(f32::NEG_INFINITY);
            let row = srow.as_mut_ptr().add(r * lp);
            let mut m = ninf;
            for v in 0..nv {
                // The running max sits in the operand `max_ps` keeps on NaN.
                m = _mm256_max_ps(_mm256_loadu_ps(row.add(v * 8)), m);
            }
            let h = _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps(m, 1));
            let h = _mm_max_ps(h, _mm_movehl_ps(h, h));
            let h = _mm_max_ss(h, _mm_shuffle_ps(h, h, 1));
            let vm = _mm256_set1_ps(_mm_cvtss_f32(h));
            for v in 0..nv {
                let p = row.add(v * 8);
                _mm256_storeu_ps(p, _mm256_sub_ps(_mm256_loadu_ps(p), vm));
            }
        }
        simd::vexp_avx2(&mut srow[..nr * lp]);
        // The ROWS sum chains run interleaved; rows past `nr` fold stale
        // values that are never read.
        let mut sums = [0.0f32; ROWS];
        for j in 0..l {
            for (r, s) in sums.iter_mut().enumerate() {
                *s += *srow.get_unchecked(r * lp + j);
            }
        }
        for (r, &sum) in sums.iter().enumerate().take(nr) {
            let vinv = _mm256_set1_ps(1.0 / sum);
            let row = srow.as_mut_ptr().add(r * lp);
            for v in 0..nv {
                let p = row.add(v * 8);
                _mm256_storeu_ps(p, _mm256_mul_ps(_mm256_loadu_ps(p), vinv));
            }
        }
        // V-sum over column blocks of at most 16: eight accumulator
        // registers either way (eight rows × one vector, or four × two).
        let mut d0 = 0;
        while d0 < dh {
            let w = (dh - d0).min(16);
            if w <= 8 {
                vsum::<8, 1>(srow, vb, ob, i, nr, l, dh, lp, d0, w);
            } else {
                vsum::<4, 2>(srow, vb, ob, i, nr, l, dh, lp, d0, w);
            }
            d0 += w;
        }
        i += nr;
    }
}

/// Scores of `nr ≤ 4` query rows from row `i` for `Dh < 8`: per lane,
/// `dot_avx2`'s scalar-tail chain `s = fma(q_d, k_jd, s)` from zero.
///
/// # Safety
///
/// AVX2 and FMA; `i + nr ≤ l`, and the slices sized as
/// `sdpa_block_avx2` checks them, `srow` holding `nr·lp` from its start.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn scores_short(
    qb: &[f32],
    kt: &[f32],
    srow: &mut [f32],
    i: usize,
    nr: usize,
    dh: usize,
    lp: usize,
    vscale: std::arch::x86_64::__m256,
) {
    use std::arch::x86_64::*;
    for v in 0..lp / 8 {
        let mut acc = [_mm256_setzero_ps(); 4];
        for d in 0..dh {
            let kv = _mm256_loadu_ps(kt.as_ptr().add(d * lp + v * 8));
            for (r, a) in acc.iter_mut().enumerate().take(nr) {
                let qd = _mm256_set1_ps(*qb.get_unchecked((i + r) * dh + d));
                *a = _mm256_fmadd_ps(qd, kv, *a);
            }
        }
        for (r, a) in acc.iter().enumerate().take(nr) {
            _mm256_storeu_ps(srow.as_mut_ptr().add(r * lp + v * 8), _mm256_mul_ps(vscale, *a));
        }
    }
}

/// Scores of query row `i` for `Dh ≥ 8`: per lane, `dot_avx2`'s eight
/// chunk accumulators, its reduction tree and its scalar tail.
///
/// # Safety
///
/// AVX2 and FMA; `i < l`, and the slices sized as `sdpa_block_avx2`
/// checks them, `srow` holding `lp`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn scores_long(
    qb: &[f32],
    kt: &[f32],
    srow: &mut [f32],
    i: usize,
    dh: usize,
    lp: usize,
    vscale: std::arch::x86_64::__m256,
) {
    use std::arch::x86_64::*;
    let chunks = dh / 8;
    let q = qb.as_ptr().add(i * dh);
    for v in 0..lp / 8 {
        let k = kt.as_ptr().add(v * 8);
        let mut a = [_mm256_setzero_ps(); 8];
        for c in 0..chunks {
            for (e, acc) in a.iter_mut().enumerate() {
                let d = c * 8 + e;
                let kv = _mm256_loadu_ps(k.add(d * lp));
                *acc = _mm256_fmadd_ps(_mm256_set1_ps(*q.add(d)), kv, *acc);
            }
        }
        let mut s = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(a[0], a[4]), _mm256_add_ps(a[2], a[6])),
            _mm256_add_ps(_mm256_add_ps(a[1], a[5]), _mm256_add_ps(a[3], a[7])),
        );
        for d in chunks * 8..dh {
            s = _mm256_fmadd_ps(_mm256_set1_ps(*q.add(d)), _mm256_loadu_ps(k.add(d * lp)), s);
        }
        _mm256_storeu_ps(srow.as_mut_ptr().add(v * 8), _mm256_mul_ps(vscale, s));
    }
}

/// V-sum of output columns `d0..d0 + w` (`w ≤ 8·NV`) for `nr` query rows
/// from row `i`, `R` rows at a time with `R × NV` accumulators held in
/// registers. `srow` rows hold `p · inv`. Rows of a short last group
/// repeat the group's last real row and are not stored.
///
/// # Safety
///
/// AVX2 and FMA; `i + nr ≤ l`, `0 < w ≤ 8·NV`, `d0 + w ≤ dh`, and the
/// slices sized as `sdpa_block_avx2` checks them. A vector with fewer
/// than eight live lanes is read and written masked, so no lane past
/// `d0 + w` of a row is touched.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn vsum<const R: usize, const NV: usize>(
    srow: &[f32],
    vb: &[f32],
    ob: &mut [f32],
    i: usize,
    nr: usize,
    l: usize,
    dh: usize,
    lp: usize,
    d0: usize,
    w: usize,
) {
    use std::arch::x86_64::*;
    let mut masks = [_mm256_setzero_si256(); NV];
    let mut full = [false; NV];
    for (n, (m, f)) in masks.iter_mut().zip(full.iter_mut()).enumerate() {
        let lanes = w.saturating_sub(8 * n).min(8);
        let mut bits = [0i32; 8];
        bits[..lanes].fill(-1);
        *m = _mm256_loadu_si256(bits.as_ptr() as *const __m256i);
        *f = lanes == 8;
    }
    let mut g = 0;
    while g < nr {
        let rows = R.min(nr - g);
        let mut alpha = [srow.as_ptr(); R];
        for (r, a) in alpha.iter_mut().enumerate() {
            *a = srow.as_ptr().add((g + r.min(rows - 1)) * lp);
        }
        let mut acc = [[_mm256_setzero_ps(); NV]; R];
        for j in 0..l {
            let vp = vb.as_ptr().add(j * dh + d0);
            let mut vj = [_mm256_setzero_ps(); NV];
            for n in 0..NV {
                vj[n] = if full[n] {
                    _mm256_loadu_ps(vp.add(8 * n))
                } else {
                    _mm256_maskload_ps(vp.add(8 * n), masks[n])
                };
            }
            for r in 0..R {
                let a = _mm256_set1_ps(*alpha[r].add(j));
                for n in 0..NV {
                    acc[r][n] = _mm256_fmadd_ps(a, vj[n], acc[r][n]);
                }
            }
        }
        for (r, row) in acc.iter().enumerate().take(rows) {
            let op = ob.as_mut_ptr().add((i + g + r) * dh + d0);
            for n in 0..NV {
                if full[n] {
                    _mm256_storeu_ps(op.add(8 * n), row[n]);
                } else {
                    _mm256_maskstore_ps(op.add(8 * n), masks[n], row[n]);
                }
            }
        }
        g += rows;
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
        let simd_on = simd::tier() == Tier::Avx2Fma && cfg!(target_arch = "x86_64");
        let mut out = crate::arena::zeroed(bh * l * dh);
        {
            let (qr, kr, vr) = (q.data(), k.data(), v.data());
            let (qs, ks, vs): (&[f32], &[f32], &[f32]) = (&qr, &kr, &vr);
            let block = l * dh;
            let grain = MIN_PAR_FLOPS.div_ceil((4 * l * block).max(1)).max(1);
            pool::parallel_slices_mut(&mut out, block, grain, |b0, blocks| {
                // Score rows and the K transpose, reused across the chunk.
                // The Avx2Fma kernel pads L to whole vectors.
                let lp = l.next_multiple_of(8);
                let (srow_len, kt_len) = if simd_on { (ROWS * lp, dh * lp) } else { (l, 0) };
                let mut srow = crate::arena::zeroed(srow_len);
                let mut kt = crate::arena::zeroed(kt_len);
                for (off, ob) in blocks.chunks_mut(block).enumerate() {
                    let base = (b0 + off) * block;
                    let (qb, kb, vb) = (
                        &qs[base..base + block],
                        &ks[base..base + block],
                        &vs[base..base + block],
                    );
                    if simd_on {
                        for (j, krow) in kb.chunks_exact(dh).enumerate() {
                            for (d, &kv) in krow.iter().enumerate() {
                                kt[d * lp + j] = kv;
                            }
                        }
                        #[cfg(target_arch = "x86_64")]
                        // Safety: simd_on holds only under the Avx2Fma tier.
                        unsafe {
                            sdpa_block_avx2(qb, &kt, vb, ob, &mut srow, l, dh, lp, scale);
                        }
                        continue;
                    }
                    for i in 0..l {
                        let qrow = &qb[i * dh..(i + 1) * dh];
                        for (j, s) in srow.iter_mut().enumerate() {
                            let mut dot = 0.0f32;
                            for (a, b) in qrow.iter().zip(&kb[j * dh..(j + 1) * dh]) {
                                dot += a * b;
                            }
                            *s = scale * dot;
                        }
                        // Same stable-softmax arithmetic as `softmax_last`
                        // on the Scalar tier.
                        let max = srow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let mut sum = 0.0f32;
                        for s in srow.iter_mut() {
                            let e = (*s - max).exp();
                            *s = e;
                            sum += e;
                        }
                        let inv = 1.0 / sum;
                        let orow = &mut ob[i * dh..(i + 1) * dh];
                        for (j, &p) in srow.iter().enumerate() {
                            let alpha = p * inv;
                            for (o, &x) in orow.iter_mut().zip(&vb[j * dh..(j + 1) * dh]) {
                                *o += alpha * x;
                            }
                        }
                    }
                }
                crate::arena::recycle(srow);
                crate::arena::recycle(kt);
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
        let mut tiers = vec![Tier::Scalar];
        if simd::avx2_available() {
            tiers.push(Tier::Avx2Fma);
        }
        for dh in [4usize, 8, 16] {
            let q = Tensor::randn(&mut rng, &[6, 24, dh]);
            let k = Tensor::randn(&mut rng, &[6, 24, dh]);
            let v = Tensor::randn(&mut rng, &[6, 24, dh]);
            for &tier in &tiers {
                let reference = with_tier(tier, || {
                    with_threads(1, || Tensor::sdpa(&q, &k, &v, 0.35).to_vec())
                });
                for t in [2usize, 4, 8] {
                    let got = with_tier(tier, || {
                        with_threads(t, || Tensor::sdpa(&q, &k, &v, 0.35).to_vec())
                    });
                    assert_eq!(got, reference, "dh={dh} tier={tier:?} threads={t}");
                }
            }
        }
    }

    /// The Avx2Fma block kernel must be bit-identical to the per-row
    /// arithmetic it replaced: one `dot_avx2` per score (times `scale`),
    /// the stable softmax through `vexp_avx2` with an ascending sum, and
    /// one `axpy_avx2` of `p · inv` per key into a zeroed output row. The
    /// reference below calls those kernels directly. Rows holding a NaN,
    /// all-equal scores, ±0 scores and a −inf score are included, since
    /// the kernel folds each row's max with vector instructions.
    #[test]
    fn avx2_kernel_matches_dot_axpy_arithmetic() {
        if !simd::avx2_available() {
            return;
        }
        fn reference(q: &[f32], k: &[f32], v: &[f32], l: usize, dh: usize, scale: f32) -> Vec<f32> {
            let block = l * dh;
            let mut out = vec![0.0f32; q.len()];
            let mut srow = vec![0.0f32; l];
            for (b, ob) in out.chunks_mut(block).enumerate() {
                let (qb, kb, vb) = (
                    &q[b * block..(b + 1) * block],
                    &k[b * block..(b + 1) * block],
                    &v[b * block..(b + 1) * block],
                );
                for (qrow, orow) in qb.chunks(dh).zip(ob.chunks_mut(dh)) {
                    for (s, krow) in srow.iter_mut().zip(kb.chunks(dh)) {
                        // Safety: guarded by avx2_available above.
                        *s = scale * unsafe { simd::dot_avx2(qrow, krow) };
                    }
                    let max = srow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    for s in srow.iter_mut() {
                        *s -= max;
                    }
                    // Safety: as above.
                    unsafe { simd::vexp_avx2(&mut srow) };
                    let mut sum = 0.0f32;
                    for &e in srow.iter() {
                        sum += e;
                    }
                    let inv = 1.0 / sum;
                    for (&p, vrow) in srow.iter().zip(vb.chunks(dh)) {
                        // Safety: as above.
                        unsafe { simd::axpy_avx2(p * inv, vrow, orow) };
                    }
                }
            }
            out
        }
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = seeded(13);
        let dhs = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 20, 32, 35];
        for &dh in &dhs {
            for &l in &[1usize, 5, 8, 19, 48, 65] {
                let bh = 3;
                let block = l * dh;
                let mut q = Tensor::randn(&mut rng, &[bh, l, dh]).to_vec();
                let mut k = Tensor::randn(&mut rng, &[bh, l, dh]).to_vec();
                let v = Tensor::randn(&mut rng, &[bh, l, dh]).to_vec();
                // Block 1: a NaN in query row 0, an all-zero query row 1
                // (every score ±0, all equal), and in query row 2 a key
                // whose score overflows to −inf.
                q[block] = f32::NAN;
                if l > 1 {
                    q[block + dh..block + 2 * dh].fill(0.0);
                }
                if l > 2 {
                    q[block + 2 * dh..block + 3 * dh].fill(1e20);
                    k[block..block + dh].fill(-1e20);
                }
                // Block 2: an all-zero key, so one score per row is ±0.
                k[2 * block + (l - 1) * dh..2 * block + l * dh].fill(0.0);
                let (qt, kt, vt) = (
                    Tensor::from_vec(q.clone(), &[bh, l, dh]).unwrap(),
                    Tensor::from_vec(k.clone(), &[bh, l, dh]).unwrap(),
                    Tensor::from_vec(v.clone(), &[bh, l, dh]).unwrap(),
                );
                // A negative scale turns the +0 scores into −0.
                for scale in [1.0 / (dh as f32).sqrt(), -0.5] {
                    let got = with_tier(Tier::Avx2Fma, || Tensor::sdpa(&qt, &kt, &vt, scale).to_vec());
                    let want = reference(&q, &k, &v, l, dh, scale);
                    assert_eq!(bits(&got), bits(&want), "l={l} dh={dh} scale={scale}");
                }
            }
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
