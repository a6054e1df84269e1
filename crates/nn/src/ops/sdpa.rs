//! Fused scaled-dot-product attention, forward and backward.
//!
//! Forward: `O = softmax(scale · Q Kᵀ) V`, computed row by row without
//! materializing the `[S, S]` score matrix or its softmax. A query row's
//! probabilities live in a reused `S`-vector (eight of them per pass on
//! the Avx2Fma tier, which also keeps a per-worker K transpose of the
//! current block); the weighted V-sum accumulates straight into the
//! output row.
//!
//! Backward, in the FlashAttention-2 manner (Dao 2023): the tape keeps
//! only Q, K, V and O. Each block recomputes P with the forward's own
//! arithmetic, then forms
//! `dV = Pᵀ·dO`, `dS = scale · P ∘ (dO·Vᵀ − rowsum(dO ∘ O))`,
//! `dQ = dS·K` and `dK = dSᵀ·Q`.
//!
//! Attention runs along one axis of the operands as they are laid out,
//! so no caller permutes into a head-major layout. Viewed as
//! `[A, S, C, D]` (see `Layout`), block `(a, c, h)` is `S` rows of `Dh`
//! values, `ld = C·D` apart. Training and inference, tape or tape-free,
//! run this one op. Both directions shard by `a`, each block computed by
//! one worker in a fixed order, so every result is bit-identical at any
//! thread count on a given dispatch tier.

use crate::pool;
use crate::simd::{self, Tier};
use crate::tensor::Tensor;

/// FLOPs below which one `a` slab is not worth a worker.
const MIN_PAR_FLOPS: usize = 1 << 19;

/// Query rows per pass of the Avx2Fma block kernels: eight independent
/// rows, so the serial per-row sum chains overlap in the pipeline.
const ROWS: usize = 8;

/// The blocks of `sdpa` operands viewed as `[A, S, C, D]` (see
/// `Tensor::sdpa`): each block is `l = S` rows of `dh` values, `ld = C·D`
/// apart. Each `a` owns one slab of `l·ld` values, and its `C·heads`
/// blocks start at every multiple of `dh` below `ld`.
#[derive(Clone, Copy)]
struct Layout {
    l: usize,
    dh: usize,
    ld: usize,
}

impl Layout {
    /// `l` rounded up to whole 8-lane vectors.
    fn lp(self) -> usize {
        self.l.next_multiple_of(8)
    }

    /// Values from a block's first row to the end of its last.
    fn extent(self) -> usize {
        (self.l - 1) * self.ld + self.dh
    }

    /// Minimum slabs per worker: a slab is `ld / dh` blocks of `4·l²·dh` FLOPs.
    fn grain(self) -> usize {
        MIN_PAR_FLOPS.div_ceil((4 * self.l * self.l * self.ld).max(1)).max(1)
    }
}

/// Probabilities of `nr ≤ ROWS` query rows from row `i` on the Avx2Fma
/// tier, into `srow` (row `r` at `r·lp`, padded lanes zero).
///
/// Bit-identical, element for element, to the per-row arithmetic of one
/// `dot_avx2` per score:
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
///   ascending order from `0.0`, and `p · inv` is formed once per key.
///
/// # Safety
///
/// AVX2 and FMA; `i + nr ≤ l`, `qb` holds the block's strided extent
/// `(l − 1)·ld + dh`, `kt` at least `dh·lp` and `srow` at least
/// `ROWS·lp`, as the block kernels check on entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn probs_avx2(
    qb: &[f32],
    kt: &[f32],
    srow: &mut [f32],
    i: usize,
    nr: usize,
    lay: Layout,
    scale: f32,
) {
    use std::arch::x86_64::*;
    let (l, lp) = (lay.l, lay.lp());
    let nv = lp / 8;
    scores(qb, kt, srow, i, nr, lay, scale);
    // Padded lanes become −inf so the vector max can read whole rows;
    // exp then makes them zero.
    for r in 0..nr {
        srow[r * lp + l..(r + 1) * lp].fill(f32::NEG_INFINITY);
        let row = srow.as_mut_ptr().add(r * lp);
        let mut m = _mm256_set1_ps(f32::NEG_INFINITY);
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
}

/// Fused attention forward for one block on the Avx2Fma tier, at any
/// head width: `probs_avx2` per eight query rows, then the V-sum, in
/// which each output element runs the ascending-`j`
/// `fma(p·inv, v_jd, acc)` chain from a zero accumulator — what
/// `axpy_avx2` does into a zeroed output row.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. Slice lengths are checked on entry
/// (`qb`, `vb`, `ob` hold the block's strided extent `(l − 1)·ld + dh`,
/// `kt` at least `dh·lp`, `srow` at least `ROWS·lp`), and the helpers
/// index only within them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sdpa_block_avx2(
    qb: &[f32],
    kt: &[f32],
    vb: &[f32],
    ob: &mut [f32],
    srow: &mut [f32],
    lay: Layout,
    scale: f32,
) {
    let (l, dh, lp, extent) = (lay.l, lay.dh, lay.lp(), lay.extent());
    assert!(
        dh <= lay.ld
            && [qb, vb, &*ob].iter().all(|s| s.len() == extent)
            && kt.len() >= dh * lp
            && srow.len() >= ROWS * lp,
        "sdpa block kernel: operand lengths do not match [{l}, {dh}] at stride {}",
        lay.ld
    );
    let mut i = 0;
    while i < l {
        let nr = ROWS.min(l - i);
        probs_avx2(qb, kt, srow, i, nr, lay, scale);
        vsum_cols(srow, vb, ob, i, nr, lay);
        i += nr;
    }
}

/// Backward of one block on the Avx2Fma tier, from the forward's stages:
/// `probs_avx2` recomputes P, `scores` of dO against `vt` (V transposed)
/// at scale 1 gives dO·Vᵀ, and `vsum_cols` fed dS, dSᵀ and Pᵀ gives dQ,
/// dK and dV. `ws` holds two `ROWS·lp` row buffers and the `l·lp`
/// transposes of P and dS.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. Slice lengths are checked on entry
/// (every operand and output holds the block's strided extent
/// `(l − 1)·ld + dh`, `kt` and `vt` at least `dh·lp`, `ws` at least
/// `2·(ROWS + l)·lp`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sdpa_block_bwd_avx2(
    [qb, kb, ob, gob]: [&[f32]; 4],
    [kt, vt]: [&[f32]; 2],
    ws: &mut [f32],
    [dq, dk, dv]: [&mut [f32]; 3],
    lay: Layout,
    scale: f32,
) {
    let (l, dh, ld, lp, extent) = (lay.l, lay.dh, lay.ld, lay.lp(), lay.extent());
    assert!(
        dh <= ld
            && [qb, kb, ob, gob, &*dq, &*dk, &*dv].iter().all(|s| s.len() == extent)
            && kt.len() >= dh * lp
            && vt.len() >= dh * lp
            && ws.len() >= 2 * (ROWS + l) * lp,
        "sdpa backward block kernel: operand lengths do not match [{l}, {dh}] at stride {ld}"
    );
    let (srow, rest) = ws.split_at_mut(ROWS * lp);
    let (dsrow, rest) = rest.split_at_mut(ROWS * lp);
    let (pt, dst) = rest.split_at_mut(l * lp);
    let mut i = 0;
    while i < l {
        let nr = ROWS.min(l - i);
        probs_avx2(qb, kt, srow, i, nr, lay, scale);
        scores(gob, vt, dsrow, i, nr, lay, 1.0);
        for r in 0..nr {
            let delta = row_dot(&gob[(i + r) * ld..][..dh], &ob[(i + r) * ld..][..dh]);
            for j in 0..l {
                let p = srow[r * lp + j];
                let ds = scale * p * (dsrow[r * lp + j] - delta);
                dsrow[r * lp + j] = ds;
                pt[j * lp + i + r] = p;
                dst[j * lp + i + r] = ds;
            }
        }
        vsum_cols(dsrow, kb, dq, i, nr, lay);
        i += nr;
    }
    vsum_cols(dst, qb, dk, 0, l, lay);
    vsum_cols(pt, gob, dv, 0, l, lay);
}

/// `scale ·` the dot products of `nr ≤ ROWS` rows of `ab` (`dh` values,
/// `ld` apart) from row `i` with the columns of `bt` (a `dh × lp`
/// transpose), into `srow` (row `r` at `r·lp`), per lane in `dot_avx2`'s
/// arithmetic (see `probs_avx2`). For `Dh < 8` four rows share each
/// column load: each row's chain is serial, so independent rows are what
/// fill the FMA pipes.
///
/// # Safety
///
/// AVX2 and FMA; `i + nr ≤ l`, `ab` holds `(l − 1)·ld + dh`, `bt` at
/// least `dh·lp` and `srow` at least `nr·lp`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn scores(
    ab: &[f32],
    bt: &[f32],
    srow: &mut [f32],
    i: usize,
    nr: usize,
    lay: Layout,
    scale: f32,
) {
    use std::arch::x86_64::*;
    let (dh, ld, lp) = (lay.dh, lay.ld, lay.lp());
    let vscale = _mm256_set1_ps(scale);
    if dh < 8 {
        for r0 in (0..nr).step_by(4) {
            let rows = (nr - r0).min(4);
            for v in 0..lp / 8 {
                let mut acc = [_mm256_setzero_ps(); 4];
                for d in 0..dh {
                    let kv = _mm256_loadu_ps(bt.as_ptr().add(d * lp + v * 8));
                    for (r, a) in acc.iter_mut().enumerate().take(rows) {
                        let qd = _mm256_set1_ps(*ab.get_unchecked((i + r0 + r) * ld + d));
                        *a = _mm256_fmadd_ps(qd, kv, *a);
                    }
                }
                for (r, a) in acc.iter().enumerate().take(rows) {
                    let out = srow.as_mut_ptr().add((r0 + r) * lp + v * 8);
                    _mm256_storeu_ps(out, _mm256_mul_ps(vscale, *a));
                }
            }
        }
        return;
    }
    let chunks = dh / 8;
    for r in 0..nr {
        let q = ab.as_ptr().add((i + r) * ld);
        for v in 0..lp / 8 {
            let k = bt.as_ptr().add(v * 8);
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
            _mm256_storeu_ps(srow.as_mut_ptr().add(r * lp + v * 8), _mm256_mul_ps(vscale, s));
        }
    }
}

/// V-sum of output columns `d0..d0 + w` (`w ≤ 8·NV`) for `nr` rows from
/// row `i`, `R` rows at a time with `R × NV` accumulators held in
/// registers. `srow` rows hold the weights (`p · inv` in the forward);
/// `vb` and `ob` rows are `ld` apart. Rows of a short last group repeat
/// the group's last real row and are not stored.
///
/// # Safety
///
/// AVX2 and FMA; `i + nr ≤ l`, `0 < w ≤ 8·NV`, `d0 + w ≤ dh`, and the
/// slices sized as the block kernels check them. A vector with fewer
/// than eight live lanes is read and written masked, so no lane past
/// `d0 + w` of a row is touched: the next head's columns sit there.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn vsum<const R: usize, const NV: usize>(
    srow: &[f32],
    vb: &[f32],
    ob: &mut [f32],
    i: usize,
    nr: usize,
    lay: Layout,
    d0: usize,
    w: usize,
) {
    use std::arch::x86_64::*;
    let (ld, lp) = (lay.ld, lay.lp());
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
        for j in 0..lay.l {
            let vp = vb.as_ptr().add(j * ld + d0);
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
            let op = ob.as_mut_ptr().add((i + g + r) * ld + d0);
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

/// `ob[i + r] = Σ_j srow[r][j] · vb[j]` for `nr` rows from row `i`
/// (`srow` rows at stride `lp`, `vb` and `ob` rows at stride `ld`), over
/// column blocks of at most 16: eight accumulator registers either way
/// (eight rows × one vector, or four × two).
///
/// # Safety
///
/// As `vsum`, for every column of `0..dh`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn vsum_cols(srow: &[f32], vb: &[f32], ob: &mut [f32], i: usize, nr: usize, lay: Layout) {
    let mut d0 = 0;
    while d0 < lay.dh {
        let w = (lay.dh - d0).min(16);
        if w <= 8 {
            vsum::<8, 1>(srow, vb, ob, i, nr, lay, d0, w);
        } else {
            vsum::<4, 2>(srow, vb, ob, i, nr, lay, d0, w);
        }
        d0 += w;
    }
}

/// `Σ_d a_d · b_d` in ascending order from `0.0`.
fn row_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut dot = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
    }
    dot
}

/// One query row's probabilities on the Scalar tier, `srow[j] = p_j ·
/// inv` against the key rows of `kb` (`ld` apart), with the same
/// stable-softmax arithmetic as `softmax_last` there. Forward and
/// backward both call it.
fn probs_row(qrow: &[f32], kb: &[f32], ld: usize, srow: &mut [f32], scale: f32) {
    for (s, krow) in srow.iter_mut().zip(kb.chunks(ld)) {
        *s = scale * row_dot(qrow, krow);
    }
    let max = srow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for s in srow.iter_mut() {
        let e = (*s - max).exp();
        *s = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for s in srow.iter_mut() {
        *s *= inv;
    }
}

/// Writes the `dh × lp` transpose of the block `rows` into `out`; lanes
/// past `l` are left as they are (zero).
fn transpose_into(rows: &[f32], lay: Layout, out: &mut [f32]) {
    let lp = lay.lp();
    for (j, row) in rows.chunks(lay.ld).enumerate() {
        for (d, &x) in row[..lay.dh].iter().enumerate() {
            out[d * lp + j] = x;
        }
    }
}

/// The tape backward of `sdpa`: accumulates dQ, dK and dV into the
/// `parents` `[q, k, v]`, given the forward's output `o`, its gradient
/// `go`, and the tier the forward ran on. Each gradient is written in
/// place in the operands' layout, sharded by `a` as the forward is.
fn sdpa_backward(parents: &[Tensor], o: &[f32], go: &[f32], lay: Layout, scale: f32, simd_on: bool) {
    let _sp = crate::obs::span("nn.sdpa.bwd");
    let (l, dh, ld, lp, extent) = (lay.l, lay.dh, lay.ld, lay.lp(), lay.extent());
    let mut grads = [(); 3].map(|_| crate::arena::zeroed(o.len()));
    {
        let (qr, kr, vr) = (parents[0].data(), parents[1].data(), parents[2].data());
        let (q, k, v): (&[f32], &[f32], &[f32]) = (&qr, &kr, &vr);
        let [dq, dk, dv] = &mut grads;
        let mut slabs: Vec<[&mut [f32]; 3]> = (dq.chunks_mut(l * ld).zip(dk.chunks_mut(l * ld)))
            .zip(dv.chunks_mut(l * ld))
            .map(|((dq, dk), dv)| [dq, dk, dv])
            .collect();
        pool::parallel_slices_mut(&mut slabs, 1, lay.grain(), |a0, run| {
            let (ws_len, t_len) = if simd_on { (2 * (ROWS + l) * lp, dh * lp) } else { (l, 0) };
            let mut ws = crate::arena::zeroed(ws_len);
            let mut kt = crate::arena::zeroed(t_len);
            let mut vt = crate::arena::zeroed(t_len);
            for (a, [dqa, dka, dva]) in (a0..).zip(run.iter_mut()) {
                let r = a * l * ld..(a + 1) * l * ld;
                let [qa, ka, va, oa, goa] = [q, k, v, o, go].map(|s| &s[r.clone()]);
                for base in (0..ld).step_by(dh) {
                    let br = base..base + extent;
                    let [qb, kb, vb, ob, gob] = [qa, ka, va, oa, goa].map(|s| &s[br.clone()]);
                    let (dq, dk, dv) = (&mut dqa[br.clone()], &mut dka[br.clone()], &mut dva[br]);
                    if simd_on {
                        transpose_into(kb, lay, &mut kt);
                        transpose_into(vb, lay, &mut vt);
                        #[cfg(target_arch = "x86_64")]
                        // Safety: simd_on holds only under the Avx2Fma tier.
                        unsafe {
                            let (ins, grads) = ([qb, kb, ob, gob], [dq, dk, dv]);
                            sdpa_block_bwd_avx2(ins, [&kt, &vt], &mut ws, grads, lay, scale);
                        }
                        continue;
                    }
                    for i in 0..l {
                        let ir = i * ld..i * ld + dh;
                        let (qrow, gorow) = (&qb[ir.clone()], &gob[ir.clone()]);
                        probs_row(qrow, kb, ld, &mut ws, scale);
                        let delta = row_dot(gorow, &ob[ir.clone()]);
                        for (j, &p) in ws.iter().enumerate() {
                            let jr = j * ld..j * ld + dh;
                            let ds = scale * p * (row_dot(gorow, &vb[jr.clone()]) - delta);
                            for (dqd, &kd) in dq[ir.clone()].iter_mut().zip(&kb[jr.clone()]) {
                                *dqd += ds * kd;
                            }
                            let (dkj, dvj) = (&mut dk[jr.clone()], &mut dv[jr]);
                            let cols = dkj.iter_mut().zip(dvj).zip(qrow).zip(gorow);
                            for (((dkd, dvd), &qd), &gd) in cols {
                                *dkd += ds * qd;
                                *dvd += p * gd;
                            }
                        }
                    }
                }
            }
            for buf in [ws, kt, vt] {
                crate::arena::recycle(buf);
            }
        });
    }
    for (p, grad) in parents.iter().zip(grads) {
        p.accumulate_grad_owned(grad);
    }
}

impl Tensor {
    /// Fused multi-head attention along `axis`: `softmax(scale · q kᵀ) v`
    /// per head, on operands as they are laid out.
    ///
    /// `q`, `k` and `v` share one shape of rank ≥ 2; the output has that
    /// shape. Attention runs along `axis`, which must lie below the last
    /// axis. The last axis `D` holds `heads` contiguous groups of width
    /// `Dh = D / heads`, one per head. Every other axis is batch. Viewed
    /// as `[A, S, C, D]` (`A` the product of the axes before `axis`,
    /// `S = dims[axis]`, `C` the product of those between it and the
    /// last), block `(a, c, h)` is `S` rows of `Dh` values, `ld = C·D`
    /// apart. The pool shards by `a`, one worker per block in a fixed
    /// order, so forward and backward are per-tier bit-deterministic at
    /// any thread count. The backward, recorded when gradients are
    /// tracked, recomputes the probabilities from `q` and `k` rather
    /// than keeping them on the tape.
    pub fn sdpa(q: &Tensor, k: &Tensor, v: &Tensor, axis: usize, heads: usize, scale: f32) -> Tensor {
        let dims = q.dims();
        let rank = dims.len();
        let d = dims.last().copied().unwrap_or(0);
        assert!(
            dims == k.dims() && dims == v.dims() && axis + 1 < rank && dims[axis] > 0,
            "sdpa expects matching operands with axis {axis} below the last, got {} {} {}",
            q.shape(),
            k.shape(),
            v.shape()
        );
        assert!(heads > 0 && d > 0 && d.is_multiple_of(heads), "sdpa: {heads} heads do not split {d}");
        let ld = dims[axis + 1..].iter().product();
        let lay = Layout { l: dims[axis], dh: d / heads, ld };
        let (l, dh, lp, extent) = (lay.l, lay.dh, lay.lp(), lay.extent());

        let _kernel = crate::obs::span("nn.sdpa");
        let simd_on = simd::tier() == Tier::Avx2Fma && cfg!(target_arch = "x86_64");
        let mut out = crate::arena::zeroed(q.numel());
        {
            let (qr, kr, vr) = (q.data(), k.data(), v.data());
            let (qs, ks, vs): (&[f32], &[f32], &[f32]) = (&qr, &kr, &vr);
            pool::parallel_slices_mut(&mut out, l * ld, lay.grain(), |a0, slabs| {
                // Probability rows and the K transpose, reused across the
                // run. The Avx2Fma kernel pads L to whole vectors.
                let (srow_len, kt_len) = if simd_on { (ROWS * lp, dh * lp) } else { (l, 0) };
                let mut srow = crate::arena::zeroed(srow_len);
                let mut kt = crate::arena::zeroed(kt_len);
                for (a, oa) in (a0..).zip(slabs.chunks_mut(l * ld)) {
                    let r = a * l * ld..(a + 1) * l * ld;
                    let (qa, ka, va) = (&qs[r.clone()], &ks[r.clone()], &vs[r]);
                    for base in (0..ld).step_by(dh) {
                        let br = base..base + extent;
                        let (qb, kb, vb) = (&qa[br.clone()], &ka[br.clone()], &va[br.clone()]);
                        let ob = &mut oa[br];
                        if simd_on {
                            transpose_into(kb, lay, &mut kt);
                            #[cfg(target_arch = "x86_64")]
                            // Safety: simd_on holds only under the Avx2Fma tier.
                            unsafe {
                                sdpa_block_avx2(qb, &kt, vb, ob, &mut srow, lay, scale);
                            }
                            continue;
                        }
                        for i in 0..l {
                            probs_row(&qb[i * ld..][..dh], kb, ld, &mut srow, scale);
                            let orow = &mut ob[i * ld..][..dh];
                            for (&alpha, vrow) in srow.iter().zip(vb.chunks(ld)) {
                                for (o, &x) in orow.iter_mut().zip(vrow) {
                                    *o += alpha * x;
                                }
                            }
                        }
                    }
                }
                crate::arena::recycle(srow);
                crate::arena::recycle(kt);
            });
        }
        Tensor::from_op(out, q.shape().clone(), vec![q.clone(), k.clone(), v.clone()], move || {
            Box::new(move |gout, out, parents| sdpa_backward(parents, out, gout, lay, scale, simd_on))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::with_threads;
    use crate::rng::seeded;
    use crate::{backward, no_grad, simd::with_tier};

    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar];
        if simd::avx2_available() {
            tiers.push(Tier::Avx2Fma);
        }
        tiers
    }

    /// Unfused reference: the `(c, h)` blocks of each `a` gathered with
    /// `permute` into head-major `[A·C·H, S, Dh]`, then per block
    /// `softmax_last(scale · q kᵀ) v` as 2-D matmuls, scattered back the
    /// same way. Built from ops with their own backward, so it is also the
    /// gradient reference.
    fn reference(q: &Tensor, k: &Tensor, v: &Tensor, axis: usize, heads: usize, scale: f32) -> Tensor {
        let dims = q.dims().to_vec();
        let rank = dims.len();
        let (a, s) = (dims[..axis].iter().product::<usize>(), dims[axis]);
        let c: usize = dims[axis + 1..rank - 1].iter().product();
        let (dh, n) = (dims[rank - 1] / heads, a * c * heads);
        let gather = |t: &Tensor| {
            t.reshape(&[a, s, c, heads, dh]).permute(&[0, 2, 3, 1, 4]).reshape(&[n, s, dh])
        };
        let (q, k, v) = (gather(q), gather(k), gather(v));
        let block = |t: &Tensor, b: usize| t.slice_axis(0, b, 1).reshape(&[s, dh]);
        let outs: Vec<Tensor> = (0..n)
            .map(|b| {
                block(&q, b)
                    .matmul(&block(&k, b).permute(&[1, 0]))
                    .scale(scale)
                    .softmax_last()
                    .matmul(&block(&v, b))
            })
            .collect();
        Tensor::concat(&outs.iter().collect::<Vec<_>>(), 0)
            .reshape(&[a, c, heads, s, dh])
            .permute(&[0, 3, 1, 2, 4])
            .reshape(&dims)
    }

    /// `(dims, axis, heads)`: `[BH, L, Dh]` blocks (axis 1, one head),
    /// then rank-4 layouts with two heads and `C > 1` (channel attention
    /// on `[B, K, L, d]`) and one along the third axis (time attention).
    fn layouts(head_major: &[(usize, usize, usize)]) -> Vec<(Vec<usize>, usize, usize)> {
        let mut all: Vec<_> = head_major.iter().map(|&(bh, l, dh)| (vec![bh, l, dh], 1, 1)).collect();
        all.extend([(vec![2, 5, 3, 8], 1, 2), (vec![2, 9, 2, 32], 1, 2), (vec![2, 3, 11, 16], 2, 2)]);
        all
    }

    /// Output and dQ, dK, dV of `Σ f(q, k, v) · w` for a fixed random `w`.
    fn forward_backward(
        f: impl Fn(&Tensor, &Tensor, &Tensor) -> Tensor,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
    ) -> Vec<Vec<f32>> {
        let params = [q, k, v].map(|t| Tensor::param_from_vec(t.to_vec(), t.dims()).unwrap());
        let y = f(&params[0], &params[1], &params[2]);
        let w = Tensor::randn(&mut seeded(99), y.dims());
        backward(&y.mul(&w).sum_all());
        let mut all = vec![y.to_vec()];
        all.extend(params.iter().map(|p| p.grad().unwrap()));
        all
    }

    #[test]
    fn matches_unfused_path_within_tolerance() {
        let mut rng = seeded(11);
        for (dims, axis, heads) in layouts(&[(1, 3, 4), (8, 16, 8), (4, 31, 16), (3, 19, 4)]) {
            let q = Tensor::randn(&mut rng, &dims);
            let k = Tensor::randn(&mut rng, &dims);
            let v = Tensor::randn(&mut rng, &dims);
            let scale = 1.0 / ((dims[dims.len() - 1] / heads) as f32).sqrt();
            for tier in tiers() {
                let want =
                    with_tier(tier, || no_grad(|| reference(&q, &k, &v, axis, heads, scale).to_vec()));
                let got = with_tier(tier, || Tensor::sdpa(&q, &k, &v, axis, heads, scale).to_vec());
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                        "{dims:?} axis={axis} heads={heads} tier={tier:?}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_match_reference_graph() {
        let mut rng = seeded(14);
        let shapes = [(1, 3, 4), (8, 16, 8), (4, 31, 16), (3, 19, 4), (2, 11, 8)];
        for (dims, axis, heads) in layouts(&shapes) {
            let q = Tensor::randn(&mut rng, &dims);
            let k = Tensor::randn(&mut rng, &dims);
            let v = Tensor::randn(&mut rng, &dims);
            let scale = 1.0 / ((dims[dims.len() - 1] / heads) as f32).sqrt();
            for tier in tiers() {
                let want = with_tier(tier, || {
                    forward_backward(|q, k, v| reference(q, k, v, axis, heads, scale), &q, &k, &v)
                });
                let got = with_tier(tier, || {
                    forward_backward(|q, k, v| Tensor::sdpa(q, k, v, axis, heads, scale), &q, &k, &v)
                });
                for (n, (gs, ws)) in got.iter().zip(&want).enumerate() {
                    for (g, w) in gs.iter().zip(ws) {
                        assert!(
                            (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                            "{dims:?} axis={axis} heads={heads} tier={tier:?} output {n}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    /// Output, dQ, dK and dV at 2, 4 and 8 threads equal those at one,
    /// bit for bit, on each tier.
    #[test]
    fn bit_identical_across_thread_counts_per_tier() {
        let bits = |all: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            all.iter().map(|x| x.iter().map(|v| v.to_bits()).collect()).collect()
        };
        let mut rng = seeded(12);
        // `[BH, L, Dh]`, and channel attention on `[B, K, L, 2·Dh]` with
        // two heads, large enough that its four `a` slabs fan out.
        for dh in [4usize, 8, 16] {
            for (dims, heads) in [(vec![6, 24, dh], 1), (vec![4, 32, 8, 2 * dh], 2)] {
                let q = Tensor::randn(&mut rng, &dims);
                let k = Tensor::randn(&mut rng, &dims);
                let v = Tensor::randn(&mut rng, &dims);
                let f = |q: &Tensor, k: &Tensor, v: &Tensor| Tensor::sdpa(q, k, v, 1, heads, 0.35);
                let run = || forward_backward(f, &q, &k, &v);
                for tier in tiers() {
                    let reference = bits(with_tier(tier, || with_threads(1, run)));
                    for t in [2usize, 4, 8] {
                        let got = bits(with_tier(tier, || with_threads(t, run)));
                        assert_eq!(got, reference, "{dims:?} tier={tier:?} threads={t}");
                    }
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
                    let got =
                        with_tier(Tier::Avx2Fma, || Tensor::sdpa(&qt, &kt, &vt, 1, 1, scale).to_vec());
                    let want = reference(&q, &k, &v, l, dh, scale);
                    assert_eq!(bits(&got), bits(&want), "l={l} dh={dh} scale={scale}");
                }
            }
        }
    }
}
