//! Fused scaled-dot-product attention, forward and backward.
//!
//! Forward: `O = softmax(scale · Q Kᵀ) V`, computed row by row without
//! materializing the `[S, S]` score matrix or its softmax. A query row's
//! probabilities live in a reused `S`-vector; the weighted V-sum
//! accumulates straight into the output row.
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
//!
//! On the Avx2Fma tier the eight lanes of a vector hold eight blocks, not
//! eight keys. A worker cuts its run of `a` slabs into tiles of eight
//! consecutive blocks (`Tile`; one may span several `a`, and a short last
//! tile repeats a block in lanes it never stores). It gathers a tile's K
//! and V into `[S][Dh][8]` scratch with 4×4 vector transposes, and the
//! rows of Q (and, backward, of O and dO) one at a time. Every
//! per-element step then runs lane-wise with no horizontal op, mask or
//! padding, and the results are scattered back to the operands' layout
//! by the same transposes. Each lane does exactly the per-row arithmetic
//! stated at `sdpa_tile_avx2`, so the tiling never changes a bit.

use crate::pool;
use crate::simd::{self, Tier};
use crate::tensor::Tensor;

/// FLOPs below which one `a` slab is not worth a worker.
const MIN_PAR_FLOPS: usize = 1 << 19;

/// Blocks per Avx2Fma tile: one per lane of an 8-wide vector.
const LANES: usize = 8;

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
    /// Values from a block's first row to the end of its last.
    fn extent(self) -> usize {
        (self.l - 1) * self.ld + self.dh
    }

    /// Minimum slabs per worker: a slab is `ld / dh` blocks of `4·l²·dh` FLOPs.
    fn grain(self) -> usize {
        MIN_PAR_FLOPS.div_ceil((4 * self.l * self.l * self.ld).max(1)).max(1)
    }

    /// Floats in one row of a tile: `dh` vectors of eight lanes.
    fn row(self) -> usize {
        self.dh * LANES
    }
}

/// Eight consecutive blocks of a worker's run, one per lane: lane `b`
/// holds the block `(a, base)` of `blocks[b]`, slab `a` counted from the
/// run's first and row 0 at `base` within it. Lanes from `live` on repeat
/// the last live block: they are computed and never stored.
struct Tile {
    blocks: [(usize, usize); LANES],
    live: usize,
}

impl Tile {
    /// The tiles of a run of `slabs` slabs, in block order `(a, c, h)`.
    fn run(slabs: usize, lay: Layout) -> impl Iterator<Item = Tile> {
        let per = lay.ld / lay.dh;
        let n = slabs * per;
        (0..n).step_by(LANES).map(move |t0| {
            let live = LANES.min(n - t0);
            let blocks = std::array::from_fn(|b| {
                let t = t0 + b.min(live - 1);
                (t / per, t % per * lay.dh)
            });
            Tile { blocks, live }
        })
    }

    /// Each lane's row-0 offset from the start of the run.
    fn offsets(&self, lay: Layout) -> [usize; LANES] {
        self.blocks.map(|(a, base)| a * lay.l * lay.ld + base)
    }
}

/// Row `i` of each lane's block of `src`, into `dst` as `dh` vectors of
/// eight lanes (element `d` of lane `b` at `8·d + b`): four columns at a
/// time through a 4×4 transpose in each 128-bit half, then a scalar tail.
///
/// # Safety
///
/// AVX2; each pointer addresses a block's strided extent, `i < l`, and
/// `dst` holds `lay.row()` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn gather_row(src: &[*const f32; LANES], i: usize, lay: Layout, dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let p = src.map(|s| s.add(i * lay.ld));
    let out = dst.as_mut_ptr();
    let mut d = 0;
    while d + 4 <= lay.dh {
        // Lane `r` in the low half, lane `r + 4` in the high half.
        let x = [0, 1, 2, 3].map(|r| _mm256_loadu2_m128(p[r + 4].add(d), p[r].add(d)));
        for (c, col) in transpose4(x).into_iter().enumerate() {
            _mm256_storeu_ps(out.add((d + c) * LANES), col);
        }
        d += 4;
    }
    for d in d..lay.dh {
        for (b, lane) in p.iter().enumerate() {
            *out.add(d * LANES + b) = *lane.add(d);
        }
    }
}

/// The inverse of `gather_row` for the first `live` lanes: `src` (`dh`
/// vectors of eight lanes) becomes row `i` of each lane's block of `dst`.
///
/// # Safety
///
/// AVX2; each of the first `live` pointers addresses a block's strided
/// extent, `i < l`, and `src` holds `lay.row()` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn scatter_row(src: &[f32], dst: &[*mut f32; LANES], live: usize, i: usize, lay: Layout) {
    use std::arch::x86_64::*;
    let p = dst.map(|s| s.wrapping_add(i * lay.ld));
    let cols = src.as_ptr();
    let mut d = 0;
    while d + 4 <= lay.dh {
        let x = transpose4([0, 1, 2, 3].map(|c| _mm256_loadu_ps(cols.add((d + c) * LANES))));
        for (r, rows) in x.into_iter().enumerate() {
            if r < live {
                _mm_storeu_ps(p[r].add(d), _mm256_castps256_ps128(rows));
            }
            if r + 4 < live {
                _mm_storeu_ps(p[r + 4].add(d), _mm256_extractf128_ps(rows, 1));
            }
        }
        d += 4;
    }
    for d in d..lay.dh {
        for (b, lane) in p.iter().enumerate().take(live) {
            *lane.add(d) = *cols.add(d * LANES + b);
        }
    }
}

/// The 4×4 transpose within each 128-bit half of four vectors: element
/// `c` of `x[r]` goes to element `r` of output `c`, per half. Pure data
/// movement, and its own inverse.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn transpose4(x: [std::arch::x86_64::__m256; 4]) -> [std::arch::x86_64::__m256; 4] {
    use std::arch::x86_64::*;
    let (t0, t1) = (_mm256_unpacklo_ps(x[0], x[1]), _mm256_unpacklo_ps(x[2], x[3]));
    let (t2, t3) = (_mm256_unpackhi_ps(x[0], x[1]), _mm256_unpackhi_ps(x[2], x[3]));
    [
        _mm256_shuffle_ps(t0, t1, 0x44),
        _mm256_shuffle_ps(t0, t1, 0xEE),
        _mm256_shuffle_ps(t2, t3, 0x44),
        _mm256_shuffle_ps(t2, t3, 0xEE),
    ]
}

/// Lane-wise `Σ_d a_d · b_d` over `dh` vectors of eight lanes, in
/// `dot_avx2`'s arithmetic: eight accumulators `A[e]`, each an fma chain
/// over the 8-wide chunks from zero, folded as `((A0+A4)+(A2+A6)) +
/// ((A1+A5)+(A3+A7))`, then the fma chain of the last `dh mod 8`
/// elements. With no whole chunk the tree sums zeros, so only that chain
/// runs.
///
/// # Safety
///
/// AVX2 and FMA; `a` and `b` hold `8·dh` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn dot_lanes(a: *const f32, b: *const f32, dh: usize) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let chunks = dh / 8;
    let mut s = _mm256_setzero_ps();
    if chunks > 0 {
        let mut acc = [_mm256_setzero_ps(); 8];
        for c in 0..chunks {
            for (e, x) in acc.iter_mut().enumerate() {
                let d = (c * 8 + e) * LANES;
                *x = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(d)), _mm256_loadu_ps(b.add(d)), *x);
            }
        }
        s = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(acc[0], acc[4]), _mm256_add_ps(acc[2], acc[6])),
            _mm256_add_ps(_mm256_add_ps(acc[1], acc[5]), _mm256_add_ps(acc[3], acc[7])),
        );
    }
    for d in chunks * 8..dh {
        s = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(d * LANES)), _mm256_loadu_ps(b.add(d * LANES)), s);
    }
    s
}

/// One query row's probabilities for the eight lanes: `p[j] = p_j · inv`
/// against the rows of the K tile `kt`, from the row `qi`. Per lane: the
/// score `scale · dot_lanes(q_i, k_j)`, the max over the keys folded with
/// `max_ps` (NaN skipped, as `f32::max` does; the sign of a zero max
/// cannot change `exp(s − max)`), `exp_ps(s − max)`, the sum in
/// ascending key order from `0.0`, `inv = 1/sum`, and `p · inv`.
///
/// # Safety
///
/// AVX2 and FMA; `qi` holds `lay.row()` floats, `kt` `l` rows of them and
/// `p` at least `8·l`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn probs_lanes(qi: &[f32], kt: &[f32], p: &mut [f32], lay: Layout, scale: f32) {
    use std::arch::x86_64::*;
    let (l, row, pp) = (lay.l, lay.row(), p.as_mut_ptr());
    let vscale = _mm256_set1_ps(scale);
    let mut m = _mm256_set1_ps(f32::NEG_INFINITY);
    for j in 0..l {
        let s = _mm256_mul_ps(vscale, dot_lanes(qi.as_ptr(), kt.as_ptr().add(j * row), lay.dh));
        _mm256_storeu_ps(pp.add(j * LANES), s);
        // The running max sits in the operand `max_ps` keeps on NaN.
        m = _mm256_max_ps(s, m);
    }
    let mut sum = _mm256_setzero_ps();
    for j in 0..l {
        let e = simd::exp_ps(_mm256_sub_ps(_mm256_loadu_ps(pp.add(j * LANES)), m));
        _mm256_storeu_ps(pp.add(j * LANES), e);
        sum = _mm256_add_ps(sum, e);
    }
    let inv = _mm256_div_ps(_mm256_set1_ps(1.0), sum);
    for j in 0..l {
        let e = pp.add(j * LANES);
        _mm256_storeu_ps(e, _mm256_mul_ps(_mm256_loadu_ps(e), inv));
    }
}

/// Lane-wise `out[d] = Σ_j w_j · x_j[d]` over the `l` rows of the tile
/// `xt`, each element the ascending-`j` chain `acc = fma(w_j, x_jd, acc)`
/// from zero (what `axpy_avx2` does into a zeroed row), `W` columns at a
/// time with their accumulators in registers.
///
/// # Safety
///
/// AVX2 and FMA; `w` holds at least `8·l` floats, `xt` `l` rows of
/// `lay.row()` and `out` one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn vsum_lanes(w: &[f32], xt: &[f32], out: &mut [f32], lay: Layout) {
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn cols<const W: usize>(w: *const f32, xt: *const f32, out: *mut f32, lay: Layout, d0: usize) {
        use std::arch::x86_64::*;
        let mut acc = [_mm256_setzero_ps(); W];
        for j in 0..lay.l {
            let (wj, xj) = (_mm256_loadu_ps(w.add(j * LANES)), xt.add(j * lay.row() + d0 * LANES));
            for (e, a) in acc.iter_mut().enumerate() {
                *a = _mm256_fmadd_ps(wj, _mm256_loadu_ps(xj.add(e * LANES)), *a);
            }
        }
        for (e, a) in acc.into_iter().enumerate() {
            _mm256_storeu_ps(out.add((d0 + e) * LANES), a);
        }
    }
    let (w, xt, out) = (w.as_ptr(), xt.as_ptr(), out.as_mut_ptr());
    let mut d0 = 0;
    while d0 < lay.dh {
        let left = lay.dh - d0;
        let width = if left >= 8 { 8 } else if left >= 4 { 4 } else { 1 };
        match width {
            8 => cols::<8>(w, xt, out, lay, d0),
            4 => cols::<4>(w, xt, out, lay, d0),
            _ => cols::<1>(w, xt, out, lay, d0),
        }
        d0 += width;
    }
}

/// Fused attention forward for one tile on the Avx2Fma tier, each lane's
/// block in the per-row arithmetic of one `dot_avx2` per score and one
/// `axpy_avx2` per key: `probs_lanes` per query row, then the V-sum
/// `vsum_lanes` of `p · inv` from zero, scattered to the output. `ws`
/// holds the K and V tiles, a Q row, an output row and a probability row.
/// A nonzero `DH` is the head width as a compile-time constant, so the
/// inlined stages keep a row's vectors in registers; 0 reads `lay.dh`.
///
/// # Safety
///
/// AVX2 and FMA; every pointer of `q`, `k` and `v` and the first `live`
/// of `o` address a block's strided extent `(l − 1)·ld + dh`, and the `o`
/// blocks overlap no other. `ws` is sized as `tile_scratch` (checked).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sdpa_tile_avx2<const DH: usize>(
    [q, k, v]: &[[*const f32; LANES]; 3],
    o: &[*mut f32; LANES],
    live: usize,
    ws: &mut [f32],
    lay: Layout,
    scale: f32,
) {
    let lay = if DH > 0 { Layout { dh: DH, ..lay } } else { lay };
    let (l, row) = (lay.l, lay.row());
    assert!(ws.len() >= tile_scratch(lay, false), "sdpa tile kernel: scratch too small");
    let (kt, rest) = ws.split_at_mut(l * row);
    let (vt, rest) = rest.split_at_mut(l * row);
    let (qi, rest) = rest.split_at_mut(row);
    let (oi, p) = rest.split_at_mut(row);
    for j in 0..l {
        gather_row(k, j, lay, &mut kt[j * row..][..row]);
        gather_row(v, j, lay, &mut vt[j * row..][..row]);
    }
    for i in 0..l {
        gather_row(q, i, lay, qi);
        probs_lanes(qi, kt, p, lay, scale);
        vsum_lanes(p, vt, oi, lay);
        scatter_row(oi, o, live, i, lay);
    }
}

/// Backward of one tile on the Avx2Fma tier. Per query row `i`, each lane
/// recomputes P with `probs_lanes`, takes `delta = Σ_d dO_id · O_id` in
/// ascending `d` from zero, and per key `j` forms `x = dot_lanes(dO_i,
/// V_j)` and `dS_ij = (scale · p_j) · (x − delta)`. dQ row `i` is
/// `vsum_lanes` of dS against the K tile; dK and dV accumulate in tiles,
/// `fma(dS_ij, Q_id, ·)` and `fma(p_ij, dO_id, ·)` chains over ascending
/// `i` from zero, scattered once every row is in. `DH` as in
/// `sdpa_tile_avx2`.
///
/// # Safety
///
/// As `sdpa_tile_avx2`, for the inputs `q`, `k`, `v`, `o`, `go` and the
/// three disjoint gradients.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sdpa_tile_bwd_avx2<const DH: usize>(
    [q, k, v, o, go]: &[[*const f32; LANES]; 5],
    [dq, dk, dv]: &[[*mut f32; LANES]; 3],
    live: usize,
    ws: &mut [f32],
    lay: Layout,
    scale: f32,
) {
    use std::arch::x86_64::*;
    let lay = if DH > 0 { Layout { dh: DH, ..lay } } else { lay };
    let (l, dh, row) = (lay.l, lay.dh, lay.row());
    assert!(ws.len() >= tile_scratch(lay, true), "sdpa backward tile kernel: scratch too small");
    let (kt, rest) = ws.split_at_mut(l * row);
    let (vt, rest) = rest.split_at_mut(l * row);
    let (dkt, rest) = rest.split_at_mut(l * row);
    let (dvt, rest) = rest.split_at_mut(l * row);
    let (qi, rest) = rest.split_at_mut(row);
    let (oi, rest) = rest.split_at_mut(row);
    let (goi, rest) = rest.split_at_mut(row);
    let (dqi, rest) = rest.split_at_mut(row);
    let (p, ds) = rest.split_at_mut(l * LANES);
    dkt.fill(0.0);
    dvt.fill(0.0);
    for j in 0..l {
        gather_row(k, j, lay, &mut kt[j * row..][..row]);
        gather_row(v, j, lay, &mut vt[j * row..][..row]);
    }
    let vscale = _mm256_set1_ps(scale);
    for i in 0..l {
        gather_row(q, i, lay, qi);
        gather_row(o, i, lay, oi);
        gather_row(go, i, lay, goi);
        probs_lanes(qi, kt, p, lay, scale);
        let (qp, op, gop, dsp) = (qi.as_ptr(), oi.as_ptr(), goi.as_ptr(), ds.as_mut_ptr());
        let mut delta = _mm256_setzero_ps();
        for d in 0..dh {
            let (g, x) = (_mm256_loadu_ps(gop.add(d * LANES)), _mm256_loadu_ps(op.add(d * LANES)));
            delta = _mm256_add_ps(delta, _mm256_mul_ps(g, x));
        }
        for j in 0..l {
            let pj = _mm256_loadu_ps(p.as_ptr().add(j * LANES));
            let x = dot_lanes(gop, vt.as_ptr().add(j * row), dh);
            let dsj = _mm256_mul_ps(_mm256_mul_ps(vscale, pj), _mm256_sub_ps(x, delta));
            _mm256_storeu_ps(dsp.add(j * LANES), dsj);
            let (dkj, dvj) = (dkt.as_mut_ptr().add(j * row), dvt.as_mut_ptr().add(j * row));
            for d in 0..dh {
                let e = d * LANES;
                let (qd, gd) = (_mm256_loadu_ps(qp.add(e)), _mm256_loadu_ps(gop.add(e)));
                _mm256_storeu_ps(dkj.add(e), _mm256_fmadd_ps(dsj, qd, _mm256_loadu_ps(dkj.add(e))));
                _mm256_storeu_ps(dvj.add(e), _mm256_fmadd_ps(pj, gd, _mm256_loadu_ps(dvj.add(e))));
            }
        }
        vsum_lanes(ds, kt, dqi, lay);
        scatter_row(dqi, dq, live, i, lay);
    }
    for j in 0..l {
        scatter_row(&dkt[j * row..][..row], dk, live, j, lay);
        scatter_row(&dvt[j * row..][..row], dv, live, j, lay);
    }
}

/// Floats of per-worker scratch for the Avx2Fma tile kernels: the K and V
/// tiles (and, backward, the dK and dV tiles), the one-row buffers, and
/// the probability (and dS) rows.
fn tile_scratch(lay: Layout, backward: bool) -> usize {
    let (tiles, rows, prob_rows) = if backward { (4, 4, 2) } else { (2, 2, 1) };
    (tiles * lay.l + rows) * lay.row() + prob_rows * lay.l * LANES
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

/// The tape backward of `sdpa`: accumulates dQ, dK and dV into the
/// `parents` `[q, k, v]`, given the forward's output `o`, its gradient
/// `go`, and the tier the forward ran on. Each gradient is written in
/// place in the operands' layout, sharded by `a` as the forward is.
fn sdpa_backward(parents: &[Tensor], o: &[f32], go: &[f32], lay: Layout, scale: f32, simd_on: bool) {
    let _sp = crate::obs::span("nn.sdpa.bwd");
    let (l, dh, ld, extent) = (lay.l, lay.dh, lay.ld, lay.extent());
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
            if simd_on {
                #[cfg(target_arch = "x86_64")]
                {
                    let inputs = [q, k, v, o, go].map(|s| &s[a0 * l * ld..][..run.len() * l * ld]);
                    // One base pointer per gradient slab; every lane's
                    // block lies within its slab, as `Tile::run` builds it.
                    let outs: Vec<[*mut f32; 3]> =
                        run.iter_mut().map(|t| t.each_mut().map(|s| s.as_mut_ptr())).collect();
                    let mut ws = crate::arena::zeroed(tile_scratch(lay, true));
                    let kernel = match dh {
                        4 => sdpa_tile_bwd_avx2::<4>,
                        8 => sdpa_tile_bwd_avx2::<8>,
                        16 => sdpa_tile_bwd_avx2::<16>,
                        _ => sdpa_tile_bwd_avx2::<0>,
                    };
                    for tile in Tile::run(run.len(), lay) {
                        let offs = tile.offsets(lay);
                        let ins = inputs.map(|s| offs.map(|r| s[r..][..extent].as_ptr()));
                        let grads =
                            [0, 1, 2].map(|g| tile.blocks.map(|(a, base)| outs[a][g].wrapping_add(base)));
                        // Safety: simd_on holds only under the Avx2Fma
                        // tier; each pointer is a block of its slab.
                        unsafe { kernel(&ins, &grads, tile.live, &mut ws, lay, scale) };
                    }
                    crate::arena::recycle(ws);
                }
                return;
            }
            let mut ws = crate::arena::zeroed(l);
            for (a, [dqa, dka, dva]) in (a0..).zip(run.iter_mut()) {
                let r = a * l * ld..(a + 1) * l * ld;
                let [qa, ka, va, oa, goa] = [q, k, v, o, go].map(|s| &s[r.clone()]);
                for base in (0..ld).step_by(dh) {
                    let br = base..base + extent;
                    let [qb, kb, vb, ob, gob] = [qa, ka, va, oa, goa].map(|s| &s[br.clone()]);
                    let (dq, dk, dv) = (&mut dqa[br.clone()], &mut dka[br.clone()], &mut dva[br]);
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
            crate::arena::recycle(ws);
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
        let (l, dh, extent) = (lay.l, lay.dh, lay.extent());

        let _kernel = crate::obs::span("nn.sdpa");
        let simd_on = simd::tier() == Tier::Avx2Fma && cfg!(target_arch = "x86_64");
        // The Avx2Fma tiles store every output row; the Scalar loop adds
        // into its output.
        let mut out = if simd_on {
            crate::arena::overwrite(q.numel())
        } else {
            crate::arena::zeroed(q.numel())
        };
        {
            let (qr, kr, vr) = (q.data(), k.data(), v.data());
            let (qs, ks, vs): (&[f32], &[f32], &[f32]) = (&qr, &kr, &vr);
            pool::parallel_slices_mut(&mut out, l * ld, lay.grain(), |a0, run| {
                let inputs = [qs, ks, vs].map(|s| &s[a0 * l * ld..][..run.len()]);
                if simd_on {
                    #[cfg(target_arch = "x86_64")]
                    {
                        let out = run.as_mut_ptr();
                        let mut ws = crate::arena::zeroed(tile_scratch(lay, false));
                        let kernel = match dh {
                            4 => sdpa_tile_avx2::<4>,
                            8 => sdpa_tile_avx2::<8>,
                            16 => sdpa_tile_avx2::<16>,
                            _ => sdpa_tile_avx2::<0>,
                        };
                        for tile in Tile::run(run.len() / (l * ld), lay) {
                            let offs = tile.offsets(lay);
                            let ins = inputs.map(|s| offs.map(|r| s[r..][..extent].as_ptr()));
                            let o = offs.map(|r| out.wrapping_add(r));
                            // Safety: simd_on holds only under the Avx2Fma
                            // tier; `run` is as long as each input, so the
                            // extents checked above fit it too.
                            unsafe { kernel(&ins, &o, tile.live, &mut ws, lay, scale) };
                        }
                        crate::arena::recycle(ws);
                    }
                    return;
                }
                // One probability row, reused across the run.
                let mut srow = crate::arena::zeroed(l);
                let [qa, ka, va] = inputs;
                for (slab, oa) in run.chunks_mut(l * ld).enumerate() {
                    let r = slab * l * ld..(slab + 1) * l * ld;
                    for base in (0..ld).step_by(dh) {
                        let br = r.start + base..r.start + base + extent;
                        let (qb, kb, vb) = (&qa[br.clone()], &ka[br.clone()], &va[br]);
                        let ob = &mut oa[base..base + extent];
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
        crate::obs::tests::with_exclusive_obs(|| {
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
        });
    }

    #[test]
    fn gradients_match_reference_graph() {
        crate::obs::tests::with_exclusive_obs(|| {
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
        });
    }

    /// Output, dQ, dK and dV at 2, 4 and 8 threads equal those at one,
    /// bit for bit, on each tier.
    #[test]
    fn bit_identical_across_thread_counts_per_tier() {
        crate::obs::tests::with_exclusive_obs(|| {
            let all_bits = |all: Vec<Vec<f32>>| all.iter().map(|x| bits(x)).collect::<Vec<_>>();
            let mut rng = seeded(12);
            // `[BH, L, Dh]`, and channel attention on `[B, K, L, 2·Dh]` with
            // two heads, large enough that its four `a` slabs fan out.
            let mut cases = Vec::new();
            for dh in [4usize, 8, 16] {
                cases.extend([(vec![6, 24, dh], 1, 1), (vec![4, 32, 8, 2 * dh], 1, 2)]);
            }
            // Time attention at the serving width (Dh 4, two heads), whose
            // 8-block tiles cross `a` boundaries: the serving layer itself
            // (38 blocks, inline), and 513 slabs that fan out at every count
            // here, so each worker's run ends in a short tile of its own.
            cases.extend([(vec![1, 19, 16, 8], 2, 2), (vec![27, 19, 16, 8], 2, 2)]);
            for (dims, axis, heads) in cases {
                let q = Tensor::randn(&mut rng, &dims);
                let k = Tensor::randn(&mut rng, &dims);
                let v = Tensor::randn(&mut rng, &dims);
                let f = |q: &Tensor, k: &Tensor, v: &Tensor| Tensor::sdpa(q, k, v, axis, heads, 0.35);
                let run = || forward_backward(f, &q, &k, &v);
                for tier in tiers() {
                    let reference = all_bits(with_tier(tier, || with_threads(1, run)));
                    for t in [2usize, 4, 8] {
                        let got = all_bits(with_tier(tier, || with_threads(t, run)));
                        assert_eq!(got, reference, "{dims:?} axis={axis} tier={tier:?} threads={t}");
                    }
                }
            }
        });
    }

    /// `(dims, axis, heads)` of the arithmetic tests: `[3, L, Dh]` blocks
    /// at many head widths and lengths, then rank-4 `[B, K, L, 2·Dh]`
    /// layouts with two heads along axes 1 and 2, strided in place, with
    /// block counts (28, 20, 32 and 38) of which most are not multiples
    /// of 8.
    fn arithmetic_layouts() -> Vec<(Vec<usize>, usize, usize)> {
        let mut all = Vec::new();
        for dh in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 20, 32, 35] {
            for l in [1usize, 5, 8, 19, 48, 65] {
                all.push((vec![3, l, dh], 1, 1));
            }
        }
        for dh in [4usize, 8] {
            for dims in [vec![2, 5, 7, 2 * dh], vec![1, 19, 16, 2 * dh]] {
                for axis in [1, 2] {
                    all.push((dims.clone(), axis, 2));
                }
            }
        }
        all
    }

    /// The layout, and the offset of row 0 of every block `(a, c, h)` in
    /// order (row `i` at `offset + i·ld`).
    fn blocks(dims: &[usize], axis: usize, heads: usize) -> (Layout, Vec<usize>) {
        let (l, d) = (dims[axis], dims[dims.len() - 1]);
        let ld: usize = dims[axis + 1..].iter().product();
        let a: usize = dims[..axis].iter().product();
        let dh = d / heads;
        let offs = (0..a).flat_map(|a| (0..ld).step_by(dh).map(move |c| a * l * ld + c)).collect();
        (Layout { l, dh, ld }, offs)
    }

    /// Random Q, K, V for a layout, with the edge rows: in block 1 a NaN
    /// in query row 0, an all-zero query row 1 (every score ±0, all
    /// equal), and in query row 2 a key whose score overflows to −inf; in
    /// block 2 an all-zero key, so one score per row is ±0.
    fn edge_operands(
        rng: &mut rand::rngs::StdRng,
        dims: &[usize],
        axis: usize,
        heads: usize,
    ) -> [Vec<f32>; 3] {
        let (Layout { l, dh, ld }, offs) = blocks(dims, axis, heads);
        let [mut q, mut k, v] = [(); 3].map(|_| Tensor::randn(rng, dims).to_vec());
        let (b1, b2) = (offs[1], offs[2]);
        q[b1] = f32::NAN;
        if l > 1 {
            q[b1 + ld..b1 + ld + dh].fill(0.0);
        }
        if l > 2 {
            q[b1 + 2 * ld..b1 + 2 * ld + dh].fill(1e20);
            k[b1..b1 + dh].fill(-1e20);
        }
        k[b2 + (l - 1) * ld..b2 + (l - 1) * ld + dh].fill(0.0);
        [q, k, v]
    }

    /// Query row `i`'s probabilities `p_j · inv` in the per-row reference
    /// arithmetic: one `dot_avx2` per score times `scale`, the stable
    /// softmax through `vexp_avx2` with an ascending sum from `0.0`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    unsafe fn reference_probs(q: &[f32], k: &[f32], b: usize, i: usize, lay: Layout, scale: f32) -> Vec<f32> {
        let Layout { l, dh, ld } = lay;
        let qrow = &q[b + i * ld..][..dh];
        let mut srow: Vec<f32> =
            (0..l).map(|j| scale * simd::dot_avx2(qrow, &k[b + j * ld..][..dh])).collect();
        let max = srow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for s in srow.iter_mut() {
            *s -= max;
        }
        simd::vexp_avx2(&mut srow);
        let mut sum = 0.0f32;
        for &e in srow.iter() {
            sum += e;
        }
        let inv = 1.0 / sum;
        srow.iter().map(|&e| e * inv).collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The Avx2Fma forward must be bit-identical to the per-row arithmetic
    /// it replaced: `reference_probs`, then one `axpy_avx2` of `p · inv`
    /// per key into a zeroed output row. The reference below calls those
    /// kernels directly. The edge rows of `edge_operands` are included,
    /// since the kernel folds each row's max with vector instructions.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_matches_dot_axpy_arithmetic() {
        crate::obs::tests::with_exclusive_obs(|| {
            if !simd::avx2_available() {
                return;
            }
            let mut rng = seeded(13);
            for (dims, axis, heads) in arithmetic_layouts() {
                let (lay, offs) = blocks(&dims, axis, heads);
            let Layout { l, dh, ld } = lay;
                let [q, k, v] = edge_operands(&mut rng, &dims, axis, heads);
                let [qt, kt, vt] = [&q, &k, &v].map(|x| Tensor::from_vec(x.clone(), &dims).unwrap());
                // A negative scale turns the +0 scores into −0.
                for scale in [1.0 / (dh as f32).sqrt(), -0.5] {
                    let got =
                    with_tier(Tier::Avx2Fma, || Tensor::sdpa(&qt, &kt, &vt, axis, heads, scale).to_vec());
                    let mut want = vec![0.0f32; q.len()];
                    for &b in &offs {
                        for i in 0..l {
                            // Safety: guarded by avx2_available above.
                            let p = unsafe { reference_probs(&q, &k, b, i, lay, scale) };
                            let mut orow = vec![0.0f32; dh];
                            for (j, &pj) in p.iter().enumerate() {
                                // Safety: as above.
                                unsafe { simd::axpy_avx2(pj, &v[b + j * ld..][..dh], &mut orow) };
                            }
                            want[b + i * ld..][..dh].copy_from_slice(&orow);
                        }
                    }
                    assert_eq!(bits(&got), bits(&want), "{dims:?} axis={axis} heads={heads} scale={scale}");
                }
            }
        });
    }

    /// The Avx2Fma backward must be bit-identical to the per-row
    /// arithmetic: P from `reference_probs`, `dO·Vᵀ` from one `dot_avx2`
    /// per key, `delta = rowsum(dO ∘ O)` as the ascending scalar
    /// `row_dot`, `dS = (scale · p) · (x − delta)`, and dQ, dK and dV as
    /// `axpy_avx2` chains into zeroed rows over ascending keys (dQ) and
    /// ascending queries (dK, dV). O is the forward's output; dO the fixed
    /// weights `forward_backward` draws.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_backward_matches_dot_axpy_arithmetic() {
        crate::obs::tests::with_exclusive_obs(|| {
            if !simd::avx2_available() {
                return;
            }
            let mut rng = seeded(15);
            for (dims, axis, heads) in arithmetic_layouts() {
                let (lay, offs) = blocks(&dims, axis, heads);
            let Layout { l, dh, ld } = lay;
                let [q, k, v] = edge_operands(&mut rng, &dims, axis, heads);
                let [qt, kt, vt] = [&q, &k, &v].map(|x| Tensor::from_vec(x.clone(), &dims).unwrap());
                let go = Tensor::randn(&mut seeded(99), &dims).to_vec();
                for scale in [1.0 / (dh as f32).sqrt(), -0.5] {
                    let f = |q: &Tensor, k: &Tensor, v: &Tensor| Tensor::sdpa(q, k, v, axis, heads, scale);
                    let got = with_tier(Tier::Avx2Fma, || forward_backward(f, &qt, &kt, &vt));
                    let o = &got[0];
                    let mut want = [(); 3].map(|_| vec![0.0f32; q.len()]);
                    let [dq, dk, dv] = &mut want;
                    for &b in &offs {
                        for i in 0..l {
                            let ir = b + i * ld..b + i * ld + dh;
                            // Safety: guarded by avx2_available above.
                            let p = unsafe { reference_probs(&q, &k, b, i, lay, scale) };
                            let delta = row_dot(&go[ir.clone()], &o[ir.clone()]);
                            for (j, &pj) in p.iter().enumerate() {
                                let jr = b + j * ld..b + j * ld + dh;
                                // Safety: as above.
                                let x = unsafe { simd::dot_avx2(&go[ir.clone()], &v[jr.clone()]) };
                                let ds = (scale * pj) * (x - delta);
                                // Safety: as above.
                                unsafe {
                                    simd::axpy_avx2(ds, &k[jr.clone()], &mut dq[ir.clone()]);
                                    simd::axpy_avx2(ds, &q[ir.clone()], &mut dk[jr.clone()]);
                                    simd::axpy_avx2(pj, &go[ir.clone()], &mut dv[jr]);
                                }
                            }
                        }
                    }
                    for (n, w) in want.iter().enumerate() {
                        let msg = format!("{dims:?} axis={axis} heads={heads} scale={scale} gradient {n}");
                        assert_eq!(bits(&got[n + 1]), bits(w), "{msg}");
                    }
                }
            }
        });
    }

    #[test]
    fn sdpa_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            // A tile with idle lanes (2·2 blocks) and one with full tiles.
            for (dims, axis) in [(vec![2, 9, 8], 1), (vec![1, 19, 16, 8], 1)] {
                assert_writes_every_element(|| {
                    let (q, k, v) = (leaf(&dims, 0.1), leaf(&dims, 0.5), leaf(&dims, 0.9));
                    Tensor::sdpa(&q, &k, &v, axis, 2, 0.5)
                });
            }
        });
    }
}
