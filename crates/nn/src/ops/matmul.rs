//! Matrix multiplication on cache-blocked, register-tiled kernels.
//!
//! `NN` and `NT` run one blocked `C += A @ B` kernel; `NT` first *packs*
//! its transposed operand into a row-major copy once per call, so the
//! inner loops stream both operands with unit stride. The inner kernel
//! processes [`MR`] rows of `A` against a [`KC`]-deep panel of `B`,
//! amortising each load of a `B` row across `MR` output rows. `TN` (the
//! weight gradient) reads both operands in place: on Avx2Fma through the
//! `NN` register tile at other strides, on Scalar row by row. There is
//! **no** zero-skip branch in any of them, so IEEE special values
//! propagate exactly (`0.0 * NaN = NaN`).
//!
//! Large calls are split across the worker pool by output rows. Every
//! output element is always computed by exactly one worker with the same
//! loop order, so results are bit-identical at any thread count.

use std::rc::Rc;

use super::Act;
use crate::autodiff::is_grad_enabled;
use crate::pool;
use crate::shape::Shape;
use crate::simd::{self, Tier, ACCUMULATE, STORE};
use crate::tensor::Tensor;

/// Depth of the `k`-panel kept hot in cache between row tiles.
const KC: usize = 256;
/// Rows of `A` processed together by the register tile.
const MR: usize = 4;
/// Minimum FLOPs handed to one worker before splitting is worthwhile
/// (spawning a scoped thread costs tens of microseconds).
const MIN_PAR_FLOPS: usize = 1 << 19;

/// Row-grain (in units of one output row) that keeps each worker above
/// [`MIN_PAR_FLOPS`].
fn row_grain(k: usize, n: usize) -> usize {
    MIN_PAR_FLOPS
        .div_ceil((2 * k * n).max(1))
        .max(MR)
}

/// Serial blocked kernel: `out[m,n] += a[m,k] @ b[k,n]`.
///
/// Loop order is fixed (`k`-panel → row tile → panel row → column), so a
/// given output element sees the same addition order no matter how the
/// caller shards rows across workers.
pub(crate) fn mm_nn_block(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        let mut i = 0;
        // Register tile: MR rows of A share every loaded row of B.
        while i + MR <= m {
            let rows = &mut out[i * n..(i + MR) * n];
            let (o0, rest) = rows.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            for p in 0..kb {
                let brow = &b[(k0 + p) * n..(k0 + p) * n + n];
                let a0 = a[i * k + k0 + p];
                let a1 = a[(i + 1) * k + k0 + p];
                let a2 = a[(i + 2) * k + k0 + p];
                let a3 = a[(i + 3) * k + k0 + p];
                for (j, &bv) in brow.iter().enumerate() {
                    o0[j] += a0 * bv;
                    o1[j] += a1 * bv;
                    o2[j] += a2 * bv;
                    o3[j] += a3 * bv;
                }
            }
            i += MR;
        }
        // Remainder rows: same (panel row → column) order as the tile.
        while i < m {
            let orow = &mut out[i * n..(i + 1) * n];
            for p in 0..kb {
                let brow = &b[(k0 + p) * n..(k0 + p) * n + n];
                let av = a[i * k + k0 + p];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
            i += 1;
        }
        k0 += kb;
    }
}

/// Serial `TN` kernel: `out += a[m,k]ᵀ @ b[m,n]` over the output rows
/// `p0..p0 + out.len() / n`, as `out[p][j] += a[i][p] · b[i][j]` with `i`
/// ascending. Each element sees the additions `mm_nn_block` gives it on a
/// transposed copy of `a`, in the same order.
fn mm_tn_block(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, p0: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    let prows = out.len() / n;
    for (arow, brow) in a.chunks_exact(k).zip(b.chunks_exact(n)) {
        for (orow, &av) in out.chunks_exact_mut(n).zip(&arow[p0..p0 + prows]) {
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Packs `src` (`rows × cols`, row-major) into its transpose
/// (`cols × rows`, row-major), tiled for cache-friendly strides.
fn pack_transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(src.len(), rows * cols);
    const TILE: usize = 32;
    let mut dst = vec![0.0f32; src.len()];
    let mut r0 = 0;
    while r0 < rows {
        let rb = TILE.min(rows - r0);
        let mut c0 = 0;
        while c0 < cols {
            let cb = TILE.min(cols - c0);
            for r in r0..r0 + rb {
                for c in c0..c0 + cb {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 += cb;
        }
        r0 += TILE;
    }
    dst
}

/// `out[m,n] += a[m,k] @ b[k,n]`, split across the worker pool by output
/// rows. IEEE-faithful: every `a` element multiplies every `b` element it
/// mathematically touches, so NaN/inf in either operand propagate.
///
/// Dispatches on [`simd::tier()`]: the AVX2/FMA register-tiled kernel with
/// a packed-B panel layout when available, the blocked scalar kernel
/// otherwise. Row sharding across workers is identical in both tiers, so
/// each tier is bit-deterministic at any thread count.
pub fn mm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    mm_nn_dispatch::<ACCUMULATE>(a, b, None, m, k, n, out, PLAIN, None);
}

/// The pointwise tail one kernel call applies to each output element as
/// it is stored: `act(out + a·b + bias[j])`, the bias add only when there
/// is a bias.
#[derive(Clone, Copy)]
struct Epilogue<'a> {
    bias: Option<&'a [f32]>,
    act: Act,
}

/// No epilogue: the kernel only accumulates into `out`.
const PLAIN: Epilogue<'static> = Epilogue { bias: None, act: Act::Identity };

/// [`mm_nn`] with an epilogue and an optionally prepacked B
/// (`pack_b_panels` layout) from the parameter's panel slot; `b` must
/// still be the raw matrix (the scalar tier and the debug asserts use
/// it). `pre`, when given, receives each element's pre-activation in the
/// same pass.
///
/// `ACC` is the output mode ([`simd::ACCUMULATE`] or [`simd::STORE`]).
/// In store mode the old contents of `out` are never read, and the
/// result has the bits an accumulate into a zeroed `out` gives: the
/// Avx2Fma kernel adds `+0.0` where it would add the old value, and the
/// scalar tier zeroes each worker's shard before `mm_nn_block`
/// accumulates into it.
///
/// The Avx2Fma kernel applies the epilogue where it stores each output.
/// The scalar tier runs it over each worker's row shard once
/// `mm_nn_block` has finished the shard: `+ bias[j]`, then the scalar
/// activation. Either way an element gets the IEEE operations of a
/// separate matmul, broadcast add and activation op on that tier.
#[allow(clippy::too_many_arguments)]
fn mm_nn_dispatch<const ACC: bool>(
    a: &[f32],
    b: &[f32],
    prepacked: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    ep: Epilogue<'_>,
    pre: Option<&mut [f32]>,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    // Resolve the tier once, on the calling thread (scoped overrides do
    // not reach pool workers), and branch before fanning out.
    let simd_on = simd::tier() == Tier::Avx2Fma;
    // The span includes the epilogue.
    let _kernel = kernel_span(m, k, n, simd_on);
    if simd_on {
        let packed_local;
        let bp: &[f32] = match prepacked {
            Some(p) => p,
            None => {
                packed_local = simd::pack_b_panels(b, k, n);
                &packed_local
            }
        };
        pool::parallel_slices_mut_with(out, pre, n, row_grain(k, n), |r0, rows, pre| {
            let mrows = rows.len() / n;
            let a = &a[r0 * k..(r0 + mrows) * k];
            // Safety: tier() == Avx2Fma implies avx2+fma were detected.
            unsafe { simd::mm_rows_avx2::<ACC>(a, bp, mrows, k, n, rows, ep.bias, ep.act, pre) };
        });
    } else {
        pool::parallel_slices_mut_with(out, pre, n, row_grain(k, n), |r0, rows, mut pre| {
            let mrows = rows.len() / n;
            if !ACC {
                rows.fill(0.0);
            }
            mm_nn_block(&a[r0 * k..(r0 + mrows) * k], b, mrows, k, n, rows);
            if ep.bias.is_none() && ep.act == Act::Identity {
                return;
            }
            for (i, row) in rows.chunks_exact_mut(n).enumerate() {
                if let Some(bias) = ep.bias {
                    for (o, &bv) in row.iter_mut().zip(bias) {
                        *o += bv;
                    }
                }
                if let Some(p) = pre.as_deref_mut() {
                    p[i * n..(i + 1) * n].copy_from_slice(row);
                }
                if ep.act != Act::Identity {
                    for o in row.iter_mut() {
                        *o = ep.act.scalar(*o);
                    }
                }
            }
        });
    }
}

/// The one `nn.matmul` span of a kernel call, with its `calls`, `simd`
/// and `flops` counters: `mm_nn` and `mm_nt` reach it through
/// `mm_nn_dispatch`, `mm_tn` directly, so each call counts once.
fn kernel_span(m: usize, k: usize, n: usize, simd_on: bool) -> crate::obs::Span {
    let span = crate::obs::span("nn.matmul");
    if crate::obs::enabled() {
        crate::obs::counter("nn.matmul.calls", 1);
        crate::obs::histogram("nn.matmul.flops", 2.0 * m as f64 * k as f64 * n as f64);
        if simd_on {
            crate::obs::counter("nn.matmul.simd", 1);
        }
    }
    span
}

/// The packed panels for parameter `t`, packing at most once per
/// `(generation, k, n)`: once per layer until the optimizer mutates the
/// weights. The pack lives in the parameter's own slot, as long as the
/// parameter, so a model of any size keeps every weight packed across
/// forwards; a generation bump makes the stored pack stale, and the next
/// call replaces it.
fn cached_panels(t: &Tensor, b: &[f32], k: usize, n: usize) -> Rc<Vec<f32>> {
    let key = (t.generation(), k, n);
    let mut slot = t.node().packed.borrow_mut();
    match slot.as_ref() {
        Some((stored, panels)) if *stored == key => Rc::clone(panels),
        _ => {
            let panels = Rc::new(simd::pack_b_panels(b, k, n));
            *slot = Some((key, Rc::clone(&panels)));
            panels
        }
    }
}

/// `out[m,n] += a[m,k] @ b[n,k]^T`: packs `b`'s transpose once, then runs
/// the blocked `NN` kernel.
pub fn mm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    mm_nt_mode::<ACCUMULATE>(a, b, m, k, n, out);
}

/// [`mm_nt`] in the output mode `ACC` (see `mm_nn_dispatch`).
fn mm_nt_mode<const ACC: bool>(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    let bt = pack_transpose(b, n, k); // [k, n]
    mm_nn_dispatch::<ACC>(a, &bt, None, m, k, n, out, PLAIN, None);
}

/// `out[k,n] += a[m,k]^T @ b[m,n]`, split across the worker pool by output
/// rows as [`mm_nn`] splits a `[k, m] @ [m, n]` product. Both tiers read
/// `a` and `b` in place: each output element is one chain over `i`
/// ascending, an FMA chain from zero added once into `out` on Avx2Fma
/// (`simd::mm_tn_avx2`), the running sum in `out` on Scalar — bit for bit
/// what `mm_nn` computes from `a`'s transpose on that tier.
pub fn mm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    let simd_on = simd::tier() == Tier::Avx2Fma;
    let _kernel = kernel_span(k, m, n, simd_on);
    pool::parallel_slices_mut(out, n, row_grain(m, n), |p0, rows| {
        if simd_on {
            // Safety: tier() == Avx2Fma implies avx2+fma were detected.
            unsafe { simd::mm_tn_avx2(a, b, m, k, n, p0, rows) };
        } else {
            mm_tn_block(a, b, m, k, n, p0, rows);
        }
    });
}

impl Tensor {
    /// The dense layer op `y = act(x·W + b)` against a 2-D `W`.
    ///
    /// Supported shapes (leading `B..` may be any number of batch dims,
    /// including none): `[B.., k] @ [k, n] -> [B.., n]`, with an optional
    /// `[n]` bias. The batch folds into the row dimension: one
    /// row-parallel GEMM whose kernel applies the bias and `act` where it
    /// stores each output, so the layer costs one op and one pass over its
    /// output. Each element gets exactly the IEEE operations of
    /// [`Tensor::matmul`], a broadcast [`Tensor::add`] of the bias and the
    /// standalone activation op on the same tier.
    ///
    /// Under a recorded tape, GELU and SiLU also keep the pre-activation
    /// `z` (written in the same pass, parked in the arena again when the
    /// node drops); their derivative is computed from `z` as the
    /// standalone op's backward does, ReLU's from the output. `dX` and `dW`
    /// come from the `NT` and `TN` kernels on that gradient, and the
    /// bias gradient is its column sum in ascending row order from `+0.0`.
    /// Attention, which multiplies per head, runs the fused
    /// [`Tensor::sdpa`] instead.
    pub fn linear(&self, w: &Tensor, bias: Option<&Tensor>, act: Act) -> Tensor {
        let (ad, bd) = (self.dims(), w.dims());
        assert!(
            !ad.is_empty() && bd.len() == 2,
            "matmul requires a >=1-D lhs and a 2-D rhs, got {} and {}",
            self.shape(),
            w.shape()
        );
        let k = ad[ad.len() - 1];
        let (k2, n) = (bd[0], bd[1]);
        assert_eq!(
            k, k2,
            "matmul inner dimension mismatch: {} vs {}",
            self.shape(),
            w.shape()
        );
        if let Some(b) = bias {
            assert_eq!(b.dims(), [n], "matmul bias must be [{n}], got {}", b.shape());
        }
        let rows: usize = ad[..ad.len() - 1].iter().product();

        let mut out_dims: Vec<usize> = ad[..ad.len() - 1].to_vec();
        out_dims.push(n);
        let out_shape = Shape::new(&out_dims);
        let parents: Vec<Tensor> = [self, w].into_iter().chain(bias).cloned().collect();
        let track = is_grad_enabled() && parents.iter().any(Tensor::requires_grad);
        let simd_on = simd::tier() == Tier::Avx2Fma;
        // The store-mode kernel writes every element of both.
        let mut out = crate::arena::overwrite(out_shape.numel());
        let mut pre = (track && act.needs_pre()).then(|| crate::arena::overwrite(out_shape.numel()));
        {
            let da_ref = self.data();
            let db_ref = w.data();
            let bias_ref = bias.map(|b| b.data());
            // Plain slices: the RefCell guards are not Sync, but the
            // borrowed data is, and the guards outlive the scoped workers.
            let (da, db): (&[f32], &[f32]) = (&da_ref, &db_ref);
            let ep = Epilogue { bias: bias_ref.as_deref().map(Vec::as_slice), act };
            // A parameter RHS (layer weight) is packed once per optimizer
            // step, not per call.
            let bp = (simd_on && w.requires_grad()).then(|| cached_panels(w, db, k, n));
            let bp = bp.as_deref().map(Vec::as_slice);
            mm_nn_dispatch::<STORE>(da, db, bp, rows, k, n, &mut out, ep, pre.as_deref_mut());
        }
        let pre = pre.map(crate::arena::Saved);

        Tensor::from_op(
            out,
            out_shape,
            parents,
            move || Box::new(move |gout, y, parents| {
                let _sp = crate::obs::span("nn.matmul.bwd");
                let (pa, pw) = (&parents[0], &parents[1]);
                // The gradient at the pre-activation.
                let dz_owned = (act != Act::Identity).then(|| {
                    let mut g = crate::arena::overwrite(gout.len());
                    act.grad(simd_on, pre.as_deref().unwrap_or_default(), y, gout, &mut g);
                    g
                });
                let dz: &[f32] = dz_owned.as_deref().unwrap_or(gout);
                if pa.requires_grad() {
                    // dX = dZ @ Wᵀ over the folded rows: pack the shared
                    // panel Wᵀ once for the whole call.
                    let mut ga = crate::arena::overwrite(pa.numel());
                    mm_nt_mode::<STORE>(dz, &pw.data(), rows, n, k, &mut ga);
                    pa.accumulate_grad_owned(ga);
                }
                if pw.requires_grad() {
                    // dW = Xᵀ @ dZ accumulated over every batch; the fold
                    // makes it one [rows, k]ᵀ @ [rows, n], read in place.
                    let mut gw = crate::arena::zeroed(pw.numel());
                    mm_tn(&pa.data(), dz, rows, k, n, &mut gw);
                    pw.accumulate_grad_owned(gw);
                }
                if let Some(pb) = parents.get(2).filter(|p| p.requires_grad()) {
                    let mut gb = crate::arena::zeroed(n);
                    for row in dz.chunks_exact(n) {
                        for (g, &d) in gb.iter_mut().zip(row) {
                            *g += d;
                        }
                    }
                    pb.accumulate_grad_owned(gb);
                }
                if let Some(g) = dz_owned {
                    crate::arena::recycle(g);
                }
            }),
        )
    }

    /// Matrix multiplication against a 2-D right operand: [`Tensor::linear`]
    /// with no bias and no activation, `[B.., k] @ [k, n] -> [B.., n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.linear(other, None, Act::Identity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward;
    use crate::pool::with_threads;
    use crate::simd::with_tier;

    fn param(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::param_from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_2d_forward() {
        let a = param(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = param(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.to_vec(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_2d_gradients() {
        let a = param(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = param(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let loss = a.matmul(&b).sum_all();
        backward(&loss);
        // dA = 1 @ B^T: rows are [5+6, 7+8].
        assert_eq!(a.grad().unwrap(), vec![11.0, 15.0, 11.0, 15.0]);
        // dB = A^T @ 1: rows are [1+3, 2+4] stacked per column.
        assert_eq!(b.grad().unwrap(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn matmul_batched_shared_rhs() {
        let a = param(&[1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = param(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2, 2]);
        assert_eq!(
            c.to_vec(),
            vec![1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]
        );
        backward(&c.sum_all());
        // Shared RHS gradient accumulates over both batches:
        // dB = sum_b A_b^T @ 1 = [[1+2,1+2],[1+2,1+2]]... compute: batch0 A=I => ones^T rows [1,1;1,1]; batch1 A=2I => [2,2;2,2]; total [3,3;3,3].
        assert_eq!(b.grad().unwrap(), vec![3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "2-D rhs")]
    fn matmul_rejects_batched_rhs() {
        let a = param(&[1.0, 2.0, 3.0, 4.0], &[2, 1, 2]);
        let b = param(&[1.0, 1.0, 2.0, 2.0], &[2, 2, 1]);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = param(&[0.0; 6], &[2, 3]);
        let b = param(&[0.0; 4], &[2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn zero_times_nan_propagates() {
        // Regression: the old kernel skipped a-elements equal to 0.0,
        // silently dropping NaN/inf contributions from b. IEEE requires
        // 0.0 * NaN = NaN and 0.0 * inf = NaN.
        let a = param(&[0.0, 0.0, 1.0, 2.0], &[2, 2]);
        let b = param(&[f32::NAN, 1.0, 3.0, 4.0], &[2, 2]);
        let c = a.matmul(&b).to_vec();
        // Row 0 multiplies the NaN by 0.0 — must stay NaN, not 0.
        assert!(c[0].is_nan(), "0*NaN swallowed: {:?}", c);
        assert!(c[2].is_nan());
        assert_eq!(c[3], 1.0 * 1.0 + 2.0 * 4.0);

        let binf = param(&[f32::INFINITY, 1.0, 3.0, 4.0], &[2, 2]);
        let cinf = a.matmul(&binf).to_vec();
        assert!(cinf[0].is_nan(), "0*inf swallowed: {:?}", cinf);
    }

    #[test]
    fn nan_propagates_through_backward_kernels() {
        // mm_nt / mm_tn (the packed backward kernels) must be equally
        // IEEE-faithful: zero gradient rows cannot swallow NaN operands.
        let mut out = [0.0f32; 4];
        mm_nt(&[0.0, 0.0], &[f32::NAN, 1.0, 2.0, 3.0], 1, 2, 2, &mut out[..2]);
        assert!(out[0].is_nan());
        let mut out2 = [0.0f32; 4];
        mm_tn(&[0.0, 0.0], &[f32::NAN, 1.0], 1, 2, 2, &mut out2);
        assert!(out2[0].is_nan() && out2[2].is_nan());
    }

    #[test]
    fn mm_tn_matches_transposed_mm_nn_bits() {
        // The old `TN` path packed `a`'s transpose and ran `mm_nn` on it;
        // the in-place kernels must give its bits on each tier at every
        // thread count. m = 912 (one training sample's rows) splits the
        // output rows into several shards at k ≥ 16; k and n cover the
        // 4-row and 16-column tiles' remainders and the masked right edge.
        crate::obs::tests::with_exclusive_obs(|| {
            for tier in tiers() {
                for m in [1usize, 5, 912] {
                    for k in [1usize, 2, 3, 16, 17] {
                        for n in [1usize, 2, 8, 9, 16, 17, 32] {
                            let a = wave(m * k, 0.4);
                            let b = wave(m * n, 1.7);
                            let want = with_tier(tier, || {
                                let mut o = vec![0.0f32; k * n];
                                mm_nn(&pack_transpose(&a, m, k), &b, k, m, n, &mut o);
                                o
                            });
                            for t in [1usize, 2, 3] {
                                let got = with_threads(t, || {
                                    with_tier(tier, || {
                                        let mut o = vec![0.0f32; k * n];
                                        mm_tn(&a, &b, m, k, n, &mut o);
                                        o
                                    })
                                });
                                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                                let what = format!("{} {m}x{k}x{n} t{t}", tier.name());
                                assert_eq!(bits(&got), bits(&want), "{what}");
                            }
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn pack_transpose_round_trips() {
        let src: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let t = pack_transpose(&src, 3, 4);
        assert_eq!(t.len(), 12);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(t[c * 3 + r], src[r * 4 + c]);
            }
        }
        assert_eq!(pack_transpose(&t, 4, 3), src);
    }

    #[test]
    fn blocked_kernel_matches_reference_on_odd_shapes() {
        // Shapes chosen to exercise the KC remainder, the MR remainder
        // and both at once.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (5, 3, 7), (9, 300, 11), (4, 256, 8)] {
            let a: Vec<f32> = (0..m * k).map(|v| ((v % 13) as f32) - 6.0).collect();
            let b: Vec<f32> = (0..k * n).map(|v| ((v % 7) as f32) * 0.5 - 1.5).collect();
            let mut reference = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a[i * k + p] * b[p * n + j];
                    }
                    reference[i * n + j] = acc;
                }
            }
            let mut got = vec![0.0f32; m * n];
            mm_nn(&a, &b, m, k, n, &mut got);
            for (g, r) in got.iter().zip(&reference) {
                assert!((g - r).abs() <= 1e-3 * r.abs().max(1.0), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn kernels_bit_identical_across_thread_counts() {
        let (m, k, n) = (37, 65, 29);
        let a: Vec<f32> = (0..m * k).map(|v| (v as f32).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v as f32).cos()).collect();
        let reference = with_threads(1, || {
            let mut o = vec![0.0f32; m * n];
            mm_nn(&a, &b, m, k, n, &mut o);
            o
        });
        for t in [2usize, 3, 8] {
            let got = with_threads(t, || {
                let mut o = vec![0.0f32; m * n];
                mm_nn(&a, &b, m, k, n, &mut o);
                o
            });
            assert_eq!(got, reference, "threads={t}");
        }
    }

    fn tiers() -> Vec<Tier> {
        let mut t = vec![Tier::Scalar];
        if simd::avx2_available() {
            t.push(Tier::Avx2Fma);
        }
        t
    }

    const ACTS: [Act; 4] = [Act::Identity, Act::Relu, Act::Gelu, Act::Silu];

    /// Deterministic values in about `[-1.5, 1.5)`.
    fn wave(len: usize, phase: f32) -> Vec<f32> {
        (0..len).map(|i| 1.5 * (i as f32 * 0.731 + phase).sin()).collect()
    }

    /// Bit equality, except that an exactly-zero element may differ in
    /// sign and NaNs may differ in payload.
    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let zeros = *g == 0.0 && *w == 0.0;
            let same = g.to_bits() == w.to_bits() || zeros || (g.is_nan() && w.is_nan());
            assert!(same, "{what}: element {i}: {g:e} vs {w:e}");
        }
    }

    /// Output and the gradients of `x`, `w` and (when given) `b` of
    /// `Σ f(x, w, b) ⊙ r` for a fixed `r`.
    fn forward_backward(
        x: &[f32],
        xd: &[usize],
        w: &[f32],
        n: usize,
        bias: bool,
        f: impl Fn(&Tensor, &Tensor, Option<&Tensor>) -> Tensor,
    ) -> Vec<Vec<f32>> {
        let k = xd[xd.len() - 1];
        let (xt, wt) = (param(x, xd), param(w, &[k, n]));
        let bt = bias.then(|| param(&wave(n, 0.3), &[n]));
        let y = f(&xt, &wt, bt.as_ref());
        let r = Tensor::from_vec(wave(y.numel(), 2.1), y.dims()).unwrap();
        backward(&y.mul(&r).sum_all());
        let mut out = vec![y.to_vec(), xt.grad().unwrap(), wt.grad().unwrap()];
        out.extend(bt.map(|b| b.grad().unwrap()));
        out
    }

    /// The composition the fused op replaces: matmul, broadcast bias add,
    /// then the standalone activation op.
    fn composed(x: &Tensor, w: &Tensor, b: Option<&Tensor>, act: Act) -> Tensor {
        let mut y = x.linear(w, None, Act::Identity);
        if let Some(b) = b {
            y = y.add(b);
        }
        match act {
            Act::Identity => y,
            Act::Relu => y.relu(),
            Act::Gelu => y.gelu(),
            Act::Silu => y.silu(),
        }
    }

    #[test]
    fn fused_epilogue_matches_composition_bits_per_tier() {
        // Many spans: keep them out of the obs tests' snapshots.
        crate::obs::tests::with_exclusive_obs(|| {
            // m % 4 != 0 (a remainder row tile); n spans the narrow (1, 8),
            // right-edge (13, 40) and wide (16, 32, 40) panels; k = 300 splits
            // the scalar tier's KC panel; a 3-D input folds its batch.
            let mut cases = Vec::new();
            for n in [1usize, 8, 13, 16, 32, 40] {
                for k in [5usize, 300] {
                    cases.push((vec![7usize, k], n));
                }
            }
            cases.push((vec![2, 5, 9], 16));
            for tier in tiers() {
                for (xd, n) in &cases {
                    let (xd, n) = (xd.as_slice(), *n);
                    let k = xd[xd.len() - 1];
                    let x = wave(xd.iter().product(), 0.0);
                    let w: Vec<f32> = wave(k * n, 1.0).iter().map(|v| v / (k as f32).sqrt()).collect();
                    for act in ACTS {
                        for bias in [false, true] {
                            let what = format!("{} {xd:?}x{n} {act:?} bias={bias}", tier.name());
                            let want = with_tier(tier, || {
                                forward_backward(&x, xd, &w, n, bias, |x, w, b| composed(x, w, b, act))
                            });
                            let got = with_tier(tier, || {
                                forward_backward(&x, xd, &w, n, bias, |x, w, b| x.linear(w, b, act))
                            });
                            // Forward bits exactly, zero signs included.
                            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&got[0]), bits(&want[0]), "{what}: forward");
                            for (i, (g, wv)) in got.iter().zip(&want).enumerate().skip(1) {
                                assert_bits(g, wv, &format!("{what}: gradient {i}"));
                            }
                            // Forward-only: the same bits without a tape.
                            let fwd = with_tier(tier, || {
                                crate::forward_only(|| {
                                    let (xt, wt) = (param(&x, xd), param(&w, &[k, n]));
                                    let bt = bias.then(|| param(&wave(n, 0.3), &[n]));
                                    xt.linear(&wt, bt.as_ref(), act).to_vec()
                                })
                            });
                            assert_eq!(bits(&fwd), bits(&want[0]), "{what}: forward-only");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn fused_relu_maps_nan_to_zero_like_relu() {
        // `f32::max(NaN, 0.0)` is 0.0; the vector max must agree.
        for tier in tiers() {
            let x = [f32::NAN, 1.0, 2.0, -3.0];
            let w = [1.0, -1.0, 0.5, 2.0];
            let (xt, wt) = (param(&x, &[2, 2]), param(&w, &[2, 2]));
            let got = with_tier(tier, || xt.linear(&wt, None, Act::Relu));
            let want = with_tier(tier, || xt.matmul(&wt).relu());
            assert_eq!(got.to_vec(), want.to_vec(), "{}", tier.name());
            assert_eq!(got.to_vec()[..2], [0.0, 0.0]);
        }
    }

    #[test]
    fn fused_op_bit_identical_across_thread_counts_per_tier() {
        // Many spans: keep them out of the obs tests' snapshots.
        crate::obs::tests::with_exclusive_obs(|| {
            // 410 rows at k = 64, n = 40 shard into three row runs (row_grain
            // is 103 rows), so t2 and t4 split the output and the saved
            // pre-activation at the same boundaries.
            let (m, k, n) = (410usize, 64usize, 40usize);
            let x = wave(m * k, 0.2);
            let w: Vec<f32> = wave(k * n, 0.9).iter().map(|v| v / 8.0).collect();
            for tier in tiers() {
                for act in ACTS {
                    let fused = |x: &Tensor, w: &Tensor, b: Option<&Tensor>| x.linear(w, b, act);
                    let run = |t: usize| {
                        let pass = || forward_backward(&x, &[m, k], &w, n, true, fused);
                        with_threads(t, || with_tier(tier, pass))
                    };
                    let reference = run(1);
                    for t in [2usize, 4] {
                        assert_eq!(run(t), reference, "{} {act:?} t{t}", tier.name());
                    }
                }
            }
        });
    }

    #[test]
    fn packed_panels_live_with_their_parameter() {
        if !simd::avx2_available() {
            return;
        }
        with_tier(Tier::Avx2Fma, || {
            // More weights than the model has (36 with two blocks): a
            // second identical forward packs none of them.
            let x = Tensor::from_vec(wave(6 * 8, 0.0), &[6, 8]).unwrap();
            let weights: Vec<Tensor> =
                (0..40).map(|i| param(&wave(64, i as f32), &[8, 8])).collect();
            let slot =
                |w: &Tensor| Rc::clone(&w.node().packed.borrow().as_ref().expect("packed").1);
            let forward = || {
                for w in &weights {
                    let _ = crate::forward_only(|| x.matmul(w).to_vec());
                }
            };
            forward();
            let first: Vec<Rc<Vec<f32>>> = weights.iter().map(slot).collect();
            forward();
            for (w, p) in weights.iter().zip(&first) {
                assert!(Rc::ptr_eq(&slot(w), p), "weight repacked on an identical forward");
            }
            // An update bumps the generation: the next call repacks from
            // the new value.
            weights[3].set_data(&wave(64, 99.0));
            forward();
            assert!(!Rc::ptr_eq(&slot(&weights[3]), &first[3]));
            assert_eq!(*slot(&weights[3]), simd::pack_b_panels(&wave(64, 99.0), 8, 8));
        });
    }

    #[test]
    fn linear_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            // Leftover rows after the 8- and 6-row tiles, several row
            // blocks, one- and two-vector panels, a masked right edge, a
            // second panel, and a folded 3-D batch.
            for (xd, n) in [(vec![13, 16], 8), (vec![13, 16], 20), (vec![912, 16], 32), (vec![2, 7, 9], 16)] {
                let k = xd[xd.len() - 1];
                for (act, bias) in [(Act::Identity, false), (Act::Gelu, true)] {
                    assert_writes_every_element(|| {
                        let (x, w) = (leaf(&xd, 0.2), leaf(&[k, n], 0.8).into_param());
                        x.linear(&w, bias.then(|| leaf(&[n], 1.4)).as_ref(), act)
                    });
                }
            }
        });
    }
}
