//! Matrix multiplication on cache-blocked, register-tiled kernels.
//!
//! All three kernel shapes (`NN`, `NT`, `TN`) reduce to one blocked
//! `C += A @ B` kernel: the transposed operand is *packed* — transposed
//! into a row-major panel — once per call, so the inner loops always
//! stream both operands with unit stride. The inner kernel processes
//! [`MR`] rows of `A` against a [`KC`]-deep panel of `B`, amortising each
//! load of a `B` row across `MR` output rows; there is **no** zero-skip
//! branch, so IEEE special values propagate exactly (`0.0 * NaN = NaN`).
//!
//! Large calls are split across the worker pool by output rows. Every
//! output element is always computed by exactly one worker with the same
//! loop order, so results are bit-identical at any thread count.

use std::cell::RefCell;
use std::rc::Rc;

use crate::pool;
use crate::shape::Shape;
use crate::simd::{self, Tier};
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

/// Packs `src` (`rows × cols`, row-major) into its transpose
/// (`cols × rows`, row-major), tiled for cache-friendly strides.
pub fn pack_transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
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
    mm_nn_dispatch(a, b, None, m, k, n, out);
}

/// [`mm_nn`] with an optionally prepacked B (`pack_b_panels` layout) from
/// the packed-panel cache; `b` must still be the raw matrix (the scalar
/// tier and the debug asserts use it).
fn mm_nn_dispatch(
    a: &[f32],
    b: &[f32],
    prepacked: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    // mm_nt / mm_tn delegate here after packing, so this one dispatch
    // point covers every kernel invocation exactly once.
    let _kernel = crate::obs::span("nn.matmul");
    if crate::obs::enabled() {
        crate::obs::counter("nn.matmul.calls", 1);
        crate::obs::histogram("nn.matmul.flops", 2.0 * m as f64 * k as f64 * n as f64);
    }
    // Resolve the tier once, on the calling thread (scoped overrides do
    // not reach pool workers), and branch before fanning out.
    if simd::tier() == Tier::Avx2Fma {
        if crate::obs::enabled() {
            crate::obs::counter("nn.matmul.simd", 1);
        }
        let packed_local;
        let bp: &[f32] = match prepacked {
            Some(p) => p,
            None => {
                packed_local = simd::pack_b_panels(b, k, n);
                &packed_local
            }
        };
        pool::parallel_slices_mut(out, n, row_grain(k, n), |r0, rows| {
            let mrows = rows.len() / n;
            // Safety: tier() == Avx2Fma implies avx2+fma were detected.
            unsafe { simd::mm_rows_avx2(&a[r0 * k..(r0 + mrows) * k], bp, mrows, k, n, rows) };
        });
    } else {
        pool::parallel_slices_mut(out, n, row_grain(k, n), |r0, rows| {
            let mrows = rows.len() / n;
            mm_nn_block(&a[r0 * k..(r0 + mrows) * k], b, mrows, k, n, rows);
        });
    }
}

/// Entries in the thread-local packed-panel cache.
struct PackEntry {
    id: u64,
    generation: u64,
    k: usize,
    n: usize,
    panels: Rc<Vec<f32>>,
}

/// Packed panels are cached per *parameter*, keyed by `(id, generation)`:
/// the generation counter bumps on every optimizer step, so a stale pack
/// can never be served after an update. Thread-local because tensor ids
/// are thread-local (each inference worker rebuilds its own model).
const PACK_CACHE_CAP: usize = 16;

thread_local! {
    static PACK_CACHE: RefCell<Vec<PackEntry>> = const { RefCell::new(Vec::new()) };
}

/// The packed panels for parameter `t`, packing at most once per
/// `(id, generation, k, n)` — i.e. once per layer until the optimizer
/// mutates the weights.
fn cached_panels(t: &Tensor, b: &[f32], k: usize, n: usize) -> Rc<Vec<f32>> {
    let (id, generation) = (t.id(), t.generation());
    PACK_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if let Some(pos) = cache
            .iter()
            .position(|e| e.id == id && e.k == k && e.n == n)
        {
            if cache[pos].generation == generation {
                let e = cache.remove(pos);
                let panels = Rc::clone(&e.panels);
                cache.push(e); // refresh LRU position
                return panels;
            }
            // Parameter mutated since packing: invalidate.
            cache.remove(pos);
        }
        let panels = Rc::new(simd::pack_b_panels(b, k, n));
        if cache.len() >= PACK_CACHE_CAP {
            cache.remove(0);
        }
        cache.push(PackEntry {
            id,
            generation,
            k,
            n,
            panels: Rc::clone(&panels),
        });
        panels
    })
}

/// `out[m,n] += a[m,k] @ b[n,k]^T`: packs `b`'s transpose once, then runs
/// the blocked `NN` kernel.
pub fn mm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    let bt = pack_transpose(b, n, k); // [k, n]
    mm_nn(a, &bt, m, k, n, out);
}

/// `out[k,n] += a[m,k]^T @ b[m,n]`: packs `a`'s transpose once, then runs
/// the blocked `NN` kernel.
pub fn mm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    let at = pack_transpose(a, m, k); // [k, m]
    mm_nn(&at, b, k, m, n, out);
}

impl Tensor {
    /// Matrix multiplication against a 2-D right operand.
    ///
    /// Supported shapes (leading `B..` may be any number of batch dims):
    /// * `[m, k] @ [k, n] -> [m, n]`
    /// * `[B.., m, k] @ [k, n] -> [B.., m, n]` (shared right operand)
    ///
    /// The batch folds into the row dimension: one row-parallel GEMM.
    /// Attention, which multiplies per head, runs the fused
    /// [`Tensor::sdpa`] instead.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (ad, bd) = (self.dims(), other.dims());
        assert!(
            ad.len() >= 2 && bd.len() == 2,
            "matmul requires a >=2-D lhs and a 2-D rhs, got {} and {}",
            self.shape(),
            other.shape()
        );
        let k = ad[ad.len() - 1];
        let (k2, n) = (bd[0], bd[1]);
        assert_eq!(
            k, k2,
            "matmul inner dimension mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let rows: usize = ad[..ad.len() - 1].iter().product();

        let mut out_dims: Vec<usize> = ad[..ad.len() - 1].to_vec();
        out_dims.push(n);
        let out_shape = Shape::new(&out_dims);
        let mut out = crate::arena::zeroed(out_shape.numel());
        {
            let da_ref = self.data();
            let db_ref = other.data();
            // Plain slices: the RefCell guards are not Sync, but the
            // borrowed data is, and the guards outlive the scoped workers.
            let (da, db): (&[f32], &[f32]) = (&da_ref, &db_ref);
            // A parameter RHS (layer weight) hits the packed-panel cache —
            // packed once per optimizer step, not per call.
            if simd::tier() == Tier::Avx2Fma && other.requires_grad() {
                let bp = cached_panels(other, db, k, n);
                mm_nn_dispatch(da, db, Some(&bp), rows, k, n, &mut out);
            } else {
                mm_nn(da, db, rows, k, n, &mut out);
            }
        }

        Tensor::from_op(
            out,
            out_shape,
            vec![self.clone(), other.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.matmul.bwd");
                let (pa, pb) = (&parents[0], &parents[1]);
                let mut ga = crate::arena::zeroed(pa.numel());
                let mut gb = crate::arena::zeroed(pb.numel());
                {
                    let da_ref = pa.data();
                    let db_ref = pb.data();
                    // dA = dC @ B^T over the folded rows: pack the shared
                    // panel B^T once for the whole call.
                    mm_nt(gout, &db_ref, rows, n, k, &mut ga);
                    // dB = A^T @ dC accumulated over every batch; the fold
                    // makes it one [k, rows] @ [rows, n].
                    mm_tn(&da_ref, gout, rows, k, n, &mut gb);
                }
                pa.accumulate_grad_owned(ga);
                pb.accumulate_grad_owned(gb);
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward;
    use crate::pool::with_threads;

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
}
