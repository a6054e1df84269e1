//! Matrix multiplication on register-tiled kernels over packed panels.
//!
//! `NN` and `NT` run one register-tiled `C += A @ B` kernel
//! (`simd::mm_rows`) over `B` packed into 16-column panels; `NT` packs
//! its transposed operand straight into those panels, in one pass.
//! `TN` (the weight gradient) reads both operands in place through the
//! same register tile at other strides (`simd::MmTn`). Every tier
//! runs these kernels, each on its own lane type, so they give the same
//! bits. There is **no** zero-skip branch, so IEEE special values
//! propagate exactly (`0.0 * NaN = NaN`).
//!
//! Large calls are split across the worker pool by output rows. Every
//! output element is always computed by exactly one worker with the same
//! loop order, so results are bit-identical at any thread count.

use std::rc::Rc;

use super::Act;
use crate::autodiff::is_grad_enabled;
use crate::lanes;
use crate::pool;
use crate::shape::Shape;
use crate::simd::{self, Tier, ACCUMULATE, STORE};
use crate::tensor::Tensor;

/// Minimum output rows handed to one worker.
const MIN_ROWS: usize = 4;
/// Minimum FLOPs handed to one worker before splitting is worthwhile
/// (spawning a scoped thread costs tens of microseconds).
const MIN_PAR_FLOPS: usize = 1 << 19;

/// Row-grain (in units of one output row) that keeps each worker above
/// [`MIN_PAR_FLOPS`].
fn row_grain(k: usize, n: usize) -> usize {
    MIN_PAR_FLOPS
        .div_ceil((2 * k * n).max(1))
        .max(MIN_ROWS)
}

/// `out[m,n] += a[m,k] @ b[k,n]`, split across the worker pool by output
/// rows. IEEE-faithful: every `a` element multiplies every `b` element it
/// mathematically touches, so NaN/inf in either operand propagate.
///
/// Runs the register-tiled kernel over a packed-B panel layout on the
/// lanes of [`simd::tier()`]. Row sharding is the same on every tier, and
/// each element's arithmetic is too, so the result is bit-identical at
/// any thread count and on every tier.
pub fn mm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    mm_nn_dispatch::<ACCUMULATE>(a, Rhs::Rows(b), m, k, n, out, PLAIN, None);
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

/// The right operand `B` (`k × n`) of one kernel call.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// Row-major, packed by the call.
    Rows(&'a [f32]),
    /// Its transpose, row-major `n × k`, packed by the call.
    Transposed(&'a [f32]),
    /// Already packed (`pack_b_panels` layout), from the parameter's panel
    /// slot.
    Panels(&'a [f32]),
}

/// [`mm_nn`] with an epilogue, in the output mode `ACC`
/// ([`simd::ACCUMULATE`] or [`simd::STORE`]); `pre`, when given,
/// receives each element's pre-activation in the same pass. In store mode
/// the old contents of `out` are never read, and the result has the bits
/// an accumulate into a zeroed `out` gives: the kernel adds `+0.0` where
/// it would add the old value.
///
/// The kernel applies the epilogue where it stores each output: `+
/// bias[j]`, then the activation's lane function. An element gets the
/// IEEE operations of a separate matmul, broadcast add and activation op.
#[allow(clippy::too_many_arguments)]
fn mm_nn_dispatch<const ACC: bool>(
    a: &[f32],
    b: Rhs<'_>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    ep: Epilogue<'_>,
    pre: Option<&mut [f32]>,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    // Resolve the tier once, on the calling thread (scoped overrides do
    // not reach pool workers), and branch before fanning out.
    let tier = simd::tier();
    // The span includes the pack and the epilogue.
    let _kernel = kernel_span(m, k, n, tier);
    let packed;
    let bp: &[f32] = match b {
        Rhs::Panels(p) => p,
        Rhs::Rows(b) => {
            packed = simd::pack_b_panels(b, k, n);
            &packed
        }
        Rhs::Transposed(bt) => {
            packed = simd::pack_bt_panels(bt, k, n);
            &packed
        }
    };
    pool::parallel_slices_mut_with(out, pre, n, row_grain(k, n), |r0, rows, pre| {
        let mrows = rows.len() / n;
        let a = &a[r0 * k..(r0 + mrows) * k];
        simd::mm_rows::<ACC>(tier, a, bp, mrows, k, n, rows, ep.bias, ep.act, pre);
    });
}

/// The one `nn.matmul` span of a kernel call, with its `calls`, `simd`
/// and `flops` counters: `mm_nn` and `mm_nt` reach it through
/// `mm_nn_dispatch`, `mm_tn` directly, so each call counts once.
fn kernel_span(m: usize, k: usize, n: usize, tier: Tier) -> crate::obs::Span {
    let span = crate::obs::span("nn.matmul");
    if crate::obs::enabled() {
        crate::obs::counter("nn.matmul.calls", 1);
        crate::obs::histogram("nn.matmul.flops", 2.0 * m as f64 * k as f64 * n as f64);
        if tier == Tier::Avx2Fma {
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

/// `out[m,n] += a[m,k] @ b[n,k]^T`: packs `b`'s transpose into panels in
/// one pass, then runs the `NN` kernel.
pub fn mm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    mm_nt_mode::<ACCUMULATE>(a, b, m, k, n, out);
}

/// [`mm_nt`] in the output mode `ACC` (see `mm_nn_dispatch`).
fn mm_nt_mode<const ACC: bool>(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(b.len(), n * k);
    mm_nn_dispatch::<ACC>(a, Rhs::Transposed(b), m, k, n, out, PLAIN, None);
}

/// `out[k,n] += a[m,k]^T @ b[m,n]`, split across the worker pool by output
/// rows as [`mm_nn`] splits a `[k, m] @ [m, n]` product. The kernel reads
/// `a` and `b` in place: each output element is one FMA chain from zero
/// over `i` ascending, added once into `out` (`simd::MmTn`) — bit
/// for bit what `mm_nn` computes from `a`'s transpose.
pub fn mm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), k * n);
    let tier = simd::tier();
    let _kernel = kernel_span(k, m, n, tier);
    pool::parallel_slices_mut(out, n, row_grain(m, n), |p0, rows| {
        lanes::run(tier, simd::MmTn { a, b, m, k, n, p0, out: rows })
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
        let tier = simd::tier();
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
            let bp = w.requires_grad().then(|| cached_panels(w, db, k, n));
            let rhs = bp.as_deref().map_or(Rhs::Rows(db), |p| Rhs::Panels(p));
            mm_nn_dispatch::<STORE>(da, rhs, rows, k, n, &mut out, ep, pre.as_deref_mut());
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
                    act.grad(tier, pre.as_deref().unwrap_or_default(), y, gout, &mut g);
                    g
                });
                let dz: &[f32] = dz_owned.as_deref().unwrap_or(gout);
                if pa.requires_grad() {
                    // dX = dZ @ Wᵀ over the folded rows: W packed into
                    // Wᵀ's panels once for the whole call.
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
        // The old `TN` path transposed `a` and ran `mm_nn` on it; the
        // in-place kernel must give its bits on each tier at every thread
        // count. m = 912 (one training sample's rows) splits the
        // output rows into several shards at k ≥ 16; k and n cover the
        // 4-row and 16-column tiles' remainders and the masked right edge.
        crate::obs::tests::with_exclusive_obs(|| {
            for tier in tiers() {
                for m in [1usize, 5, 912] {
                    for k in [1usize, 2, 3, 16, 17] {
                        for n in [1usize, 2, 8, 9, 16, 17, 32] {
                            let a = wave(m * k, 0.4);
                            let b = wave(m * n, 1.7);
                            let at: Vec<f32> = (0..k * m).map(|e| a[e % m * k + e / m]).collect();
                            let want = with_tier(tier, || {
                                let mut o = vec![0.0f32; k * n];
                                mm_nn(&at, &b, k, m, n, &mut o);
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
            // right-edge (13, 40) and wide (16, 32, 40) panels; k = 300 is a
            // long reduction; a 3-D input folds its batch.
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
