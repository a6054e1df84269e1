//! Softmax and fused layer normalization.
//!
//! Layer norm, forward and backward, is written once over the lane type
//! (`crate::lanes`), so every dispatch tier runs the same arithmetic and
//! gives the same bits. The eight lanes hold eight rows: a group of rows
//! is gathered into `[d][8]` scratch by 4×4 vector transposes, every
//! per-row chain runs lane-wise over it with no horizontal op, and the
//! live rows are scattered back. The last group of fewer than eight rows
//! repeats its last row in the other lanes, which are computed and never
//! stored.
//!
//! Each lane runs one row's scalar chain: the mean and the variance sum
//! elements `0..d` in ascending order from −0.0 (as `iter().sum()` does),
//! mul then add, no fma; `istd = 1/sqrt(var + eps)`; the output is
//! `((x − mean)·istd)·γ + β`. The backward recomputes `x̂` with the same
//! chain, sums `mean_dxhat` and `mean_dxhat_xhat` from +0.0 and divides
//! them by `d`, and writes `istd·((dx̂ − mean_dxhat) − x̂·mean_dxhat_xhat)`;
//! dγ and dβ add one row at a time, rows ascending.

use crate::lanes::{self, Kernel, Lane};
use crate::tensor::Tensor;

/// The offsets of the rows of a group of eight from row `r0`, `d` wide,
/// one per lane, with `live` rows in the group: lanes from `live` on
/// repeat the last live row.
#[inline(always)]
fn lane_rows(r0: usize, live: usize, d: usize) -> [usize; 8] {
    std::array::from_fn(|b| (r0 + b.min(live - 1)) * d)
}

/// Each lane's mean and `1/std` over the `d` vectors at `t`.
///
/// # Safety
///
/// `L`'s operations are supported and `t` holds `8·d` floats.
#[inline(always)]
unsafe fn lane_stats<L: Lane>(t: *const f32, d: usize, eps: f32) -> (L, L) {
    let vd = L::splat(d as f32);
    let mut s = L::splat(-0.0);
    for k in 0..d {
        s = s.add(L::load(t.add(8 * k)));
    }
    let mean = s.div(vd);
    let mut v = L::splat(-0.0);
    for k in 0..d {
        let e = L::load(t.add(8 * k)).sub(mean);
        v = v.add(e.mul(e));
    }
    let istd = L::splat(1.0).div(v.div(vd).add(L::splat(eps)).sqrt());
    (mean, istd)
}

/// Layer norm of the rows of `x`, `d` wide, into `out`.
struct LayerNormRows<'a> {
    x: &'a [f32],
    g: &'a [f32],
    b: &'a [f32],
    out: &'a mut [f32],
    d: usize,
    eps: f32,
}

impl LayerNormRows<'_> {
    /// Every row. A nonzero `D` is the width as a compile-time constant,
    /// so the passes over a group unroll into straight-line register code;
    /// 0 reads `d`.
    #[inline(always)]
    unsafe fn rows<L: Lane, const D: usize>(mut self) {
        let d = if D > 0 { D } else { self.d };
        let (x, g, b) = (self.x, self.g, self.b);
        assert!(
            g.len() == d && b.len() == d && self.out.len() == x.len() && x.len().is_multiple_of(d),
            "layer norm: lengths do not match width {d}"
        );
        let mut t = crate::arena::overwrite(8 * d);
        // Whole groups pass `live` as a constant: their row offsets and
        // stores need no per-lane test.
        let rows = x.len() / d;
        let full = rows - rows % 8;
        for r0 in (0..full).step_by(8) {
            self.group::<L, D>(&mut t, lane_rows(r0, 8, d), 8);
        }
        if full < rows {
            self.group::<L, D>(&mut t, lane_rows(full, rows - full, d), rows - full);
        }
        crate::arena::recycle(t);
    }

    /// The rows at `offs`, the first `live` of them stored, through the
    /// scratch `t` of `8·d` floats; `D` as in `rows`.
    #[inline(always)]
    unsafe fn group<L: Lane, const D: usize>(
        &mut self,
        t: &mut [f32],
        offs: [usize; 8],
        live: usize,
    ) {
        let (d, eps) = (if D > 0 { D } else { self.d }, self.eps);
        lanes::gather_row::<L>(&offs.map(|o| self.x.as_ptr().add(o)), 0, d, t);
        let tp = t.as_mut_ptr();
        let (mean, istd) = lane_stats::<L>(tp, d, eps);
        for k in 0..d {
            let h = L::load(tp.add(8 * k)).sub(mean).mul(istd);
            let (g, b) = (L::splat(self.g[k]), L::splat(self.b[k]));
            h.mul(g).add(b).store(tp.add(8 * k));
        }
        lanes::scatter_row::<L>(t, &offs.map(|o| self.out.as_mut_ptr().add(o)), live, 0, d);
    }
}

impl Kernel for LayerNormRows<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lane>(self) {
        // Width 8, the serving config's hidden size, has an instance of
        // its own: read at run time, it ran twice as slow.
        if self.d == 8 {
            self.rows::<L, 8>()
        } else {
            self.rows::<L, 0>()
        }
    }
}

/// The layer-norm backward of the rows of `x`, `d` wide: `gx` gets each
/// row's input gradient; `gg` and `gb` (zeroed) get every row's `go ⊙ x̂`
/// and `go` added.
struct LayerNormGrad<'a> {
    x: &'a [f32],
    gamma: &'a [f32],
    gout: &'a [f32],
    gx: &'a mut [f32],
    gg: &'a mut [f32],
    gb: &'a mut [f32],
    d: usize,
    eps: f32,
}

impl LayerNormGrad<'_> {
    /// The rows at `offs`, the first `live` of them stored, through the
    /// scratch `ws` of `24·d` floats: x, then x̂, in lanes; go, then dx̂, in
    /// lanes; x̂ in rows.
    #[inline(always)]
    unsafe fn group<L: Lane>(&mut self, ws: &mut [f32], offs: [usize; 8], live: usize) {
        let (d, eps) = (self.d, self.eps);
        let (xt, rest) = ws.split_at_mut(8 * d);
        let (gt, xr) = rest.split_at_mut(8 * d);
        lanes::gather_row::<L>(&offs.map(|o| self.x.as_ptr().add(o)), 0, d, xt);
        lanes::gather_row::<L>(&offs.map(|o| self.gout.as_ptr().add(o)), 0, d, gt);
        let (xp, gp) = (xt.as_mut_ptr(), gt.as_mut_ptr());
        let (mean, istd) = lane_stats::<L>(xp, d, eps);
        let (mut mdx, mut mdxx) = (L::zero(), L::zero());
        for k in 0..d {
            let h = L::load(xp.add(8 * k)).sub(mean).mul(istd);
            let dxh = L::load(gp.add(8 * k)).mul(L::splat(self.gamma[k]));
            mdx = mdx.add(dxh);
            mdxx = mdxx.add(dxh.mul(h));
            h.store(xp.add(8 * k));
            dxh.store(gp.add(8 * k));
        }
        // Parameter gradients: x̂ back in rows, rows ascending.
        let rows: [*mut f32; 8] = std::array::from_fn(|b| xr.as_mut_ptr().wrapping_add(b * d));
        lanes::scatter_row::<L>(xt, &rows, live, 0, d);
        for c in (0..d).step_by(8) {
            let w = 8.min(d - c);
            let (pg, pb) = (self.gg.as_mut_ptr().add(c), self.gb.as_mut_ptr().add(c));
            let (mut vg, mut vb) = (L::load_first(pg, w), L::load_first(pb, w));
            for (i, &o) in offs.iter().enumerate().take(live) {
                let go = L::load_first(self.gout.as_ptr().add(o + c), w);
                vg = vg.add(go.mul(L::load_first(xr.as_ptr().add(i * d + c), w)));
                vb = vb.add(go);
            }
            vg.store_first(pg, w);
            vb.store_first(pb, w);
        }
        let vd = L::splat(d as f32);
        let (mdx, mdxx) = (mdx.div(vd), mdxx.div(vd));
        for k in 0..d {
            let (h, dxh) = (L::load(xp.add(8 * k)), L::load(gp.add(8 * k)));
            istd.mul(dxh.sub(mdx).sub(h.mul(mdxx))).store(xp.add(8 * k));
        }
        lanes::scatter_row::<L>(xt, &offs.map(|o| self.gx.as_mut_ptr().add(o)), live, 0, d);
    }
}

impl Kernel for LayerNormGrad<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lane>(mut self) {
        let (x, d) = (self.x, self.d);
        assert!(
            [self.gamma.len(), self.gg.len(), self.gb.len()] == [d; 3]
                && self.gout.len() == x.len()
                && self.gx.len() == x.len()
                && x.len().is_multiple_of(d),
            "layer norm backward: lengths do not match width {d}"
        );
        let mut ws = crate::arena::overwrite(24 * d);
        let rows = x.len() / d;
        let full = rows - rows % 8;
        for r0 in (0..full).step_by(8) {
            self.group::<L>(&mut ws, lane_rows(r0, 8, d), 8);
        }
        if full < rows {
            self.group::<L>(&mut ws, lane_rows(full, rows - full, d), rows - full);
        }
        crate::arena::recycle(ws);
    }
}

impl Tensor {
    /// Numerically stable softmax over the last dimension.
    pub fn softmax_last(&self) -> Tensor {
        let _sp = crate::obs::span("nn.softmax");
        let dims = self.dims();
        assert!(!dims.is_empty(), "softmax requires >=1-D");
        let d = dims[dims.len() - 1];
        fn softmax_rows(x: &[f32], out: &mut [f32], d: usize, tier: crate::simd::Tier) {
            for (row, orow) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
                let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o = v - max;
                }
                // The lane exp (elementwise, position-independent), then
                // an ascending sum.
                crate::lanes::run(tier, crate::lanes::Map(crate::lanes::Fun::Exp, orow));
                let mut sum = 0.0f32;
                for &e in orow.iter() {
                    sum += e;
                }
                let inv = 1.0 / sum;
                for o in orow.iter_mut() {
                    *o *= inv;
                }
            }
        }
        let mut out = crate::arena::overwrite(self.numel());
        softmax_rows(&self.data(), &mut out, d, crate::simd::tier());
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            // dx = y ⊙ (g − ⟨y, g⟩) per row, read from the node's own
            // output: no recompute, no scratch buffer.
            move || {
                Box::new(move |gout, y, parents| {
                    let _sp = crate::obs::span("nn.softmax.bwd");
                    let mut g = crate::arena::overwrite(y.len());
                    let rows = g
                        .chunks_exact_mut(d)
                        .zip(y.chunks_exact(d))
                        .zip(gout.chunks_exact(d));
                    for ((gr, yr), go) in rows {
                        let dot: f32 = yr.iter().zip(go).map(|(&yv, &gv)| yv * gv).sum();
                        for ((gi, &yv), &gv) in gr.iter_mut().zip(yr).zip(go) {
                            *gi = yv * (gv - dot);
                        }
                    }
                    parents[0].accumulate_grad_owned(g);
                })
            },
        )
    }

    /// Fused layer normalization over the last dimension.
    ///
    /// `gamma` and `beta` must be 1-D of the last-dim size.
    pub fn layer_norm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let _sp = crate::obs::span("nn.layer_norm");
        let dims = self.dims();
        let d = dims[dims.len() - 1];
        assert_eq!(gamma.dims(), &[d], "layer_norm gamma shape");
        assert_eq!(beta.dims(), &[d], "layer_norm beta shape");
        // The backward follows the forward's tier.
        let tier = crate::simd::tier();
        let mut out = crate::arena::overwrite(self.numel());
        {
            let (x, g, b) = (self.data(), gamma.data(), beta.data());
            let rows = LayerNormRows {
                x: &x,
                g: &g,
                b: &b,
                out: &mut out,
                d,
                eps,
            };
            lanes::run(tier, rows);
        }
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone(), gamma.clone(), beta.clone()],
            // Recomputes the per-row statistics and normalized values from
            // the parent input (identical arithmetic → bit-identical
            // gradients) instead of saving them eagerly in the forward.
            move || {
                Box::new(move |gout, _, parents| {
                    let _sp = crate::obs::span("nn.layer_norm.bwd");
                    let (px, pg, pb) = (&parents[0], &parents[1], &parents[2]);
                    let mut gx = crate::arena::overwrite(px.numel());
                    let mut gg = crate::arena::zeroed(d);
                    let mut gb = crate::arena::zeroed(d);
                    {
                        let (x, gamma) = (px.data(), pg.data());
                        let grad = LayerNormGrad {
                            x: &x,
                            gamma: &gamma,
                            gout,
                            gx: &mut gx,
                            gg: &mut gg,
                            gb: &mut gb,
                            d,
                            eps,
                        };
                        lanes::run(tier, grad);
                    }
                    px.accumulate_grad_owned(gx);
                    pg.accumulate_grad_owned(gg);
                    pb.accumulate_grad_owned(gb);
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::backward;
    use crate::Tensor;

    fn param(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::param_from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
            let y = x.softmax_last();
            let d = y.to_vec();
            let s0: f32 = d[..3].iter().sum();
            let s1: f32 = d[3..].iter().sum();
            assert!((s0 - 1.0).abs() < 1e-6);
            assert!((s1 - 1.0).abs() < 1e-6);
            assert!(d[2] > d[1] && d[1] > d[0]);
        });
    }

    #[test]
    fn softmax_invariant_to_shift() {
        crate::obs::tests::with_exclusive_obs(|| {
            let a = param(&[1.0, 2.0, 3.0], &[3]).softmax_last().to_vec();
            let b = param(&[101.0, 102.0, 103.0], &[3]).softmax_last().to_vec();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-6);
            }
        });
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        crate::obs::tests::with_exclusive_obs(|| {
            // Because softmax output sums to 1, gradient of sum is 0.
            let x = param(&[0.3, -0.7, 1.2], &[3]);
            let y = x.softmax_last();
            backward(&y.sum_all());
            let g = x.grad().unwrap();
            assert!(g.iter().all(|v| v.abs() < 1e-6), "{g:?}");
        });
    }

    #[test]
    fn softmax_grad_numeric() {
        crate::obs::tests::with_exclusive_obs(|| {
            let v = [0.5f32, -1.0, 2.0];
            let x = param(&v, &[3]);
            // Loss = sum(softmax * w) with fixed weights.
            let w = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
            let loss = x.softmax_last().mul(&w).sum_all();
            backward(&loss);
            let g = x.grad().unwrap();
            let f = |vs: &[f32]| {
                Tensor::from_vec(vs.to_vec(), &[3])
                    .unwrap()
                    .softmax_last()
                    .mul(&w)
                    .sum_all()
                    .item()
            };
            let eps = 1e-3;
            for i in 0..3 {
                let mut vp = v;
                vp[i] += eps;
                let mut vm = v;
                vm[i] -= eps;
                let num = (f(&vp) - f(&vm)) / (2.0 * eps);
                assert!((g[i] - num).abs() < 1e-2, "i={i}: {} vs {}", g[i], num);
            }
        });
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[1.0, 2.0, 3.0, 4.0], &[1, 4]);
            let gamma = Tensor::ones(&[4]).into_param();
            let beta = Tensor::zeros(&[4]).into_param();
            let y = x.layer_norm(&gamma, &beta, 1e-5).to_vec();
            let mean: f32 = y.iter().sum::<f32>() / 4.0;
            let var: f32 = y.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        });
    }

    #[test]
    fn layer_norm_grad_numeric() {
        crate::obs::tests::with_exclusive_obs(|| {
            let v = [0.5f32, -1.0, 2.0, 0.1];
            let x = param(&v, &[1, 4]);
            let gamma = Tensor::param_from_vec(vec![1.5, 0.5, 1.0, 2.0], &[4]).unwrap();
            let beta = Tensor::param_from_vec(vec![0.1, -0.1, 0.0, 0.2], &[4]).unwrap();
            let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 1.0], &[1, 4]).unwrap();
            let loss = x.layer_norm(&gamma, &beta, 1e-5).mul(&w).sum_all();
            backward(&loss);
            let g = x.grad().unwrap();
            let f = |vs: &[f32]| {
                Tensor::from_vec(vs.to_vec(), &[1, 4])
                    .unwrap()
                    .layer_norm(&gamma, &beta, 1e-5)
                    .mul(&w)
                    .sum_all()
                    .item()
            };
            let eps = 1e-3;
            for i in 0..4 {
                let mut vp = v;
                vp[i] += eps;
                let mut vm = v;
                vm[i] -= eps;
                let num = (f(&vp) - f(&vm)) / (2.0 * eps);
                assert!((g[i] - num).abs() < 2e-2, "i={i}: {} vs {}", g[i], num);
            }
        });
    }

    /// The bits of `v`, every NaN as one: the compiler may swap the
    /// operands of an add, so which NaN a sum of two keeps is not fixed.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|f| if f.is_nan() { u32::MAX } else { f.to_bits() })
            .collect()
    }

    /// Mean and `1/std` of one row: `iter().sum()` in ascending order, no
    /// fma.
    fn row_stats(row: &[f32], eps: f32) -> (f32, f32) {
        let d = row.len() as f32;
        let mean: f32 = row.iter().sum::<f32>() / d;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d;
        (mean, 1.0 / (var + eps).sqrt())
    }

    /// Layer norm as plain row loops: the arithmetic the lane kernel runs
    /// in each lane.
    fn reference_forward(x: &[f32], g: &[f32], b: &[f32], eps: f32) -> Vec<f32> {
        let d = g.len();
        let mut out = vec![0.0; x.len()];
        for (row, orow) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            let (mean, istd) = row_stats(row, eps);
            for i in 0..d {
                let h = (row[i] - mean) * istd;
                orow[i] = h * g[i] + b[i];
            }
        }
        out
    }

    /// The layer-norm backward as plain row loops: dx, dγ and dβ, the
    /// parameter gradients summed over rows in ascending order.
    fn reference_backward(x: &[f32], gamma: &[f32], gout: &[f32], eps: f32) -> [Vec<f32>; 3] {
        let d = gamma.len();
        let (mut gx, mut gg, mut gb) = (vec![0.0; x.len()], vec![0.0; d], vec![0.0; d]);
        let mut xh = vec![0.0f32; d];
        for r in 0..x.len() / d {
            let go = &gout[r * d..(r + 1) * d];
            let row = &x[r * d..(r + 1) * d];
            let (mean, istd) = row_stats(row, eps);
            for (h, &v) in xh.iter_mut().zip(row) {
                *h = (v - mean) * istd;
            }
            for i in 0..d {
                gg[i] += go[i] * xh[i];
                gb[i] += go[i];
            }
            let mut mean_dxhat = 0.0f32;
            let mut mean_dxhat_xhat = 0.0f32;
            for i in 0..d {
                let dxh = go[i] * gamma[i];
                mean_dxhat += dxh;
                mean_dxhat_xhat += dxh * xh[i];
            }
            mean_dxhat /= d as f32;
            mean_dxhat_xhat /= d as f32;
            for i in 0..d {
                let dxh = go[i] * gamma[i];
                gx[r * d + i] = istd * (dxh - mean_dxhat - xh[i] * mean_dxhat_xhat);
            }
        }
        [gx, gg, gb]
    }

    /// The lane kernels give the bits of the plain row loops on every tier,
    /// forward and backward, at widths on and off multiples of 4 and 8 and
    /// row counts that leave a short last group. With 9 rows one row
    /// holds a NaN and two hold ±inf; otherwise one row of equal values has
    /// variance 0 (so its `1/std` is `1/sqrt(eps)`) and one is all −0.0.
    #[test]
    fn layer_norm_matches_scalar_row_loops_bits() {
        use crate::simd::{self, with_tier, Tier};
        let mut tiers = vec![Tier::Scalar];
        if simd::avx2_available() {
            tiers.push(Tier::Avx2Fma);
        }
        // Many spans: keep them out of the obs tests' snapshots.
        crate::obs::tests::with_exclusive_obs(|| {
            let mut rng = crate::rng::seeded(41);
            for d in [3usize, 5, 8, 10, 16, 24, 128] {
                for rows in [1usize, 7, 9, 912] {
                    let mut xv = Tensor::randn(&mut rng, &[rows, d]).to_vec();
                    if rows == 9 {
                        xv[2 * d + d / 2] = f32::NAN;
                        xv[4 * d] = f32::INFINITY;
                        xv[7 * d + d - 1] = f32::NEG_INFINITY;
                    } else if rows > 1 {
                        xv[(rows / 2) * d..(rows / 2 + 1) * d].fill(0.75);
                        xv[(rows - 1) * d..].fill(-0.0);
                    }
                    let gv = Tensor::randn(&mut rng, &[d]).to_vec();
                    let bv = Tensor::randn(&mut rng, &[d]).to_vec();
                    let r = Tensor::randn(&mut rng, &[rows, d]);
                    let want_y = bits(&reference_forward(&xv, &gv, &bv, 1e-5));
                    let want = reference_backward(&xv, &gv, &r.to_vec(), 1e-5).map(|g| bits(&g));
                    for &tier in &tiers {
                        // y, then dx, dγ and dβ of Σ layer_norm(x) ⊙ r.
                        let (y, got) = with_tier(tier, || {
                            let x = param(&xv, &[rows, d]);
                            let (gamma, beta) = (param(&gv, &[d]), param(&bv, &[d]));
                            let y = x.layer_norm(&gamma, &beta, 1e-5);
                            backward(&y.mul(&r).sum_all());
                            (
                                bits(&y.to_vec()),
                                [x, gamma, beta].map(|t| bits(&t.grad().unwrap())),
                            )
                        });
                        let what = format!("{} d={d} rows={rows}", tier.name());
                        assert_eq!(y, want_y, "y: {what}");
                        for (name, (g, w)) in
                            ["dx", "dgamma", "dbeta"].iter().zip(got.iter().zip(&want))
                        {
                            assert_eq!(g, w, "{name}: {what}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn layer_norm_param_grads() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[1.0, 3.0], &[1, 2]);
            let gamma = Tensor::ones(&[2]).into_param();
            let beta = Tensor::zeros(&[2]).into_param();
            let y = x.layer_norm(&gamma, &beta, 1e-5);
            backward(&y.sum_all());
            // dL/dbeta = 1 per element; dL/dgamma = xhat which sums to ~0.
            assert_eq!(beta.grad().unwrap(), vec![1.0, 1.0]);
            let gg = gamma.grad().unwrap();
            assert!((gg[0] + gg[1]).abs() < 1e-4);
        });
    }

    #[test]
    fn layer_norm_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            // Whole 8-row groups and a short last group, at widths on and
            // off multiples of 4.
            for (rows, d) in [(13, 16), (9, 8), (6, 5)] {
                assert_writes_every_element(|| {
                    leaf(&[rows, d], 0.2).layer_norm(&leaf(&[d], 1.1), &leaf(&[d], 2.3), 1e-5)
                });
            }
        });
    }

    #[test]
    fn softmax_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            assert_writes_every_element(|| leaf(&[7, 9], 0.6).softmax_last())
        });
    }
}
