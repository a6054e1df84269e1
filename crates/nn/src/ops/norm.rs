//! Softmax and fused layer normalization.

#[cfg(target_arch = "x86_64")]
use crate::simd::Tier;
use crate::tensor::Tensor;

/// In-register 8×8 transpose (an involution — applying it twice restores
/// the original registers). Pure data movement, no arithmetic.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose8(t: &mut [std::arch::x86_64::__m256; 8]) {
    use std::arch::x86_64::*;
    let a0 = _mm256_unpacklo_ps(t[0], t[1]);
    let a1 = _mm256_unpackhi_ps(t[0], t[1]);
    let a2 = _mm256_unpacklo_ps(t[2], t[3]);
    let a3 = _mm256_unpackhi_ps(t[2], t[3]);
    let a4 = _mm256_unpacklo_ps(t[4], t[5]);
    let a5 = _mm256_unpackhi_ps(t[4], t[5]);
    let a6 = _mm256_unpacklo_ps(t[6], t[7]);
    let a7 = _mm256_unpackhi_ps(t[6], t[7]);
    let b0 = _mm256_shuffle_ps(a0, a2, 0x44);
    let b1 = _mm256_shuffle_ps(a0, a2, 0xEE);
    let b2 = _mm256_shuffle_ps(a1, a3, 0x44);
    let b3 = _mm256_shuffle_ps(a1, a3, 0xEE);
    let b4 = _mm256_shuffle_ps(a4, a6, 0x44);
    let b5 = _mm256_shuffle_ps(a4, a6, 0xEE);
    let b6 = _mm256_shuffle_ps(a5, a7, 0x44);
    let b7 = _mm256_shuffle_ps(a5, a7, 0xEE);
    t[0] = _mm256_permute2f128_ps(b0, b4, 0x20);
    t[1] = _mm256_permute2f128_ps(b1, b5, 0x20);
    t[2] = _mm256_permute2f128_ps(b2, b6, 0x20);
    t[3] = _mm256_permute2f128_ps(b3, b7, 0x20);
    t[4] = _mm256_permute2f128_ps(b0, b4, 0x31);
    t[5] = _mm256_permute2f128_ps(b1, b5, 0x31);
    t[6] = _mm256_permute2f128_ps(b2, b6, 0x31);
    t[7] = _mm256_permute2f128_ps(b3, b7, 0x31);
}

/// Mean and `1/std` of one row, as the scalar path computes them
/// (`iter().sum()` in ascending order, no fma).
fn row_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let d = row.len() as f32;
    let mean: f32 = row.iter().sum::<f32>() / d;
    let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d;
    (mean, 1.0 / (var + eps).sqrt())
}

/// Slab `c` (columns `c..c + 8`) of the eight `d`-wide rows of `x` from
/// offset `base`, transposed so that lane `i` holds row `i`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn slab(x: &[f32], base: usize, d: usize, c: usize) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let mut t = [_mm256_setzero_ps(); 8];
    for (i, slot) in t.iter_mut().enumerate() {
        *slot = _mm256_loadu_ps(x.as_ptr().add(base + i * d + c));
    }
    transpose8(&mut t);
    t
}

/// Mean and `1/std` of the eight `d`-wide rows of `x` from `base`, one row
/// per lane, with [`row_stats`]' chains: the mean and variance sums add
/// elements `0..d` in ascending order from −0.0 (as `iter().sum()`; −0.0 +
/// e0 is e0 exactly), mul then add, no fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn lane_stats(
    x: &[f32],
    base: usize,
    d: usize,
    eps: f32,
) -> (std::arch::x86_64::__m256, std::arch::x86_64::__m256) {
    use std::arch::x86_64::*;
    let vd = _mm256_set1_ps(d as f32);
    let mut s = _mm256_set1_ps(-0.0);
    for c in (0..d).step_by(8) {
        for e in slab(x, base, d, c) {
            s = _mm256_add_ps(s, e);
        }
    }
    let mean = _mm256_div_ps(s, vd);
    let mut v = _mm256_set1_ps(-0.0);
    for c in (0..d).step_by(8) {
        for e in slab(x, base, d, c) {
            let de = _mm256_sub_ps(e, mean);
            v = _mm256_add_ps(v, _mm256_mul_ps(de, de));
        }
    }
    let var = _mm256_div_ps(v, vd);
    let istd = _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_sqrt_ps(_mm256_add_ps(var, _mm256_set1_ps(eps))));
    (mean, istd)
}

/// Layer norm for rows of `d = 8m` elements: eight rows per pass, each
/// 8-column slab put through an 8×8 transpose so each lane holds one row
/// and the per-row serial chains run as vertical vector ops across eight
/// independent rows. Each pass transposes every slab afresh for the mean,
/// the variance and the output, so nothing is staged in memory. Returns
/// how many leading rows it wrote (a multiple of 8); the caller runs the
/// scalar rows over the rest.
///
/// Bit-identical to the scalar path by construction: per lane, the mean
/// and variance sums add elements `0..d` in the same ascending order (mul
/// then add, no fma — the scalar path does not fuse), the divisions by
/// `d`, the `sqrt`, and the final `h * g[i] + b[i]` are the same IEEE
/// operations, and the transposes are pure data movement.
///
/// `D` is the width when it is fixed at compile time (0 reads `d`): at
/// `D = 8` the three slab transposes of a pass fold into one and the
/// pass compiles to straight-line register code.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. The lengths are checked on entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn layer_norm_rows_avx2<const D: usize>(
    x: &[f32],
    g: &[f32],
    b: &[f32],
    out: &mut [f32],
    d: usize,
    eps: f32,
) -> usize {
    use std::arch::x86_64::*;
    let d = if D == 0 { d } else { D };
    assert!(
        d > 0 && d.is_multiple_of(8) && g.len() == d && b.len() == d && out.len() == x.len(),
        "layer norm kernel: lengths do not match width {d}"
    );
    let rows = x.len() / d;
    let mut r = 0;
    while r + 8 <= rows {
        let base = r * d;
        let (mean, istd) = lane_stats(x, base, d, eps);
        for c in (0..d).step_by(8) {
            let mut t = slab(x, base, d, c);
            for (k, e) in (c..).zip(t.iter_mut()) {
                let h = _mm256_mul_ps(_mm256_sub_ps(*e, mean), istd);
                *e = _mm256_add_ps(
                    _mm256_mul_ps(h, _mm256_set1_ps(*g.get_unchecked(k))),
                    _mm256_set1_ps(*b.get_unchecked(k)),
                );
            }
            transpose8(&mut t);
            for (i, row) in t.iter().enumerate() {
                _mm256_storeu_ps(out.as_mut_ptr().add(base + i * d + c), *row);
            }
        }
        r += 8;
    }
    r
}

/// The layer-norm backward for rows of `d = 8m` elements, eight rows per
/// pass as in [`layer_norm_rows_avx2`]: `gx` gets each row's input
/// gradient, and `gg`/`gb` (zeroed or holding earlier rows' sums) get each
/// row's `go ⊙ x̂` and `go` added. Returns how many leading rows it did (a
/// multiple of 8); the caller runs the scalar rows over the rest.
///
/// Bit-identical to the scalar path by construction. Per lane it runs the
/// scalar row's chains: [`lane_stats`], then `mean_dxhat` and
/// `mean_dxhat_xhat` from `+0.0` over elements `0..d` ascending (mul then
/// add), the divisions by `d`, and `istd · ((dx̂ − mean_dxhat) − x̂ ·
/// mean_dxhat_xhat)`. `x̂` goes back to row layout for the parameter
/// gradients, which add one row vector at a time in ascending row order,
/// as the scalar loop adds rows. `x̂` and `dx̂` are recomputed in the
/// output pass rather than staged, with the same operations.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. The lengths are checked on entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn layer_norm_bwd_rows_avx2(
    x: &[f32],
    gamma: &[f32],
    gout: &[f32],
    gx: &mut [f32],
    gg: &mut [f32],
    gb: &mut [f32],
    d: usize,
    eps: f32,
) -> usize {
    use std::arch::x86_64::*;
    assert!(
        d > 0
            && d.is_multiple_of(8)
            && [gamma.len(), gg.len(), gb.len()] == [d; 3]
            && gout.len() == x.len()
            && gx.len() == x.len(),
        "layer norm backward kernel: lengths do not match width {d}"
    );
    let rows = x.len() / d;
    let vd = _mm256_set1_ps(d as f32);
    let mut r = 0;
    while r + 8 <= rows {
        let base = r * d;
        let (mean, istd) = lane_stats(x, base, d, eps);
        let mut mdx = _mm256_setzero_ps();
        let mut mdxx = _mm256_setzero_ps();
        for c in (0..d).step_by(8) {
            let (xs, gos) = (slab(x, base, d, c), slab(gout, base, d, c));
            let mut xh = [_mm256_setzero_ps(); 8];
            for (k, h) in (c..).zip(xh.iter_mut()) {
                *h = _mm256_mul_ps(_mm256_sub_ps(xs[k - c], mean), istd);
                let dxh = _mm256_mul_ps(gos[k - c], _mm256_set1_ps(*gamma.get_unchecked(k)));
                mdx = _mm256_add_ps(mdx, dxh);
                mdxx = _mm256_add_ps(mdxx, _mm256_mul_ps(dxh, *h));
            }
            // Parameter gradients: x̂ back in row layout, rows ascending.
            transpose8(&mut xh);
            let (pg, pb) = (gg.as_mut_ptr().add(c), gb.as_mut_ptr().add(c));
            let (mut vg, mut vb) = (_mm256_loadu_ps(pg), _mm256_loadu_ps(pb));
            for (i, h) in xh.iter().enumerate() {
                let go = _mm256_loadu_ps(gout.as_ptr().add(base + i * d + c));
                vg = _mm256_add_ps(vg, _mm256_mul_ps(go, *h));
                vb = _mm256_add_ps(vb, go);
            }
            _mm256_storeu_ps(pg, vg);
            _mm256_storeu_ps(pb, vb);
        }
        let mdx = _mm256_div_ps(mdx, vd);
        let mdxx = _mm256_div_ps(mdxx, vd);
        for c in (0..d).step_by(8) {
            let (xs, gos) = (slab(x, base, d, c), slab(gout, base, d, c));
            let mut t = [_mm256_setzero_ps(); 8];
            for (k, e) in (c..).zip(t.iter_mut()) {
                let h = _mm256_mul_ps(_mm256_sub_ps(xs[k - c], mean), istd);
                let dxh = _mm256_mul_ps(gos[k - c], _mm256_set1_ps(*gamma.get_unchecked(k)));
                *e = _mm256_mul_ps(istd, _mm256_sub_ps(_mm256_sub_ps(dxh, mdx), _mm256_mul_ps(h, mdxx)));
            }
            transpose8(&mut t);
            for (i, row) in t.iter().enumerate() {
                _mm256_storeu_ps(gx.as_mut_ptr().add(base + i * d + c), *row);
            }
        }
        r += 8;
    }
    r
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
            move || Box::new(move |gout, y, parents| {
                let _sp = crate::obs::span("nn.softmax.bwd");
                let mut g = crate::arena::overwrite(y.len());
                let rows = g.chunks_exact_mut(d).zip(y.chunks_exact(d)).zip(gout.chunks_exact(d));
                for ((gr, yr), go) in rows {
                    let dot: f32 = yr.iter().zip(go).map(|(&yv, &gv)| yv * gv).sum();
                    for ((gi, &yv), &gv) in gr.iter_mut().zip(yr).zip(go) {
                        *gi = yv * (gv - dot);
                    }
                }
                parents[0].accumulate_grad_owned(g);
            }),
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
        let rows = self.numel() / d;
        // The backward follows the forward's tier.
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
        let tier = crate::simd::tier();

        let mut out = crate::arena::overwrite(self.numel());
        {
            let (x, g, b) = (self.data(), gamma.data(), beta.data());
            // Rows the Avx2Fma kernel wrote; the scalar path takes the rest.
            #[cfg(target_arch = "x86_64")]
            let done = match (d, tier) {
                // Safety (both arms): gated on the Avx2Fma tier.
                (8, Tier::Avx2Fma) => unsafe { layer_norm_rows_avx2::<8>(&x, &g, &b, &mut out, d, eps) },
                (_, Tier::Avx2Fma) if d.is_multiple_of(8) => unsafe {
                    layer_norm_rows_avx2::<0>(&x, &g, &b, &mut out, d, eps)
                },
                _ => 0,
            };
            #[cfg(not(target_arch = "x86_64"))]
            let done = 0;
            let rest = x[done * d..].chunks_exact(d).zip(out[done * d..].chunks_exact_mut(d));
            for (row, orow) in rest {
                let (mean, istd) = row_stats(row, eps);
                for i in 0..d {
                    let h = (row[i] - mean) * istd;
                    orow[i] = h * g[i] + b[i];
                }
            }
        }
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone(), gamma.clone(), beta.clone()],
            // Recomputes the per-row statistics and normalized values from
            // the parent input (identical arithmetic → bit-identical
            // gradients) instead of saving them eagerly in the forward.
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.layer_norm.bwd");
                let (px, pg, pb) = (&parents[0], &parents[1], &parents[2]);
                let mut gx = crate::arena::overwrite(px.numel());
                let mut gg = crate::arena::zeroed(d);
                let mut gb = crate::arena::zeroed(d);
                {
                    let x = px.data();
                    let gamma_d = pg.data();
                    // Rows the Avx2Fma kernel did; the scalar loop takes
                    // the rest, after them, so `gg`/`gb` still add rows in
                    // ascending order.
                    #[cfg(target_arch = "x86_64")]
                    let done = if tier == Tier::Avx2Fma && d.is_multiple_of(8) {
                        // Safety: gated on the forward's Avx2Fma tier.
                        unsafe { layer_norm_bwd_rows_avx2(&x, &gamma_d, gout, &mut gx, &mut gg, &mut gb, d, eps) }
                    } else {
                        0
                    };
                    #[cfg(not(target_arch = "x86_64"))]
                    let done = 0;
                    let mut xh = vec![0.0f32; d];
                    for r in done..rows {
                        let go = &gout[r * d..(r + 1) * d];
                        let row = &x[r * d..(r + 1) * d];
                        let (mean, istd) = row_stats(row, eps);
                        for (h, &v) in xh.iter_mut().zip(row) {
                            *h = (v - mean) * istd;
                        }
                        let xh = &xh[..];
                        // Parameter gradients.
                        for i in 0..d {
                            gg[i] += go[i] * xh[i];
                            gb[i] += go[i];
                        }
                        // Input gradient.
                        let mut mean_dxhat = 0.0f32;
                        let mut mean_dxhat_xhat = 0.0f32;
                        for i in 0..d {
                            let dxh = go[i] * gamma_d[i];
                            mean_dxhat += dxh;
                            mean_dxhat_xhat += dxh * xh[i];
                        }
                        mean_dxhat /= d as f32;
                        mean_dxhat_xhat /= d as f32;
                        for i in 0..d {
                            let dxh = go[i] * gamma_d[i];
                            gx[r * d + i] = istd * (dxh - mean_dxhat - xh[i] * mean_dxhat_xhat);
                        }
                    }
                }
                px.accumulate_grad_owned(gx);
                pg.accumulate_grad_owned(gg);
                pb.accumulate_grad_owned(gb);
            }),
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The Avx2Fma layer norm must give the Scalar tier's bits at every
    /// width, forward and backward: the transposes are pure data movement
    /// and every lane runs the scalar chain in the same order. Row counts
    /// that are not multiples of 8 exercise the scalar tail, one row holds
    /// a NaN, and in the backward cases one row of equal values has
    /// variance 0, so its `1/std` is `1/sqrt(eps)`.
    #[test]
    fn layer_norm_avx2_matches_scalar_bits() {
        use crate::simd::{self, with_tier, Tier};
        if !simd::avx2_available() {
            return;
        }
        // Many spans: keep them out of the obs tests' snapshots.
        crate::obs::tests::with_exclusive_obs(|| {
            let mut rng = crate::rng::seeded(41);
            for (d, rows) in [(8usize, 19usize), (16, 13), (24, 21), (128, 11)] {
                let mut xv = Tensor::randn(&mut rng, &[rows, d]).to_vec();
                xv[3 * d + 5] = f32::NAN;
                let x = Tensor::from_vec(xv, &[rows, d]).unwrap();
                let gamma = Tensor::randn(&mut rng, &[d]);
                let beta = Tensor::randn(&mut rng, &[d]);
                let run = |tier| bits(&with_tier(tier, || x.layer_norm(&gamma, &beta, 1e-5).to_vec()));
                assert_eq!(run(Tier::Avx2Fma), run(Tier::Scalar), "d={d} rows={rows}");
            }
            for d in [8usize, 16, 24] {
                for rows in [1usize, 7, 9, 912] {
                    let mut xv = Tensor::randn(&mut rng, &[rows, d]).to_vec();
                    xv[(rows / 2) * d..(rows / 2 + 1) * d].fill(0.75);
                    // A NaN turns every dγ it reaches into NaN: one case.
                    if rows == 9 {
                        xv[2 * d + 3] = f32::NAN;
                    }
                    let gv = Tensor::randn(&mut rng, &[d]).to_vec();
                    let bv = Tensor::randn(&mut rng, &[d]).to_vec();
                    let r = Tensor::randn(&mut rng, &[rows, d]);
                    // dx, dγ and dβ of Σ layer_norm(x) ⊙ r.
                    let run = |tier| {
                        with_tier(tier, || {
                            let x = param(&xv, &[rows, d]);
                            let (gamma, beta) = (param(&gv, &[d]), param(&bv, &[d]));
                            backward(&x.layer_norm(&gamma, &beta, 1e-5).mul(&r).sum_all());
                            [x, gamma, beta].map(|t| bits(&t.grad().unwrap()))
                        })
                    };
                    let (got, want) = (run(Tier::Avx2Fma), run(Tier::Scalar));
                    for (name, (g, w)) in ["dx", "dgamma", "dbeta"].iter().zip(got.iter().zip(&want)) {
                        assert_eq!(g, w, "{name}: d={d} rows={rows}");
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
            // The Avx2Fma 8-row blocks with scalar leftover rows, the D = 8
            // instance, and a width only the scalar loop takes.
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
        crate::obs::tests::with_exclusive_obs(|| assert_writes_every_element(|| leaf(&[7, 9], 0.6).softmax_last()));
    }
}
