//! 1-D convolution over `[batch, channels, length]` tensors.
//!
//! The forward pass lowers each batch to an im2col matrix and runs it
//! through the packed matmul kernel (`ops::matmul`), so convolution
//! inherits the SIMD dispatch tiers for free. Structural zero padding is
//! materialized in the im2col buffer — padded positions multiply real
//! weights by literal `0.0`, preserving IEEE semantics (a NaN weight
//! poisons edge outputs exactly as `0 * NaN` requires).

use super::Act;
use crate::pool;
use crate::shape::Shape;
use crate::simd::{self, Tier, ACCUMULATE};
use crate::tensor::Tensor;

impl Tensor {
    /// 1-D convolution with stride 1 and symmetric zero padding `pad`.
    ///
    /// * `self`: `[B, C_in, L]`
    /// * `weight`: `[C_out, C_in, K]`
    /// * `bias`: `[C_out]`
    ///
    /// Output: `[B, C_out, L + 2*pad - K + 1]`.
    pub fn conv1d(&self, weight: &Tensor, bias: &Tensor, pad: usize) -> Tensor {
        let xd = self.dims();
        let wd = weight.dims();
        assert_eq!(xd.len(), 3, "conv1d input must be [B, C_in, L]");
        assert_eq!(wd.len(), 3, "conv1d weight must be [C_out, C_in, K]");
        assert_eq!(xd[1], wd[1], "conv1d channel mismatch");
        let (b, cin, l) = (xd[0], xd[1], xd[2]);
        let (cout, k) = (wd[0], wd[2]);
        assert_eq!(bias.dims(), &[cout], "conv1d bias shape");
        assert!(l + 2 * pad >= k, "conv1d kernel larger than padded input");
        let lout = l + 2 * pad - k + 1;

        // Every element is pre-filled with its bias below.
        let mut out = crate::arena::overwrite(b * cout * lout);
        {
            let x_ref = self.data();
            let w_ref = weight.data();
            let bv_ref = bias.data();
            let (x, w, bv): (&[f32], &[f32], &[f32]) = (&x_ref, &w_ref, &bv_ref);
            // One work unit per batch: lower `[C_in, L]` to an im2col
            // matrix `[C_in·K, L_out]`, then one GEMM against the weight
            // viewed as `[C_out, C_in·K]` — bias pre-filled because the
            // kernels accumulate. The scalar tier reduces `p = ci·K + kk`
            // ascending, the same (ci, kk) order as the old inner loop.
            let kcols = cin * k;
            let unit = cout * lout;
            let flops_per_unit = 2 * cout * kcols * lout;
            let grain = (1usize << 19).div_ceil(flops_per_unit.max(1)).max(1);
            let simd_on = simd::tier() == Tier::Avx2Fma;
            pool::parallel_slices_mut(&mut out, unit, grain, |b0, run| {
                // The im2col buffer is reused across the batches of this
                // worker's run; every row is fully rewritten per batch.
                let mut col = vec![0.0f32; kcols * lout];
                for (off, ob) in run.chunks_mut(unit).enumerate() {
                    let bi = b0 + off;
                    for ci in 0..cin {
                        let x_base = (bi * cin + ci) * l;
                        for kk in 0..k {
                            let row =
                                &mut col[(ci * k + kk) * lout..(ci * k + kk + 1) * lout];
                            let lo_start = pad.saturating_sub(kk).min(lout);
                            let lo_end = lout.min((l + pad).saturating_sub(kk)).max(lo_start);
                            row[..lo_start].fill(0.0);
                            row[lo_end..].fill(0.0);
                            let src0 = x_base + lo_start + kk - pad;
                            row[lo_start..lo_end]
                                .copy_from_slice(&x[src0..src0 + (lo_end - lo_start)]);
                        }
                    }
                    for (co, orow) in ob.chunks_mut(lout).enumerate() {
                        orow.fill(bv[co]);
                    }
                    if simd_on {
                        let bp = simd::pack_b_panels(&col, kcols, lout);
                        // Safety: simd_on holds only under the Avx2Fma tier.
                        unsafe { simd::mm_rows_avx2::<ACCUMULATE>(w, &bp, cout, kcols, lout, ob, None, Act::Identity, None) };
                    } else {
                        super::matmul::mm_nn_block(w, &col, cout, kcols, lout, ob);
                    }
                }
            });
        }

        Tensor::from_op(
            out,
            Shape::new(&[b, cout, lout]),
            vec![self.clone(), weight.clone(), bias.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.conv1d.bwd");
                let (px, pw, pb) = (&parents[0], &parents[1], &parents[2]);
                let mut gx = crate::arena::zeroed(px.numel());
                let mut gw = crate::arena::zeroed(pw.numel());
                let mut gb = crate::arena::zeroed(cout);
                {
                    let x = px.data();
                    let w = pw.data();
                    for bi in 0..b {
                        for (co, gb_c) in gb.iter_mut().enumerate() {
                            let out_base = (bi * cout + co) * lout;
                            for lo in 0..lout {
                                *gb_c += gout[out_base + lo];
                            }
                            for ci in 0..cin {
                                let x_base = (bi * cin + ci) * l;
                                let w_base = (co * cin + ci) * k;
                                for kk in 0..k {
                                    let lo_start = pad.saturating_sub(kk);
                                    let lo_end = lout.min(l + pad - kk);
                                    let wv = w[w_base + kk];
                                    let mut gw_acc = 0.0f32;
                                    for lo in lo_start..lo_end {
                                        let go = gout[out_base + lo];
                                        gx[x_base + lo + kk - pad] += go * wv;
                                        gw_acc += go * x[x_base + lo + kk - pad];
                                    }
                                    gw[w_base + kk] += gw_acc;
                                }
                            }
                        }
                    }
                }
                px.accumulate_grad_owned(gx);
                pw.accumulate_grad_owned(gw);
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
    fn conv1d_identity_kernel() {
        // K=1 kernel with weight 1 reproduces the input.
        let x = param(&[1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let w = param(&[1.0], &[1, 1, 1]);
        let b = param(&[0.0], &[1]);
        let y = x.conv1d(&w, &b, 0);
        assert_eq!(y.dims(), &[1, 1, 4]);
        assert_eq!(y.to_vec(), x.to_vec());
    }

    #[test]
    fn conv1d_moving_sum_same_padding() {
        let x = param(&[1.0, 2.0, 3.0], &[1, 1, 3]);
        let w = param(&[1.0, 1.0, 1.0], &[1, 1, 3]);
        let b = param(&[0.0], &[1]);
        let y = x.conv1d(&w, &b, 1);
        assert_eq!(y.dims(), &[1, 1, 3]);
        assert_eq!(y.to_vec(), vec![3.0, 6.0, 5.0]);
    }

    #[test]
    fn conv1d_multi_channel() {
        // Two input channels summed by a K=1 kernel with weights (1, 2).
        let x = param(&[1.0, 2.0, 10.0, 20.0], &[1, 2, 2]);
        let w = param(&[1.0, 2.0], &[1, 2, 1]);
        let b = param(&[0.5], &[1]);
        let y = x.conv1d(&w, &b, 0);
        assert_eq!(y.to_vec(), vec![21.5, 42.5]);
    }

    #[test]
    fn conv1d_bias_grad_counts_positions() {
        let x = param(&[0.0; 8], &[2, 1, 4]);
        let w = param(&[1.0, 1.0, 1.0], &[1, 1, 3]);
        let b = param(&[0.0], &[1]);
        let y = x.conv1d(&w, &b, 1);
        backward(&y.sum_all());
        // Every output position contributes 1 to the bias grad: 2 batches * 4.
        assert_eq!(b.grad().unwrap(), vec![8.0]);
    }

    #[test]
    fn conv1d_grad_numeric() {
        let xs = [0.5f32, -1.0, 2.0, 0.3];
        let ws = [0.7f32, -0.2, 1.1];
        let x = param(&xs, &[1, 1, 4]);
        let w = param(&ws, &[1, 1, 3]);
        let b = param(&[0.1], &[1]);
        let loss = x.conv1d(&w, &b, 1).square().sum_all();
        backward(&loss);
        let gx = x.grad().unwrap();
        let f = |xv: &[f32]| {
            Tensor::from_vec(xv.to_vec(), &[1, 1, 4])
                .unwrap()
                .conv1d(&w, &b, 1)
                .square()
                .sum_all()
                .item()
        };
        let eps = 1e-2;
        for i in 0..4 {
            let mut p = xs;
            p[i] += eps;
            let mut m = xs;
            m[i] -= eps;
            let num = (f(&p) - f(&m)) / (2.0 * eps);
            assert!((gx[i] - num).abs() < 2e-2, "i={i}: {} vs {num}", gx[i]);
        }
    }

    #[test]
    fn conv1d_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            assert_writes_every_element(|| {
                leaf(&[3, 4, 11], 0.1).conv1d(&leaf(&[5, 4, 3], 0.5), &leaf(&[5], 0.9), 1)
            });
        });
    }
}
