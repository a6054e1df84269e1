//! Non-linear activation functions.

use crate::simd;
use crate::tensor::Tensor;

/// The pointwise tail of [`Tensor::linear`], applied where the matmul
/// kernel stores each output. Each value computes exactly what the
/// standalone op of the same name does on the same dispatch tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Act {
    /// No activation: `y = z`.
    Identity,
    /// [`Tensor::relu`].
    Relu,
    /// [`Tensor::gelu`] (tanh approximation).
    Gelu,
    /// [`Tensor::silu`].
    Silu,
}

impl Act {
    /// Whether the derivative is a function of the pre-activation `z`
    /// rather than of the output, so a recorded tape must keep `z`.
    pub(crate) fn needs_pre(self) -> bool {
        matches!(self, Act::Gelu | Act::Silu)
    }

    /// The scalar tier's forward, the one the standalone ops run.
    pub(crate) fn scalar(self, z: f32) -> f32 {
        match self {
            Act::Identity => z,
            Act::Relu => relu_f(z),
            Act::Gelu => gelu_f(z),
            Act::Silu => silu_f(z),
        }
    }

    /// `g = act'(z) ⊙ gout` as the standalone op's backward computes it on
    /// the tier the forward ran on (`simd_on`). ReLU reads its derivative
    /// off the output `y` (`y > 0` exactly when `z > 0`); GELU and SiLU
    /// recompute it from `z`, which only they need. Not called for
    /// [`Act::Identity`], whose gradient is `gout` itself.
    pub(crate) fn grad(self, simd_on: bool, z: &[f32], y: &[f32], gout: &[f32], g: &mut [f32]) {
        fn scalar(g: &mut [f32], gout: &[f32], v: &[f32], dfdx: impl Fn(f32) -> f32) {
            for ((o, &go), &x) in g.iter_mut().zip(gout).zip(v) {
                *o = dfdx(x) * go;
            }
        }
        // Safety (both kernels): simd_on is set only when AVX2+FMA are
        // runtime-detected.
        match self {
            Act::Identity => unreachable!("identity has no derivative pass"),
            Act::Relu => scalar(g, gout, y, relu_d),
            Act::Gelu if simd_on => unsafe { simd::dgelu_avx2(z, y, gout, g) },
            Act::Silu if simd_on => unsafe { simd::dsilu_avx2(z, y, gout, g) },
            Act::Gelu => scalar(g, gout, z, gelu_d),
            Act::Silu => scalar(g, gout, z, silu_d),
        }
    }
}

fn unary_with(a: &Tensor, fwd: impl Fn(f32) -> f32, dfdx: impl Fn(f32) -> f32 + 'static) -> Tensor {
    let _sp = crate::obs::span("nn.unary");
    let data = {
        let src = a.data();
        let mut data = crate::arena::overwrite(src.len());
        for (o, &x) in data.iter_mut().zip(src.iter()) {
            *o = fwd(x);
        }
        data
    };
    Tensor::from_op(
        data,
        a.shape().clone(),
        vec![a.clone()],
        move || Box::new(move |gout, _, parents| {
            let _sp = crate::obs::span("nn.unary.bwd");
            let p = &parents[0];
            let mut g = crate::arena::overwrite(gout.len());
            for ((o, &go), &x) in g.iter_mut().zip(gout).zip(p.data().iter()) {
                *o = dfdx(x) * go;
            }
            p.accumulate_grad_owned(g);
        }),
    )
}

/// Unary op with vectorized kernels on the Avx2Fma tier: `batch` computes
/// the same function as `fwd` and `dbatch` the same derivative as `dfdx`,
/// each within the documented across-tier tolerance (the polynomial exp
/// vs libm). On the scalar tier both directions are exactly the libm
/// `fwd` and `dfdx`. The tier is resolved once, in the forward, and the
/// backward follows it.
fn unary_tiered(
    a: &Tensor,
    batch: unsafe fn(&mut [f32]),
    dbatch: simd::DerivKernel,
    fwd: impl Fn(f32) -> f32 + Copy + 'static,
    dfdx: impl Fn(f32) -> f32 + 'static,
) -> Tensor {
    let _sp = crate::obs::span("nn.unary");
    let simd_on = crate::simd::tier() == crate::simd::Tier::Avx2Fma;
    let data = {
        let src = a.data();
        let mut data = crate::arena::overwrite(src.len());
        if simd_on {
            data.copy_from_slice(&src);
            // Safety: simd_on is set only when AVX2+FMA are
            // runtime-detected.
            unsafe { batch(&mut data) }
        } else {
            for (o, &x) in data.iter_mut().zip(src.iter()) {
                *o = fwd(x);
            }
        }
        data
    };
    Tensor::from_op(
        data,
        a.shape().clone(),
        vec![a.clone()],
        move || Box::new(move |gout, y, parents| {
            let _sp = crate::obs::span("nn.unary.bwd");
            let p = &parents[0];
            let mut g = crate::arena::overwrite(gout.len());
            {
                let x = p.data();
                if simd_on {
                    // Safety: as in the forward.
                    unsafe { dbatch(&x, y, gout, &mut g) }
                } else {
                    for ((o, &go), &xv) in g.iter_mut().zip(gout).zip(x.iter()) {
                        *o = dfdx(xv) * go;
                    }
                }
            }
            p.accumulate_grad_owned(g);
        }),
    )
}

fn sigmoid_f(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn sigmoid_d(x: f32) -> f32 {
    let s = sigmoid_f(x);
    s * (1.0 - s)
}

fn tanh_d(x: f32) -> f32 {
    1.0 - x.tanh() * x.tanh()
}

fn relu_f(x: f32) -> f32 {
    x.max(0.0)
}

fn relu_d(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

fn silu_f(x: f32) -> f32 {
    x * sigmoid_f(x)
}

fn silu_d(x: f32) -> f32 {
    let s = sigmoid_f(x);
    s + x * s * (1.0 - s)
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

fn gelu_f(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh())
}

fn gelu_d(x: f32) -> f32 {
    let inner = GELU_C * (x + 0.044715 * x * x * x);
    let t = inner.tanh();
    let dinner = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

impl Tensor {
    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        unary_with(self, relu_f, relu_d)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        unary_with(
            self,
            move |x| if x > 0.0 { x } else { alpha * x },
            move |x| if x > 0.0 { 1.0 } else { alpha },
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        unary_tiered(self, simd::vsigmoid_avx2, simd::dsigmoid_avx2, sigmoid_f, sigmoid_d)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        unary_tiered(self, simd::vtanh_avx2, simd::dtanh_avx2, f32::tanh, tanh_d)
    }

    /// SiLU / swish: `x * sigmoid(x)` (the activation used by DiffWave/CSDI
    /// denoisers, which ImTransformer follows).
    pub fn silu(&self) -> Tensor {
        unary_tiered(self, simd::vsilu_avx2, simd::dsilu_avx2, silu_f, silu_d)
    }

    /// GELU with the tanh approximation.
    pub fn gelu(&self) -> Tensor {
        unary_tiered(self, simd::vgelu_avx2, simd::dgelu_avx2, gelu_f, gelu_d)
    }

    /// The DiffWave/CSDI gated activation `tanh(f) ⊙ σ(g)` over the two
    /// halves of the last axis: `[.., 2d]` input, `[.., d]` output, with
    /// `f` the first `d` columns and `g` the last `d`.
    ///
    /// One op in place of `slice` → `tanh`, `slice` → `sigmoid` → `mul`,
    /// with the bits of that chain on each tier: the tier's own tanh and
    /// sigmoid arithmetic, then one multiply. The backward writes one
    /// `[.., 2d]` gradient, the filter half `(1 − t²)·(σ·go)` and the gate
    /// half `σ(1 − σ)·(t·go)`, with `t` and `σ` recomputed from the input.
    /// Its calls are counted under the `nn.unary` span.
    pub fn gated_tanh(&self) -> Tensor {
        let _sp = crate::obs::span("nn.unary");
        let dims = self.dims();
        let two_d = *dims.last().expect("gated_tanh needs at least one axis");
        assert!(
            two_d > 0 && two_d.is_multiple_of(2),
            "gated_tanh needs an even, non-zero last axis, got {}",
            self.shape()
        );
        let d = two_d / 2;
        let mut out_dims = dims.to_vec();
        *out_dims.last_mut().expect("non-empty dims") = d;
        let out_shape = crate::Shape::new(&out_dims);
        let simd_on = simd::tier() == simd::Tier::Avx2Fma;
        let mut out = crate::arena::overwrite(out_shape.numel());
        {
            let src = self.data();
            if simd_on {
                // Safety: simd_on is set only when AVX2+FMA are
                // runtime-detected.
                unsafe { simd::gated_tanh_avx2(&src, &mut out, d) }
            } else {
                for (row, orow) in src.chunks_exact(two_d).zip(out.chunks_exact_mut(d)) {
                    let (f, g) = row.split_at(d);
                    for ((o, &fv), &gv) in orow.iter_mut().zip(f).zip(g) {
                        *o = fv.tanh() * sigmoid_f(gv);
                    }
                }
            }
        }
        Tensor::from_op(
            out,
            out_shape,
            vec![self.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.unary.bwd");
                let p = &parents[0];
                let mut g = crate::arena::overwrite(p.numel());
                {
                    let src = p.data();
                    if simd_on {
                        // Safety: as in the forward.
                        unsafe { simd::dgated_tanh_avx2(&src, gout, &mut g, d) }
                    } else {
                        let rows = src.chunks_exact(two_d).zip(gout.chunks_exact(d));
                        for ((row, grow), drow) in rows.zip(g.chunks_exact_mut(two_d)) {
                            let (f, gate) = row.split_at(d);
                            let (df, dg) = drow.split_at_mut(d);
                            for j in 0..d {
                                let (t, s) = (f[j].tanh(), sigmoid_f(gate[j]));
                                df[j] = tanh_d(f[j]) * (s * grow[j]);
                                dg[j] = sigmoid_d(gate[j]) * (t * grow[j]);
                            }
                        }
                    }
                }
                p.accumulate_grad_owned(g);
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::backward;
    use crate::Tensor;

    fn param(v: &[f32]) -> Tensor {
        Tensor::param_from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn relu_forward_backward() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[-1.0, 0.0, 2.0]);
            let y = x.relu();
            assert_eq!(y.to_vec(), vec![0.0, 0.0, 2.0]);
            backward(&y.sum_all());
            assert_eq!(x.grad().unwrap(), vec![0.0, 0.0, 1.0]);
        });
    }

    #[test]
    fn sigmoid_at_zero() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[0.0]);
            let y = x.sigmoid();
            assert!((y.item() - 0.5).abs() < 1e-6);
            backward(&y.sum_all());
            assert!((x.grad().unwrap()[0] - 0.25).abs() < 1e-6);
        });
    }

    #[test]
    fn tanh_matches_std() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[0.7]);
            assert!((x.tanh().item() - 0.7f32.tanh()).abs() < 1e-6);
        });
    }

    #[test]
    fn silu_values() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[1.0]);
            let expected = 1.0 / (1.0 + (-1.0f32).exp());
            assert!((x.silu().item() - expected).abs() < 1e-6);
        });
    }

    #[test]
    fn gelu_close_to_reference() {
        crate::obs::tests::with_exclusive_obs(|| {
            // Reference values for the tanh approximation.
            let x = param(&[1.0, -1.0]);
            let y = x.gelu().to_vec();
            assert!((y[0] - 0.841192).abs() < 1e-3, "{}", y[0]);
            assert!((y[1] - (-0.158808)).abs() < 1e-3, "{}", y[1]);
        });
    }

    #[test]
    fn leaky_relu_negative_slope() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[-2.0, 2.0]);
            let y = x.leaky_relu(0.1);
            assert_eq!(y.to_vec(), vec![-0.2, 2.0]);
            backward(&y.sum_all());
            assert_eq!(x.grad().unwrap(), vec![0.1, 1.0]);
        });
    }

    /// Numerically checks d(gelu)/dx via central differences.
    #[test]
    fn gelu_grad_numeric() {
        crate::obs::tests::with_exclusive_obs(|| {
            let eps = 1e-3f32;
            for &v in &[-1.5f32, -0.3, 0.0, 0.9, 2.0] {
                let x = param(&[v]);
                let y = x.gelu();
                backward(&y.sum_all());
                let analytic = x.grad().unwrap()[0];
                let f = |t: f32| {
                    Tensor::from_vec(vec![t], &[1]).unwrap().gelu().item()
                };
                let numeric = (f(v + eps) - f(v - eps)) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "at {v}: analytic {analytic} vs numeric {numeric}"
                );
            }
        });
    }

    /// `gated_tanh` gives, per tier, the forward bits of the slice → tanh,
    /// slice → sigmoid → mul chain it replaces, and its gradient up to
    /// the sign of exact zeros (the chain's `+=` into zeroed buffers
    /// turns `-0.0` into `+0.0`). Widths below, at and past one 8-lane
    /// block.
    #[test]
    fn gated_tanh_matches_slice_chain_bits_per_tier() {
        crate::obs::tests::with_exclusive_obs(|| {
            use crate::simd::{self, with_tier, Tier};
            let mut tiers = vec![Tier::Scalar];
            if simd::avx2_available() {
                tiers.push(Tier::Avx2Fma);
            }
            let run = |dims: &[usize], fused: bool| {
                let n: usize = dims.iter().product();
                let vals: Vec<f32> = (0..n).map(|i| 2.5 * (i as f32 * 0.613).sin()).collect();
                let x = Tensor::param_from_vec(vals, dims).unwrap();
                let d = dims[dims.len() - 1] / 2;
                let axis = dims.len() - 1;
                let y = if fused {
                    x.gated_tanh()
                } else {
                    x.slice_axis(axis, 0, d).tanh().mul(&x.slice_axis(axis, d, d).sigmoid())
                };
                let r: Vec<f32> = (0..y.numel()).map(|i| (i as f32 * 1.37).cos()).collect();
                backward(&y.mul(&Tensor::from_vec(r, y.dims()).unwrap()).sum_all());
                (y.to_vec(), x.grad().unwrap())
            };
            for tier in tiers {
                for dims in [vec![3, 2], vec![5, 6], vec![2, 3, 16], vec![7, 26], vec![2, 2, 40]] {
                    let (y, g) = with_tier(tier, || run(&dims, true));
                    let (yw, gw) = with_tier(tier, || run(&dims, false));
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&y), bits(&yw), "{} {dims:?} forward", tier.name());
                    for (i, (a, b)) in g.iter().zip(&gw).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0),
                            "{} {dims:?} gradient {i}: {a:e} vs {b:e}",
                            tier.name()
                        );
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "even, non-zero last axis")]
    fn gated_tanh_rejects_odd_width() {
        crate::obs::tests::with_exclusive_obs(|| {
            let _ = Tensor::zeros(&[2, 3]).gated_tanh();
        });
    }

    #[test]
    fn unary_with_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| assert_writes_every_element(|| leaf(&[7, 9], 0.3).relu()));
    }

    #[test]
    fn unary_tiered_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            // 63 elements: a padded 8-lane tail on the Avx2Fma tier.
            assert_writes_every_element(|| leaf(&[7, 9], 0.3).tanh());
            assert_writes_every_element(|| leaf(&[7, 9], 0.3).gelu());
        });
    }

    #[test]
    fn gated_tanh_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            for dims in [vec![5, 6], vec![3, 32], vec![2, 26]] {
                assert_writes_every_element(|| leaf(&dims, 0.2).gated_tanh());
            }
        });
    }
}
