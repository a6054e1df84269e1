//! Non-linear activation functions.

use crate::simd;
use crate::tensor::Tensor;

fn unary_with(a: &Tensor, fwd: impl Fn(f32) -> f32, dfdx: impl Fn(f32) -> f32 + 'static) -> Tensor {
    let _sp = crate::obs::span("nn.unary");
    let data = {
        let src = a.data();
        let mut data = crate::arena::zeroed(src.len());
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
            let mut g = crate::arena::zeroed(gout.len());
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
        let mut data = crate::arena::zeroed(src.len());
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
            let mut g = crate::arena::zeroed(gout.len());
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

impl Tensor {
    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        unary_with(self, |x| x.max(0.0), |x| if x > 0.0 { 1.0 } else { 0.0 })
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
        unary_tiered(self, simd::vsigmoid_avx2, simd::dsigmoid_avx2, sigmoid_f, |x| {
            let s = sigmoid_f(x);
            s * (1.0 - s)
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        unary_tiered(self, simd::vtanh_avx2, simd::dtanh_avx2, |x| x.tanh(), |x| {
            1.0 - x.tanh() * x.tanh()
        })
    }

    /// SiLU / swish: `x * sigmoid(x)` (the activation used by DiffWave/CSDI
    /// denoisers, which ImTransformer follows).
    pub fn silu(&self) -> Tensor {
        unary_tiered(
            self,
            simd::vsilu_avx2,
            simd::dsilu_avx2,
            |x| x * sigmoid_f(x),
            |x| {
                let s = sigmoid_f(x);
                s + x * s * (1.0 - s)
            },
        )
    }

    /// GELU with the tanh approximation.
    pub fn gelu(&self) -> Tensor {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        unary_tiered(
            self,
            simd::vgelu_avx2,
            simd::dgelu_avx2,
            |x| 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh()),
            |x| {
                let inner = C * (x + 0.044715 * x * x * x);
                let t = inner.tanh();
                let dinner = C * (1.0 + 3.0 * 0.044715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            },
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
        let x = param(&[-1.0, 0.0, 2.0]);
        let y = x.relu();
        assert_eq!(y.to_vec(), vec![0.0, 0.0, 2.0]);
        backward(&y.sum_all());
        assert_eq!(x.grad().unwrap(), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_at_zero() {
        let x = param(&[0.0]);
        let y = x.sigmoid();
        assert!((y.item() - 0.5).abs() < 1e-6);
        backward(&y.sum_all());
        assert!((x.grad().unwrap()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_matches_std() {
        let x = param(&[0.7]);
        assert!((x.tanh().item() - 0.7f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn silu_values() {
        let x = param(&[1.0]);
        let expected = 1.0 / (1.0 + (-1.0f32).exp());
        assert!((x.silu().item() - expected).abs() < 1e-6);
    }

    #[test]
    fn gelu_close_to_reference() {
        // Reference values for the tanh approximation.
        let x = param(&[1.0, -1.0]);
        let y = x.gelu().to_vec();
        assert!((y[0] - 0.841192).abs() < 1e-3, "{}", y[0]);
        assert!((y[1] - (-0.158808)).abs() < 1e-3, "{}", y[1]);
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let x = param(&[-2.0, 2.0]);
        let y = x.leaky_relu(0.1);
        assert_eq!(y.to_vec(), vec![-0.2, 2.0]);
        backward(&y.sum_all());
        assert_eq!(x.grad().unwrap(), vec![0.1, 1.0]);
    }

    /// Numerically checks d(gelu)/dx via central differences.
    #[test]
    fn gelu_grad_numeric() {
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
    }
}
