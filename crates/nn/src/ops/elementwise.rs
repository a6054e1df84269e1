//! Element-wise unary and (broadcasting) binary operations.

use crate::shape::{for_each_broadcast3, Shape};
use crate::tensor::Tensor;

/// `binary_broadcast` is generic (not `fn` pointers) so the per-element
/// body monomorphizes and inlines — an indirect call per element defeats
/// auto-vectorization and costs more than the arithmetic itself on the
/// small tensors the model runs at.
fn binary_broadcast(
    a: &Tensor,
    b: &Tensor,
    fwd: impl Fn(f32, f32) -> f32 + Copy + 'static,
    partials: impl Fn(f32, f32) -> (f32, f32) + Copy + 'static,
) -> Tensor {
    let _sp = crate::obs::span("nn.binary");
    let out_shape = Shape::broadcast(a.shape(), b.shape());
    let mut out = crate::arena::zeroed(out_shape.numel());
    {
        let da = a.data();
        let db = b.data();
        if a.shape() == &out_shape && b.shape() == &out_shape {
            // Dense same-shape case: straight zip, no index arithmetic.
            for ((o, &x), &y) in out.iter_mut().zip(da.iter()).zip(db.iter()) {
                *o = fwd(x, y);
            }
        } else {
            let dims = out_shape.dims();
            let ndim = dims.len();
            let sa = a.shape().broadcast_strides_to(&out_shape);
            let sb = b.shape().broadcast_strides_to(&out_shape);
            // Coalesce the maximal suffix of dims over which both operands
            // are contiguous (stride equals the product of the out dims
            // below; size-1 dims are trivially compatible). A leading-dim
            // broadcast like [8,19,16,8]+[1,19,16,8] then degenerates to a
            // handful of dense zips instead of a per-row multi-index walk.
            let mut inner = 1usize;
            let mut nd = ndim;
            while nd > 0 {
                let d = nd - 1;
                let ok = |s: usize| s == inner || dims[d] == 1;
                if !(ok(sa[d]) && ok(sb[d])) {
                    break;
                }
                inner *= dims[d];
                nd -= 1;
            }
            // One-sided extension of the coalesced suffix: one operand
            // stays contiguous while the other repeats its row (stride 0)
            // — the `[rows, l, d] + [rows, 1, d]` embedding-bias pattern.
            // The repeated row then amortizes the outer odometer over
            // `reps` dense zips instead of paying it per `inner` elements.
            let extend = |s_run: &[usize], s_zero: &[usize]| {
                let (mut run, mut ndr) = (inner, nd);
                while ndr > 0 {
                    let d = ndr - 1;
                    let run_ok = s_run[d] == run || dims[d] == 1;
                    let zero_ok = s_zero[d] == 0 || dims[d] == 1;
                    if !(run_ok && zero_ok) {
                        break;
                    }
                    run *= dims[d];
                    ndr -= 1;
                }
                (run, ndr)
            };
            let (run_a, nd_a) = extend(&sa, &sb);
            let (run_b, nd_b) = extend(&sb, &sa);
            if inner > 1 && run_a.max(run_b) > inner {
                let a_rep = run_a >= run_b;
                let (run, ndr) = if a_rep { (run_a, nd_a) } else { (run_b, nd_b) };
                let reps = run / inner;
                let rows = out_shape.numel() / run;
                let (ra, rb): (Vec<usize>, Vec<usize>) =
                    (sa[..ndr].to_vec(), sb[..ndr].to_vec());
                let mut idx = vec![0usize; ndr];
                let (mut ia, mut ib) = (0usize, 0usize);
                let row_dims = dims[..ndr].to_vec();
                for r in 0..rows {
                    for rep in 0..reps {
                        let orow = &mut out[r * run + rep * inner..][..inner];
                        let (arow, brow) = if a_rep {
                            (&da[ia + rep * inner..][..inner], &db[ib..ib + inner])
                        } else {
                            (&da[ia..ia + inner], &db[ib + rep * inner..][..inner])
                        };
                        for ((o, &x), &y) in orow.iter_mut().zip(arow).zip(brow) {
                            *o = fwd(x, y);
                        }
                    }
                    for d in (0..row_dims.len()).rev() {
                        idx[d] += 1;
                        ia += ra[d];
                        ib += rb[d];
                        if idx[d] < row_dims[d] {
                            break;
                        }
                        ia -= ra[d] * row_dims[d];
                        ib -= rb[d] * row_dims[d];
                        idx[d] = 0;
                    }
                }
            } else if inner > 1 {
                // Whole coalesced rows move as dense zips, leaving only the
                // outer dims to the generic multi-index walk.
                let rows = out_shape.numel() / inner;
                let (ra, rb): (Vec<usize>, Vec<usize>) =
                    (sa[..nd].to_vec(), sb[..nd].to_vec());
                let mut idx = vec![0usize; nd];
                let (mut ia, mut ib) = (0usize, 0usize);
                let row_dims = dims[..nd].to_vec();
                for r in 0..rows {
                    let orow = &mut out[r * inner..(r + 1) * inner];
                    let arow = &da[ia..ia + inner];
                    let brow = &db[ib..ib + inner];
                    for ((o, &x), &y) in orow.iter_mut().zip(arow).zip(brow) {
                        *o = fwd(x, y);
                    }
                    for d in (0..row_dims.len()).rev() {
                        idx[d] += 1;
                        ia += ra[d];
                        ib += rb[d];
                        if idx[d] < row_dims[d] {
                            break;
                        }
                        ia -= ra[d] * row_dims[d];
                        ib -= rb[d] * row_dims[d];
                        idx[d] = 0;
                    }
                }
            } else {
                for_each_broadcast3(&out_shape, a.shape(), b.shape(), |o, ia, ib| {
                    out[o] = fwd(da[ia], db[ib]);
                });
            }
        }
    }
    let (sa, sb) = (a.shape().clone(), b.shape().clone());
    let so = out_shape.clone();
    Tensor::from_op(
        out,
        out_shape,
        vec![a.clone(), b.clone()],
        move || Box::new(move |gout, parents| {
            let (pa, pb) = (&parents[0], &parents[1]);
            let mut ga = crate::arena::zeroed(sa.numel());
            let mut gb = crate::arena::zeroed(sb.numel());
            {
                let da = pa.data();
                let db = pb.data();
                for_each_broadcast3(&so, &sa, &sb, |o, ia, ib| {
                    let (dda, ddb) = partials(da[ia], db[ib]);
                    ga[ia] += dda * gout[o];
                    gb[ib] += ddb * gout[o];
                });
            }
            pa.accumulate_grad_owned(ga);
            pb.accumulate_grad_owned(gb);
        }),
    )
}

fn unary(
    a: &Tensor,
    fwd: impl Fn(f32) -> f32 + Copy + 'static,
    dfdx: impl Fn(f32, f32) -> f32 + Copy + 'static,
) -> Tensor {
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
        // The backward recomputes `y = fwd(x)` instead of cloning the
        // forward output: bit-identical gradients (same pure function on
        // the same input) without an eager save that forward-only mode
        // would never use.
        move || Box::new(move |gout, parents| {
            let p = &parents[0];
            let mut g = crate::arena::zeroed(gout.len());
            for ((o, &go), &x) in g.iter_mut().zip(gout).zip(p.data().iter()) {
                *o = dfdx(x, fwd(x)) * go;
            }
            p.accumulate_grad_owned(g);
        }),
    )
}

impl Tensor {
    /// Element-wise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, |a, b| a + b, |_, _| (1.0, 1.0))
    }

    /// Element-wise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, |a, b| a - b, |_, _| (1.0, -1.0))
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, |a, b| a * b, |a, b| (b, a))
    }

    /// Element-wise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, |a, b| a / b, |a, b| (1.0 / b, -a / (b * b)))
    }

    /// Negation.
    pub fn neg(&self) -> Tensor {
        unary(self, |x| -x, |_, _| -1.0)
    }

    /// Multiplies every element by a constant.
    pub fn scale(&self, c: f32) -> Tensor {
        let data = {
            let src = self.data();
            let mut data = crate::arena::zeroed(src.len());
            for (o, &x) in data.iter_mut().zip(src.iter()) {
                *o = x * c;
            }
            data
        };
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            move || Box::new(move |gout, parents| {
                let mut g = crate::arena::zeroed(gout.len());
                for (o, &go) in g.iter_mut().zip(gout) {
                    *o = go * c;
                }
                parents[0].accumulate_grad_owned(g);
            }),
        )
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        let data = {
            let src = self.data();
            let mut data = crate::arena::zeroed(src.len());
            for (o, &x) in data.iter_mut().zip(src.iter()) {
                *o = x + c;
            }
            data
        };
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            move || Box::new(move |gout, parents| parents[0].accumulate_grad(gout)),
        )
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        unary(self, |x| x.exp(), |_, y| y)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        unary(self, |x| x.ln(), |x, _| 1.0 / x)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        unary(self, |x| x.sqrt(), |_, y| 0.5 / y)
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        unary(self, |x| x * x, |x, _| 2.0 * x)
    }

    /// Element-wise absolute value (subgradient 0 at the kink).
    pub fn abs(&self) -> Tensor {
        unary(
            self,
            |x| x.abs(),
            |x, _| {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward;

    fn param(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::param_from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn add_sub_mul_div_forward() {
        let a = param(&[1.0, 2.0, 3.0], &[3]);
        let b = param(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).to_vec(), vec![5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).to_vec(), vec![3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).to_vec(), vec![4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).to_vec(), vec![4.0, 2.5, 2.0]);
    }

    #[test]
    fn broadcast_row_bias() {
        let x = param(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = param(&[10.0, 20.0, 30.0], &[3]);
        let y = x.add(&b);
        assert_eq!(y.to_vec(), vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let loss = y.sum_all();
        backward(&loss);
        // The bias gradient sums over the broadcast (row) axis.
        assert_eq!(b.grad().unwrap(), vec![2.0, 2.0, 2.0]);
        assert_eq!(x.grad().unwrap(), vec![1.0; 6]);
    }

    #[test]
    fn mul_gradients() {
        let a = param(&[2.0, 3.0], &[2]);
        let b = param(&[5.0, 7.0], &[2]);
        let loss = a.mul(&b).sum_all();
        backward(&loss);
        assert_eq!(a.grad().unwrap(), vec![5.0, 7.0]);
        assert_eq!(b.grad().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn div_gradients() {
        let a = param(&[6.0], &[1]);
        let b = param(&[3.0], &[1]);
        let loss = a.div(&b).sum_all();
        backward(&loss);
        assert_eq!(a.grad().unwrap(), vec![1.0 / 3.0]);
        assert_eq!(b.grad().unwrap(), vec![-6.0 / 9.0]);
    }

    #[test]
    fn unary_grads() {
        let x = param(&[0.5, 1.5], &[2]);
        let loss = x.exp().sum_all();
        backward(&loss);
        let g = x.grad().unwrap();
        assert!((g[0] - 0.5f32.exp()).abs() < 1e-6);
        assert!((g[1] - 1.5f32.exp()).abs() < 1e-6);
    }

    #[test]
    fn sqrt_square_roundtrip_grad() {
        let x = param(&[4.0], &[1]);
        let loss = x.sqrt().sum_all();
        backward(&loss);
        assert!((x.grad().unwrap()[0] - 0.25).abs() < 1e-6);

        let y = param(&[3.0], &[1]);
        let loss2 = y.square().sum_all();
        backward(&loss2);
        assert_eq!(y.grad().unwrap(), vec![6.0]);
    }

    #[test]
    fn scale_and_add_scalar() {
        let x = param(&[1.0, -2.0], &[2]);
        let y = x.scale(3.0).add_scalar(1.0);
        assert_eq!(y.to_vec(), vec![4.0, -5.0]);
        backward(&y.sum_all());
        assert_eq!(x.grad().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn abs_subgradient() {
        let x = param(&[-2.0, 0.0, 3.0], &[3]);
        let loss = x.abs().sum_all();
        backward(&loss);
        assert_eq!(x.grad().unwrap(), vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn ln_grad() {
        let x = param(&[2.0], &[1]);
        backward(&x.ln().sum_all());
        assert!((x.grad().unwrap()[0] - 0.5).abs() < 1e-6);
    }
}
