//! Reduction operations: sums and means, global and per-axis.

use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements, as a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        let mut total = crate::arena::zeroed(1);
        total[0] = self.data().iter().sum();
        let n = self.numel();
        Tensor::from_op(
            total,
            Shape::scalar(),
            vec![self.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.reduce.bwd");
                let mut g = crate::arena::zeroed(n);
                g.fill(gout[0]);
                parents[0].accumulate_grad_owned(g);
            }),
        )
    }

    /// Mean of all elements, as a scalar tensor.
    pub fn mean_all(&self) -> Tensor {
        let n = self.numel().max(1) as f32;
        self.sum_all().scale(1.0 / n)
    }

    /// Sum along `axis`. With `keepdim`, the reduced axis stays as size 1.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let dims = self.dims();
        assert!(
            axis < dims.len(),
            "sum_axis: axis {axis} out of range for {}",
            self.shape()
        );
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();

        let mut out_dims: Vec<usize> = dims.to_vec();
        if keepdim {
            out_dims[axis] = 1;
        } else {
            out_dims.remove(axis);
        }
        let out_shape = Shape::new(&out_dims);
        let mut out = crate::arena::zeroed(outer * inner);
        {
            let d = self.data();
            for o in 0..outer {
                for m in 0..mid {
                    let base = (o * mid + m) * inner;
                    let out_base = o * inner;
                    for i in 0..inner {
                        out[out_base + i] += d[base + i];
                    }
                }
            }
        }
        Tensor::from_op(
            out,
            out_shape,
            vec![self.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.reduce.bwd");
                let p = &parents[0];
                let mut g = crate::arena::zeroed(p.numel());
                for o in 0..outer {
                    for m in 0..mid {
                        let base = (o * mid + m) * inner;
                        let gout_base = o * inner;
                        g[base..base + inner]
                            .copy_from_slice(&gout[gout_base..gout_base + inner]);
                    }
                }
                p.accumulate_grad_owned(g);
            }),
        )
    }

    /// Mean along `axis`. With `keepdim`, the reduced axis stays as size 1.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let n = self.dims()[axis].max(1) as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / n)
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
    fn sum_all_and_grad() {
        let x = param(&[1.0, 2.0, 3.0], &[3]);
        let s = x.sum_all();
        assert_eq!(s.item(), 6.0);
        backward(&s);
        assert_eq!(x.grad().unwrap(), vec![1.0; 3]);
    }

    #[test]
    fn mean_all() {
        let x = param(&[2.0, 4.0], &[2]);
        let m = x.mean_all();
        assert_eq!(m.item(), 3.0);
        backward(&m);
        assert_eq!(x.grad().unwrap(), vec![0.5, 0.5]);
    }

    #[test]
    fn sum_axis_middle() {
        let x = param(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[2, 2, 2]);
        let s = x.sum_axis(1, false);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![4.0, 6.0, 12.0, 14.0]);
    }

    #[test]
    fn sum_axis_keepdim_shape() {
        let x = param(&[1.0; 12], &[3, 4]);
        assert_eq!(x.sum_axis(1, true).dims(), &[3, 1]);
        assert_eq!(x.sum_axis(1, false).dims(), &[3]);
    }

    #[test]
    fn sum_axis_grad_broadcasts_back() {
        let x = param(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let loss = x.sum_axis(0, false).sum_all();
        backward(&loss);
        assert_eq!(x.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn mean_axis_values() {
        let x = param(&[1.0, 3.0, 5.0, 7.0], &[2, 2]);
        let m = x.mean_axis(1, true);
        assert_eq!(m.to_vec(), vec![2.0, 6.0]);
    }
}
