//! Shape manipulation: reshape, permute, transpose, concat, slice.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Copies `src` (with shape `dims`) into a permuted layout given by `perm`.
///
/// Pure data movement — the last-two-swap path below is bit-identical to
/// the generic gather, it only changes the copy order.
fn permute_copy(src: &[f32], dims: &[usize], perm: &[usize]) -> Vec<f32> {
    let ndim = dims.len();
    let in_strides = Shape::new(dims).strides();
    let out_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
    let n: usize = out_dims.iter().product();
    let mut out = crate::arena::overwrite(n);
    if n == 0 {
        return out;
    }
    // Fast path: only the last two dims swapped — a strided 2-D transpose
    // per matrix instead of a generic multi-index gather.
    if ndim >= 2
        && perm[ndim - 1] == ndim - 2
        && perm[ndim - 2] == ndim - 1
        && perm[..ndim - 2].iter().enumerate().all(|(j, &p)| p == j)
    {
        let (r, c) = (dims[ndim - 2], dims[ndim - 1]);
        let mat = r * c;
        for (b, chunk) in out.chunks_mut(mat).enumerate() {
            let m = &src[b * mat..(b + 1) * mat];
            for j in 0..c {
                let orow = &mut chunk[j * r..(j + 1) * r];
                for (i, slot) in orow.iter_mut().enumerate() {
                    *slot = m[i * c + j];
                }
            }
        }
        return out;
    }
    let mut out_idx = vec![0usize; ndim];
    for slot in out.iter_mut() {
        // Map the output multi-index back to an input linear offset.
        let mut i_in = 0usize;
        for (j, &oi) in out_idx.iter().enumerate() {
            i_in += oi * in_strides[perm[j]];
        }
        *slot = src[i_in];
        for d in (0..ndim).rev() {
            out_idx[d] += 1;
            if out_idx[d] < out_dims[d] {
                break;
            }
            out_idx[d] = 0;
        }
    }
    out
}

impl Tensor {
    /// Reinterprets the tensor with a new shape of identical element count.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let _sp = crate::obs::span("nn.reshape");
        let new_shape = Shape::new(dims);
        assert_eq!(
            new_shape.numel(),
            self.numel(),
            "reshape from {} to {} changes element count",
            self.shape(),
            new_shape
        );
        let backward = move || -> crate::tensor::BackwardFn {
            Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.reshape.bwd");
                parents[0].accumulate_grad(gout)
            })
        };
        // Row-major reshape never moves data, so it is a view on the same
        // storage, on the tape or off it. Params are copied: they are the
        // only tensors mutated in place, by optimizer steps between
        // forwards.
        if !self.is_param() {
            return self.view(new_shape, backward);
        }
        let data = {
            let src = self.data();
            let mut data = crate::arena::zeroed(src.len());
            data.copy_from_slice(&src);
            data
        };
        Tensor::from_op(data, new_shape, vec![self.clone()], backward)
    }

    /// Permutes dimensions: output dim `j` is input dim `perm[j]`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let _sp = crate::obs::span("nn.permute");
        let dims = self.dims().to_vec();
        assert_eq!(perm.len(), dims.len(), "permute rank mismatch");
        let mut seen = vec![false; dims.len()];
        for &p in perm {
            assert!(p < dims.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let out_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
        let data = permute_copy(&self.data(), &dims, perm);
        // The gradient flows back through the inverse permutation.
        let mut inv = vec![0usize; perm.len()];
        for (j, &p) in perm.iter().enumerate() {
            inv[p] = j;
        }
        let out_dims_clone = out_dims.clone();
        Tensor::from_op(
            data,
            Shape::new(&out_dims),
            vec![self.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.permute.bwd");
                let g = permute_copy(gout, &out_dims_clone, &inv);
                parents[0].accumulate_grad_owned(g);
            }),
        )
    }

    /// Concatenates tensors along `axis`. All inputs must agree on every
    /// other dimension.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        let _sp = crate::obs::span("nn.concat");
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let first_dims = tensors[0].dims().to_vec();
        assert!(axis < first_dims.len(), "concat axis out of range");
        let mut axis_total = 0usize;
        for t in tensors {
            let d = t.dims();
            assert_eq!(d.len(), first_dims.len(), "concat rank mismatch");
            for (i, (&a, &b)) in d.iter().zip(&first_dims).enumerate() {
                assert!(i == axis || a == b, "concat non-axis dim mismatch");
            }
            axis_total += d[axis];
        }
        let mut out_dims = first_dims.clone();
        out_dims[axis] = axis_total;
        let out_shape = Shape::new(&out_dims);
        let outer: usize = first_dims[..axis].iter().product();
        let inner: usize = first_dims[axis + 1..].iter().product();

        // The inputs' blocks tile the output.
        let mut out = crate::arena::overwrite(out_shape.numel());
        let axis_sizes: Vec<usize> = tensors.iter().map(|t| t.dims()[axis]).collect();
        {
            let mut offset = 0usize;
            for (t, &sz) in tensors.iter().zip(&axis_sizes) {
                let d = t.data();
                for o in 0..outer {
                    let src = &d[o * sz * inner..(o + 1) * sz * inner];
                    let dst_base = (o * axis_total + offset) * inner;
                    out[dst_base..dst_base + sz * inner].copy_from_slice(src);
                }
                offset += sz;
            }
        }
        let parents: Vec<Tensor> = tensors.iter().map(|&t| t.clone()).collect();
        Tensor::from_op(
            out,
            out_shape,
            parents,
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.concat.bwd");
                let mut offset = 0usize;
                for (p, &sz) in parents.iter().zip(&axis_sizes) {
                    let mut g = crate::arena::overwrite(p.numel());
                    for o in 0..outer {
                        let src_base = (o * axis_total + offset) * inner;
                        g[o * sz * inner..(o + 1) * sz * inner]
                            .copy_from_slice(&gout[src_base..src_base + sz * inner]);
                    }
                    p.accumulate_grad_owned(g);
                    offset += sz;
                }
            }),
        )
    }

    /// Slices `len` elements starting at `start` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Tensor {
        let _sp = crate::obs::span("nn.slice");
        let dims = self.dims().to_vec();
        assert!(axis < dims.len(), "slice axis out of range");
        assert!(
            start + len <= dims[axis],
            "slice [{start}, {start}+{len}) exceeds axis size {}",
            dims[axis]
        );
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims = dims.clone();
        out_dims[axis] = len;
        let out_shape = Shape::new(&out_dims);
        let mut out = crate::arena::zeroed(out_shape.numel());
        {
            let d = self.data();
            for o in 0..outer {
                let src_base = (o * mid + start) * inner;
                out[o * len * inner..(o + 1) * len * inner]
                    .copy_from_slice(&d[src_base..src_base + len * inner]);
            }
        }
        Tensor::from_op(
            out,
            out_shape,
            vec![self.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.slice.bwd");
                let p = &parents[0];
                let mut g = crate::arena::zeroed(p.numel());
                for o in 0..outer {
                    let dst_base = (o * mid + start) * inner;
                    g[dst_base..dst_base + len * inner]
                        .copy_from_slice(&gout[o * len * inner..(o + 1) * len * inner]);
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

    fn param(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::param_from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn reshape_roundtrip() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
            let y = x.reshape(&[3, 2]);
            assert_eq!(y.dims(), &[3, 2]);
            assert_eq!(y.to_vec(), x.to_vec());
            backward(&y.sum_all());
            assert_eq!(x.grad().unwrap(), vec![1.0; 6]);
        });
    }

    #[test]
    fn transpose_2d() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
            let y = x.permute(&[1, 0]);
            assert_eq!(y.dims(), &[3, 2]);
            assert_eq!(y.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        });
    }

    #[test]
    fn permute_3d_and_grad() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&(0..24).map(|v| v as f32).collect::<Vec<_>>(), &[2, 3, 4]);
            let y = x.permute(&[2, 0, 1]);
            assert_eq!(y.dims(), &[4, 2, 3]);
            // y[i,j,k] = x[j,k,i]
            let yd = y.to_vec();
            assert_eq!(yd[0], 0.0); // x[0,0,0]
            assert_eq!(yd[8], 9.0); // y[1,0,2] = x[0,2,1] = 0*12 + 2*4 + 1
            backward(&y.sum_all());
            assert_eq!(x.grad().unwrap(), vec![1.0; 24]);
        });
    }

    #[test]
    fn concat_axis0_and_axis1() {
        crate::obs::tests::with_exclusive_obs(|| {
            let a = param(&[1.0, 2.0], &[1, 2]);
            let b = param(&[3.0, 4.0], &[1, 2]);
            let c0 = Tensor::concat(&[&a, &b], 0);
            assert_eq!(c0.dims(), &[2, 2]);
            assert_eq!(c0.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
            let c1 = Tensor::concat(&[&a, &b], 1);
            assert_eq!(c1.dims(), &[1, 4]);
            assert_eq!(c1.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        });
    }

    #[test]
    fn concat_grad_splits() {
        crate::obs::tests::with_exclusive_obs(|| {
            let a = param(&[1.0, 2.0], &[2]);
            let b = param(&[3.0], &[1]);
            let c = Tensor::concat(&[&a, &b], 0);
            backward(&c.mul(&Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap()).sum_all());
            assert_eq!(a.grad().unwrap(), vec![1.0, 2.0]);
            assert_eq!(b.grad().unwrap(), vec![3.0]);
        });
    }

    #[test]
    fn slice_middle_axis() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&(0..12).map(|v| v as f32).collect::<Vec<_>>(), &[2, 3, 2]);
            let y = x.slice_axis(1, 1, 2);
            assert_eq!(y.dims(), &[2, 2, 2]);
            assert_eq!(y.to_vec(), vec![2.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0, 11.0]);
            backward(&y.sum_all());
            let g = x.grad().unwrap();
            assert_eq!(g, vec![0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
        });
    }

    #[test]
    #[should_panic(expected = "exceeds axis size")]
    fn slice_out_of_range_panics() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[0.0; 6], &[2, 3]);
            let _ = x.slice_axis(1, 2, 2);
        });
    }

    #[test]
    fn concat_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            for axis in 0..3 {
                let mut db = vec![2, 3, 4];
                db[axis] = 5;
                assert_writes_every_element(|| Tensor::concat(&[&leaf(&[2, 3, 4], 0.1), &leaf(&db, 0.9)], axis));
            }
        });
    }

    #[test]
    fn permute_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            // The last-two swap and the generic gather.
            assert_writes_every_element(|| leaf(&[2, 3, 5], 0.4).permute(&[0, 2, 1]));
            assert_writes_every_element(|| leaf(&[2, 3, 5], 0.4).permute(&[2, 0, 1]));
        });
    }
}
