//! Embedding lookup (gather rows with scatter-add backward).

use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Gathers rows of an embedding table.
    ///
    /// `self` is the table `[V, D]`; `indices` selects rows; the result is
    /// `[indices.len(), D]`. Panics on out-of-range indices.
    pub fn embedding(&self, indices: &[usize]) -> Tensor {
        let _sp = crate::obs::span("nn.embedding");
        let dims = self.dims();
        assert_eq!(dims.len(), 2, "embedding table must be [V, D]");
        let (v, d) = (dims[0], dims[1]);
        let mut out = crate::arena::overwrite(indices.len() * d);
        {
            let t = self.data();
            for (row, &ix) in indices.iter().enumerate() {
                assert!(ix < v, "embedding index {ix} out of range (V={v})");
                out[row * d..(row + 1) * d].copy_from_slice(&t[ix * d..(ix + 1) * d]);
            }
        }
        let idx = indices.to_vec();
        Tensor::from_op(
            out,
            Shape::new(&[indices.len(), d]),
            vec![self.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.embedding.bwd");
                let p = &parents[0];
                let mut g = crate::arena::zeroed(p.numel());
                for (row, &ix) in idx.iter().enumerate() {
                    for c in 0..d {
                        g[ix * d + c] += gout[row * d + c];
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

    #[test]
    fn embedding_gathers_rows() {
        let table =
            Tensor::param_from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let e = table.embedding(&[2, 0, 2]);
        assert_eq!(e.dims(), &[3, 2]);
        assert_eq!(e.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn embedding_backward_scatter_adds() {
        let table = Tensor::param_from_vec(vec![0.0; 6], &[3, 2]).unwrap();
        let e = table.embedding(&[1, 1, 0]);
        backward(&e.sum_all());
        // Row 1 selected twice, row 0 once, row 2 never.
        assert_eq!(table.grad().unwrap(), vec![1.0, 1.0, 2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn embedding_rejects_bad_index() {
        let table = Tensor::zeros(&[2, 2]);
        let _ = table.embedding(&[2]);
    }

    #[test]
    fn embedding_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| assert_writes_every_element(|| leaf(&[6, 5], 0.3).embedding(&[4, 0, 5, 5, 2])));
    }
}
