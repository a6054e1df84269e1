//! Fully-connected layer.

use rand::rngs::StdRng;

use super::Module;
use crate::init;
use crate::ops::Act;
use crate::Tensor;

/// A dense affine map `y = x W + b` applied to the last dimension,
/// optionally followed by a pointwise activation fused into the same op.
///
/// Accepts inputs of any rank `[.., in_features]`.
pub struct Linear {
    weight: Tensor,
    bias: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(rng: &mut StdRng, in_features: usize, out_features: usize) -> Self {
        Linear {
            weight: init::xavier_uniform(rng, in_features, out_features),
            bias: Some(init::zeros_init(&[out_features])),
            in_features,
            out_features,
        }
    }

    /// Creates a layer without a bias term.
    pub fn new_no_bias(rng: &mut StdRng, in_features: usize, out_features: usize) -> Self {
        Linear {
            weight: init::xavier_uniform(rng, in_features, out_features),
            bias: None,
            in_features,
            out_features,
        }
    }

    /// Applies the layer to `[.., in_features]` input: `x W + b`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_act(x, Act::Identity)
    }

    /// `act(x W + b)` on `[.., in_features]` input, as one
    /// [`Tensor::linear`] op: the kernel adds the bias and applies `act`
    /// where it stores each output, with the bits of the separate
    /// matmul, bias add and activation ops.
    pub fn forward_act(&self, x: &Tensor, act: Act) -> Tensor {
        assert_eq!(
            x.dims().last().copied(),
            Some(self.in_features),
            "Linear expects last dim {}, got {}",
            self.in_features,
            x.shape()
        );
        x.linear(&self.weight, self.bias.as_ref(), act)
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<Tensor> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::{backward, Tensor};

    #[test]
    fn forward_shapes() {
        let l = Linear::new(&mut seeded(1), 4, 3);
        let x = Tensor::zeros(&[2, 5, 4]);
        let y = l.forward(&x);
        assert_eq!(y.dims(), &[2, 5, 3]);
    }

    #[test]
    fn params_count() {
        let l = Linear::new(&mut seeded(1), 4, 3);
        assert_eq!(l.num_params(), 4 * 3 + 3);
        let l2 = Linear::new_no_bias(&mut seeded(1), 4, 3);
        assert_eq!(l2.num_params(), 12);
    }

    #[test]
    fn learns_identity_on_toy_problem() {
        // One gradient step decreases the loss.
        let mut rng = seeded(7);
        let l = Linear::new(&mut rng, 2, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let t = Tensor::from_vec(vec![3.0, 7.0], &[2, 1]).unwrap();
        let loss0 = crate::ops::mse(&l.forward(&x), &t);
        backward(&loss0);
        for p in l.params() {
            let g = p.grad().unwrap();
            p.update_data(|d| {
                for (dv, gv) in d.iter_mut().zip(&g) {
                    *dv -= 0.05 * gv;
                }
            });
            p.zero_grad();
        }
        let loss1 = crate::ops::mse(&l.forward(&x), &t);
        assert!(loss1.item() < loss0.item());
    }

    #[test]
    #[should_panic(expected = "Linear expects last dim")]
    fn rejects_wrong_width() {
        let l = Linear::new(&mut seeded(1), 4, 3);
        let _ = l.forward(&Tensor::zeros(&[2, 5]));
    }
}
