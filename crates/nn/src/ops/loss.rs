//! Loss functions used across the workspace.

use crate::tensor::Tensor;

/// Mean-squared error between `pred` and a constant `target`.
///
/// `target` participates as data only; gradients flow into `pred`.
pub fn mse(pred: &Tensor, target: &Tensor) -> Tensor {
    assert_eq!(
        pred.dims(),
        target.dims(),
        "mse shape mismatch: {} vs {}",
        pred.shape(),
        target.shape()
    );
    pred.sub(&target.detach()).square().mean_all()
}

/// Mean-squared error restricted to positions where `mask == 1`.
///
/// This is the diffusion training objective of Eq. (11) in the paper: the
/// noise-prediction error is evaluated only on the masked (imputation
/// target) region. The divisor is the number of active positions, so the
/// loss scale is independent of the mask density. Returns zero when the
/// mask is empty.
pub fn masked_mse(pred: &Tensor, target: &Tensor, mask: &Tensor) -> Tensor {
    assert_eq!(pred.dims(), target.dims(), "masked_mse pred/target shape");
    assert_eq!(pred.dims(), mask.dims(), "masked_mse mask shape");
    let active: f32 = mask.data().iter().sum();
    if active == 0.0 {
        return Tensor::scalar(0.0);
    }
    let diff = pred.sub(&target.detach()).mul(&mask.detach());
    diff.square().sum_all().scale(1.0 / active)
}

/// Numerically stable binary cross-entropy on logits.
///
/// `target` entries must be in `[0, 1]`. Uses the log-sum-exp form
/// `max(x, 0) - x*t + ln(1 + exp(-|x|))`.
pub fn bce_with_logits(logits: &Tensor, target: &Tensor) -> Tensor {
    assert_eq!(logits.dims(), target.dims(), "bce shape mismatch");
    let n = logits.numel() as f32;
    let t = target.to_vec();
    let data: Vec<f32> = logits
        .data()
        .iter()
        .zip(&t)
        .map(|(&x, &tt)| x.max(0.0) - x * tt + (1.0 + (-x.abs()).exp()).ln())
        .collect();
    let mut total = crate::arena::zeroed(1);
    total[0] = data.iter().sum::<f32>() / n;
    let t_saved = t;
    Tensor::from_op(
        total,
        crate::Shape::scalar(),
        vec![logits.clone()],
        move || Box::new(move |gout, _, parents| {
            let _sp = crate::obs::span("nn.loss.bwd");
            let p = &parents[0];
            let mut g = crate::arena::zeroed(t_saved.len());
            for ((o, &xv), &tt) in g.iter_mut().zip(p.data().iter()).zip(&t_saved) {
                *o = (1.0 / (1.0 + (-xv).exp()) - tt) * gout[0] / n;
            }
            p.accumulate_grad_owned(g);
        }),
    )
}

/// KL divergence `KL(N(mu, exp(logvar)) || N(0, 1))`, averaged over the
/// batch dimension (dim 0) and summed over the remaining dims.
///
/// Used by the VAE-based baselines (OmniAnomaly, InterFusion).
pub fn kl_standard_normal(mu: &Tensor, logvar: &Tensor) -> Tensor {
    assert_eq!(mu.dims(), logvar.dims(), "kl shape mismatch");
    let batch = mu.dims().first().copied().unwrap_or(1) as f32;
    // 0.5 * sum(exp(logvar) + mu^2 - 1 - logvar) / batch
    let term = logvar
        .exp()
        .add(&mu.square())
        .add_scalar(-1.0)
        .sub(logvar);
    term.sum_all().scale(0.5 / batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward;
    use crate::Tensor;

    fn param(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::param_from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn mse_basic() {
        let p = param(&[1.0, 2.0], &[2]);
        let t = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        let l = mse(&p, &t);
        assert!((l.item() - 2.5).abs() < 1e-6);
        backward(&l);
        assert_eq!(p.grad().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn masked_mse_ignores_unmasked() {
        let p = param(&[1.0, 100.0], &[2]);
        let t = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        let m = Tensor::from_vec(vec![1.0, 0.0], &[2]).unwrap();
        let l = masked_mse(&p, &t, &m);
        assert!((l.item() - 1.0).abs() < 1e-6);
        backward(&l);
        assert_eq!(p.grad().unwrap(), vec![2.0, 0.0]);
    }

    #[test]
    fn masked_mse_empty_mask_is_zero() {
        let p = param(&[1.0], &[1]);
        let t = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        let m = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        assert_eq!(masked_mse(&p, &t, &m).item(), 0.0);
    }

    #[test]
    fn bce_matches_closed_form() {
        let x = param(&[0.0], &[1]);
        let t = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let l = bce_with_logits(&x, &t);
        assert!((l.item() - (2.0f32).ln()).abs() < 1e-5);
        backward(&l);
        // d/dx = sigmoid(x) - t = 0.5 - 1.
        assert!((x.grad().unwrap()[0] + 0.5).abs() < 1e-5);
    }

    #[test]
    fn bce_stable_for_large_logits() {
        let x = param(&[50.0, -50.0], &[2]);
        let t = Tensor::from_vec(vec![1.0, 0.0], &[2]).unwrap();
        let l = bce_with_logits(&x, &t);
        assert!(l.item().is_finite());
        assert!(l.item() < 1e-5);
    }

    #[test]
    fn kl_zero_at_standard_normal() {
        let mu = param(&[0.0, 0.0], &[1, 2]);
        let logvar = param(&[0.0, 0.0], &[1, 2]);
        let l = kl_standard_normal(&mu, &logvar);
        assert!(l.item().abs() < 1e-6);
    }

    #[test]
    fn kl_positive_away_from_prior() {
        let mu = param(&[1.0], &[1, 1]);
        let logvar = param(&[0.5], &[1, 1]);
        let l = kl_standard_normal(&mu, &logvar);
        assert!(l.item() > 0.0);
        backward(&l);
        assert!(mu.grad().unwrap()[0] > 0.0);
    }
}
