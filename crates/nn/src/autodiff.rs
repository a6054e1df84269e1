//! Reverse-mode automatic differentiation driver.

use std::cell::Cell;
use std::collections::HashSet;

use crate::tensor::Tensor;

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether operations currently record the autodiff graph.
pub fn is_grad_enabled() -> bool {
    GRAD_ENABLED.with(|c| c.get())
}

/// Runs `f` with graph recording disabled (inference mode).
///
/// Operations executed inside produce detached tensors, skipping both graph
/// bookkeeping and backward-closure allocation. Nesting is supported; the
/// previous state is restored even if `f` panics.
pub(crate) fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            GRAD_ENABLED.with(|c| c.set(self.0));
        }
    }
    let prev = GRAD_ENABLED.with(|c| c.replace(false));
    let _guard = Guard(prev);
    f()
}

/// Backpropagates from a scalar loss through the recorded graph.
///
/// Gradients accumulate into every reachable leaf with
/// `requires_grad = true` (the parameters); an intermediate node's
/// gradient is released once propagated, so only leaves hold one
/// afterwards. Call [`Tensor::zero_grad`] (or an optimizer's `zero_grad`)
/// between steps. Panics if `loss` is not a single-element tensor.
pub fn backward(loss: &Tensor) {
    assert_eq!(
        loss.numel(),
        1,
        "backward() requires a scalar loss, got shape {}",
        loss.shape()
    );
    if !loss.requires_grad() {
        return; // Nothing reachable requires gradients.
    }
    let _span = crate::obs::span("autodiff.backward");

    // Iterative post-order DFS to topologically sort the graph.
    let mut topo: Vec<Tensor> = Vec::new();
    let mut visited: HashSet<u64> = HashSet::new();
    let mut stack: Vec<(Tensor, usize)> = vec![(loss.clone(), 0)];
    visited.insert(loss.id());
    while let Some((t, child)) = stack.pop() {
        let parents = &t.node().parents;
        if child < parents.len() {
            stack.push((t.clone(), child + 1));
            let p = parents[child].clone();
            if p.requires_grad() && visited.insert(p.id()) {
                stack.push((p, 0));
            }
        } else {
            topo.push(t);
        }
    }

    // A node's gradient is complete once every consumer's closure has run
    // (reverse topological order), and only its own closure reads it; so
    // it is moved out, not cloned, and released right after. Leaves
    // (no closure) keep theirs.
    loss.node().seed_grad_ones();
    for t in topo.iter().rev() {
        let node = t.node();
        if let Some(backward_fn) = &node.backward {
            let grad = node.take_grad_or_zeros();
            backward_fn(&grad, &t.data(), &node.parents);
            crate::arena::recycle(grad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn no_grad_restores_state() {
        assert!(is_grad_enabled());
        no_grad(|| {
            assert!(!is_grad_enabled());
            no_grad(|| assert!(!is_grad_enabled()));
            assert!(!is_grad_enabled());
        });
        assert!(is_grad_enabled());
    }

    #[test]
    fn backward_on_detached_scalar_is_noop() {
        let t = Tensor::scalar(1.0);
        backward(&t); // must not panic
        assert!(t.grad().is_none());
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let p = Tensor::param_from_vec(vec![1.0, 2.0], &[2]).unwrap();
        backward(&p);
    }

    #[test]
    fn chain_rule_through_shared_node() {
        // y = (x * x) + (x * x) — the shared square node must propagate twice.
        let x = Tensor::param_from_vec(vec![3.0], &[1]).unwrap();
        let sq = x.mul(&x);
        let y = sq.add(&sq).sum_all();
        backward(&y);
        // dy/dx = 4x = 12.
        assert_eq!(x.grad().unwrap(), vec![12.0]);
    }

    #[test]
    fn backward_releases_intermediate_grads_and_keeps_leaf_grads() {
        let x = Tensor::param_from_vec(vec![3.0, -1.0], &[2]).unwrap();
        let sq = x.mul(&x);
        let y = sq.sum_all();
        backward(&y);
        assert!(sq.grad().is_none() && y.grad().is_none());
        assert_eq!(x.grad().unwrap(), vec![6.0, -2.0]);
    }

    #[test]
    fn no_grad_skips_graph() {
        let x = Tensor::param_from_vec(vec![2.0], &[1]).unwrap();
        let y = no_grad(|| x.mul(&x).sum_all());
        assert!(!y.requires_grad());
        backward(&y);
        assert!(x.grad().is_none());
    }
}
