//! Property-based tests of the autodiff engine: gradients of every core op
//! match central differences, and algebraic identities hold.

use imdiff_nn::{backward, rng::seeded, Tensor};
use proptest::prelude::*;

fn vec_strategy(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, n)
}

/// Numeric gradient of `f` at `x` via central differences.
fn numeric_grad(f: impl Fn(&[f32]) -> f32, x: &[f32], eps: f32) -> Vec<f32> {
    (0..x.len())
        .map(|i| {
            let mut p = x.to_vec();
            p[i] += eps;
            let mut m = x.to_vec();
            m[i] -= eps;
            (f(&p) - f(&m)) / (2.0 * eps)
        })
        .collect()
}

fn check_unary(
    vals: &[f32],
    op: impl Fn(&Tensor) -> Tensor,
    tol: f32,
) -> Result<(), TestCaseError> {
    let x = Tensor::param_from_vec(vals.to_vec(), &[vals.len()]).unwrap();
    let y = op(&x).sum_all();
    backward(&y);
    let analytic = x.grad().expect("grad");
    let numeric = numeric_grad(
        |v| {
            op(&Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap())
                .sum_all()
                .item()
        },
        vals,
        1e-2,
    );
    for (a, n) in analytic.iter().zip(&numeric) {
        prop_assert!((a - n).abs() < tol, "analytic {a} vs numeric {n}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn unary_gradients_match_numeric(vals in vec_strategy(5)) {
        check_unary(&vals, |x| x.tanh(), 0.05)?;
        check_unary(&vals, |x| x.sigmoid(), 0.05)?;
        check_unary(&vals, |x| x.silu(), 0.05)?;
        check_unary(&vals, |x| x.square(), 0.05)?;
        // exp grows fast; use a looser tolerance.
        check_unary(&vals, |x| x.exp(), 0.3)?;
    }

    #[test]
    fn broadcast_add_matches_manual(rows in 1usize..5, cols in 1usize..5, seed in 0u64..100) {
        let mut rng = seeded(seed);
        let a = Tensor::randn(&mut rng, &[rows, cols]);
        let b = Tensor::randn(&mut rng, &[cols]);
        let c = a.add(&b);
        let (ad, bd, cd) = (a.data(), b.data(), c.data());
        for r in 0..rows {
            for cidx in 0..cols {
                prop_assert!((cd[r * cols + cidx] - (ad[r * cols + cidx] + bd[cidx])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn matmul_associates_with_scaling(n in 1usize..6, c in -2.0f32..2.0, seed in 0u64..100) {
        let mut rng = seeded(seed);
        let a = Tensor::randn(&mut rng, &[n, n]);
        let b = Tensor::randn(&mut rng, &[n, n]);
        let left = a.scale(c).matmul(&b);
        let right = a.matmul(&b).scale(c);
        for (x, y) in left.data().iter().zip(right.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transpose_identity(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..100) {
        // (A B)^T == B^T A^T
        let mut rng = seeded(seed);
        let a = Tensor::randn(&mut rng, &[m, k]);
        let b = Tensor::randn(&mut rng, &[k, n]);
        let lhs = a.matmul(&b).permute(&[1, 0]);
        let rhs = b.permute(&[1, 0]).matmul(&a.permute(&[1, 0]));
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_gradient_matches_numeric(vals in vec_strategy(4), seed in 0u64..50) {
        let mut rng = seeded(seed);
        let w = Tensor::randn(&mut rng, &[2, 2]);
        let x = Tensor::param_from_vec(vals.clone(), &[2, 2]).unwrap();
        let loss = x.matmul(&w).square().sum_all();
        backward(&loss);
        let analytic = x.grad().expect("grad");
        let numeric = numeric_grad(
            |v| {
                Tensor::from_vec(v.to_vec(), &[2, 2])
                    .unwrap()
                    .matmul(&w)
                    .square()
                    .sum_all()
                    .item()
            },
            &vals,
            1e-2,
        );
        for (a, n) in analytic.iter().zip(&numeric) {
            prop_assert!((a - n).abs() < 0.05, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn softmax_is_a_distribution(vals in vec_strategy(6)) {
        let x = Tensor::from_vec(vals, &[2, 3]).unwrap();
        let y = x.softmax_last();
        let d = y.data();
        for r in 0..2 {
            let row = &d[r * 3..(r + 1) * 3];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn reshape_permute_roundtrip(seed in 0u64..100) {
        let mut rng = seeded(seed);
        let x = Tensor::randn(&mut rng, &[2, 3, 4]);
        let y = x.permute(&[2, 0, 1]).permute(&[1, 2, 0]);
        prop_assert_eq!(x.to_vec(), y.to_vec());
    }

    #[test]
    fn sum_axis_agrees_with_sum_all(seed in 0u64..100) {
        let mut rng = seeded(seed);
        let x = Tensor::randn(&mut rng, &[3, 4]);
        let total = x.sum_all().item();
        let via_axis = x.sum_axis(0, false).sum_all().item();
        prop_assert!((total - via_axis).abs() < 1e-4);
    }

    #[test]
    fn concat_slice_roundtrip(seed in 0u64..100, split in 1usize..4) {
        let mut rng = seeded(seed);
        let x = Tensor::randn(&mut rng, &[2, 5]);
        let a = x.slice_axis(1, 0, split);
        let b = x.slice_axis(1, split, 5 - split);
        let back = Tensor::concat(&[&a, &b], 1);
        prop_assert_eq!(x.to_vec(), back.to_vec());
    }
}
