//! Element-wise unary and (broadcasting) binary operations.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// How a broadcast binary op walks its output, in both directions: `rows`
/// rows of `reps` runs of `inner` elements, in ascending output order.
///
/// Over one run both operands are contiguous: `inner` coalesces the
/// maximal suffix of dims over which both are (a stride equal to the
/// product of the out dims below it; size-1 dims are trivially
/// compatible), so a leading-dim broadcast like `[8,19,16,8]+[1,19,16,8]`
/// degenerates to a handful of dense runs and a same-shape op to one.
/// Across the runs of a row one operand may keep advancing while the
/// other repeats its run (stride 0) — the `[rows, l, d] + [rows, 1, d]`
/// embedding-bias pattern, or a `[d]` bias over `[rows, d]` — which
/// amortizes the outer odometer over `reps` runs.
struct BroadcastPlan {
    inner: usize,
    reps: usize,
    /// Offset step per run within a row: `inner` for the operand that
    /// advances, 0 for the one that repeats.
    rep_step: (usize, usize),
    /// The outer dims, walked once per row, and each operand's strides
    /// over them.
    row_dims: Vec<usize>,
    row_strides: (Vec<usize>, Vec<usize>),
}

impl BroadcastPlan {
    fn new(out: &Shape, a: &Shape, b: &Shape) -> Self {
        if (a == out && b == out) || out.numel() == 0 {
            // One dense run over everything (an empty one for no output),
            // with no stride vectors to build.
            return BroadcastPlan {
                inner: out.numel(),
                reps: 1,
                rep_step: (0, 0),
                row_dims: Vec::new(),
                row_strides: (Vec::new(), Vec::new()),
            };
        }
        let dims = out.dims();
        let sa = a.broadcast_strides_to(out);
        let sb = b.broadcast_strides_to(out);
        let mut inner = 1usize;
        let mut nd = dims.len();
        while nd > 0 {
            let d = nd - 1;
            let ok = |s: usize| s == inner || dims[d] == 1;
            if !(ok(sa[d]) && ok(sb[d])) {
                break;
            }
            inner *= dims[d];
            nd -= 1;
        }
        // One-sided extension of the coalesced suffix: `s_run` stays
        // contiguous while `s_zero` repeats (stride 0).
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
        let (run, nd, rep_step) = if run_a.max(run_b) == inner {
            (inner, nd, (0, 0))
        } else if run_a >= run_b {
            (run_a, nd_a, (inner, 0))
        } else {
            (run_b, nd_b, (0, inner))
        };
        BroadcastPlan {
            inner,
            reps: run / inner,
            rep_step,
            row_dims: dims[..nd].to_vec(),
            row_strides: (sa[..nd].to_vec(), sb[..nd].to_vec()),
        }
    }

    /// Calls `f(o, ia, ib)` once per run, ascending in `o`: the offsets
    /// of the run's `inner` contiguous elements in the output and in each
    /// operand.
    #[inline]
    fn for_each_run(&self, mut f: impl FnMut(usize, usize, usize)) {
        let rows: usize = self.row_dims.iter().product();
        let run = self.reps * self.inner;
        let (ra, rb) = (&self.row_strides.0, &self.row_strides.1);
        let mut idx = vec![0usize; self.row_dims.len()];
        let (mut ia, mut ib) = (0usize, 0usize);
        for r in 0..rows {
            for rep in 0..self.reps {
                let o = r * run + rep * self.inner;
                f(o, ia + rep * self.rep_step.0, ib + rep * self.rep_step.1);
            }
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                ia += ra[d];
                ib += rb[d];
                if idx[d] < self.row_dims[d] {
                    break;
                }
                ia -= ra[d] * self.row_dims[d];
                ib -= rb[d] * self.row_dims[d];
                idx[d] = 0;
            }
        }
    }
}

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
    let plan = BroadcastPlan::new(&out_shape, a.shape(), b.shape());
    // The plan's runs cover the output exactly once.
    let mut out = crate::arena::overwrite(out_shape.numel());
    {
        let (da, db) = (a.data(), b.data());
        let n = plan.inner;
        plan.for_each_run(|o, ia, ib| {
            let runs = out[o..o + n].iter_mut().zip(&da[ia..ia + n]).zip(&db[ib..ib + n]);
            for ((y, &x), &z) in runs {
                *y = fwd(x, z);
            }
        });
    }
    Tensor::from_op(
        out,
        out_shape,
        vec![a.clone(), b.clone()],
        move || Box::new(move |gout, _, parents| {
            let _sp = crate::obs::span("nn.binary.bwd");
            let (pa, pb) = (&parents[0], &parents[1]);
            let (da, db) = (pa.data(), pb.data());
            if pa.requires_grad() {
                pa.accumulate_grad_owned(operand_grad::<true>(&plan, &da, &db, gout, partials));
            }
            if pb.requires_grad() {
                pb.accumulate_grad_owned(operand_grad::<false>(&plan, &da, &db, gout, partials));
            }
        }),
    )
}

/// The gradient of the left (`LEFT`) or right operand of a broadcast
/// binary op, walked by the forward's plan. Each element receives its
/// contributions in ascending output order, `+=` into a zeroed buffer
/// even for a dense operand: a copy would keep a `-0.0` partial that the
/// sum turns into `+0.0`.
fn operand_grad<const LEFT: bool>(
    plan: &BroadcastPlan,
    da: &[f32],
    db: &[f32],
    gout: &[f32],
    partials: impl Fn(f32, f32) -> (f32, f32),
) -> Vec<f32> {
    let n = plan.inner;
    let mut g = crate::arena::zeroed(if LEFT { da.len() } else { db.len() });
    plan.for_each_run(|o, ia, ib| {
        let dst = if LEFT { ia } else { ib };
        let runs = g[dst..dst + n]
            .iter_mut()
            .zip(&da[ia..ia + n])
            .zip(&db[ib..ib + n])
            .zip(&gout[o..o + n]);
        for (((gv, &x), &z), &go) in runs {
            let (pa, pb) = partials(x, z);
            let p = if LEFT { pa } else { pb };
            *gv += p * go;
        }
    });
    g
}

fn unary(
    a: &Tensor,
    fwd: impl Fn(f32) -> f32 + Copy + 'static,
    dfdx: impl Fn(f32, f32) -> f32 + Copy + 'static,
) -> Tensor {
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
        // `dfdx(x, y)` reads `y = fwd(x)` from the node's own output.
        move || Box::new(move |gout, y, parents| {
            let _sp = crate::obs::span("nn.unary.bwd");
            let p = &parents[0];
            let mut g = crate::arena::overwrite(gout.len());
            for (((o, &go), &x), &y) in g.iter_mut().zip(gout).zip(p.data().iter()).zip(y) {
                *o = dfdx(x, y) * go;
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
            let mut data = crate::arena::overwrite(src.len());
            for (o, &x) in data.iter_mut().zip(src.iter()) {
                *o = x * c;
            }
            data
        };
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.unary.bwd");
                let mut g = crate::arena::overwrite(gout.len());
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
            let mut data = crate::arena::overwrite(src.len());
            for (o, &x) in data.iter_mut().zip(src.iter()) {
                *o = x + c;
            }
            data
        };
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            move || Box::new(move |gout, _, parents| {
                let _sp = crate::obs::span("nn.unary.bwd");
                parents[0].accumulate_grad(gout)
            }),
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
        crate::obs::tests::with_exclusive_obs(|| {
            let a = param(&[1.0, 2.0, 3.0], &[3]);
            let b = param(&[4.0, 5.0, 6.0], &[3]);
            assert_eq!(a.add(&b).to_vec(), vec![5.0, 7.0, 9.0]);
            assert_eq!(b.sub(&a).to_vec(), vec![3.0, 3.0, 3.0]);
            assert_eq!(a.mul(&b).to_vec(), vec![4.0, 10.0, 18.0]);
            assert_eq!(b.div(&a).to_vec(), vec![4.0, 2.5, 2.0]);
        });
    }

    #[test]
    fn broadcast_row_bias() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
            let b = param(&[10.0, 20.0, 30.0], &[3]);
            let y = x.add(&b);
            assert_eq!(y.to_vec(), vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
            let loss = y.sum_all();
            backward(&loss);
            // The bias gradient sums over the broadcast (row) axis.
            assert_eq!(b.grad().unwrap(), vec![2.0, 2.0, 2.0]);
            assert_eq!(x.grad().unwrap(), vec![1.0; 6]);
        });
    }

    #[test]
    fn mul_gradients() {
        crate::obs::tests::with_exclusive_obs(|| {
            let a = param(&[2.0, 3.0], &[2]);
            let b = param(&[5.0, 7.0], &[2]);
            let loss = a.mul(&b).sum_all();
            backward(&loss);
            assert_eq!(a.grad().unwrap(), vec![5.0, 7.0]);
            assert_eq!(b.grad().unwrap(), vec![2.0, 3.0]);
        });
    }

    #[test]
    fn div_gradients() {
        crate::obs::tests::with_exclusive_obs(|| {
            let a = param(&[6.0], &[1]);
            let b = param(&[3.0], &[1]);
            let loss = a.div(&b).sum_all();
            backward(&loss);
            assert_eq!(a.grad().unwrap(), vec![1.0 / 3.0]);
            assert_eq!(b.grad().unwrap(), vec![-6.0 / 9.0]);
        });
    }

    #[test]
    fn unary_grads() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[0.5, 1.5], &[2]);
            let loss = x.exp().sum_all();
            backward(&loss);
            let g = x.grad().unwrap();
            assert!((g[0] - 0.5f32.exp()).abs() < 1e-6);
            assert!((g[1] - 1.5f32.exp()).abs() < 1e-6);
        });
    }

    #[test]
    fn sqrt_square_roundtrip_grad() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[4.0], &[1]);
            let loss = x.sqrt().sum_all();
            backward(&loss);
            assert!((x.grad().unwrap()[0] - 0.25).abs() < 1e-6);

            let y = param(&[3.0], &[1]);
            let loss2 = y.square().sum_all();
            backward(&loss2);
            assert_eq!(y.grad().unwrap(), vec![6.0]);
        });
    }

    #[test]
    fn scale_and_add_scalar() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[1.0, -2.0], &[2]);
            let y = x.scale(3.0).add_scalar(1.0);
            assert_eq!(y.to_vec(), vec![4.0, -5.0]);
            backward(&y.sum_all());
            assert_eq!(x.grad().unwrap(), vec![3.0, 3.0]);
        });
    }

    #[test]
    fn abs_subgradient() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[-2.0, 0.0, 3.0], &[3]);
            let loss = x.abs().sum_all();
            backward(&loss);
            assert_eq!(x.grad().unwrap(), vec![-1.0, 0.0, 1.0]);
        });
    }

    #[test]
    fn ln_grad() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[2.0], &[1]);
            backward(&x.ln().sum_all());
            assert!((x.grad().unwrap()[0] - 0.5).abs() < 1e-6);
        });
    }

    /// The plan-walked backward gives the bits of the per-element walk it
    /// replaced: every gradient element accumulates `partial · g` in
    /// ascending output order, over random broadcast shapes with size-1
    /// and stride-0 dims.
    #[test]
    fn coalesced_backward_matches_naive_bits() {
        crate::obs::tests::with_exclusive_obs(|| {
            use rand::Rng;
            type Op = fn(&Tensor, &Tensor) -> Tensor;
            type Partials = fn(f32, f32) -> (f32, f32);
            let ops: [(&str, Op, Partials); 4] = [
                ("add", |a, b| a.add(b), |_, _| (1.0, 1.0)),
                ("sub", |a, b| a.sub(b), |_, _| (1.0, -1.0)),
                ("mul", |a, b| a.mul(b), |a, b| (b, a)),
                ("div", |a, b| a.div(b), |a, b| (1.0 / b, -a / (b * b))),
            ];
            let mut rng = crate::rng::seeded(7);
            for case in 0..200 {
                let rank = rng.gen_range(0..=4);
                let out: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..=4)).collect();
                let mut operand = || -> Vec<usize> {
                    let drop = rng.gen_range(0..=rank);
                    out[drop..]
                        .iter()
                        .map(|&d| if rng.gen_bool(0.4) { 1 } else { d })
                        .collect()
                };
                let (da, db) = (operand(), operand());
                let a = Tensor::randn(&mut rng, &da).into_param();
                let b = Tensor::randn(&mut rng, &db).add_scalar(3.0).into_param();
                for (name, op, partials) in ops {
                    a.zero_grad();
                    b.zero_grad();
                    let y = op(&a, &b);
                    let w = Tensor::randn(&mut rng, y.dims());
                    backward(&y.mul(&w).sum_all());

                    // Naive reference: one output element at a time, ascending.
                    let so = y.shape().clone();
                    let sa = a.shape().broadcast_strides_to(&so);
                    let sb = b.shape().broadcast_strides_to(&so);
                    let (xa, xb, g) = (a.to_vec(), b.to_vec(), w.to_vec());
                    let mut ga = vec![0.0f32; xa.len()];
                    let mut gb = vec![0.0f32; xb.len()];
                    for (o, &go) in g.iter().enumerate() {
                        let (mut ia, mut ib, mut rem) = (0, 0, o);
                        for d in (0..so.ndim()).rev() {
                            let i = rem % so.dims()[d];
                            rem /= so.dims()[d];
                            ia += i * sa[d];
                            ib += i * sb[d];
                        }
                        let (pa, pb) = partials(xa[ia], xb[ib]);
                        ga[ia] += pa * go;
                        gb[ib] += pb * go;
                    }
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let ctx = format!("case {case} {name} {da:?} {db:?}");
                    assert_eq!(bits(&a.grad().unwrap()), bits(&ga), "{ctx}: left");
                    assert_eq!(bits(&b.grad().unwrap()), bits(&gb), "{ctx}: right");
                }
            }
        });
    }

    #[test]
    fn empty_broadcast_runs_both_directions() {
        crate::obs::tests::with_exclusive_obs(|| {
            let a = param(&[], &[0, 3]);
            let b = param(&[1.0, 2.0, 3.0], &[1, 3]);
            let y = a.mul(&b);
            assert_eq!(y.dims(), &[0, 3]);
            backward(&y.sum_all());
            assert_eq!(b.grad().unwrap(), vec![0.0; 3]);
        });
    }

    #[test]
    fn backward_skips_operands_without_grad() {
        crate::obs::tests::with_exclusive_obs(|| {
            let x = param(&[1.0, -2.0, 3.0], &[3]);
            let c = Tensor::from_vec(vec![2.0], &[1]).unwrap();
            backward(&x.mul(&c).sum_all());
            assert_eq!(x.grad().unwrap(), vec![2.0; 3]);
            assert!(c.grad().is_none());
        });
    }

    #[test]
    fn binary_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| {
            // One dense run, a row bias, and a repeated middle dim.
            let shapes = [(vec![5, 13], vec![5, 13]), (vec![4, 3, 9], vec![9]), (vec![3, 4, 5], vec![3, 1, 5])];
            for (da, db) in shapes {
                assert_writes_every_element(|| leaf(&da, 0.1).mul(&leaf(&db, 0.7)));
            }
        });
    }

    #[test]
    fn unary_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| assert_writes_every_element(|| leaf(&[7, 9], 0.3).exp()));
    }

    #[test]
    fn scale_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| assert_writes_every_element(|| leaf(&[7, 9], 0.3).scale(1.7)));
    }

    #[test]
    fn add_scalar_writes_every_element() {
        use crate::ops::tests::{assert_writes_every_element, leaf};
        crate::obs::tests::with_exclusive_obs(|| assert_writes_every_element(|| leaf(&[7, 9], 0.3).add_scalar(-0.4)));
    }
}
