//! Recurrent cells (GRU, LSTM) and sequence wrappers.
//!
//! These power the recurrent baselines of the paper (LSTM-AD, OmniAnomaly,
//! MAD-GAN, MTAD-GAT). Sequences are unrolled step by step through the
//! autodiff graph, which is acceptable at the window lengths used here.

use rand::rngs::StdRng;

use super::{Linear, Module};
use crate::Tensor;

/// A single GRU cell.
pub struct GruCell {
    // Fused gate projections: input and hidden each map to 3*hidden
    // (reset, update, candidate).
    w_ih: Linear,
    w_hh: Linear,
    hidden: usize,
}

impl GruCell {
    /// Creates a GRU cell with the given input and hidden sizes.
    pub fn new(rng: &mut StdRng, input: usize, hidden: usize) -> Self {
        GruCell {
            w_ih: Linear::new(rng, input, 3 * hidden),
            w_hh: Linear::new(rng, hidden, 3 * hidden),
            hidden,
        }
    }

    /// One step: `x` is `[B, input]`, `h` is `[B, hidden]`; returns new `h`.
    pub fn step(&self, x: &Tensor, h: &Tensor) -> Tensor {
        let hd = self.hidden;
        let gi = self.w_ih.forward(x); // [B, 3H]
        let gh = self.w_hh.forward(h);
        let (ir, iz, in_) = (
            gi.slice_axis(1, 0, hd),
            gi.slice_axis(1, hd, hd),
            gi.slice_axis(1, 2 * hd, hd),
        );
        let (hr, hz, hn) = (
            gh.slice_axis(1, 0, hd),
            gh.slice_axis(1, hd, hd),
            gh.slice_axis(1, 2 * hd, hd),
        );
        let r = ir.add(&hr).sigmoid();
        let z = iz.add(&hz).sigmoid();
        let n = in_.add(&r.mul(&hn)).tanh();
        // h' = (1 - z) * n + z * h
        let one_minus_z = z.neg().add_scalar(1.0);
        one_minus_z.mul(&n).add(&z.mul(h))
    }
}

impl Module for GruCell {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.w_ih.params();
        p.extend(self.w_hh.params());
        p
    }
}

/// A GRU unrolled over a sequence.
pub struct Gru {
    cell: GruCell,
}

impl Gru {
    /// Creates a single-layer GRU.
    pub fn new(rng: &mut StdRng, input: usize, hidden: usize) -> Self {
        Gru {
            cell: GruCell::new(rng, input, hidden),
        }
    }

    /// Runs over `[B, L, input]`, returning all hidden states `[B, L, H]`.
    pub fn forward_seq(&self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 3, "Gru expects [B, L, D]");
        let (b, l) = (dims[0], dims[1]);
        let mut h = Tensor::zeros(&[b, self.cell.hidden]);
        let mut outputs: Vec<Tensor> = Vec::with_capacity(l);
        for t in 0..l {
            let xt = x.slice_axis(1, t, 1).reshape(&[b, dims[2]]);
            h = self.cell.step(&xt, &h);
            outputs.push(h.reshape(&[b, 1, self.cell.hidden]));
        }
        let refs: Vec<&Tensor> = outputs.iter().collect();
        Tensor::concat(&refs, 1)
    }

    /// Runs over `[B, L, input]`, returning only the final state `[B, H]`.
    pub fn forward_last(&self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        let (b, l) = (dims[0], dims[1]);
        let mut h = Tensor::zeros(&[b, self.cell.hidden]);
        for t in 0..l {
            let xt = x.slice_axis(1, t, 1).reshape(&[b, dims[2]]);
            h = self.cell.step(&xt, &h);
        }
        h
    }
}

impl Module for Gru {
    fn params(&self) -> Vec<Tensor> {
        self.cell.params()
    }
}

/// A single LSTM cell.
pub struct LstmCell {
    w_ih: Linear,
    w_hh: Linear,
    hidden: usize,
}

impl LstmCell {
    /// Creates an LSTM cell with the given input and hidden sizes.
    pub fn new(rng: &mut StdRng, input: usize, hidden: usize) -> Self {
        LstmCell {
            w_ih: Linear::new(rng, input, 4 * hidden),
            w_hh: Linear::new(rng, hidden, 4 * hidden),
            hidden,
        }
    }

    /// One step; returns `(h, c)`.
    pub fn step(&self, x: &Tensor, h: &Tensor, c: &Tensor) -> (Tensor, Tensor) {
        let hd = self.hidden;
        let g = self.w_ih.forward(x).add(&self.w_hh.forward(h)); // [B, 4H]
        let i = g.slice_axis(1, 0, hd).sigmoid();
        let f = g.slice_axis(1, hd, hd).sigmoid();
        let o = g.slice_axis(1, 2 * hd, hd).sigmoid();
        let cand = g.slice_axis(1, 3 * hd, hd).tanh();
        let c_new = f.mul(c).add(&i.mul(&cand));
        let h_new = o.mul(&c_new.tanh());
        (h_new, c_new)
    }
}

impl Module for LstmCell {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.w_ih.params();
        p.extend(self.w_hh.params());
        p
    }
}

/// An LSTM unrolled over a sequence.
pub struct Lstm {
    cell: LstmCell,
}

impl Lstm {
    /// Creates a single-layer LSTM.
    pub fn new(rng: &mut StdRng, input: usize, hidden: usize) -> Self {
        Lstm {
            cell: LstmCell::new(rng, input, hidden),
        }
    }

    /// Runs over `[B, L, input]`, returning all hidden states `[B, L, H]`.
    pub fn forward_seq(&self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 3, "Lstm expects [B, L, D]");
        let (b, l) = (dims[0], dims[1]);
        let mut h = Tensor::zeros(&[b, self.cell.hidden]);
        let mut c = Tensor::zeros(&[b, self.cell.hidden]);
        let mut outputs: Vec<Tensor> = Vec::with_capacity(l);
        for t in 0..l {
            let xt = x.slice_axis(1, t, 1).reshape(&[b, dims[2]]);
            let (h2, c2) = self.cell.step(&xt, &h, &c);
            h = h2;
            c = c2;
            outputs.push(h.reshape(&[b, 1, self.cell.hidden]));
        }
        let refs: Vec<&Tensor> = outputs.iter().collect();
        Tensor::concat(&refs, 1)
    }

    /// Runs over `[B, L, input]`, returning only the final state `[B, H]`.
    pub fn forward_last(&self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        let (b, l) = (dims[0], dims[1]);
        let mut h = Tensor::zeros(&[b, self.cell.hidden]);
        let mut c = Tensor::zeros(&[b, self.cell.hidden]);
        for t in 0..l {
            let xt = x.slice_axis(1, t, 1).reshape(&[b, dims[2]]);
            let (h2, c2) = self.cell.step(&xt, &h, &c);
            h = h2;
            c = c2;
        }
        h
    }
}

impl Module for Lstm {
    fn params(&self) -> Vec<Tensor> {
        self.cell.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::{backward, ops, Tensor};

    #[test]
    fn gru_shapes() {
        let gru = Gru::new(&mut seeded(1), 3, 5);
        let x = Tensor::randn(&mut seeded(2), &[2, 4, 3]);
        assert_eq!(gru.forward_seq(&x).dims(), &[2, 4, 5]);
        assert_eq!(gru.forward_last(&x).dims(), &[2, 5]);
    }

    #[test]
    fn lstm_shapes() {
        let lstm = Lstm::new(&mut seeded(1), 3, 5);
        let x = Tensor::randn(&mut seeded(2), &[2, 4, 3]);
        assert_eq!(lstm.forward_seq(&x).dims(), &[2, 4, 5]);
        assert_eq!(lstm.forward_last(&x).dims(), &[2, 5]);
    }

    #[test]
    fn gru_hidden_bounded() {
        // tanh/sigmoid gating keeps hidden states in (-1, 1).
        let gru = Gru::new(&mut seeded(3), 2, 4);
        let x = Tensor::randn(&mut seeded(4), &[1, 20, 2]).scale(10.0);
        let h = gru.forward_last(&x);
        assert!(h.data().iter().all(|v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn lstm_learns_to_remember_sign() {
        // Train the LSTM to output the sign of the first input element.
        let mut rng = seeded(5);
        let lstm = Lstm::new(&mut rng, 1, 8);
        let head = Linear::new(&mut rng, 8, 1);
        let mut params = lstm.params();
        params.extend(head.params());

        let x = Tensor::from_vec(
            vec![1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
            &[2, 4, 1],
        )
        .unwrap();
        let t = Tensor::from_vec(vec![1.0, -1.0], &[2, 1]).unwrap();

        let mut last = f32::INFINITY;
        for _ in 0..60 {
            let y = head.forward(&lstm.forward_last(&x));
            let loss = ops::mse(&y, &t);
            last = loss.item();
            backward(&loss);
            for p in &params {
                if let Some(g) = p.grad() {
                    p.update_data(|d| {
                        for (dv, gv) in d.iter_mut().zip(&g) {
                            *dv -= 0.1 * gv;
                        }
                    });
                    p.zero_grad();
                }
            }
        }
        assert!(last < 0.1, "LSTM failed to learn sign task, loss {last}");
    }

    #[test]
    fn gru_gradients_flow_to_all_params() {
        let gru = Gru::new(&mut seeded(6), 2, 3);
        let x = Tensor::randn(&mut seeded(7), &[1, 5, 2]);
        let loss = gru.forward_last(&x).square().sum_all();
        backward(&loss);
        for p in gru.params() {
            assert!(p.grad().is_some());
        }
    }
}
