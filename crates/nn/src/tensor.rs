//! The [`Tensor`] type: dense `f32` data plus autodiff graph edges.

use std::cell::{Cell, Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use rand::rngs::StdRng;

use crate::autodiff::is_grad_enabled;
use crate::rng;
use crate::shape::Shape;
use crate::{NnError, Result};

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
}

fn next_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// The gradient function of a non-leaf node.
///
/// Receives the gradient flowing into the node, the node's own output and
/// the node's parents, and is responsible for accumulating into each
/// parent, handing over buffers taken from the arena
/// (`Tensor::accumulate_grad_owned`). An op whose derivative is a function
/// of its result (softmax, `exp`, the AVX2 tanh and sigmoid) reads the
/// output instead of recomputing it; most ignore it.
pub(crate) type BackwardFn = Box<dyn Fn(&[f32], &[f32], &[Tensor])>;

/// Packed matmul panels and the `(generation, k, n)` they were packed at.
pub(crate) type PackedPanels = ((u64, usize, usize), Rc<Vec<f32>>);

pub(crate) struct Node {
    id: u64,
    shape: Shape,
    /// Reference-counted so that a metadata-only op (reshape, on the tape
    /// or off it) can alias the buffer instead of copying it. Aliased storage is
    /// never mutated: `set_data`/`update_data` are only applied to params,
    /// and params are never created by (or eligible for) storage sharing.
    data: Rc<RefCell<Vec<f32>>>,
    grad: RefCell<Option<Vec<f32>>>,
    requires_grad: bool,
    /// Whether `data` is an op output, allocated by the arena. Only
    /// such storage goes back to the arena on drop: caller-built leaves
    /// and parameters were never taken from it, so parking them would
    /// grow the free list by every input a scope creates.
    op_output: bool,
    /// Bumped on every in-place data mutation (`set_data`/`update_data`).
    /// `(id, generation)` identifies a value snapshot; the generation keys
    /// `packed`, so an optimizer step invalidates the packed panels.
    generation: Cell<u64>,
    /// A parameter's matmul panels, packed from its value at the keyed
    /// `(generation, k, n)` (see `ops::matmul`); empty on other tensors.
    pub(crate) packed: RefCell<Option<PackedPanels>>,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
}

impl Drop for Node {
    fn drop(&mut self) {
        // Inside a recycling scope, a dropped tape node hands its gradient
        // and its op-output storage back to the arena (a no-op outside
        // one). Storage aliased by a live view stays alive (`get_mut`
        // fails) and is recycled when the last handle drops.
        if let Some(g) = self.grad.get_mut().take() {
            crate::arena::recycle(g);
        }
        if self.op_output {
            if let Some(cell) = Rc::get_mut(&mut self.data) {
                crate::arena::recycle(std::mem::take(cell.get_mut()));
            }
        }
    }
}

/// A dense, row-major `f32` tensor participating in an autodiff graph.
///
/// `Tensor` is a cheap reference-counted handle: cloning shares the
/// underlying storage and graph node. Tensors are single-threaded
/// (`Rc`-based); train one model per thread.
#[derive(Clone)]
pub struct Tensor {
    node: Rc<Node>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a leaf tensor from a data buffer and shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(NnError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Self::leaf(data, shape, false))
    }

    /// Builds a trainable leaf (parameter) from a data buffer and shape.
    pub fn param_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let t = Self::from_vec(data, dims)?;
        Ok(t.into_param())
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Self::leaf(vec![0.0; n], shape, false)
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Self::leaf(vec![value; n], shape, false)
    }

    /// A zero-dimensional scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::leaf(vec![value], Shape::scalar(), false)
    }

    /// Standard-normal random tensor using the supplied seeded RNG.
    pub fn randn(rng: &mut StdRng, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = rng::normal_vec(rng, shape.numel());
        Self::leaf(data, shape, false)
    }

    /// Marks this leaf as requiring gradients, returning it as a parameter.
    ///
    /// Panics when called on a non-leaf (op output) tensor.
    pub fn into_param(self) -> Self {
        assert!(
            self.node.parents.is_empty(),
            "into_param must be called on leaf tensors"
        );
        Self::leaf(self.to_vec(), self.node.shape.clone(), true)
    }

    /// A leaf over caller-owned storage: a parameter (`requires_grad`) or
    /// a plain input. Its storage never goes back to the arena.
    pub(crate) fn leaf(data: Vec<f32>, shape: Shape, requires_grad: bool) -> Self {
        Self::node_of(data, shape, requires_grad, false, Vec::new(), None)
    }

    /// A detached op output whose storage came from the arena.
    pub(crate) fn op_output(data: Vec<f32>, shape: Shape) -> Self {
        Self::node_of(data, shape, false, true, Vec::new(), None)
    }

    fn node_of(
        data: Vec<f32>,
        shape: Shape,
        requires_grad: bool,
        op_output: bool,
        parents: Vec<Tensor>,
        backward: Option<BackwardFn>,
    ) -> Self {
        debug_assert_eq!(data.len(), shape.numel());
        Tensor {
            node: Rc::new(Node {
                id: next_id(),
                shape,
                data: Rc::new(RefCell::new(data)),
                grad: RefCell::new(None),
                requires_grad,
                op_output,
                generation: Cell::new(0),
                packed: RefCell::new(None),
                parents,
                backward,
            }),
        }
    }

    /// A node that *aliases* this tensor's storage under a new shape — a
    /// metadata-only view, no copy. When gradient tracking is on and this
    /// tensor requires gradients, the view is a tape node with `backward`;
    /// otherwise it is a detached leaf.
    ///
    /// Only sound when the storage cannot be mutated while both handles
    /// are alive, so parameters are excluded: they are the only tensors
    /// `set_data`/`update_data` target (optimizer steps between
    /// forwards), while op outputs are immutable once produced.
    pub(crate) fn view(&self, shape: Shape, backward: impl FnOnce() -> BackwardFn) -> Self {
        debug_assert_eq!(self.numel(), shape.numel());
        debug_assert!(!self.is_param());
        let track = is_grad_enabled() && self.requires_grad();
        Tensor {
            node: Rc::new(Node {
                id: next_id(),
                shape,
                data: Rc::clone(&self.node.data),
                grad: RefCell::new(None),
                requires_grad: track,
                op_output: self.node.op_output,
                generation: Cell::new(0),
                packed: RefCell::new(None),
                parents: if track { vec![self.clone()] } else { Vec::new() },
                backward: track.then(backward),
            }),
        }
    }

    /// Creates an op-output node. When gradient tracking is disabled or no
    /// parent requires gradients, the result is a detached leaf (no graph)
    /// and the backward closure is never even constructed — forward-only
    /// execution pays zero tape cost.
    pub(crate) fn from_op(
        data: Vec<f32>,
        shape: Shape,
        parents: Vec<Tensor>,
        backward: impl FnOnce() -> BackwardFn,
    ) -> Self {
        let track = is_grad_enabled() && parents.iter().any(|p| p.requires_grad());
        if !track {
            return Self::op_output(data, shape);
        }
        Self::node_of(data, shape, true, true, parents, Some(backward()))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Unique node identifier (process-local, monotone).
    pub fn id(&self) -> u64 {
        self.node.id
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.node.shape
    }

    /// The tensor's dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.node.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.node.shape.numel()
    }

    /// Borrows the underlying data buffer.
    pub fn data(&self) -> Ref<'_, Vec<f32>> {
        self.node.data.borrow()
    }

    /// Copies the underlying data out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.node.data.borrow().clone()
    }

    /// The value of a scalar (single-element) tensor.
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        let d = self.node.data.borrow();
        assert_eq!(d.len(), 1, "item() requires a single-element tensor");
        d[0]
    }

    /// Whether gradients are accumulated into this tensor.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// Whether this is a parameter: a leaf that requires gradients.
    pub(crate) fn is_param(&self) -> bool {
        self.node.requires_grad && self.node.backward.is_none()
    }

    /// Mutation counter for the data buffer: 0 at construction, bumped by
    /// every [`set_data`](Self::set_data)/[`update_data`](Self::update_data)
    /// (i.e. every optimizer step). `(id, generation)` pins a value
    /// snapshot for caches layered above the tensor.
    pub fn generation(&self) -> u64 {
        self.node.generation.get()
    }

    /// A copy of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Vec<f32>> {
        self.node.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        if let Some(g) = self.node.grad.borrow_mut().take() {
            crate::arena::recycle(g);
        }
    }

    /// Overwrites the data buffer in place (used by optimizers).
    ///
    /// Panics if the length differs from the tensor's element count.
    pub fn set_data(&self, new: &[f32]) {
        let mut d = self.node.data.borrow_mut();
        assert_eq!(d.len(), new.len(), "set_data length mismatch");
        d.copy_from_slice(new);
        self.node.generation.set(self.node.generation.get() + 1);
    }

    /// Applies `f` to the data buffer in place (used by optimizers).
    pub fn update_data(&self, f: impl FnOnce(&mut [f32])) {
        let mut d = self.node.data.borrow_mut();
        f(&mut d);
        self.node.generation.set(self.node.generation.get() + 1);
    }

    /// Returns a detached copy: same values, fresh leaf, no graph history.
    pub fn detach(&self) -> Self {
        Self::leaf(self.to_vec(), self.node.shape.clone(), false)
    }

    /// Adds `g` into the tensor's gradient buffer (a no-op on tensors that
    /// do not require gradients). A data-parallel trainer calls this to
    /// fold per-replica gradients into the master parameters, in a fixed
    /// order.
    ///
    /// Panics (in debug builds) if `g` does not have one value per element.
    pub fn accumulate_grad(&self, g: &[f32]) {
        if !self.node.requires_grad {
            return;
        }
        debug_assert_eq!(g.len(), self.numel(), "gradient length mismatch");
        let mut slot = self.node.grad.borrow_mut();
        match slot.as_mut() {
            Some(acc) => add_assign(acc, g),
            None => {
                let mut owned = crate::arena::overwrite(g.len());
                owned.copy_from_slice(g);
                *slot = Some(owned);
            }
        }
    }

    /// [`accumulate_grad`](Self::accumulate_grad) for a buffer the caller
    /// hands over, as every backward closure does: the first contribution
    /// becomes the gradient without a copy, and a later one is added in
    /// and its buffer recycled.
    pub(crate) fn accumulate_grad_owned(&self, g: Vec<f32>) {
        if !self.node.requires_grad {
            crate::arena::recycle(g);
            return;
        }
        debug_assert_eq!(g.len(), self.numel(), "gradient length mismatch");
        let mut slot = self.node.grad.borrow_mut();
        match slot.as_mut() {
            Some(acc) => {
                add_assign(acc, &g);
                crate::arena::recycle(g);
            }
            None => *slot = Some(g),
        }
    }

    pub(crate) fn node(&self) -> &Node {
        &self.node
    }
}

fn add_assign(acc: &mut [f32], g: &[f32]) {
    for (a, b) in acc.iter_mut().zip(g) {
        *a += b;
    }
}

impl Node {
    /// Moves the accumulated gradient out (zeros if nothing reached the
    /// node), leaving the node without one.
    pub(crate) fn take_grad_or_zeros(&self) -> Vec<f32> {
        self.grad
            .borrow_mut()
            .take()
            .unwrap_or_else(|| crate::arena::zeroed(self.shape.numel()))
    }

    pub(crate) fn seed_grad_ones(&self) {
        let mut g = crate::arena::overwrite(self.shape.numel());
        g.fill(1.0);
        *self.grad.borrow_mut() = Some(g);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.node.data.borrow();
        let preview: Vec<f32> = d.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(id={}, shape={}, requires_grad={}, data≈{:?}{})",
            self.node.id,
            self.node.shape,
            self.node.requires_grad,
            preview,
            if d.len() > 8 { ", ..." } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn constructors_fill_values() {
        assert_eq!(Tensor::zeros(&[3]).to_vec(), vec![0.0; 3]);
        assert_eq!(Tensor::ones(&[2, 2]).to_vec(), vec![1.0; 4]);
        assert_eq!(Tensor::full(&[2], 7.0).to_vec(), vec![7.0, 7.0]);
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn(&mut seeded(1), &[16]);
        let b = Tensor::randn(&mut seeded(1), &[16]);
        let c = Tensor::randn(&mut seeded(2), &[16]);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_ne!(a.to_vec(), c.to_vec());
    }

    #[test]
    fn params_accumulate_gradients() {
        let p = Tensor::param_from_vec(vec![1.0, 2.0], &[2]).unwrap();
        p.accumulate_grad(&[0.5, 0.5]);
        p.accumulate_grad(&[1.0, 2.0]);
        assert_eq!(p.grad().unwrap(), vec![1.5, 2.5]);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn detach_breaks_history_but_keeps_values() {
        let p = Tensor::param_from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let d = p.detach();
        assert_eq!(d.to_vec(), vec![1.0, 2.0]);
        assert!(!d.requires_grad());
    }

    #[test]
    fn set_and_update_data() {
        let t = Tensor::zeros(&[2]);
        t.set_data(&[1.0, 2.0]);
        assert_eq!(t.to_vec(), vec![1.0, 2.0]);
        t.update_data(|d| d.iter_mut().for_each(|v| *v *= 2.0));
        assert_eq!(t.to_vec(), vec![2.0, 4.0]);
    }
}
