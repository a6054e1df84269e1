//! Tensor shapes, strides and NumPy-style broadcasting rules.

use std::fmt;

/// The shape of a dense row-major tensor.
///
/// A shape is a list of dimension sizes; the empty list denotes a scalar.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Scalar shape (zero dimensions, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of dimension `axis`. Panics if out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0usize; self.ndim()];
        let mut acc = 1usize;
        for i in (0..self.ndim()).rev() {
            strides[i] = acc;
            acc *= self.0[i];
        }
        strides
    }

    /// Broadcasts two shapes together following NumPy rules.
    ///
    /// Dimensions are aligned from the right; each pair must be equal or one
    /// of them must be 1. Panics with a descriptive message on mismatch —
    /// broadcasting failures are programmer errors.
    pub fn broadcast(a: &Shape, b: &Shape) -> Shape {
        let ndim = a.ndim().max(b.ndim());
        let mut out = vec![0usize; ndim];
        for i in 0..ndim {
            let da = a.dim_from_right(i);
            let db = b.dim_from_right(i);
            out[ndim - 1 - i] = if da == db {
                da
            } else if da == 1 {
                db
            } else if db == 1 {
                da
            } else {
                panic!("cannot broadcast shapes {a} and {b}");
            };
        }
        Shape(out)
    }

    /// Dimension size counting from the right; missing dims act as 1.
    fn dim_from_right(&self, i: usize) -> usize {
        if i < self.ndim() {
            self.0[self.ndim() - 1 - i]
        } else {
            1
        }
    }

    /// Strides of `self` viewed as `out` (broadcast dims get stride 0).
    ///
    /// Panics if `self` does not broadcast to `out`.
    pub fn broadcast_strides_to(&self, out: &Shape) -> Vec<usize> {
        assert!(
            out.ndim() >= self.ndim(),
            "cannot broadcast {self} to smaller-rank {out}"
        );
        let own = self.strides();
        let mut strides = vec![0usize; out.ndim()];
        for i in 0..out.ndim() {
            let od = out.0[out.ndim() - 1 - i];
            let sd = self.dim_from_right(i);
            let slot = out.ndim() - 1 - i;
            if sd == od {
                if i < self.ndim() {
                    strides[slot] = own[self.ndim() - 1 - i];
                }
            } else if sd == 1 {
                strides[slot] = 0;
            } else {
                panic!("cannot broadcast {self} to {out}");
            }
        }
        strides
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.numel(), 24);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.numel(), 1);
        assert!(s.strides().is_empty());
    }

    #[test]
    fn broadcast_basic() {
        let a = Shape::new(&[3, 1]);
        let b = Shape::new(&[1, 4]);
        assert_eq!(Shape::broadcast(&a, &b), Shape::new(&[3, 4]));
    }

    #[test]
    fn broadcast_rank_extension() {
        let a = Shape::new(&[5, 3]);
        let b = Shape::new(&[3]);
        assert_eq!(Shape::broadcast(&a, &b), Shape::new(&[5, 3]));
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn broadcast_mismatch_panics() {
        Shape::broadcast(&Shape::new(&[2, 3]), &Shape::new(&[4]));
    }

    #[test]
    fn broadcast_strides() {
        let s = Shape::new(&[3]);
        let out = Shape::new(&[2, 3]);
        assert_eq!(s.broadcast_strides_to(&out), vec![0, 1]);
    }
}
