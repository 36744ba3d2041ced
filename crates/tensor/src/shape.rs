//! Shape bookkeeping for dense row-major tensors.

use crate::error::TensorError;
use crate::Result;

/// The extents of a dense, row-major tensor.
///
/// A [`Shape`] is a thin wrapper around a `Vec<usize>` that knows how to
/// compute volumes, strides and flat offsets. It is used pervasively by
/// [`Tensor`](crate::Tensor).
///
/// # Example
///
/// ```
/// use ftensor::Shape;
///
/// let shape = Shape::new(&[2, 3, 4]);
/// assert_eq!(shape.volume(), 24);
/// assert_eq!(shape.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The extents of each dimension.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The extent of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::InvalidAxis {
                axis,
                rank: self.rank(),
            })
    }

    /// Total number of elements a tensor of this shape holds.
    ///
    /// A rank-0 shape has volume 1.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for axis in (0..self.rank().saturating_sub(1)).rev() {
            strides[axis] = strides[axis + 1] * self.dims[axis + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the index rank differs from
    /// the shape rank, or [`TensorError::IndexOutOfBounds`] if any component
    /// exceeds its extent.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                expected: self.rank(),
                actual: index.len(),
            });
        }
        let mut flat = 0usize;
        let strides = self.strides();
        for (axis, (&i, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, bound: d });
            }
            flat += i * strides[axis];
        }
        Ok(flat)
    }

    /// Returns `true` if both shapes have identical extents.
    pub fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }

    /// Interprets this shape as a matrix, returning `(rows, cols)`.
    ///
    /// Rank-1 shapes are treated as a single row; higher ranks collapse all
    /// leading dimensions into the row count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 shapes.
    pub fn as_matrix(&self) -> Result<(usize, usize)> {
        match self.rank() {
            0 => Err(TensorError::RankMismatch {
                expected: 2,
                actual: 0,
            }),
            1 => Ok((1, self.dims[0])),
            _ => {
                let cols = *self.dims.last().expect("non-empty dims");
                let rows = self.volume() / cols.max(1);
                Ok((rows, cols))
            }
        }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn volume_of_scalar_is_one() {
        assert_eq!(Shape::scalar().volume(), 1);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_walks_row_major_order() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[0, 2]).unwrap(), 2);
        assert_eq!(s.offset(&[1, 0]).unwrap(), 3);
        assert_eq!(s.offset(&[1, 2]).unwrap(), 5);
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn offset_rejects_wrong_rank() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(
            s.offset(&[1]),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn as_matrix_collapses_leading_dims() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.as_matrix().unwrap(), (6, 4));
        let v = Shape::new(&[5]);
        assert_eq!(v.as_matrix().unwrap(), (1, 5));
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2×3)");
    }

    proptest! {
        #[test]
        fn prop_volume_equals_product(dims in proptest::collection::vec(1usize..6, 0..4)) {
            let shape = Shape::new(&dims);
            prop_assert_eq!(shape.volume(), dims.iter().product::<usize>());
        }

        #[test]
        fn prop_offsets_are_unique_and_in_range(dims in proptest::collection::vec(1usize..5, 1..4)) {
            let shape = Shape::new(&dims);
            let mut seen = std::collections::HashSet::new();
            let mut index = vec![0usize; dims.len()];
            loop {
                let off = shape.offset(&index).unwrap();
                prop_assert!(off < shape.volume());
                prop_assert!(seen.insert(off));
                // increment the odometer
                let mut axis = dims.len();
                loop {
                    if axis == 0 { break; }
                    axis -= 1;
                    index[axis] += 1;
                    if index[axis] < dims[axis] { break; }
                    index[axis] = 0;
                    if axis == 0 {
                        // overflowed the most significant digit: done
                        prop_assert_eq!(seen.len(), shape.volume());
                        return Ok(());
                    }
                }
                if index.iter().all(|&i| i == 0) { break; }
            }
            prop_assert_eq!(seen.len(), shape.volume());
        }
    }
}
