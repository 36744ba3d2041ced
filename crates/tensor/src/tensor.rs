//! The dense row-major tensor type.

use crate::error::TensorError;
use crate::kernels;
use crate::shape::Shape;
use crate::Result;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the workhorse value type of the FaHaNa reproduction: it backs
/// network weights, activations, controller states and feature maps. All
/// arithmetic is implemented in safe Rust over a flat `Vec<f32>`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ftensor::TensorError> {
/// use ftensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3])?;
/// let y = x.map(|v| v.max(0.0));
/// assert_eq!(y.as_slice(), &[1.0, 0.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![1.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a square identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the volume of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                provided: data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The extents of this tensor as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A read-only view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its underlying data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or bounds are invalid.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        let off = self.shape.offset(index)?;
        Ok(self.data[off])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or bounds are invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a copy reshaped to `dims`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                provided: self.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let mut data = vec![0.0f32; self.data.len()];
        kernels::map_into(&self.data, &mut data, f);
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` to every element, writing into a borrowed output slice —
    /// the allocation-free form of [`Tensor::map`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `out` has a different
    /// length.
    pub fn map_into<F: Fn(f32) -> f32>(&self, out: &mut [f32], f: F) -> Result<()> {
        if out.len() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                provided: out.len(),
                expected: self.data.len(),
            });
        }
        kernels::map_into(&self.data, out, f);
        Ok(())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let mut data = vec![0.0f32; self.data.len()];
        kernels::zip_into(&self.data, &other.data, &mut data, f);
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        kernels::zip_into_inplace(&mut self.data, &other.data, |a, b| a + b);
        Ok(())
    }

    /// Multiplies every element by `scale`.
    pub fn scale(&self, scale: f32) -> Tensor {
        self.map(|v| v * scale)
    }

    /// Accumulates `scale * other` into `self` (AXPY).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) -> Result<()> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        kernels::axpy_into(scale, &other.data, &mut self.data);
        Ok(())
    }

    /// Sets every element to zero, keeping the shape.
    pub fn fill_zero(&mut self) {
        for v in &mut self.data {
            *v = 0.0;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (positive infinity for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the largest element (flat, row-major). Returns 0 for empty.
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            })
            .0
    }

    /// Euclidean (L2) norm of all elements.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Sum of absolute values (L1 norm).
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_ones_have_expected_contents() {
        assert!(Tensor::zeros(&[2, 2]).as_slice().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(&[3]).as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_eq!(t.get(&[i, j]).unwrap(), expected);
            }
        }
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn elementwise_ops_respect_shapes() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-2.0, -2.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 8.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates_scaled_values() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn reductions_are_correct() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.l1_norm(), 6.0);
        assert!((t.l2_norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.is_finite());
        t.as_mut_slice()[0] = f32::NAN;
        assert!(!t.is_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::ones(&[2, 2]);
        assert!(!t.to_string().is_empty());
    }

    proptest! {
        #[test]
        fn prop_add_commutes(values in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
            let n = values.len();
            let a = Tensor::from_vec(values.clone(), &[n]).unwrap();
            let b = Tensor::from_vec(values.iter().rev().copied().collect(), &[n]).unwrap();
            let ab = a.add(&b).unwrap();
            let ba = b.add(&a).unwrap();
            prop_assert_eq!(ab.as_slice(), ba.as_slice());
        }

        #[test]
        fn prop_scale_then_sum_matches(values in proptest::collection::vec(-10.0f32..10.0, 1..32), k in -4.0f32..4.0) {
            let n = values.len();
            let t = Tensor::from_vec(values.clone(), &[n]).unwrap();
            let scaled_sum = t.scale(k).sum();
            let expected: f32 = values.iter().map(|v| v * k).sum();
            prop_assert!((scaled_sum - expected).abs() < 1e-3);
        }

        #[test]
        fn prop_l2_norm_is_nonnegative(values in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
            let n = values.len();
            let t = Tensor::from_vec(values, &[n]).unwrap();
            prop_assert!(t.l2_norm() >= 0.0);
        }
    }
}
