use crate::NnError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// Convolutional data follows the NCHW convention: `[batch, channels,
/// height, width]`. Fully connected data is `[batch, features]`.
///
/// # Example
///
/// ```
/// use rlnoc_nn::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// Wraps `data` with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadReshape`] if `data.len()` does not match the
    /// shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, NnError> {
        let expect: usize = shape.iter().product();
        if data.len() != expect {
            return Err(NnError::BadReshape {
                from: data.len(),
                to: expect,
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(ix < dim, "index {ix} out of range for dim {i} (size {dim})");
            off = off * dim + ix;
        }
        off
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
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

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// In-place `self += other * scale`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// L2 norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// True when every element is finite (no NaN or ±Inf). Anomaly
    /// detectors use this to scan gradients and parameters after a step.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Matrix multiplication of 2-D tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Runs on the cache-blocked kernel in [`crate::kernels`] (row-parallel
    /// above a size threshold; results are identical for any thread count).
    /// Unlike earlier versions there is no zero-skip fast path, so
    /// `0 × NaN` propagates as IEEE-754 requires.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, _, n) = self.matmul_dims(other);
        let mut out = Tensor::zeros(&[m, n]);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix multiplication writing into a caller-provided output tensor,
    /// avoiding the per-call allocation of [`Tensor::matmul`]. `out` is
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if operands are not 2-D, inner dimensions disagree, or `out`
    /// is not `[m, n]`.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k, n) = self.matmul_dims(other);
        assert_eq!(out.shape, [m, n], "matmul_into output shape mismatch");
        crate::kernels::gemm(
            false,
            false,
            m,
            k,
            n,
            &self.data,
            &other.data,
            &mut out.data,
        );
    }

    fn matmul_dims(&self, other: &Tensor) -> (usize, usize, usize) {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimensions disagree");
        (m, k, n)
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "elementwise shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} (mean {:.4})", self.shape, self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
        assert_eq!(t.get(&[1, 2, 3]), 23.0);
        assert_eq!(t.get(&[1, 0, 2]), 14.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(NnError::BadReshape { from: 5, to: 6 })
        ));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let b = Tensor::from_vec((0..20).map(|x| x as f32 * 0.5).collect(), &[4, 5]).unwrap();
        let mut out = Tensor::full(&[3, 5], f32::NAN); // must be fully overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_zero_times_nan_is_nan() {
        let a = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 1.0], &[2, 1]).unwrap();
        assert!(a.matmul(&b).as_slice()[0].is_nan());
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn matmul_into_rejects_bad_output_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let mut out = Tensor::zeros(&[2, 3]);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(&[2, 1]), a.get(&[1, 2]));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.max(), 3.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert!((t.norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn add_scaled_in_place() {
        let mut a = Tensor::zeros(&[2]);
        let b = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn elementwise_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }
}
