//! Fully connected (linear) layer.

use ftensor::{kernels, Initializer, Scratch, SeededRng, Tensor};

use crate::layer::{Layer, ParamSet, TrainableFlag};
use crate::{NeuralError, Result};

/// A fully connected layer computing `y = x·W + b` over a batch.
///
/// Input shape is `(batch, in_features)`; output is `(batch, out_features)`.
/// The classifier head of every child network, the embeddings of the NAS
/// controller and the proxy networks of the trained evaluator are all built
/// from `Dense`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), neural::NeuralError> {
/// use ftensor::{SeededRng, Tensor};
/// use neural::{Dense, Layer};
///
/// let mut rng = SeededRng::new(1);
/// let mut layer = Dense::new(3, 2, &mut rng);
/// let y = layer.forward(&Tensor::ones(&[4, 3]), false)?;
/// assert_eq!(y.dims(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    in_features: usize,
    out_features: usize,
    input_cache: Option<Tensor>,
    trainable: TrainableFlag,
}

impl Dense {
    /// Creates a new layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        let weight = Initializer::XavierUniform.create(
            rng,
            &[in_features, out_features],
            in_features,
            out_features,
        );
        Dense {
            weight,
            bias: Tensor::zeros(&[out_features]),
            weight_grad: Tensor::zeros(&[in_features, out_features]),
            bias_grad: Tensor::zeros(&[out_features]),
            in_features,
            out_features,
            input_cache: None,
            trainable: TrainableFlag::new(),
        }
    }

    /// Creates a layer from explicit weight and bias tensors.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidConfig`] if the shapes are inconsistent.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self> {
        let (in_features, out_features) = match weight.dims() {
            [i, o] => (*i, *o),
            _ => {
                return Err(NeuralError::InvalidConfig(
                    "dense weight must be rank-2".into(),
                ))
            }
        };
        if bias.len() != out_features {
            return Err(NeuralError::InvalidConfig(format!(
                "bias length {} does not match out_features {}",
                bias.len(),
                out_features
            )));
        }
        Ok(Dense {
            weight_grad: Tensor::zeros(&[in_features, out_features]),
            bias_grad: Tensor::zeros(&[out_features]),
            weight,
            bias,
            in_features,
            out_features,
            input_cache: None,
            trainable: TrainableFlag::new(),
        })
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Read-only access to the weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Read-only access to the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// `out = x·W + b` for one input row, into a borrowed slice: the
    /// allocation-free form of [`Layer::forward`] at batch 1, bit-identical
    /// to it. Nothing is cached for [`Layer::backward`]; pair it with
    /// [`Dense::backward_row`].
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` is not `in_features` long or `out` is
    /// not `out_features` long.
    pub fn forward_row_into(&self, x: &[f32], out: &mut [f32]) -> Result<()> {
        self.check_row(x, out.len())?;
        out.fill(0.0);
        kernels::matmul_into(
            x,
            self.weight.as_slice(),
            out,
            1,
            self.in_features,
            self.out_features,
        );
        Tensor::add_row_broadcast_in_place(out, &self.bias, 1, self.out_features)?;
        Ok(())
    }

    /// Accumulates the weight and bias gradients of one row whose forward
    /// input was `x`, and writes `dL/dx` into `grad_input`, without
    /// allocating or touching the forward cache.
    ///
    /// Every element gets the operations [`Layer::backward`] applies at
    /// batch 1, in the same order, so the result is bit-identical to it:
    /// `dW[i][o] += xᵢ·dYₒ` (skipped terms added as `0`), `db[o] += dYₒ`,
    /// and `dL/dxᵢ = Σₒ dYₒ·W[i][o]` summed in ascending `o` over the
    /// non-zero `dYₒ`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` or `grad_input` is not `in_features`
    /// long or `grad_output` is not `out_features` long.
    pub fn backward_row(
        &mut self,
        x: &[f32],
        grad_output: &[f32],
        grad_input: &mut [f32],
    ) -> Result<()> {
        self.check_row(x, grad_output.len())?;
        self.check_row(grad_input, grad_output.len())?;
        let out_features = self.out_features;
        let weight_grad = self.weight_grad.as_mut_slice();
        for (&xi, grad_row) in x.iter().zip(weight_grad.chunks_exact_mut(out_features)) {
            for (g, &dy) in grad_row.iter_mut().zip(grad_output) {
                // `xᵀ·dY` accumulates from zero and skips zero inputs
                let term = if xi == 0.0 { 0.0 } else { 0.0 + xi * dy };
                *g += term;
            }
        }
        for (g, &dy) in self.bias_grad.as_mut_slice().iter_mut().zip(grad_output) {
            *g += 0.0 + dy;
        }
        for (gx, w_row) in grad_input
            .iter_mut()
            .zip(self.weight.as_slice().chunks_exact(out_features))
        {
            let mut acc = 0.0f32;
            for (&dy, &w) in grad_output.iter().zip(w_row) {
                if dy != 0.0 {
                    acc += dy * w;
                }
            }
            *gx = acc;
        }
        Ok(())
    }

    /// Checks a one-row input of `in_features` and an output of
    /// `out_features`.
    fn check_row(&self, x: &[f32], out_len: usize) -> Result<()> {
        if x.len() != self.in_features || out_len != self.out_features {
            return Err(NeuralError::BadInputShape {
                layer: "dense".into(),
                expected: format!("({}) → ({})", self.in_features, self.out_features),
                actual: vec![x.len(), out_len],
            });
        }
        Ok(())
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let (_, cols) = input.shape().as_matrix()?;
        if cols != self.in_features {
            return Err(NeuralError::BadInputShape {
                layer: "dense".into(),
                expected: format!("(batch, {})", self.in_features),
                actual: input.dims().to_vec(),
            });
        }
        let flat = input.reshape(&[input.len() / self.in_features, self.in_features])?;
        let out = flat.matmul(&self.weight)?.add_row_broadcast(&self.bias)?;
        self.input_cache = Some(flat);
        Ok(out)
    }

    fn forward_scratch(
        &mut self,
        input: &Tensor,
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let (_, cols) = input.shape().as_matrix()?;
        if cols != self.in_features {
            return Err(NeuralError::BadInputShape {
                layer: "dense".into(),
                expected: format!("(batch, {})", self.in_features),
                actual: input.dims().to_vec(),
            });
        }
        let rows = input.len() / self.in_features;
        let mut out = scratch.take_tensor(&[rows, self.out_features]);
        kernels::matmul_into(
            input.as_slice(),
            self.weight.as_slice(),
            out.as_mut_slice(),
            rows,
            self.in_features,
            self.out_features,
        );
        Tensor::add_row_broadcast_in_place(
            out.as_mut_slice(),
            &self.bias,
            rows,
            self.out_features,
        )?;
        if train {
            self.input_cache = Some(input.reshape(&[rows, self.in_features])?);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .input_cache
            .as_ref()
            .ok_or_else(|| NeuralError::MissingForwardCache {
                layer: "dense".into(),
            })?;
        // dW = xᵀ · dY, db = column-sum(dY), dX = dY · Wᵀ
        let grad_w = input.transpose()?.matmul(grad_output)?;
        self.weight_grad.add_assign(&grad_w)?;
        let grad_b = grad_output.sum_axis(0)?;
        self.bias_grad.add_assign(&grad_b)?;
        let grad_input = grad_output.matmul(&self.weight.transpose()?)?;
        Ok(grad_input)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamSet<'_>)) {
        if self.trainable.enabled() {
            visitor(ParamSet {
                name: "weight",
                value: &mut self.weight,
                grad: &mut self.weight_grad,
            });
            visitor(ParamSet {
                name: "bias",
                value: &mut self.bias,
                grad: &mut self.bias_grad,
            });
        }
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn set_trainable(&mut self, trainable: bool) {
        self.trainable.set(trainable);
    }

    fn is_trainable(&self) -> bool {
        self.trainable.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_difference_check(layer: &mut Dense, input: &Tensor) {
        // loss = sum(forward(x)); analytic gradient vs central differences.
        let eps = 1e-2f32;
        let out = layer.forward(input, true).unwrap();
        let grad_out = Tensor::ones(out.dims());
        layer.zero_grad();
        let grad_in = layer.backward(&grad_out).unwrap();

        // check dL/dx for a few elements
        for idx in [0usize, input.len() / 2, input.len() - 1] {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let f_plus = layer.forward(&plus, true).unwrap().sum();
            let f_minus = layer.forward(&minus, true).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grad_in.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input grad mismatch at {idx}: numeric={numeric} analytic={analytic}"
            );
        }

        // check dL/dW for a few elements
        layer.zero_grad();
        layer.forward(input, true).unwrap();
        layer.backward(&grad_out).unwrap();
        let analytic_w = layer.weight_grad.clone();
        for idx in [0usize, analytic_w.len() - 1] {
            let original = layer.weight.as_slice()[idx];
            layer.weight.as_mut_slice()[idx] = original + eps;
            let f_plus = layer.forward(input, true).unwrap().sum();
            layer.weight.as_mut_slice()[idx] = original - eps;
            let f_minus = layer.forward(input, true).unwrap().sum();
            layer.weight.as_mut_slice()[idx] = original;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic_w.as_slice()[idx]).abs() < 1e-2,
                "weight grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn forward_shape_and_bias() {
        let weight = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let bias = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let mut layer = Dense::from_parts(weight, bias).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = layer.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[4.5, 4.5]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut rng = SeededRng::new(0);
        let mut layer = Dense::new(4, 2, &mut rng);
        assert!(layer.forward(&Tensor::ones(&[2, 3]), false).is_err());
    }

    #[test]
    fn from_parts_validates_shapes() {
        assert!(Dense::from_parts(Tensor::zeros(&[3]), Tensor::zeros(&[3])).is_err());
        assert!(Dense::from_parts(Tensor::zeros(&[3, 2]), Tensor::zeros(&[3])).is_err());
        assert!(Dense::from_parts(Tensor::zeros(&[3, 2]), Tensor::zeros(&[2])).is_ok());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeededRng::new(42);
        let mut layer = Dense::new(5, 3, &mut rng);
        let input = Initializer::XavierUniform.create(&mut rng, &[4, 5], 5, 3);
        finite_difference_check(&mut layer, &input);
    }

    #[test]
    fn param_count_matches_dimensions() {
        let mut rng = SeededRng::new(1);
        let layer = Dense::new(10, 7, &mut rng);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
    }

    #[test]
    fn freezing_hides_params_from_visitor() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::new(4, 4, &mut rng);
        assert_eq!(layer.trainable_param_count(), 20);
        layer.set_trainable(false);
        assert_eq!(layer.trainable_param_count(), 0);
        assert!(!layer.is_trainable());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::new(4, 4, &mut rng);
        assert!(layer.backward(&Tensor::ones(&[1, 4])).is_err());
    }

    #[test]
    fn gradient_accumulates_until_zeroed() {
        let mut rng = SeededRng::new(2);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        layer.forward(&x, true).unwrap();
        layer.backward(&Tensor::ones(&[1, 2])).unwrap();
        let first = layer.bias_grad.clone();
        layer.forward(&x, true).unwrap();
        layer.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(layer.bias_grad.as_slice()[0], first.as_slice()[0] * 2.0);
        layer.zero_grad();
        assert_eq!(layer.bias_grad.sum(), 0.0);
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_passes_are_bit_identical_to_forward_and_backward() {
        let mut rng = SeededRng::new(3);
        let mut tensor_layer = Dense::new(9, 5, &mut rng);
        let mut row_layer = Dense::from_parts(
            tensor_layer.weight.clone(),
            Initializer::XavierUniform.create(&mut rng, &[5], 9, 5),
        )
        .unwrap();
        tensor_layer.bias = row_layer.bias.clone();
        // zeros in the input and the output gradient take the skip paths
        let mut x: Vec<f32> = Initializer::HeNormal
            .create(&mut rng, &[9], 9, 5)
            .into_vec();
        x[2] = 0.0;
        x[7] = 0.0;
        for pass in 0..3 {
            let mut dy: Vec<f32> = Initializer::HeNormal
                .create(&mut rng, &[5], 5, 9)
                .into_vec();
            dy[pass] = 0.0;
            let input = Tensor::from_vec(x.clone(), &[1, 9]).unwrap();
            let logits = tensor_layer.forward(&input, true).unwrap();
            let grad_x = tensor_layer
                .backward(&Tensor::from_vec(dy.clone(), &[1, 5]).unwrap())
                .unwrap();

            let mut row_logits = [0.0f32; 5];
            row_layer.forward_row_into(&x, &mut row_logits).unwrap();
            let mut row_grad_x = [0.0f32; 9];
            row_layer.backward_row(&x, &dy, &mut row_grad_x).unwrap();

            assert_eq!(bits(logits.as_slice()), bits(&row_logits), "pass {pass}");
            assert_eq!(bits(grad_x.as_slice()), bits(&row_grad_x), "pass {pass}");
            assert_eq!(
                bits(tensor_layer.weight_grad.as_slice()),
                bits(row_layer.weight_grad.as_slice()),
                "pass {pass}"
            );
            assert_eq!(
                bits(tensor_layer.bias_grad.as_slice()),
                bits(row_layer.bias_grad.as_slice()),
                "pass {pass}"
            );
        }
    }

    #[test]
    fn row_passes_reject_wrong_lengths() {
        let mut rng = SeededRng::new(4);
        let mut layer = Dense::new(3, 2, &mut rng);
        let mut out = [0.0f32; 2];
        assert!(layer.forward_row_into(&[1.0; 4], &mut out).is_err());
        assert!(layer.forward_row_into(&[1.0; 3], &mut [0.0; 3]).is_err());
        let mut grad_x = [0.0f32; 3];
        assert!(layer
            .backward_row(&[1.0; 3], &[1.0; 3], &mut grad_x)
            .is_err());
        assert!(layer
            .backward_row(&[1.0; 3], &[1.0; 2], &mut [0.0; 4])
            .is_err());
        assert_eq!(
            layer.weight_grad.sum(),
            0.0,
            "a rejected call accumulates nothing"
        );
    }
}
