//! LSTM cell with backpropagation through time, used by the NAS controller.

use ftensor::{kernels, Initializer, SeededRng, Tensor};

use crate::layer::{Layer, ParamSet, TrainableFlag};
use crate::{NeuralError, Result};

/// Hidden and cell state carried between LSTM steps.
#[derive(Debug, Clone)]
pub struct LstmState {
    /// Hidden state, shape `(batch, hidden)`.
    pub h: Tensor,
    /// Cell state, shape `(batch, hidden)`.
    pub c: Tensor,
}

impl LstmState {
    /// A zero state for the given batch size and hidden width.
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        LstmState {
            h: Tensor::zeros(&[batch, hidden]),
            c: Tensor::zeros(&[batch, hidden]),
        }
    }
}

/// A single-layer LSTM cell.
///
/// The FaHaNa controller (paper Section 3.2 ➀) is an RNN that emits one
/// architecture decision per step and is updated with the Monte-Carlo policy
/// gradient of Eq. 2. That update needs gradients of the log-probabilities
/// with respect to the recurrent parameters across the whole episode, so
/// [`LstmCell::step`] records what backpropagation needs and
/// [`LstmCell::backward_through_time`] replays it.
///
/// Gate layout in the packed weight matrices is `[input, forget, cell, output]`.
///
/// # Step arena
///
/// The record of an episode is one flat `f32` arena. Each step appends
/// `[x | h_prev | c_prev | gates | tanh(c_new)]`, where `gates` holds the
/// activated gates of every batch row in the packed layout above (so for
/// batch 1 the record is `[x | h_prev | c_prev | i | f | g | o | tanh(c)]`).
/// Backpropagation only needs `c_new` through its `tanh`, which the forward
/// pass computes anyway, so that is what is kept. [`LstmCell::clear_cache`]
/// empties the arena but keeps its capacity: after the first episode a step
/// allocates nothing but the state it returns. Every step of an episode
/// must use the batch size of its first step; a step with another batch is
/// a shape error.
///
/// # Backpropagation and bit identity
///
/// [`LstmCell::backward_through_time`] transposes the weights once per call,
/// walks the arena backwards with one fused elementwise loop (the same
/// operations, in the same order, as the textbook per-step tensor
/// formulation), and stacks the per-step pre-activation gradients in
/// reverse step order. The input, weight and bias gradients are then
/// computed from that stack with one [`kernels::matmul_into`] /
/// [`kernels::sum_axis0_into`] each, straight into the gradient tensors.
/// Those kernels add one term at a time in ascending row order, so at batch
/// 1 every gradient element receives exactly the additions, in the same
/// order, that a per-step `grad += xᵀ·d_gates` gives: results are
/// bit-identical to the step-by-step formulation, which the controller
/// trajectory golden pins. At batch > 1 the per-step sum across batch rows
/// is reassociated into the running gradient, so only agreement with
/// finite differences is promised there.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), neural::NeuralError> {
/// use ftensor::{SeededRng, Tensor};
/// use neural::{LstmCell, LstmState};
///
/// let mut rng = SeededRng::new(0);
/// let mut cell = LstmCell::new(8, 16, &mut rng)?;
/// let state = LstmState::zeros(1, 16);
/// let next = cell.step(&Tensor::zeros(&[1, 8]), &state)?;
/// assert_eq!(next.h.dims(), &[1, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LstmCell {
    weight_x: Tensor,
    weight_h: Tensor,
    bias: Tensor,
    weight_x_grad: Tensor,
    weight_h_grad: Tensor,
    bias_grad: Tensor,
    input_size: usize,
    hidden_size: usize,
    /// Per-step records of the current episode (see the type docs).
    arena: Vec<f32>,
    /// Number of steps recorded in `arena`.
    steps: usize,
    /// Batch size of every step recorded in `arena`.
    batch: usize,
    /// Reused `h·Wh` product of [`LstmCell::step`].
    hidden_product: Vec<f32>,
    trainable: TrainableFlag,
}

/// Borrowed view of one recorded step in the arena.
struct StepRecord<'a> {
    x: &'a [f32],
    h_prev: &'a [f32],
    c_prev: &'a [f32],
    gates: &'a [f32],
    tanh_c: &'a [f32],
}

impl LstmCell {
    /// Creates a cell with small-uniform initialised weights and a forget
    /// gate bias of 1 (the usual trick to keep memory open early in
    /// training).
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidConfig`] if either size is zero.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut SeededRng) -> Result<Self> {
        if input_size == 0 || hidden_size == 0 {
            return Err(NeuralError::InvalidConfig(
                "lstm sizes must be non-zero".into(),
            ));
        }
        let weight_x = Initializer::SmallUniform.create(
            rng,
            &[input_size, 4 * hidden_size],
            input_size,
            hidden_size,
        );
        let weight_h = Initializer::SmallUniform.create(
            rng,
            &[hidden_size, 4 * hidden_size],
            hidden_size,
            hidden_size,
        );
        let mut bias = Tensor::zeros(&[4 * hidden_size]);
        for idx in hidden_size..2 * hidden_size {
            bias.as_mut_slice()[idx] = 1.0;
        }
        Ok(LstmCell {
            weight_x_grad: Tensor::zeros(weight_x.dims()),
            weight_h_grad: Tensor::zeros(weight_h.dims()),
            bias_grad: Tensor::zeros(bias.dims()),
            weight_x,
            weight_h,
            bias,
            input_size,
            hidden_size,
            arena: Vec::new(),
            steps: 0,
            batch: 0,
            hidden_product: Vec::new(),
            trainable: TrainableFlag::new(),
        })
    }

    /// The hidden width of the cell.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// The input width of the cell.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Number of recorded steps since the last [`LstmCell::clear_cache`].
    pub fn recorded_steps(&self) -> usize {
        self.steps
    }

    /// Discards the recorded steps (call at the start of each episode). The
    /// arena keeps its capacity for the next episode.
    pub fn clear_cache(&mut self) {
        self.arena.clear();
        self.steps = 0;
    }

    /// Floats one step occupies in the arena.
    fn record_len(&self) -> usize {
        self.batch * (self.input_size + 7 * self.hidden_size)
    }

    fn record(&self, t: usize) -> StepRecord<'_> {
        let (b, h) = (self.batch, self.hidden_size);
        let rec = &self.arena[t * self.record_len()..(t + 1) * self.record_len()];
        let (x, rest) = rec.split_at(b * self.input_size);
        let (h_prev, rest) = rest.split_at(b * h);
        let (c_prev, rest) = rest.split_at(b * h);
        let (gates, tanh_c) = rest.split_at(b * 4 * h);
        StepRecord {
            x,
            h_prev,
            c_prev,
            gates,
            tanh_c,
        }
    }

    /// Runs one LSTM step and records it in the arena for BPTT.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` is not `(batch, input_size)`, the state
    /// widths do not match the cell, or `batch` differs from the batch of
    /// the steps already recorded this episode.
    pub fn step(&mut self, x: &Tensor, state: &LstmState) -> Result<LstmState> {
        let (batch, in_features) = x.shape().as_matrix()?;
        if in_features != self.input_size {
            return Err(NeuralError::BadInputShape {
                layer: "lstm".into(),
                expected: format!("(batch, {})", self.input_size),
                actual: x.dims().to_vec(),
            });
        }
        if state.h.dims() != [batch, self.hidden_size]
            || state.c.dims() != [batch, self.hidden_size]
        {
            return Err(NeuralError::BadInputShape {
                layer: "lstm-state".into(),
                expected: format!("({batch}, {})", self.hidden_size),
                actual: state.h.dims().to_vec(),
            });
        }
        if self.steps > 0 && batch != self.batch {
            return Err(NeuralError::BadInputShape {
                layer: "lstm".into(),
                expected: format!(
                    "({}, {}): the batch of this episode's recorded steps",
                    self.batch, self.input_size
                ),
                actual: x.dims().to_vec(),
            });
        }
        self.batch = batch;
        let h = self.hidden_size;
        let start = self.arena.len();
        self.arena.extend_from_slice(x.as_slice());
        self.arena.extend_from_slice(state.h.as_slice());
        self.arena.extend_from_slice(state.c.as_slice());
        let gates_at = self.arena.len();
        self.arena.resize(start + self.record_len(), 0.0);
        let (gates, tanh_c) = self.arena[gates_at..].split_at_mut(batch * 4 * h);

        // gates = (x·Wx + h·Wh) + bias, each product accumulated from zero
        kernels::matmul_into(
            x.as_slice(),
            self.weight_x.as_slice(),
            gates,
            batch,
            self.input_size,
            4 * h,
        );
        self.hidden_product.clear();
        self.hidden_product.resize(batch * 4 * h, 0.0);
        kernels::matmul_into(
            state.h.as_slice(),
            self.weight_h.as_slice(),
            &mut self.hidden_product,
            batch,
            h,
            4 * h,
        );
        let mut c_new = vec![0.0f32; batch * h];
        let mut h_new = vec![0.0f32; batch * h];
        let (c_prev, bias) = (state.c.as_slice(), self.bias.as_slice());
        for (b, (row, hw)) in gates
            .chunks_exact_mut(4 * h)
            .zip(self.hidden_product.chunks_exact(4 * h))
            .enumerate()
        {
            for (j, ((v, &hv), &bv)) in row.iter_mut().zip(hw).zip(bias).enumerate() {
                // block 2 is the cell gate `g`; the other three are sigmoids
                let pre = (*v + hv) + bv;
                *v = if j / h == 2 { pre.tanh() } else { sigmoid(pre) };
            }
            let (i, f, g, o) = split_gates(row, h);
            let rows = b * h..(b + 1) * h;
            let (c_prev, c_new, h_new) = (
                &c_prev[rows.clone()],
                &mut c_new[rows.clone()],
                &mut h_new[rows.clone()],
            );
            let tanh_c = &mut tanh_c[rows];
            for j in 0..h {
                c_new[j] = f[j] * c_prev[j] + i[j] * g[j];
                tanh_c[j] = c_new[j].tanh();
                h_new[j] = o[j] * tanh_c[j];
            }
        }
        self.steps += 1;
        Ok(LstmState {
            h: Tensor::from_vec(h_new, &[batch, h])?,
            c: Tensor::from_vec(c_new, &[batch, h])?,
        })
    }

    /// Backpropagates through every recorded step.
    ///
    /// `grad_h` supplies `dL/dh_t` for each recorded step, in step order
    /// (entries may be zero tensors for steps without a direct loss
    /// contribution). Parameter gradients are accumulated into the cell;
    /// the returned vector holds `dL/dx_t` per step.
    ///
    /// # Errors
    ///
    /// Returns an error if `grad_h.len()` differs from the number of
    /// recorded steps or an entry is not `(batch, hidden_size)`.
    pub fn backward_through_time(&mut self, grad_h: &[Tensor]) -> Result<Vec<Tensor>> {
        if grad_h.len() != self.steps {
            return Err(NeuralError::InvalidConfig(format!(
                "got {} hidden gradients for {} recorded steps",
                grad_h.len(),
                self.steps
            )));
        }
        let (steps, batch, h, input) = (self.steps, self.batch, self.hidden_size, self.input_size);
        if let Some(bad) = grad_h.iter().find(|g| g.dims() != [batch, h]) {
            return Err(NeuralError::BadInputShape {
                layer: "lstm-bptt".into(),
                expected: format!("({batch}, {h})"),
                actual: bad.dims().to_vec(),
            });
        }
        if steps == 0 {
            return Ok(Vec::new());
        }
        let weight_h_t = self.weight_h.transpose()?;
        // Row `r` of `d_gates` (column `r` of `x_t` and `h_prev_t`) is batch
        // row `r % batch` of step `steps - 1 - r / batch`. Reverse step
        // order is the order a per-step accumulation would add the terms.
        let rows = steps * batch;
        let mut d_gates = vec![0.0f32; rows * 4 * h];
        let mut x_t = vec![0.0f32; input * rows];
        let mut h_prev_t = vec![0.0f32; h * rows];
        let mut d_h_next = vec![0.0f32; batch * h];
        let mut d_c_next = vec![0.0f32; batch * h];
        for (r_step, t) in (0..steps).rev().enumerate() {
            let rec = self.record(t);
            let d_rows = &mut d_gates[r_step * batch * 4 * h..(r_step + 1) * batch * 4 * h];
            for (b, d_row) in d_rows.chunks_exact_mut(4 * h).enumerate() {
                let (i, f, g, o) = split_gates(&rec.gates[b * 4 * h..(b + 1) * 4 * h], h);
                let cols = b * h..(b + 1) * h;
                let dh = &grad_h[t].as_slice()[cols.clone()];
                let (c_prev, tanh_c) = (&rec.c_prev[cols.clone()], &rec.tanh_c[cols.clone()]);
                let (d_h_next, d_c_next) = (&d_h_next[cols.clone()], &mut d_c_next[cols]);
                let (d_i, d_rest) = d_row.split_at_mut(h);
                let (d_f, d_rest) = d_rest.split_at_mut(h);
                let (d_g, d_o) = d_rest.split_at_mut(h);
                for j in 0..h {
                    let dh_total = dh[j] + d_h_next[j];
                    let d_c = ((dh_total * o[j]) * (1.0 - tanh_c[j] * tanh_c[j])) + d_c_next[j];
                    d_c_next[j] = d_c * f[j];
                    // pre-activation gradients, packed like the gates
                    d_i[j] = (d_c * g[j]) * (i[j] * (1.0 - i[j]));
                    d_f[j] = (d_c * c_prev[j]) * (f[j] * (1.0 - f[j]));
                    d_g[j] = (d_c * i[j]) * (1.0 - g[j] * g[j]);
                    d_o[j] = (dh_total * tanh_c[j]) * (o[j] * (1.0 - o[j]));
                }
                let col = r_step * batch + b;
                for (p, &v) in rec.x[b * input..(b + 1) * input].iter().enumerate() {
                    x_t[p * rows + col] = v;
                }
                for (p, &v) in rec.h_prev[b * h..(b + 1) * h].iter().enumerate() {
                    h_prev_t[p * rows + col] = v;
                }
            }
            d_h_next.fill(0.0);
            kernels::matmul_into(
                d_rows,
                weight_h_t.as_slice(),
                &mut d_h_next,
                batch,
                4 * h,
                h,
            );
        }
        // input gradients and parameter gradients, from the whole stack
        let mut grad_x = vec![0.0f32; rows * input];
        let weight_x_t = self.weight_x.transpose()?;
        kernels::matmul_into(
            &d_gates,
            weight_x_t.as_slice(),
            &mut grad_x,
            rows,
            4 * h,
            input,
        );
        let grad_inputs = grad_x
            .chunks_exact(batch * input)
            .rev()
            .map(|g| Tensor::from_vec(g.to_vec(), &[batch, input]))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        kernels::matmul_into(
            &x_t,
            &d_gates,
            self.weight_x_grad.as_mut_slice(),
            input,
            rows,
            4 * h,
        );
        kernels::matmul_into(
            &h_prev_t,
            &d_gates,
            self.weight_h_grad.as_mut_slice(),
            h,
            rows,
            4 * h,
        );
        kernels::sum_axis0_into(&d_gates, self.bias_grad.as_mut_slice(), rows, 4 * h);
        Ok(grad_inputs)
    }
}

/// The `(input, forget, cell, output)` blocks of one packed gate row.
fn split_gates(row: &[f32], h: usize) -> (&[f32], &[f32], &[f32], &[f32]) {
    let (i, rest) = row.split_at(h);
    let (f, rest) = rest.split_at(h);
    let (g, o) = rest.split_at(h);
    (i, f, g, &o[..h])
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

impl Layer for LstmCell {
    fn name(&self) -> &'static str {
        "lstm"
    }

    /// Runs a single step from a zero state; provided so the cell can be
    /// driven by generic [`Layer`] tooling (optimizers, counting).
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let (batch, _) = input.shape().as_matrix()?;
        let state = LstmState::zeros(batch, self.hidden_size);
        Ok(self.step(input, &state)?.h)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if self.steps == 0 {
            return Err(NeuralError::MissingForwardCache {
                layer: "lstm".into(),
            });
        }
        let mut grads = vec![Tensor::zeros(grad_output.dims()); self.steps];
        let last = grads.len() - 1;
        grads[last] = grad_output.clone();
        let inputs = self.backward_through_time(&grads)?;
        Ok(inputs.into_iter().last().unwrap_or_default())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamSet<'_>)) {
        if self.trainable.enabled() {
            visitor(ParamSet {
                name: "weight_x",
                value: &mut self.weight_x,
                grad: &mut self.weight_x_grad,
            });
            visitor(ParamSet {
                name: "weight_h",
                value: &mut self.weight_h,
                grad: &mut self.weight_h_grad,
            });
            visitor(ParamSet {
                name: "bias",
                value: &mut self.bias,
                grad: &mut self.bias_grad,
            });
        }
    }

    fn param_count(&self) -> usize {
        self.weight_x.len() + self.weight_h.len() + self.bias.len()
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

    #[test]
    fn constructor_validates_sizes() {
        let mut rng = SeededRng::new(0);
        assert!(LstmCell::new(0, 4, &mut rng).is_err());
        assert!(LstmCell::new(4, 0, &mut rng).is_err());
        assert!(LstmCell::new(4, 4, &mut rng).is_ok());
    }

    #[test]
    fn step_produces_bounded_hidden_state() {
        let mut rng = SeededRng::new(1);
        let mut cell = LstmCell::new(3, 5, &mut rng).unwrap();
        let mut state = LstmState::zeros(2, 5);
        for _ in 0..10 {
            let x = Initializer::HeNormal.create(&mut rng, &[2, 3], 3, 5);
            state = cell.step(&x, &state).unwrap();
            // h = o * tanh(c) is bounded by |tanh| <= 1
            assert!(state.h.as_slice().iter().all(|v| v.abs() <= 1.0));
            assert!(state.h.is_finite());
        }
        assert_eq!(cell.recorded_steps(), 10);
        cell.clear_cache();
        assert_eq!(cell.recorded_steps(), 0);
    }

    #[test]
    fn step_rejects_mismatched_shapes() {
        let mut rng = SeededRng::new(2);
        let mut cell = LstmCell::new(3, 5, &mut rng).unwrap();
        let state = LstmState::zeros(1, 5);
        assert!(cell.step(&Tensor::zeros(&[1, 4]), &state).is_err());
        let bad_state = LstmState::zeros(1, 4);
        assert!(cell.step(&Tensor::zeros(&[1, 3]), &bad_state).is_err());
    }

    fn param_mut(cell: &mut LstmCell, param: usize) -> &mut Tensor {
        match param {
            0 => &mut cell.weight_x,
            1 => &mut cell.weight_h,
            _ => &mut cell.bias,
        }
    }

    /// Checks every element of BPTT's `weight_x`, `weight_h` and bias
    /// gradients against central finite differences of `loss = Σ_t Σ h_t`
    /// over a 3-step episode.
    fn check_bptt_against_finite_differences(batch: usize, seed: u64) {
        let mut rng = SeededRng::new(seed);
        let mut cell = LstmCell::new(2, 3, &mut rng).unwrap();
        let steps = 3usize;
        let inputs: Vec<Tensor> = (0..steps)
            .map(|_| Initializer::HeNormal.create(&mut rng, &[batch, 2], 2, 3))
            .collect();

        let run_loss = |cell: &mut LstmCell| -> f32 {
            cell.clear_cache();
            let mut state = LstmState::zeros(batch, 3);
            let mut loss = 0.0;
            for x in &inputs {
                state = cell.step(x, &state).unwrap();
                loss += state.h.sum();
            }
            loss
        };

        // analytic gradients
        run_loss(&mut cell);
        cell.zero_grad();
        let grad_h: Vec<Tensor> = (0..steps).map(|_| Tensor::ones(&[batch, 3])).collect();
        let grad_x = cell.backward_through_time(&grad_h).unwrap();
        assert_eq!(grad_x.len(), steps);
        assert!(grad_x.iter().all(|g| g.dims() == [batch, 2]));
        let analytic = [
            cell.weight_x_grad.clone(),
            cell.weight_h_grad.clone(),
            cell.bias_grad.clone(),
        ];

        let eps = 1e-2f32;
        for (param, analytic) in analytic.iter().enumerate() {
            for idx in 0..analytic.len() {
                let original = param_mut(&mut cell, param).as_slice()[idx];
                param_mut(&mut cell, param).as_mut_slice()[idx] = original + eps;
                let lp = run_loss(&mut cell);
                param_mut(&mut cell, param).as_mut_slice()[idx] = original - eps;
                let lm = run_loss(&mut cell);
                param_mut(&mut cell, param).as_mut_slice()[idx] = original;
                let numeric = (lp - lm) / (2.0 * eps);
                // the recurrent-weight gradients are ~1e-4 here, so the
                // tolerance must be relative to be able to fail
                let expected = analytic.as_slice()[idx];
                assert!(
                    (numeric - expected).abs() < 2e-5 + 1e-2 * expected.abs(),
                    "batch {batch}: param {param} grad mismatch at {idx}: numeric={numeric} \
                     analytic={expected}"
                );
            }
        }
    }

    #[test]
    fn bptt_gradients_match_finite_differences() {
        check_bptt_against_finite_differences(1, 3);
    }

    #[test]
    fn bptt_gradients_match_finite_differences_at_batch_two() {
        check_bptt_against_finite_differences(2, 8);
    }

    #[test]
    fn step_rejects_a_batch_change_mid_episode() {
        let mut rng = SeededRng::new(9);
        let mut cell = LstmCell::new(2, 3, &mut rng).unwrap();
        cell.step(&Tensor::ones(&[1, 2]), &LstmState::zeros(1, 3))
            .unwrap();
        let err = cell
            .step(&Tensor::ones(&[2, 2]), &LstmState::zeros(2, 3))
            .unwrap_err();
        assert!(matches!(err, NeuralError::BadInputShape { .. }), "{err}");
        assert_eq!(cell.recorded_steps(), 1);
        // a new episode may use a new batch size
        cell.clear_cache();
        cell.step(&Tensor::ones(&[2, 2]), &LstmState::zeros(2, 3))
            .unwrap();
        assert_eq!(cell.recorded_steps(), 1);
    }

    #[test]
    fn bptt_rejects_a_misshapen_hidden_gradient() {
        let mut rng = SeededRng::new(10);
        let mut cell = LstmCell::new(2, 3, &mut rng).unwrap();
        cell.step(&Tensor::ones(&[2, 2]), &LstmState::zeros(2, 3))
            .unwrap();
        let err = cell
            .backward_through_time(&[Tensor::ones(&[1, 3])])
            .unwrap_err();
        assert!(matches!(err, NeuralError::BadInputShape { .. }), "{err}");
    }

    #[test]
    fn bptt_rejects_wrong_gradient_count() {
        let mut rng = SeededRng::new(4);
        let mut cell = LstmCell::new(2, 2, &mut rng).unwrap();
        let state = LstmState::zeros(1, 2);
        cell.step(&Tensor::zeros(&[1, 2]), &state).unwrap();
        assert!(cell.backward_through_time(&[]).is_err());
    }

    #[test]
    fn param_count_matches_packed_layout() {
        let mut rng = SeededRng::new(5);
        let cell = LstmCell::new(4, 8, &mut rng).unwrap();
        assert_eq!(cell.param_count(), 4 * 32 + 8 * 32 + 32);
    }

    #[test]
    fn forget_bias_starts_at_one() {
        let mut rng = SeededRng::new(6);
        let cell = LstmCell::new(2, 4, &mut rng).unwrap();
        let bias = cell.bias.as_slice();
        // the forget-gate block of the bias vector is indices 4..8
        for &b in &bias[4..8] {
            assert_eq!(b, 1.0);
        }
    }

    #[test]
    fn layer_trait_forward_backward_round_trip() {
        let mut rng = SeededRng::new(7);
        let mut cell = LstmCell::new(3, 4, &mut rng).unwrap();
        let x = Tensor::ones(&[2, 3]);
        let h = cell.forward(&x, true).unwrap();
        assert_eq!(h.dims(), &[2, 4]);
        let gx = cell.backward(&Tensor::ones(&[2, 4])).unwrap();
        assert_eq!(gx.dims(), &[2, 3]);
    }
}
