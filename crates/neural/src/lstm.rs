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
/// every [`LstmCell::step`] records what backpropagation needs, and
/// [`LstmCell::backward_record`] backpropagates a recorded episode.
///
/// Gate layout in the packed weight matrices is `[input, forget, cell, output]`.
///
/// # Episodes and the step arena
///
/// The cell owns the recurrent state of its episode.
/// [`LstmCell::begin_episode`] takes the initial `(h_0, c_0)` and fixes the
/// episode's batch size; each [`LstmCell::step`] then consumes one
/// `(batch, input)` input, advances the state and returns the new `h`. No
/// caller hands a state back, so every step continues from the previous
/// step's output by construction.
///
/// The record of an episode is one flat `f32` arena, an [`LstmRecord`]. It
/// stores the initial state `[h_0 | c_0]` once; every step then appends
/// `[x | gates | tanh(c_new)]`, where `gates` holds the activated gates of
/// every batch row in the packed layout above (so for batch 1 a step is
/// `[x | i | f | g | o | tanh(c)]`, `input + 5·hidden` floats). The state a
/// step consumed is not stored: backpropagation rebuilds it from the steps
/// before, with the forward pass's own expressions `c_prev = f·c_prev + i·g`
/// and `h_prev = o·tanh(c)`, so the rebuilt values are bit-identical to the
/// ones the step saw. `begin_episode` keeps the arena's capacity, so after
/// the first episode a step allocates nothing. [`LstmCell::take_record`]
/// moves an episode out of the cell so it can be backpropagated later with
/// [`LstmCell::backward_record`], as long as the weights have not changed;
/// the next episode then allocates one arena of the taken one's length.
///
/// # Backpropagation and bit identity
///
/// There is one backpropagation pass. It transposes the recurrent weights
/// into a buffer the cell reuses, walks the arena backwards with one fused
/// elementwise loop (the same operations, in the same order, as the
/// textbook per-step tensor formulation), and stacks the per-step
/// pre-activation gradients in reverse step order. The weight and bias
/// gradients are then computed from that stack with one
/// [`kernels::matmul_into`] / [`kernels::sum_axis0_into`] each, straight
/// into the gradient tensors. Those kernels add one term at a time in
/// ascending row order, so at batch 1 every gradient element receives
/// exactly the additions, in the same order, that a per-step
/// `grad += xᵀ·d_gates` gives: results are bit-identical to the
/// step-by-step formulation, which the controller trajectory golden pins.
/// At batch > 1 the per-step sum across batch rows is reassociated into the
/// running gradient, so only agreement with finite differences is promised
/// there.
///
/// The pass computes no input gradients: the controller's inputs are
/// one-hot encodings of its own decisions. [`Layer::backward`] returns
/// `dL/dx` of the last step only, with one `(batch × 4h)·Wxᵀ` product from
/// the first rows of the stack.
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
/// cell.begin_episode(&LstmState::zeros(1, 16))?;
/// cell.step(&Tensor::zeros(&[1, 8]))?;
/// let h = cell.step(&Tensor::ones(&[1, 8]))?;
/// assert_eq!(h.len(), 16);
/// assert_eq!(cell.recorded_steps(), 2);
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
    /// The current episode (see the type docs).
    record: LstmRecord,
    /// State of the current episode after its last step, `(batch, hidden)`
    /// row-major.
    state_h: Vec<f32>,
    state_c: Vec<f32>,
    /// Arena length of the last record taken out, reserved for the next.
    arena_hint: usize,
    /// Reused `h·Wh` product of [`LstmCell::step`].
    hidden_product: Vec<f32>,
    bptt: BpttScratch,
    trainable: TrainableFlag,
}

/// The recorded steps of one episode of an [`LstmCell`]: the initial state
/// once, then `[x | gates | tanh(c)]` per step (see the cell's "Step arena"
/// docs).
#[derive(Debug, Clone, Default)]
pub struct LstmRecord {
    arena: Vec<f32>,
    steps: usize,
    batch: usize,
    input_size: usize,
    hidden_size: usize,
}

/// Borrowed view of one recorded step.
struct StepView<'a> {
    x: &'a [f32],
    gates: &'a [f32],
    tanh_c: &'a [f32],
}

impl LstmRecord {
    fn empty(input_size: usize, hidden_size: usize) -> Self {
        LstmRecord {
            arena: Vec::new(),
            steps: 0,
            batch: 0,
            input_size,
            hidden_size,
        }
    }

    /// Floats one step occupies after the initial state.
    fn step_len(&self) -> usize {
        self.batch * (self.input_size + 5 * self.hidden_size)
    }

    /// The episode's initial `(h, c)`.
    fn initial(&self) -> (&[f32], &[f32]) {
        let n = self.batch * self.hidden_size;
        self.arena[..2 * n].split_at(n)
    }

    fn view(&self, t: usize) -> StepView<'_> {
        let (b, h) = (self.batch, self.hidden_size);
        let start = 2 * b * h + t * self.step_len();
        let rec = &self.arena[start..start + self.step_len()];
        let (x, rest) = rec.split_at(b * self.input_size);
        let (gates, tanh_c) = rest.split_at(b * 4 * h);
        StepView { x, gates, tanh_c }
    }

    /// Writes the hidden state step `t` produced, `(batch, hidden)` row-major,
    /// into `out`: `o·tanh(c)`, bit-identical to that step's output.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a recorded step or `out` has the wrong length.
    pub fn hidden_into(&self, t: usize, out: &mut [f32]) {
        let h = self.hidden_size;
        assert!(t < self.steps, "step {t} of {} recorded", self.steps);
        assert_eq!(out.len(), self.batch * h, "hidden output length");
        let rec = self.view(t);
        for (b, out) in out.chunks_exact_mut(h).enumerate() {
            let o = &rec.gates[b * 4 * h + 3 * h..(b + 1) * 4 * h];
            let tanh_c = &rec.tanh_c[b * h..(b + 1) * h];
            for ((v, &o), &tc) in out.iter_mut().zip(o).zip(tanh_c) {
                *v = o * tc;
            }
        }
    }
}

/// Buffers of one backpropagation pass, kept between calls.
#[derive(Debug, Default)]
struct BpttScratch {
    weight_h_t: Vec<f32>,
    d_gates: Vec<f32>,
    x_t: Vec<f32>,
    h_prev_t: Vec<f32>,
    c_prev: Vec<f32>,
    d_h_next: Vec<f32>,
    d_c_next: Vec<f32>,
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
            record: LstmRecord::empty(input_size, hidden_size),
            state_h: Vec::new(),
            state_c: Vec::new(),
            arena_hint: 0,
            hidden_product: Vec::new(),
            bptt: BpttScratch::default(),
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

    /// Number of steps recorded in the current episode.
    pub fn recorded_steps(&self) -> usize {
        self.record.steps
    }

    /// Starts an episode from `initial`, discarding the recorded steps of
    /// the last one. Every step of the episode uses `initial`'s batch size.
    /// The arena keeps its capacity.
    ///
    /// # Errors
    ///
    /// Returns a shape error, and changes nothing, unless `initial.h` and
    /// `initial.c` are both `(batch, hidden_size)` with `batch ≥ 1`.
    pub fn begin_episode(&mut self, initial: &LstmState) -> Result<()> {
        let batch = initial.h.dims().first().copied().unwrap_or(0);
        for part in [&initial.h, &initial.c] {
            if batch == 0 || part.dims() != [batch, self.hidden_size] {
                return Err(NeuralError::BadInputShape {
                    layer: "lstm-state".into(),
                    expected: format!("(batch ≥ 1, {}) for both h and c", self.hidden_size),
                    actual: part.dims().to_vec(),
                });
            }
        }
        let record = &mut self.record;
        record.batch = batch;
        record.steps = 0;
        record.arena.clear();
        record.arena.reserve_exact(self.arena_hint);
        record.arena.extend_from_slice(initial.h.as_slice());
        record.arena.extend_from_slice(initial.c.as_slice());
        self.state_h.clear();
        self.state_h.extend_from_slice(initial.h.as_slice());
        self.state_c.clear();
        self.state_c.extend_from_slice(initial.c.as_slice());
        Ok(())
    }

    /// Moves the recorded episode out of the cell, for a later
    /// [`LstmCell::backward_record`], and ends the episode. The next
    /// episode allocates a new arena of the taken one's length.
    pub fn take_record(&mut self) -> LstmRecord {
        self.arena_hint = self.record.arena.len();
        let next = LstmRecord::empty(self.input_size, self.hidden_size);
        std::mem::replace(&mut self.record, next)
    }

    /// Runs one step of the current episode: records it in the arena,
    /// advances the cell's state and returns the new hidden state,
    /// `(batch, hidden_size)` row-major.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidConfig`] outside an episode (before
    /// [`LstmCell::begin_episode`] or after [`LstmCell::take_record`]), and
    /// a shape error if `x` is not `(batch, input_size)` for the episode's
    /// batch. On error nothing is recorded and the state is unchanged.
    pub fn step(&mut self, x: &Tensor) -> Result<&[f32]> {
        let (batch, h, input) = (self.record.batch, self.hidden_size, self.input_size);
        if self.record.arena.is_empty() {
            return Err(NeuralError::InvalidConfig(
                "lstm step outside an episode: begin_episode starts one".into(),
            ));
        }
        if x.dims() != [batch, input] {
            return Err(NeuralError::BadInputShape {
                layer: "lstm".into(),
                expected: format!("({batch}, {input}): the batch of this episode"),
                actual: x.dims().to_vec(),
            });
        }
        let record = &mut self.record;
        let start = record.arena.len();
        record.arena.extend_from_slice(x.as_slice());
        record.arena.resize(start + record.step_len(), 0.0);
        let (gates, tanh_c) = record.arena[start + batch * input..].split_at_mut(batch * 4 * h);

        // gates = (x·Wx + h·Wh) + bias, each product accumulated from zero
        kernels::matmul_into(
            x.as_slice(),
            self.weight_x.as_slice(),
            gates,
            batch,
            input,
            4 * h,
        );
        refill(&mut self.hidden_product, batch * 4 * h);
        kernels::matmul_into(
            &self.state_h,
            self.weight_h.as_slice(),
            &mut self.hidden_product,
            batch,
            h,
            4 * h,
        );
        let bias = self.bias.as_slice();
        for (b, (row, hw)) in gates
            .chunks_exact_mut(4 * h)
            .zip(self.hidden_product.chunks_exact(4 * h))
            .enumerate()
        {
            // block 2 is the cell gate `g`; the other three are sigmoids
            let (pre_i, rest) = row.split_at_mut(h);
            let (pre_f, rest) = rest.split_at_mut(h);
            let (pre_g, pre_o) = rest.split_at_mut(h);
            activate(pre_i, &hw[..h], &bias[..h], sigmoid);
            activate(pre_f, &hw[h..2 * h], &bias[h..2 * h], sigmoid);
            activate(pre_g, &hw[2 * h..3 * h], &bias[2 * h..3 * h], f32::tanh);
            activate(pre_o, &hw[3 * h..], &bias[3 * h..], sigmoid);
            let (i, f, g, o) = split_gates(row, h);
            let rows = b * h..(b + 1) * h;
            let (c, h_new, tanh_c) = (
                &mut self.state_c[rows.clone()],
                &mut self.state_h[rows.clone()],
                &mut tanh_c[rows],
            );
            for j in 0..h {
                c[j] = f[j] * c[j] + i[j] * g[j];
                tanh_c[j] = c[j].tanh();
                h_new[j] = o[j] * tanh_c[j];
            }
        }
        record.steps += 1;
        Ok(&self.state_h)
    }

    /// Backpropagates through an episode taken out of this cell with
    /// [`LstmCell::take_record`], accumulating the parameter gradients. The
    /// record must have been taken with the current weights.
    ///
    /// `grad_h` holds `dL/dh_t` for every step in step order, each
    /// `(batch, hidden_size)` row-major, concatenated.
    ///
    /// # Errors
    ///
    /// Returns an error if the record is of a cell with other sizes or
    /// `grad_h` has the wrong length.
    pub fn backward_record(&mut self, record: &LstmRecord, grad_h: &[f32]) -> Result<()> {
        if (record.input_size, record.hidden_size) != (self.input_size, self.hidden_size) {
            return Err(NeuralError::InvalidConfig(format!(
                "record of a {}→{} cell given to a {}→{} cell",
                record.input_size, record.hidden_size, self.input_size, self.hidden_size
            )));
        }
        let expected = record.steps * record.batch * self.hidden_size;
        if grad_h.len() != expected {
            return Err(NeuralError::InvalidConfig(format!(
                "got {} hidden-gradient values for {expected}",
                grad_h.len()
            )));
        }
        self.bptt(record, grad_h)
    }

    /// Backpropagation proper (see the type docs); `grad_h` is validated.
    /// Leaves the pre-activation gradients of every step in
    /// `self.bptt.d_gates`, rows in reverse step order.
    fn bptt(&mut self, record: &LstmRecord, grad_h: &[f32]) -> Result<()> {
        let (steps, batch, h, input) = (
            record.steps,
            record.batch,
            self.hidden_size,
            self.input_size,
        );
        if steps == 0 {
            return Ok(());
        }
        // Row `r` of `d_gates` (column `r` of `x_t` and `h_prev_t`) is batch
        // row `r % batch` of step `steps - 1 - r / batch`. Reverse step
        // order is the order a per-step accumulation would add the terms.
        let rows = steps * batch;
        let s = &mut self.bptt;
        transpose_into(self.weight_h.as_slice(), h, 4 * h, &mut s.weight_h_t);
        refill(&mut s.d_gates, rows * 4 * h);
        refill(&mut s.x_t, input * rows);
        refill(&mut s.h_prev_t, h * rows);
        refill(&mut s.c_prev, rows * h);
        refill(&mut s.d_h_next, batch * h);
        refill(&mut s.d_c_next, batch * h);

        // rebuild every step's incoming state with `step`'s own
        // expressions, and lay `x` and `h_prev` out transposed
        let (h0, c0) = record.initial();
        s.c_prev[..batch * h].copy_from_slice(c0);
        for t in 0..steps {
            let rec = record.view(t);
            if t + 1 < steps {
                let (done, next) = s.c_prev.split_at_mut((t + 1) * batch * h);
                let (c_prev, c_next) = (&done[t * batch * h..], &mut next[..batch * h]);
                for (b, gates) in rec.gates.chunks_exact(4 * h).enumerate() {
                    let (i, f, g, _) = split_gates(gates, h);
                    let cols = b * h..(b + 1) * h;
                    let (c_prev, c_next) = (&c_prev[cols.clone()], &mut c_next[cols]);
                    for j in 0..h {
                        c_next[j] = f[j] * c_prev[j] + i[j] * g[j];
                    }
                }
            }
            let prev = (t > 0).then(|| record.view(t - 1));
            for b in 0..batch {
                let col = (steps - 1 - t) * batch + b;
                for (p, &v) in rec.x[b * input..(b + 1) * input].iter().enumerate() {
                    s.x_t[p * rows + col] = v;
                }
                match &prev {
                    None => {
                        for (p, &v) in h0[b * h..(b + 1) * h].iter().enumerate() {
                            s.h_prev_t[p * rows + col] = v;
                        }
                    }
                    Some(prev) => {
                        let o = &prev.gates[b * 4 * h + 3 * h..(b + 1) * 4 * h];
                        let tanh_c = &prev.tanh_c[b * h..(b + 1) * h];
                        for p in 0..h {
                            s.h_prev_t[p * rows + col] = o[p] * tanh_c[p];
                        }
                    }
                }
            }
        }

        for (r_step, t) in (0..steps).rev().enumerate() {
            let rec = record.view(t);
            let d_rows = &mut s.d_gates[r_step * batch * 4 * h..(r_step + 1) * batch * 4 * h];
            let step_rows = t * batch * h..(t + 1) * batch * h;
            let (dh_step, c_prev_step) = (&grad_h[step_rows.clone()], &s.c_prev[step_rows]);
            for (b, d_row) in d_rows.chunks_exact_mut(4 * h).enumerate() {
                let (i, f, g, o) = split_gates(&rec.gates[b * 4 * h..(b + 1) * 4 * h], h);
                let cols = b * h..(b + 1) * h;
                let (dh, c_prev) = (&dh_step[cols.clone()], &c_prev_step[cols.clone()]);
                let tanh_c = &rec.tanh_c[cols.clone()];
                let (d_h_next, d_c_next) = (&s.d_h_next[cols.clone()], &mut s.d_c_next[cols]);
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
            }
            if t > 0 {
                s.d_h_next.fill(0.0);
                kernels::matmul_into(d_rows, &s.weight_h_t, &mut s.d_h_next, batch, 4 * h, h);
            }
        }
        // parameter gradients, from the whole stack
        kernels::matmul_into(
            &s.x_t,
            &s.d_gates,
            self.weight_x_grad.as_mut_slice(),
            input,
            rows,
            4 * h,
        );
        kernels::matmul_into(
            &s.h_prev_t,
            &s.d_gates,
            self.weight_h_grad.as_mut_slice(),
            h,
            rows,
            4 * h,
        );
        kernels::sum_axis0_into(&s.d_gates, self.bias_grad.as_mut_slice(), rows, 4 * h);
        Ok(())
    }
}

/// The `(input, forget, cell, output)` blocks of one packed gate row.
fn split_gates(row: &[f32], h: usize) -> (&[f32], &[f32], &[f32], &[f32]) {
    let (i, rest) = row.split_at(h);
    let (f, rest) = rest.split_at(h);
    let (g, o) = rest.split_at(h);
    (i, f, g, &o[..h])
}

/// One gate block: `v = act((v + hv) + bias)`, where `v` holds `x·Wx`.
fn activate(block: &mut [f32], hidden: &[f32], bias: &[f32], act: impl Fn(f32) -> f32) {
    for ((v, &hv), &bv) in block.iter_mut().zip(hidden).zip(bias) {
        *v = act((*v + hv) + bv);
    }
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Empties `buf` and refills it with `len` zeros, keeping its capacity.
fn refill(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// Writes the transpose of a row-major `(rows × cols)` matrix into `out`.
fn transpose_into(src: &[f32], rows: usize, cols: usize, out: &mut Vec<f32>) {
    refill(out, rows * cols);
    for (i, row) in src.chunks_exact(cols).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j * rows + i] = v;
        }
    }
}

impl Layer for LstmCell {
    fn name(&self) -> &'static str {
        "lstm"
    }

    /// Runs a single step from a zero state as a new episode (discarding
    /// any recorded steps); provided so the cell can be driven by generic
    /// [`Layer`] tooling (optimizers, counting).
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let (batch, _) = input.shape().as_matrix()?;
        self.begin_episode(&LstmState::zeros(batch, self.hidden_size))?;
        let h = self.step(input)?.to_vec();
        Ok(Tensor::from_vec(h, &[batch, self.hidden_size])?)
    }

    /// Backpropagates `grad_output`, `dL/dh` of the last recorded step,
    /// through the episode: accumulates the parameter gradients and returns
    /// `dL/dx` of that last step.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (steps, batch, h) = (self.record.steps, self.record.batch, self.hidden_size);
        if steps == 0 {
            return Err(NeuralError::MissingForwardCache {
                layer: "lstm".into(),
            });
        }
        if grad_output.dims() != [batch, h] {
            return Err(NeuralError::BadInputShape {
                layer: "lstm-bptt".into(),
                expected: format!("({batch}, {h})"),
                actual: grad_output.dims().to_vec(),
            });
        }
        let mut grad_h = vec![0.0; steps * batch * h];
        grad_h[(steps - 1) * batch * h..].copy_from_slice(grad_output.as_slice());
        let record = std::mem::take(&mut self.record);
        let result = self.bptt(&record, &grad_h);
        self.record = record;
        result?;
        // the last step's pre-activation gradients head the stack
        let d_last = &self.bptt.d_gates[..batch * 4 * h];
        let mut grad_x = Vec::with_capacity(batch * self.input_size);
        for d_row in d_last.chunks_exact(4 * h) {
            let w_rows = self.weight_x.as_slice().chunks_exact(4 * h);
            grad_x.extend(w_rows.map(|w_row| kernels::dot(d_row, w_row)));
        }
        Ok(Tensor::from_vec(grad_x, &[batch, self.input_size])?)
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
        cell.begin_episode(&LstmState::zeros(2, 5)).unwrap();
        for _ in 0..10 {
            let x = Initializer::HeNormal.create(&mut rng, &[2, 3], 3, 5);
            let h = cell.step(&x).unwrap();
            // h = o * tanh(c) is bounded by |tanh| <= 1
            assert_eq!(h.len(), 2 * 5);
            assert!(h.iter().all(|v| v.is_finite() && v.abs() <= 1.0));
        }
        assert_eq!(cell.recorded_steps(), 10);
        cell.begin_episode(&LstmState::zeros(2, 5)).unwrap();
        assert_eq!(cell.recorded_steps(), 0);
    }

    #[test]
    fn step_rejects_mismatched_shapes() {
        let mut rng = SeededRng::new(2);
        let mut cell = LstmCell::new(3, 5, &mut rng).unwrap();
        // no episode yet
        assert!(cell.step(&Tensor::zeros(&[1, 3])).is_err());
        assert!(cell.begin_episode(&LstmState::zeros(1, 4)).is_err());
        assert!(cell.begin_episode(&LstmState::zeros(0, 5)).is_err());
        let mixed = LstmState {
            h: Tensor::zeros(&[1, 5]),
            c: Tensor::zeros(&[2, 5]),
        };
        assert!(cell.begin_episode(&mixed).is_err());
        cell.begin_episode(&LstmState::zeros(1, 5)).unwrap();
        assert!(cell.step(&Tensor::zeros(&[1, 4])).is_err());
        assert_eq!(cell.recorded_steps(), 0);
        cell.step(&Tensor::zeros(&[1, 3])).unwrap();
        // a taken record ends the episode
        cell.take_record();
        assert!(cell.step(&Tensor::zeros(&[1, 3])).is_err());
    }

    fn param_mut(cell: &mut LstmCell, param: usize) -> &mut Tensor {
        match param {
            0 => &mut cell.weight_x,
            1 => &mut cell.weight_h,
            _ => &mut cell.bias,
        }
    }

    /// A random `(batch, hidden)` state, or a zero one.
    fn initial_state(rng: &mut SeededRng, batch: usize, hidden: usize, zero: bool) -> LstmState {
        if zero {
            return LstmState::zeros(batch, hidden);
        }
        LstmState {
            h: Initializer::HeNormal.create(rng, &[batch, hidden], hidden, hidden),
            c: Initializer::HeNormal.create(rng, &[batch, hidden], hidden, hidden),
        }
    }

    /// Runs `inputs` as one episode from `initial` and returns `Σ_t Σ h_t`
    /// (every step) or `Σ h_T` (only the last).
    fn episode_loss(
        cell: &mut LstmCell,
        initial: &LstmState,
        inputs: &[Tensor],
        every_step: bool,
    ) -> f32 {
        cell.begin_episode(initial).unwrap();
        let mut loss = 0.0;
        for (t, x) in inputs.iter().enumerate() {
            let h = cell.step(x).unwrap();
            if every_step || t + 1 == inputs.len() {
                loss += h.iter().sum::<f32>();
            }
        }
        loss
    }

    /// Checks every element of BPTT's `weight_x`, `weight_h` and bias
    /// gradients, backpropagated from a taken record, against central
    /// finite differences of `loss = Σ_t Σ h_t` over a 3-step episode,
    /// starting from a zero state or, with `nonzero_initial`, from a random
    /// one (which the record stores once).
    fn check_bptt_against_finite_differences(batch: usize, seed: u64, nonzero_initial: bool) {
        let mut rng = SeededRng::new(seed);
        let mut cell = LstmCell::new(2, 3, &mut rng).unwrap();
        let steps = 3usize;
        let inputs: Vec<Tensor> = (0..steps)
            .map(|_| Initializer::HeNormal.create(&mut rng, &[batch, 2], 2, 3))
            .collect();
        let initial = initial_state(&mut rng, batch, 3, !nonzero_initial);

        // analytic gradients
        episode_loss(&mut cell, &initial, &inputs, true);
        cell.zero_grad();
        let record = cell.take_record();
        cell.backward_record(&record, &vec![1.0; steps * batch * 3])
            .unwrap();
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
                let lp = episode_loss(&mut cell, &initial, &inputs, true);
                param_mut(&mut cell, param).as_mut_slice()[idx] = original - eps;
                let lm = episode_loss(&mut cell, &initial, &inputs, true);
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
        check_bptt_against_finite_differences(1, 3, false);
    }

    #[test]
    fn bptt_gradients_match_finite_differences_at_batch_two() {
        check_bptt_against_finite_differences(2, 8, false);
    }

    #[test]
    fn bptt_gradients_match_finite_differences_from_a_nonzero_state() {
        check_bptt_against_finite_differences(1, 11, true);
    }

    #[test]
    fn bptt_gradients_match_finite_differences_from_a_nonzero_state_at_batch_two() {
        check_bptt_against_finite_differences(2, 12, true);
    }

    /// Checks the `dL/dx` that [`Layer::backward`] returns for the last
    /// step of a 3-step episode from a random state against central finite
    /// differences of `loss = Σ h_T` over that step's input.
    fn check_layer_backward_against_finite_differences(batch: usize, seed: u64) {
        let mut rng = SeededRng::new(seed);
        let mut cell = LstmCell::new(2, 3, &mut rng).unwrap();
        let mut inputs: Vec<Tensor> = (0..3)
            .map(|_| Initializer::HeNormal.create(&mut rng, &[batch, 2], 2, 3))
            .collect();
        let initial = initial_state(&mut rng, batch, 3, false);

        episode_loss(&mut cell, &initial, &inputs, false);
        let grad_x = cell.backward(&Tensor::ones(&[batch, 3])).unwrap();
        assert_eq!(grad_x.dims(), &[batch, 2]);
        assert_eq!(cell.recorded_steps(), 3, "backward keeps the episode");

        let eps = 1e-2f32;
        for idx in 0..batch * 2 {
            let original = inputs[2].as_slice()[idx];
            inputs[2].as_mut_slice()[idx] = original + eps;
            let lp = episode_loss(&mut cell, &initial, &inputs, false);
            inputs[2].as_mut_slice()[idx] = original - eps;
            let lm = episode_loss(&mut cell, &initial, &inputs, false);
            inputs[2].as_mut_slice()[idx] = original;
            let numeric = (lp - lm) / (2.0 * eps);
            let expected = grad_x.as_slice()[idx];
            assert!(
                (numeric - expected).abs() < 2e-5 + 1e-2 * expected.abs(),
                "batch {batch}: dL/dx mismatch at {idx}: numeric={numeric} analytic={expected}"
            );
        }
    }

    #[test]
    fn layer_backward_input_gradient_matches_finite_differences() {
        check_layer_backward_against_finite_differences(1, 15);
    }

    #[test]
    fn layer_backward_input_gradient_matches_finite_differences_at_batch_two() {
        check_layer_backward_against_finite_differences(2, 16);
    }

    fn grad_bits(cell: &LstmCell) -> Vec<u32> {
        [&cell.weight_x_grad, &cell.weight_h_grad, &cell.bias_grad]
            .iter()
            .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn a_taken_record_backpropagates_like_the_cells_own() {
        let mut rng = SeededRng::new(13);
        let mut cell = LstmCell::new(3, 4, &mut rng).unwrap();
        cell.begin_episode(&initial_state(&mut rng, 1, 4, false))
            .unwrap();
        let mut hidden = Vec::new();
        for _ in 0..5 {
            let x = Initializer::HeNormal.create(&mut rng, &[1, 3], 3, 4);
            hidden.extend_from_slice(cell.step(&x).unwrap());
        }
        let grad_last = Initializer::HeNormal.create(&mut rng, &[1, 4], 4, 4);
        cell.zero_grad();
        cell.backward(&grad_last).unwrap();
        let own = grad_bits(&cell);

        let record = cell.take_record();
        assert_eq!(
            (record.steps, record.batch, cell.recorded_steps()),
            (5, 1, 0)
        );
        let mut rebuilt = vec![0.0f32; 4];
        for t in 0..5 {
            record.hidden_into(t, &mut rebuilt);
            assert_eq!(rebuilt, hidden[t * 4..(t + 1) * 4], "step {t} output");
        }
        let mut grad_h = vec![0.0f32; 4 * 4];
        grad_h.extend_from_slice(grad_last.as_slice());
        cell.zero_grad();
        cell.backward_record(&record, &grad_h).unwrap();
        assert_eq!(grad_bits(&cell), own);

        let mut other = LstmCell::new(2, 4, &mut rng).unwrap();
        assert!(other.backward_record(&record, &grad_h).is_err());
    }

    #[test]
    fn step_rejects_a_batch_change_mid_episode() {
        let mut rng = SeededRng::new(9);
        let mut cell = LstmCell::new(2, 3, &mut rng).unwrap();
        cell.begin_episode(&LstmState::zeros(1, 3)).unwrap();
        cell.step(&Tensor::ones(&[1, 2])).unwrap();
        let err = cell.step(&Tensor::ones(&[2, 2])).unwrap_err();
        assert!(matches!(err, NeuralError::BadInputShape { .. }), "{err}");
        assert_eq!(cell.recorded_steps(), 1);
        // a new episode may use a new batch size
        cell.begin_episode(&LstmState::zeros(2, 3)).unwrap();
        cell.step(&Tensor::ones(&[2, 2])).unwrap();
        assert_eq!(cell.recorded_steps(), 1);
    }

    #[test]
    fn bptt_rejects_a_misshapen_hidden_gradient() {
        let mut rng = SeededRng::new(10);
        let mut cell = LstmCell::new(2, 3, &mut rng).unwrap();
        cell.forward(&Tensor::ones(&[2, 2]), true).unwrap();
        let err = cell.backward(&Tensor::ones(&[1, 3])).unwrap_err();
        assert!(matches!(err, NeuralError::BadInputShape { .. }), "{err}");
    }

    #[test]
    fn bptt_rejects_wrong_gradient_count() {
        let mut rng = SeededRng::new(4);
        let mut cell = LstmCell::new(2, 2, &mut rng).unwrap();
        cell.forward(&Tensor::zeros(&[1, 2]), true).unwrap();
        let record = cell.take_record();
        assert!(cell.backward_record(&record, &[]).is_err());
        assert!(cell.backward_record(&record, &[0.0; 3]).is_err());
        assert!(cell.backward_record(&record, &[0.0; 2]).is_ok());
        // the cell's own episode went with the record
        assert!(matches!(
            cell.backward(&Tensor::ones(&[1, 2])).unwrap_err(),
            NeuralError::MissingForwardCache { .. }
        ));
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
