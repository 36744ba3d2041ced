//! Seeded random number generation and weight initialisation.

use crate::tensor::Tensor;

/// A deterministic random number generator used across the workspace.
///
/// Every stochastic component in the reproduction (dataset synthesis, weight
/// initialisation, controller sampling, surrogate noise) draws from a
/// [`SeededRng`], so a fixed seed reproduces a full experiment bit-for-bit.
///
/// The stream is xoshiro256** seeded through SplitMix64. The committed
/// goldens pin it, so neither the generator nor any sampler below may
/// change what it draws.
///
/// # Example
///
/// ```
/// use ftensor::SeededRng;
///
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    /// xoshiro256** state; never all zero.
    state: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns the mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            *slot = splitmix64(&mut sm);
        }
        // never all zero: the inputs seed + k·γ are distinct and the mix is a bijection
        SeededRng { state }
    }

    /// The next 64 bits of the xoshiro256** stream.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform in `[0, 1)` from the top 24 bits of one draw.
    pub(crate) fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one draw.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`: `lo + unit * (hi - lo)`.
    fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "cannot sample empty range");
        lo + self.unit_f32() * (hi - lo)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` (or the two are within `f32::EPSILON`).
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        if (hi - lo).abs() < f32::EPSILON {
            return lo;
        }
        self.range_f32(lo, hi)
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        // Box–Muller transform; u1 is kept away from 0 to avoid ln(0).
        let u1 = self.range_f32(1e-7, 1.0);
        let u2 = self.range_f32(0.0, 1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        mean + std * z
    }

    /// Uniform integer in `[0, n)`, as `next % n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below requires n > 0");
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli sample with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Samples an index from an (unnormalised) non-negative weight vector.
    ///
    /// Falls back to the last index on numerical underflow so the caller
    /// always receives a valid index.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn sample_weighted(&mut self, weights: &[f32]) -> usize {
        assert!(!weights.is_empty(), "sample_weighted requires weights");
        let total: f32 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return self.below(weights.len());
        }
        let mut target = self.uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Derives an independent generator for a sub-component, so parallel
    /// components do not share a stream.
    pub fn fork(&mut self, label: u64) -> SeededRng {
        let seed = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SeededRng::new(seed)
    }
}

/// Weight-initialisation schemes for neural layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Initializer {
    /// All zeros (used for biases).
    Zeros,
    /// Uniform in `[-bound, bound]` with `bound = sqrt(6 / (fan_in + fan_out))`.
    #[default]
    XavierUniform,
    /// Normal with `std = sqrt(2 / fan_in)` (He initialisation for ReLU nets).
    HeNormal,
    /// Uniform in `[-0.08, 0.08]` — the classic small-range LSTM init.
    SmallUniform,
}

impl Initializer {
    /// Creates an initialised tensor with the given dims and fan sizes.
    pub fn create(
        &self,
        rng: &mut SeededRng,
        dims: &[usize],
        fan_in: usize,
        fan_out: usize,
    ) -> Tensor {
        let volume: usize = dims.iter().product();
        let data: Vec<f32> = match self {
            Initializer::Zeros => vec![0.0; volume],
            Initializer::XavierUniform => {
                let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                (0..volume).map(|_| rng.uniform(-bound, bound)).collect()
            }
            Initializer::HeNormal => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                (0..volume).map(|_| rng.normal(0.0, std)).collect()
            }
            Initializer::SmallUniform => (0..volume).map(|_| rng.uniform(-0.08, 0.08)).collect(),
        };
        Tensor::from_vec(data, dims).expect("volume matches dims by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..16 {
            assert_eq!(a.uniform(-1.0, 1.0), b.uniform(-1.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let xs: Vec<f32> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let ys: Vec<f32> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn xoshiro_stream_is_pinned() {
        let mut rng = SeededRng::new(42);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0x1578_0b2e_0c2e_c716,
                0x6104_d986_6d11_3a7e,
                0xae17_5332_39e4_99a1,
                0xecb8_ad47_03b3_60a1
            ]
        );
        // one draw per sampler, continuing one stream
        let mut rng = SeededRng::new(7);
        assert_eq!(rng.uniform(0.25, 0.75).to_bits(), 0x3f19_ac7d);
        assert_eq!(rng.unit_f64().to_bits(), 0x3fd1_d70f_6593_d20a);
        assert_eq!(rng.below(5), 3);
        assert!(!rng.chance(0.3));
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = SeededRng::new(11);
        let samples: Vec<f32> = (0..4000).map(|_| rng.normal(2.0, 0.5)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / samples.len() as f32;
        let var: f32 =
            samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / samples.len() as f32;
        assert!((mean - 2.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 0.25).abs() < 0.05, "variance was {var}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SeededRng::new(3);
        for _ in 0..100 {
            assert!(rng.below(5) < 5);
        }
    }

    #[test]
    fn sample_weighted_prefers_heavy_index() {
        let mut rng = SeededRng::new(5);
        let weights = [0.01, 0.01, 10.0];
        let mut counts = [0usize; 3];
        for _ in 0..200 {
            counts[rng.sample_weighted(&weights)] += 1;
        }
        assert!(counts[2] > 150);
    }

    #[test]
    fn sample_weighted_handles_all_zero() {
        let mut rng = SeededRng::new(5);
        let idx = rng.sample_weighted(&[0.0, 0.0, 0.0]);
        assert!(idx < 3);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SeededRng::new(9);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        assert_ne!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
    }

    #[test]
    fn initializers_have_expected_scale() {
        let mut rng = SeededRng::new(13);
        let zeros = Initializer::Zeros.create(&mut rng, &[4, 4], 4, 4);
        assert!(zeros.as_slice().iter().all(|&v| v == 0.0));

        let xavier = Initializer::XavierUniform.create(&mut rng, &[64, 64], 64, 64);
        let bound = (6.0 / 128.0f32).sqrt();
        assert!(xavier.as_slice().iter().all(|&v| v.abs() <= bound + 1e-6));

        let he = Initializer::HeNormal.create(&mut rng, &[256, 4], 256, 4);
        let std = he.as_slice().iter().map(|v| v * v).sum::<f32>() / he.len() as f32;
        assert!((std.sqrt() - (2.0 / 256.0f32).sqrt()).abs() < 0.02);

        let small = Initializer::SmallUniform.create(&mut rng, &[8, 8], 8, 8);
        assert!(small.as_slice().iter().all(|&v| v.abs() <= 0.08));
    }
}
