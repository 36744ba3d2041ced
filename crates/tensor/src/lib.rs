//! `ftensor` — a minimal dense tensor substrate.
//!
//! This crate provides the numerical foundation used by the rest of the
//! FaHaNa reproduction: a row-major `f32` [`Tensor`] with shape bookkeeping,
//! elementwise arithmetic, matrix multiplication, reductions, the activation
//! and normalisation primitives needed by the [`neural`] crate, and seeded
//! random initialisation.
//!
//! The design goal is *predictability over raw speed*: everything is safe
//! Rust over a flat `Vec<f32>`, and all fallible operations return a
//! [`TensorError`] rather than panicking, so the NAS search loop can treat a
//! shape mismatch as an evaluation failure instead of a crash.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), ftensor::TensorError> {
//! use ftensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```
//!
//! [`neural`]: https://docs.rs/neural

pub mod error;
pub mod init;
pub mod kernels;
pub mod linalg;
pub mod ops;
pub mod scratch;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use error::TensorError;
pub use init::{Initializer, SeededRng};
pub use scratch::Scratch;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    //! The xoshiro256** stream behind [`SeededRng`] and its samplers.

    use super::SeededRng;

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = SeededRng::new(7);
        for _ in 0..1000 {
            let x = rng.uniform(0.25, 0.75);
            assert!((0.25..0.75).contains(&x));
            let y = rng.uniform(-3.0, 3.0);
            assert!((-3.0..3.0).contains(&y));
        }
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = SeededRng::new(9);
        for _ in 0..1000 {
            assert!(rng.below(5) < 5);
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = SeededRng::new(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
        assert!(!SeededRng::new(0).chance(0.0));
        assert!(SeededRng::new(0).chance(1.0));
    }

    #[test]
    fn standard_floats_are_in_unit_interval() {
        let mut rng = SeededRng::new(13);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&rng.unit_f64()));
            assert!((0.0..1.0).contains(&rng.unit_f32()));
        }
    }
}
