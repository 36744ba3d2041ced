//! `neural` — the neural-network substrate of the FaHaNa reproduction.
//!
//! The paper trains convolutional child networks (MobileNetV2/ResNet-style
//! blocks) on a dermatology dataset and drives the search with an LSTM
//! controller updated by REINFORCE. This crate provides everything those two
//! code paths need, implemented from scratch on top of [`ftensor`]:
//!
//! * trainable layers with manual backpropagation — [`Dense`], [`Conv2d`],
//!   [`DepthwiseConv2d`], [`ChannelNorm`], activations, pooling;
//! * containers — [`Sequential`] and residual wrappers — with parameter
//!   freezing (the producer's freezing method needs to mark header layers as
//!   non-trainable);
//! * the [`LstmCell`] used by the NAS controller: it owns the recurrent
//!   state of an episode, records every step in one arena, and has a single
//!   backpropagation-through-time pass over a recorded episode;
//! * losses ([`softmax_cross_entropy`]) and optimizers ([`Sgd`], [`Adam`]);
//! * a small supervised [`Trainer`] used by the trained evaluator.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), neural::NeuralError> {
//! use ftensor::{SeededRng, Tensor};
//! use neural::{Dense, Layer, Relu, Sequential};
//!
//! let mut rng = SeededRng::new(0);
//! let mut net = Sequential::new();
//! net.push(Box::new(Dense::new(4, 8, &mut rng)));
//! net.push(Box::new(Relu::new()));
//! net.push(Box::new(Dense::new(8, 2, &mut rng)));
//!
//! let x = Tensor::zeros(&[3, 4]);
//! let y = net.forward(&x, false)?;
//! assert_eq!(y.dims(), &[3, 2]);
//! # Ok(())
//! # }
//! ```

pub mod activation;
pub mod conv;
pub mod dense;
pub mod error;
pub mod layer;
pub mod loss;
pub mod lstm;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod sequential;
pub mod train;

pub use activation::{Relu, Relu6, Sigmoid, Tanh};
pub use conv::{Conv2d, DepthwiseConv2d};
pub use dense::Dense;
pub use error::NeuralError;
pub use layer::{Layer, ParamSet};
pub use loss::{accuracy, softmax_cross_entropy, LossOutput};
pub use lstm::{LstmCell, LstmRecord, LstmState};
pub use norm::ChannelNorm;
pub use optim::{Adam, Optimizer, Sgd};
pub use pool::{Flatten, GlobalAvgPool};
pub use sequential::{Residual, Sequential};
pub use train::{TrainConfig, TrainReport, Trainer};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NeuralError>;
