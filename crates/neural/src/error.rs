//! Error type for the neural substrate.

use std::error::Error;
use std::fmt;

use ftensor::TensorError;

/// Error returned by layer, loss, optimizer and training operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NeuralError {
    /// A tensor-level operation failed (shape mismatch, bad index, …).
    Tensor(TensorError),
    /// A layer received an input whose shape it cannot consume.
    BadInputShape {
        /// Name of the layer reporting the problem.
        layer: String,
        /// Human-readable description of what was expected.
        expected: String,
        /// The shape that was actually supplied.
        actual: Vec<usize>,
    },
    /// `backward` was called before `forward` populated the layer cache.
    MissingForwardCache {
        /// Name of the layer reporting the problem.
        layer: String,
    },
    /// A configuration value was invalid (zero dimension, bad kernel, …).
    InvalidConfig(String),
    /// Labels and predictions disagree in length, or a label is out of range.
    LabelMismatch {
        /// Number of predictions.
        predictions: usize,
        /// Number of labels.
        labels: usize,
    },
}

impl fmt::Display for NeuralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeuralError::Tensor(e) => write!(f, "tensor error: {e}"),
            NeuralError::BadInputShape {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer} expected input {expected}, got shape {actual:?}"
            ),
            NeuralError::MissingForwardCache { layer } => {
                write!(f, "layer {layer} backward called before forward")
            }
            NeuralError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            NeuralError::LabelMismatch {
                predictions,
                labels,
            } => write!(
                f,
                "prediction count {predictions} does not match label count {labels}"
            ),
        }
    }
}

impl Error for NeuralError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NeuralError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NeuralError {
    fn from(err: TensorError) -> Self {
        NeuralError::Tensor(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_error_converts() {
        let t = TensorError::InvalidArgument("x".into());
        let n: NeuralError = t.clone().into();
        assert_eq!(n, NeuralError::Tensor(t));
    }

    #[test]
    fn display_mentions_layer_name() {
        let e = NeuralError::MissingForwardCache {
            layer: "dense".into(),
        };
        assert!(e.to_string().contains("dense"));
    }

    #[test]
    fn source_exposes_tensor_error() {
        let e = NeuralError::Tensor(TensorError::InvalidArgument("y".into()));
        assert!(e.source().is_some());
        let e2 = NeuralError::InvalidConfig("z".into());
        assert!(e2.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NeuralError>();
    }
}
