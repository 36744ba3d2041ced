//! Error type for the search framework.

use std::error::Error;
use std::fmt;

/// Error returned by the FaHaNa/MONAS search machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum FahanaError {
    /// Architecture construction or decoding failed.
    Architecture(archspace::ArchError),
    /// Evaluating a child network failed.
    Evaluation(evaluator::EvalError),
    /// Controller construction or update failed.
    Controller(neural::NeuralError),
    /// The search configuration is inconsistent.
    InvalidConfig(String),
    /// An episode handed to a controller update does not fit the controller
    /// (wrong action count, an action outside its decision's choices, or a
    /// non-finite reward).
    InvalidEpisode {
        /// Position of the offending episode in the update batch.
        episode: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for FahanaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FahanaError::Architecture(e) => write!(f, "architecture error: {e}"),
            FahanaError::Evaluation(e) => write!(f, "evaluation error: {e}"),
            FahanaError::Controller(e) => write!(f, "controller error: {e}"),
            FahanaError::InvalidConfig(msg) => write!(f, "invalid search configuration: {msg}"),
            FahanaError::InvalidEpisode { episode, reason } => {
                write!(
                    f,
                    "invalid episode {episode} in controller update: {reason}"
                )
            }
        }
    }
}

impl Error for FahanaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FahanaError::Architecture(e) => Some(e),
            FahanaError::Evaluation(e) => Some(e),
            FahanaError::Controller(e) => Some(e),
            FahanaError::InvalidConfig(_) | FahanaError::InvalidEpisode { .. } => None,
        }
    }
}

impl From<archspace::ArchError> for FahanaError {
    fn from(err: archspace::ArchError) -> Self {
        FahanaError::Architecture(err)
    }
}

impl From<evaluator::EvalError> for FahanaError {
    fn from(err: evaluator::EvalError) -> Self {
        FahanaError::Evaluation(err)
    }
}

impl From<neural::NeuralError> for FahanaError {
    fn from(err: neural::NeuralError) -> Self {
        FahanaError::Controller(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: FahanaError = archspace::ArchError::InvalidArchitecture("x".into()).into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("architecture"));

        let e: FahanaError = evaluator::EvalError::BadDataset("y".into()).into();
        assert!(e.to_string().contains("y"));

        let e: FahanaError = neural::NeuralError::InvalidConfig("z".into()).into();
        assert!(e.to_string().contains("z"));

        let e = FahanaError::InvalidConfig("w".into());
        assert!(e.source().is_none());

        let e = FahanaError::InvalidEpisode {
            episode: 3,
            reason: "v".into(),
        };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("episode 3") && e.to_string().contains('v'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<FahanaError>();
    }
}
