//! The [`Evaluate`] trait shared by the surrogate and trained back-ends.

use archspace::Architecture;

use crate::fairness::FairnessReport;
use crate::Result;

/// The outcome of evaluating one candidate architecture: everything the
/// reward function of Eq. 1 needs on the software side.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessEvaluation {
    /// Name of the evaluated architecture.
    pub architecture: String,
    /// The accuracy/fairness report on the evaluation split.
    pub report: FairnessReport,
    /// Number of trainable parameters the evaluation had to fit (differs
    /// from the architecture's total when a frozen header was reused).
    pub trained_params: u64,
}

impl FairnessEvaluation {
    /// Overall accuracy `A(f'_N, D)`.
    pub fn accuracy(&self) -> f64 {
        self.report.overall_accuracy
    }

    /// Unfairness score `U(f'_N, D)`.
    pub fn unfairness(&self) -> f64 {
        self.report.unfairness
    }
}

/// One evaluation job inside a batch: an architecture plus how many of its
/// leading blocks reuse frozen pretrained parameters.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// The candidate architecture.
    pub arch: Architecture,
    /// Number of leading blocks with frozen (reused) parameters.
    pub frozen_blocks: usize,
}

impl EvalRequest {
    /// Builds a request.
    pub fn new(arch: Architecture, frozen_blocks: usize) -> Self {
        EvalRequest {
            arch,
            frozen_blocks,
        }
    }
}

/// A batch evaluation stage: maps a slice of [`EvalRequest`]s to one result
/// per request, in order.
///
/// The search loop consumes this trait rather than [`Evaluate`] directly, so
/// an implementation is free to fan the batch out across worker threads (as
/// `fahana-runtime`'s pooled evaluator does) as long as result order matches
/// request order. Every [`Evaluate`] implementor is an [`EvaluateBatch`]
/// through the blanket impl, which evaluates sequentially.
pub trait EvaluateBatch {
    /// Evaluates every request, returning results in request order.
    fn evaluate_batch(&mut self, requests: &[EvalRequest]) -> Vec<Result<FairnessEvaluation>>;
}

impl<E: Evaluate + ?Sized> EvaluateBatch for E {
    fn evaluate_batch(&mut self, requests: &[EvalRequest]) -> Vec<Result<FairnessEvaluation>> {
        requests
            .iter()
            .map(|r| self.evaluate_with_frozen(&r.arch, r.frozen_blocks))
            .collect()
    }
}

/// An evaluation back-end: maps an architecture to accuracy and fairness on
/// the dermatology task.
///
/// The search loop is generic over this trait, so the surrogate and the
/// trained evaluator are interchangeable.
pub trait Evaluate {
    /// Evaluates a child network whose first `frozen_blocks` blocks reuse
    /// pretrained (frozen) parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the architecture is invalid or training fails.
    fn evaluate_with_frozen(
        &mut self,
        arch: &Architecture,
        frozen_blocks: usize,
    ) -> Result<FairnessEvaluation>;

    /// Evaluates a child network trained end to end (nothing frozen).
    ///
    /// # Errors
    ///
    /// Returns an error if the architecture is invalid or training fails.
    fn evaluate(&mut self, arch: &Architecture) -> Result<FairnessEvaluation> {
        self.evaluate_with_frozen(arch, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::GroupAccuracy;
    use crate::surrogate::SurrogateEvaluator;
    use dermsim::Group;

    #[test]
    fn blanket_batch_impl_matches_sequential_evaluation() {
        let arch_a = archspace::zoo::paper_fahana_small(5, 64);
        let arch_b = archspace::zoo::mobilenet_v2(5, 64);
        let requests = vec![
            EvalRequest::new(arch_a.clone(), 0),
            EvalRequest::new(arch_b.clone(), 3),
        ];
        let mut batched = SurrogateEvaluator::default();
        let results = batched.evaluate_batch(&requests);
        assert_eq!(results.len(), 2);

        let mut sequential = SurrogateEvaluator::default();
        let a = sequential.evaluate_with_frozen(&arch_a, 0).unwrap();
        let b = sequential.evaluate_with_frozen(&arch_b, 3).unwrap();
        assert_eq!(results[0].as_ref().unwrap(), &a);
        assert_eq!(results[1].as_ref().unwrap(), &b);
    }

    #[test]
    fn evaluators_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SurrogateEvaluator>();
        assert_send_sync::<crate::trained::TrainedEvaluator>();
        assert_send_sync::<EvalRequest>();
        assert_send_sync::<FairnessEvaluation>();
    }

    #[test]
    fn accessors_expose_report_fields() {
        let eval = FairnessEvaluation {
            architecture: "test".into(),
            report: FairnessReport::new(
                0.8,
                vec![
                    GroupAccuracy {
                        group: Group(0),
                        accuracy: 0.85,
                        count: 10,
                    },
                    GroupAccuracy {
                        group: Group(1),
                        accuracy: 0.60,
                        count: 5,
                    },
                ],
            ),
            trained_params: 1000,
        };
        assert!((eval.accuracy() - 0.8).abs() < 1e-12);
        assert!((eval.unfairness() - 0.25).abs() < 1e-12);
    }
}
