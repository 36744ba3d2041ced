//! Fairness metrics: per-group accuracy and the unfairness score.

use dermsim::Group;

/// Accuracy of one demographic group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupAccuracy {
    /// The group.
    pub group: Group,
    /// Accuracy on that group's samples.
    pub accuracy: f64,
    /// Number of samples the accuracy was measured on.
    pub count: usize,
}

/// A full fairness report for one model on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Accuracy on the whole dataset.
    pub overall_accuracy: f64,
    /// Per-group accuracies, ordered by group index.
    pub per_group: Vec<GroupAccuracy>,
    /// The paper's unfairness score `U`.
    pub unfairness: f64,
}

impl FairnessReport {
    /// Builds a report from the overall accuracy and per-group accuracies,
    /// computing the unfairness score.
    pub fn new(overall_accuracy: f64, per_group: Vec<GroupAccuracy>) -> Self {
        // summed in per_group order, exactly as `unfairness_score` over the
        // collected accuracies would
        let unfairness = per_group
            .iter()
            .map(|g| (g.accuracy - overall_accuracy).abs())
            .sum();
        FairnessReport {
            overall_accuracy,
            per_group,
            unfairness,
        }
    }

    /// Accuracy of a specific group, if present in the report.
    pub fn group_accuracy(&self, group: Group) -> Option<f64> {
        self.per_group
            .iter()
            .find(|g| g.group == group)
            .map(|g| g.accuracy)
    }
}

/// The paper's unfairness score (Section 3.1):
/// `U(f'_N, D) = Σ_g |A(f'_N, D_g) − A(f'_N, D)|`.
///
/// A score of 0 means every group is treated exactly like the average; the
/// larger the score, the more the model's accuracy varies across groups.
///
/// # Example
///
/// ```
/// use evaluator::unfairness_score;
///
/// // light skin 81.27%, dark skin 58.02%, overall 81.05% — MobileNetV2's
/// // published numbers give an unfairness score of about 0.2325.
/// let u = unfairness_score(0.8105, &[0.8127, 0.5802]);
/// assert!((u - 0.2325).abs() < 1e-9);
/// ```
pub fn unfairness_score(overall_accuracy: f64, group_accuracies: &[f64]) -> f64 {
    group_accuracies
        .iter()
        .map(|a| (a - overall_accuracy).abs())
        .sum()
}

/// Computes a [`FairnessReport`] from per-sample predictions.
///
/// `correct` holds whether each sample was predicted correctly; `groups`
/// holds each sample's group. `group_count` fixes the number of groups so
/// that groups with no samples still appear (with zero accuracy and count).
pub fn report_from_predictions(
    correct: &[bool],
    groups: &[Group],
    group_count: usize,
) -> FairnessReport {
    let total = correct.len().max(1);
    let overall = correct.iter().filter(|&&c| c).count() as f64 / total as f64;
    // single pass over the samples instead of one scan per group
    let mut counts = vec![0usize; group_count];
    let mut hits = vec![0usize; group_count];
    for (i, &Group(g)) in groups.iter().enumerate() {
        if g < group_count {
            counts[g] += 1;
            if correct[i] {
                hits[g] += 1;
            }
        }
    }
    let mut per_group = Vec::with_capacity(group_count);
    // groups with no samples are excluded from the unfairness sum, matching
    // the paper's definition over the groups present in D; present groups
    // are summed in group-index order
    let mut unfairness = 0.0f64;
    for (g, (&count, &hit)) in counts.iter().zip(hits.iter()).enumerate() {
        let acc = if count == 0 {
            0.0
        } else {
            hit as f64 / count as f64
        };
        if count > 0 {
            unfairness += (acc - overall).abs();
        }
        per_group.push(GroupAccuracy {
            group: Group(g),
            accuracy: acc,
            count,
        });
    }
    FairnessReport {
        overall_accuracy: overall,
        per_group,
        unfairness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfectly_even_groups_have_zero_unfairness() {
        assert_eq!(unfairness_score(0.8, &[0.8, 0.8]), 0.0);
    }

    #[test]
    fn mobilenet_v2_published_numbers_reproduce_their_score() {
        let u = unfairness_score(0.8105, &[0.8127, 0.5802]);
        assert!((u - 0.2325).abs() < 1e-9);
    }

    #[test]
    // 0.7854 is MnasNet's published light-skin accuracy, not an attempt at π/4
    #[allow(clippy::approx_constant)]
    fn mnasnet_published_numbers_reproduce_their_score() {
        // MnasNet 0.5: overall 78.12%, light 78.54%, dark 33.33% → 0.4521
        let u = unfairness_score(0.7812, &[0.7854, 0.3333]);
        assert!((u - 0.4521).abs() < 1e-3);
    }

    #[test]
    fn report_from_predictions_counts_each_group() {
        let correct = [true, true, false, true, false, false];
        let groups = [Group(0), Group(0), Group(0), Group(0), Group(1), Group(1)];
        let report = report_from_predictions(&correct, &groups, 2);
        assert!((report.overall_accuracy - 0.5).abs() < 1e-9);
        assert!((report.group_accuracy(Group(0)).unwrap() - 0.75).abs() < 1e-9);
        assert_eq!(report.group_accuracy(Group(1)).unwrap(), 0.0);
        assert_eq!(report.per_group[0].count, 4);
        assert_eq!(report.per_group[1].count, 2);
        // U = |0.75-0.5| + |0.0-0.5| = 0.75
        assert!((report.unfairness - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_groups_do_not_contribute_to_unfairness() {
        let correct = [true, false];
        let groups = [Group(0), Group(0)];
        let report = report_from_predictions(&correct, &groups, 3);
        assert_eq!(report.per_group.len(), 3);
        assert!((report.unfairness - 0.0).abs() < 1e-9);
    }

    #[test]
    fn fairness_report_new_computes_score() {
        let report = FairnessReport::new(
            0.8,
            vec![
                GroupAccuracy {
                    group: Group(0),
                    accuracy: 0.9,
                    count: 90,
                },
                GroupAccuracy {
                    group: Group(1),
                    accuracy: 0.5,
                    count: 10,
                },
            ],
        );
        assert!((report.unfairness - 0.4).abs() < 1e-9);
        assert_eq!(report.group_accuracy(Group(2)), None);
    }

    proptest! {
        #[test]
        fn prop_unfairness_is_nonnegative_and_bounded(
            overall in 0.0f64..1.0,
            groups in proptest::collection::vec(0.0f64..1.0, 1..5),
        ) {
            let u = unfairness_score(overall, &groups);
            prop_assert!(u >= 0.0);
            prop_assert!(u <= groups.len() as f64);
        }

        #[test]
        fn prop_equal_groups_have_zero_score(acc in 0.0f64..1.0, n in 1usize..5) {
            let groups = vec![acc; n];
            prop_assert!(unfairness_score(acc, &groups) < 1e-12);
        }
    }
}
