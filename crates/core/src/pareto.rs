//! Pareto-frontier utilities for Figures 5 and 6.

use std::cmp::Ordering;

/// A point in a two-objective trade-off space.
///
/// By convention the first objective (`maximize`) is to be maximised (e.g.
/// accuracy, reward) and the second (`minimize`) to be minimised (e.g.
/// unfairness, model size).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Label of the point (architecture name).
    pub label: String,
    /// Objective to maximise.
    pub maximize: f64,
    /// Objective to minimise.
    pub minimize: f64,
}

impl ParetoPoint {
    /// Creates a labelled point.
    pub fn new(label: impl Into<String>, maximize: f64, minimize: f64) -> Self {
        ParetoPoint {
            label: label.into(),
            maximize,
            minimize,
        }
    }

    /// Whether `self` dominates `other` (no worse in both objectives,
    /// strictly better in at least one).
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let no_worse = self.maximize >= other.maximize && self.minimize <= other.minimize;
        let strictly_better = self.maximize > other.maximize || self.minimize < other.minimize;
        no_worse && strictly_better
    }
}

/// Orders two objective values best first (descending), with NaN after
/// every number.
///
/// Non-NaN pairs compare with `partial_cmp`, so `0.0` and `-0.0` tie.
/// Unlike `partial_cmp(..).unwrap_or(Equal)`, this is a total order once a
/// value is NaN (a `null` metric in a parsed report), which `sort_by`
/// requires: it may panic on a comparator that is not.
///
/// # Example
///
/// ```
/// use fahana::descending_nan_last;
///
/// let mut rewards = vec![0.2, f64::NAN, 0.9, 0.5];
/// rewards.sort_by(|a, b| descending_nan_last(*a, *b));
/// assert_eq!(&rewards[..3], &[0.9, 0.5, 0.2]);
/// assert!(rewards[3].is_nan());
/// ```
pub fn descending_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        // never `None`: neither value is NaN
        (false, false) => b.partial_cmp(&a).unwrap_or(Ordering::Equal),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// Returns the non-dominated subset of `points`, sorted by the maximised
/// objective (descending, NaN last).
///
/// # Example
///
/// ```
/// use fahana::{pareto_frontier, ParetoPoint};
///
/// let points = vec![
///     ParetoPoint::new("a", 0.80, 0.20),
///     ParetoPoint::new("b", 0.85, 0.25),
///     ParetoPoint::new("dominated", 0.79, 0.30),
/// ];
/// let frontier = pareto_frontier(&points);
/// assert_eq!(frontier.len(), 2);
/// assert!(frontier.iter().all(|p| p.label != "dominated"));
/// ```
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<ParetoPoint> {
    frontier_of(&points.iter().collect::<Vec<_>>())
}

/// Merges several frontiers (or arbitrary point sets) into one combined
/// Pareto frontier.
///
/// This is the cross-campaign operation of the artifact store: each
/// completed campaign contributes its own frontier, and a query over many
/// campaigns needs the non-dominated subset of their union. The result is
/// identical to running [`pareto_frontier`] on the concatenation of all
/// inputs, so the merge is idempotent (`merge(f, f) == f` up to
/// deduplication) and commutative in the objective values (label ties are
/// broken by first occurrence, like `pareto_frontier` itself). The inputs
/// may be borrowed (`&Vec<ParetoPoint>`, `&[ParetoPoint]`): only the
/// surviving points are cloned.
///
/// # Example
///
/// ```
/// use fahana::{merge_frontiers, ParetoPoint};
///
/// let run_a = vec![ParetoPoint::new("a", 0.80, 0.20)];
/// let run_b = vec![ParetoPoint::new("b", 0.85, 0.15)];
/// let merged = merge_frontiers([&run_a, &run_b]);
/// assert_eq!(merged.len(), 1);
/// assert_eq!(merged[0].label, "b");
/// ```
pub fn merge_frontiers<I>(frontiers: I) -> Vec<ParetoPoint>
where
    I: IntoIterator,
    I::Item: AsRef<[ParetoPoint]>,
{
    let frontiers: Vec<I::Item> = frontiers.into_iter().collect();
    let combined: Vec<&ParetoPoint> = frontiers.iter().flat_map(|f| f.as_ref()).collect();
    frontier_of(&combined)
}

/// The frontier core behind [`pareto_frontier`] and [`merge_frontiers`]:
/// finds the survivors with a sort and a running-minimum sweep, sorts and
/// dedupes them, then clones them. `O(n log n)` in the points.
///
/// A point with a NaN objective compares false against everything, so it
/// is never dominated and dominates nothing: it always survives. The
/// other points are swept best first (`maximize` descending, `minimize`
/// ascending). Within one `maximize` value only the points at the
/// smallest `minimize` survive, and only if that `minimize` is below every
/// one seen at a larger `maximize`.
fn frontier_of(points: &[&ParetoPoint]) -> Vec<ParetoPoint> {
    let mut survives: Vec<bool> = points
        .iter()
        .map(|p| p.maximize.is_nan() || p.minimize.is_nan())
        .collect();
    // (maximize, minimize, index) of every comparable point, best first;
    // which points survive does not depend on the order of equal keys
    let mut order: Vec<(f64, f64, usize)> = points
        .iter()
        .enumerate()
        .filter(|&(i, _)| !survives[i])
        .map(|(i, p)| (p.maximize, p.minimize, i))
        .collect();
    order
        .sort_unstable_by(|a, b| descending_nan_last(a.0, b.0).then(descending_nan_last(b.1, a.1)));
    // the smallest `minimize` among points with a strictly larger `maximize`
    let mut best: Option<f64> = None;
    for group in order.chunk_by(|a, b| a.0 == b.0) {
        let least = group[0].1;
        if best.is_none_or(|best| least < best) {
            for &(_, _, i) in group.iter().take_while(|p| p.1 == least) {
                survives[i] = true;
            }
            best = Some(least);
        }
    }
    // filter in input order, then the same stable sort and adjacent dedupe
    // as the quadratic filter this replaces, so ties and NaNs land alike
    let mut frontier: Vec<&ParetoPoint> = points
        .iter()
        .zip(&survives)
        .filter_map(|(&point, &survives)| survives.then_some(point))
        .collect();
    frontier.sort_by(|a, b| descending_nan_last(a.maximize, b.maximize));
    frontier.dedup_by(|a, b| a.maximize == b.maximize && a.minimize == b.minimize);
    frontier.into_iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        let a = ParetoPoint::new("a", 0.8, 0.2);
        let same = ParetoPoint::new("same", 0.8, 0.2);
        let better = ParetoPoint::new("better", 0.9, 0.2);
        let worse = ParetoPoint::new("worse", 0.7, 0.3);
        assert!(!a.dominates(&same));
        assert!(better.dominates(&a));
        assert!(a.dominates(&worse));
        assert!(!worse.dominates(&a));
    }

    #[test]
    fn frontier_excludes_dominated_points() {
        let points = vec![
            ParetoPoint::new("fair-small", 0.81, 0.15),
            ParetoPoint::new("fair-large", 0.84, 0.17),
            ParetoPoint::new("dominated-1", 0.80, 0.25),
            ParetoPoint::new("dominated-2", 0.83, 0.20),
            ParetoPoint::new("accurate-unfair", 0.86, 0.30),
        ];
        let frontier = pareto_frontier(&points);
        let labels: Vec<&str> = frontier.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["accurate-unfair", "fair-large", "fair-small"]);
    }

    #[test]
    fn incomparable_points_all_survive() {
        let points = vec![
            ParetoPoint::new("a", 0.9, 0.5),
            ParetoPoint::new("b", 0.8, 0.3),
            ParetoPoint::new("c", 0.7, 0.1),
        ];
        assert_eq!(pareto_frontier(&points).len(), 3);
    }

    #[test]
    fn empty_input_gives_empty_frontier() {
        assert!(pareto_frontier(&[]).is_empty());
    }

    fn values(frontier: &[ParetoPoint]) -> Vec<(f64, f64)> {
        frontier.iter().map(|p| (p.maximize, p.minimize)).collect()
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(merge_frontiers(Vec::<Vec<ParetoPoint>>::new()).is_empty());
        assert!(merge_frontiers([Vec::new(), Vec::new()]).is_empty());
    }

    #[test]
    fn merge_is_idempotent() {
        let frontier = pareto_frontier(&[
            ParetoPoint::new("fair", 0.81, 0.12),
            ParetoPoint::new("accurate", 0.88, 0.25),
            ParetoPoint::new("dominated", 0.80, 0.30),
        ]);
        let merged = merge_frontiers([frontier.clone()]);
        assert_eq!(merged, frontier);
        let twice = merge_frontiers([frontier.clone(), frontier.clone()]);
        assert_eq!(values(&twice), values(&frontier));
    }

    #[test]
    fn merge_is_commutative_in_objective_values() {
        let a = vec![
            ParetoPoint::new("a1", 0.90, 0.40),
            ParetoPoint::new("a2", 0.70, 0.10),
        ];
        let b = vec![
            ParetoPoint::new("b1", 0.85, 0.20),
            ParetoPoint::new("b2", 0.95, 0.50),
        ];
        let ab = merge_frontiers([a.clone(), b.clone()]);
        let ba = merge_frontiers([b, a]);
        assert_eq!(values(&ab), values(&ba));
    }

    #[test]
    fn merge_drops_cross_frontier_dominated_points() {
        // each input is a valid frontier on its own, but campaign B
        // dominates most of campaign A once they are combined
        let campaign_a = vec![
            ParetoPoint::new("a-accurate", 0.84, 0.30),
            ParetoPoint::new("a-fair", 0.78, 0.18),
        ];
        let campaign_b = vec![
            ParetoPoint::new("b-accurate", 0.86, 0.25),
            ParetoPoint::new("b-fair", 0.80, 0.15),
        ];
        let merged = merge_frontiers([campaign_a.clone(), campaign_b]);
        let labels: Vec<&str> = merged.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["b-accurate", "b-fair"]);
        // and equals a frontier over the flat union
        let mut union = campaign_a;
        union.extend(merged.clone());
        assert_eq!(values(&pareto_frontier(&union)), values(&merged));
    }

    #[test]
    fn merge_keeps_mutually_incomparable_points_from_all_inputs() {
        let merged = merge_frontiers([
            vec![ParetoPoint::new("x", 0.9, 0.5)],
            vec![ParetoPoint::new("y", 0.8, 0.3)],
            vec![ParetoPoint::new("z", 0.7, 0.1)],
        ]);
        assert_eq!(merged.len(), 3);
        // sorted by the maximised objective, descending
        assert!(merged.windows(2).all(|w| w[0].maximize >= w[1].maximize));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_frontier_points_are_mutually_non_dominated(
            xs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..30)
        ) {
            let points: Vec<ParetoPoint> = xs
                .iter()
                .enumerate()
                .map(|(i, (a, b))| ParetoPoint::new(format!("p{i}"), *a, *b))
                .collect();
            let frontier = pareto_frontier(&points);
            prop_assert!(!frontier.is_empty());
            for p in &frontier {
                for q in &frontier {
                    prop_assert!(!p.dominates(q) || p == q || (p.maximize == q.maximize && p.minimize == q.minimize));
                }
            }
            // every excluded point is dominated by someone on the frontier
            for p in &points {
                if !frontier.iter().any(|f| f.maximize == p.maximize && f.minimize == p.minimize) {
                    prop_assert!(points.iter().any(|q| q.dominates(p)));
                }
            }
        }
    }

    /// `pareto_frontier` as it was, kept as the reference: the quadratic
    /// filter with its self-exclusion check, on owned clones.
    fn reference_frontier(points: &[ParetoPoint]) -> Vec<ParetoPoint> {
        let mut frontier: Vec<ParetoPoint> = points
            .iter()
            .filter(|candidate| {
                !points
                    .iter()
                    .any(|other| other != *candidate && other.dominates(candidate))
            })
            .cloned()
            .collect();
        frontier.sort_by(|a, b| {
            b.maximize
                .partial_cmp(&a.maximize)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        frontier.dedup_by(|a, b| a.maximize == b.maximize && a.minimize == b.minimize);
        frontier
    }

    /// Labels and exact bits, so `0.0` and `-0.0` are told apart.
    fn exact(frontier: &[ParetoPoint]) -> Vec<(String, u64, u64)> {
        frontier
            .iter()
            .map(|p| (p.label.clone(), p.maximize.to_bits(), p.minimize.to_bits()))
            .collect()
    }

    #[test]
    fn nan_objectives_sort_after_every_number() {
        // a `null` metric in a parsed report reads as NaN; NaN points are
        // never dominated, and the former `unwrap_or(Equal)` comparator is
        // not a total order over them
        let points: Vec<ParetoPoint> = (0..40)
            .map(|i| {
                let maximize = if i % 3 == 0 {
                    f64::NAN
                } else {
                    i as f64 / 40.0
                };
                ParetoPoint::new(format!("p{i}"), maximize, 1.0 - i as f64 / 40.0)
            })
            .collect();
        let frontier = pareto_frontier(&points);
        let numbers = frontier.iter().take_while(|p| !p.maximize.is_nan()).count();
        assert!(numbers > 0 && numbers < frontier.len());
        assert!(frontier[..numbers]
            .windows(2)
            .all(|w| w[0].maximize > w[1].maximize));
        assert!(frontier[numbers..].iter().all(|p| p.maximize.is_nan()));
        assert_eq!(frontier.len() - numbers, 14, "every NaN point survives");
    }

    #[test]
    fn a_nan_minimize_point_keeps_equal_neighbours_apart() {
        // the dedupe compares each point with the last one kept, and a
        // NaN equals nothing, so both copies of (0.5, 0.1) survive
        let points = vec![
            ParetoPoint::new("first", 0.5, 0.1),
            ParetoPoint::new("nan", 0.5, f64::NAN),
            ParetoPoint::new("second", 0.5, 0.1),
            ParetoPoint::new("third", 0.5, 0.1),
            ParetoPoint::new("dominated", 0.4, 0.1),
        ];
        let labels: Vec<String> = pareto_frontier(&points)
            .into_iter()
            .map(|p| p.label)
            .collect();
        assert_eq!(labels, ["first", "nan", "second"]);
        assert_eq!(
            exact(&pareto_frontier(&points)),
            exact(&reference_frontier(&points))
        );
    }

    #[test]
    fn descending_nan_last_keeps_signed_zeros_tied() {
        use std::cmp::Ordering::*;
        assert_eq!(descending_nan_last(0.0, -0.0), Equal);
        assert_eq!(descending_nan_last(1.0, 0.5), Less);
        assert_eq!(descending_nan_last(0.5, 1.0), Greater);
        assert_eq!(descending_nan_last(f64::NAN, -1e300), Greater);
        assert_eq!(descending_nan_last(f64::NEG_INFINITY, f64::NAN), Less);
        assert_eq!(descending_nan_last(f64::NAN, f64::NAN), Equal);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_frontier_matches_the_self_excluding_reference(
            xs in proptest::collection::vec((0usize..7, 0usize..8, 0usize..4), 0..30),
            split in 0usize..30,
        ) {
            // a coarse grid with both signed zeros forces equal points,
            // tied objectives and repeated labels; infinities sit at the
            // ends of the sweep, and a NaN `minimize` is never dominated
            // yet splits runs of equal points for the dedupe
            let maximize = [f64::NEG_INFINITY, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0];
            let minimize = [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, f64::INFINITY, f64::NAN];
            let points: Vec<ParetoPoint> = xs
                .iter()
                .map(|&(a, b, l)| ParetoPoint::new(format!("p{l}"), maximize[a], minimize[b]))
                .collect();
            let expected = exact(&reference_frontier(&points));
            prop_assert_eq!(exact(&pareto_frontier(&points)), expected.clone());
            let (head, tail) = points.split_at(split.min(points.len()));
            prop_assert_eq!(exact(&merge_frontiers([head, tail])), expected);
        }
    }
}
