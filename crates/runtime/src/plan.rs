//! The campaign plan: a validated, deterministically ordered enumeration
//! of a grid's cells, ready to be partitioned into shards.
//!
//! [`CampaignPlan`] is the first stage of the plan → partition → execute
//! → merge pipeline behind sharded campaigns:
//!
//! 1. **plan** — expand a [`CampaignConfig`] into its scenarios once, in
//!    the canonical device-major grid order (this module);
//! 2. **partition** — assign every scenario to exactly one shard by
//!    stable name hash ([`crate::shard`]);
//! 3. **execute** — each worker runs only its slice
//!    ([`crate::CampaignEngine::run_scenarios`]);
//! 4. **merge** — partial reports fuse back into one campaign report in
//!    plan order ([`crate::CampaignReport::merge`]).
//!
//! Because every worker derives the same plan from the same config, and
//! the partition hashes names rather than positions, a coordinator and
//! its workers need to exchange nothing but the config and `I/N`.

use crate::scenario::{CampaignConfig, Scenario};
use crate::shard::{ShardAssignment, ShardSpec};
use crate::{Result, RuntimeError};

/// A validated grid expansion with a stable scenario order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    config: CampaignConfig,
    scenarios: Vec<Scenario>,
}

impl CampaignPlan {
    /// Validates the config and enumerates its grid cells in canonical
    /// (device-major) order.
    ///
    /// # Errors
    ///
    /// As [`CampaignConfig::validate`].
    pub fn new(config: CampaignConfig) -> Result<Self> {
        config.validate()?;
        let scenarios = config.expand();
        Ok(CampaignPlan { config, scenarios })
    }

    /// The configuration the plan was derived from.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Every scenario, in plan order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of grid cells.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the plan holds no cells (never true for a validated
    /// config, which rejects empty axes).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The scenario names in plan order — the ordering template report
    /// merging uses to put fused scenarios back into grid order.
    pub fn order(&self) -> Vec<String> {
        self.scenarios.iter().map(|s| s.name.clone()).collect()
    }

    /// The scenarios owned by `shard`, in plan order. The slices of all
    /// `N` shards partition [`CampaignPlan::scenarios`] exactly; a slice
    /// may be empty when the grid is small relative to `N`.
    pub fn slice(&self, shard: ShardSpec) -> Vec<Scenario> {
        self.scenarios
            .iter()
            .filter(|scenario| shard.owns(scenario))
            .cloned()
            .collect()
    }

    /// The scenarios named by an explicit cell set, in plan order
    /// regardless of the listed order. Unlike hash slices, an arbitrary
    /// subset can be wrong, so it is validated: every name must be a cell
    /// of this plan, and no name may repeat.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] naming the first unknown or
    /// duplicated cell.
    pub fn subset(&self, names: &[String]) -> Result<Vec<Scenario>> {
        let known: std::collections::BTreeSet<&str> =
            self.scenarios.iter().map(|s| s.name.as_str()).collect();
        let mut wanted = std::collections::BTreeSet::new();
        for name in names {
            if !known.contains(name.as_str()) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "cell `{name}` is not part of the campaign plan"
                )));
            }
            if !wanted.insert(name.as_str()) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "cell `{name}` is assigned twice"
                )));
            }
        }
        Ok(self
            .scenarios
            .iter()
            .filter(|scenario| wanted.contains(scenario.name.as_str()))
            .cloned()
            .collect())
    }

    /// The scenarios a worker's assignment resolves to: a hash slice
    /// ([`CampaignPlan::slice`]) or a validated explicit subset
    /// ([`CampaignPlan::subset`]), both in plan order.
    ///
    /// # Errors
    ///
    /// As [`CampaignPlan::subset`] (hash slices cannot fail).
    pub fn slice_assignment(&self, assignment: &ShardAssignment) -> Result<Vec<Scenario>> {
        match assignment {
            ShardAssignment::Hash(spec) => Ok(self.slice(*spec)),
            ShardAssignment::Cells(cells) => self.subset(cells.cells()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::CellAssignment;

    #[test]
    fn subsets_are_validated_and_normalized_to_plan_order() {
        let plan = CampaignPlan::new(CampaignConfig::default()).unwrap();
        let order = plan.order();

        // listed backwards, resolved in plan order
        let names = vec![order[5].clone(), order[0].clone(), order[3].clone()];
        let scenarios = plan.subset(&names).unwrap();
        let resolved: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(resolved, [&order[0], &order[3], &order[5]]);

        // the empty subset is a valid (idle) assignment
        assert!(plan.subset(&[]).unwrap().is_empty());

        let err = plan.subset(&["desktop/balanced/full".into()]).unwrap_err();
        assert!(err.to_string().contains("not part of"), "{err}");
        let err = plan
            .subset(&[order[1].clone(), order[1].clone()])
            .unwrap_err();
        assert!(err.to_string().contains("assigned twice"), "{err}");
    }

    #[test]
    fn assignments_resolve_through_one_entry_point() {
        let plan = CampaignPlan::new(CampaignConfig::default()).unwrap();
        let spec = ShardSpec::new(1, 3).unwrap();
        assert_eq!(
            plan.slice_assignment(&ShardAssignment::Hash(spec)).unwrap(),
            plan.slice(spec)
        );
        let cells = CellAssignment::new(plan.order()).unwrap();
        assert_eq!(
            plan.slice_assignment(&ShardAssignment::Cells(cells))
                .unwrap(),
            plan.scenarios()
        );
    }

    #[test]
    fn plan_preserves_grid_order_and_validates() {
        let config = CampaignConfig::default();
        let plan = CampaignPlan::new(config.clone()).unwrap();
        assert_eq!(plan.len(), 8);
        assert!(!plan.is_empty());
        assert_eq!(plan.scenarios(), config.expand().as_slice());
        assert_eq!(plan.order()[0], "raspberry_pi_4/balanced/frozen");
        assert_eq!(plan.config(), &config);

        let mut bad = config;
        bad.episodes = 0;
        assert!(CampaignPlan::new(bad).is_err());
    }

    #[test]
    fn shard_slices_partition_the_plan() {
        let plan = CampaignPlan::new(CampaignConfig::default()).unwrap();
        for total in [1usize, 2, 3, 8] {
            let mut reassembled: Vec<Scenario> = Vec::new();
            for index in 0..total {
                let slice = plan.slice(ShardSpec::new(index, total).unwrap());
                // each slice keeps plan order
                let names: Vec<&str> = slice.iter().map(|s| s.name.as_str()).collect();
                let sorted_by_plan: Vec<&str> = plan
                    .scenarios()
                    .iter()
                    .map(|s| s.name.as_str())
                    .filter(|name| names.contains(name))
                    .collect();
                assert_eq!(names, sorted_by_plan, "slice {index}/{total} out of order");
                reassembled.extend(slice);
            }
            assert_eq!(reassembled.len(), plan.len(), "N={total} must partition");
            for scenario in plan.scenarios() {
                assert_eq!(
                    reassembled
                        .iter()
                        .filter(|s| s.name == scenario.name)
                        .count(),
                    1,
                    "{} must appear exactly once across {total} slices",
                    scenario.name
                );
            }
        }
    }
}
