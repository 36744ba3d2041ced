//! Partitioning of campaign plans into shards: stable name-hash slices
//! and explicit cell-set assignments.
//!
//! A campaign grid is embarrassingly parallel: every cell is an
//! independent search, and campaign reports ([`crate::CampaignReport`])
//! merge. This module
//! supplies the partitioning half of the plan → partition → execute →
//! merge pipeline, in two forms unified by [`ShardAssignment`]:
//!
//! * [`ShardSpec`] names one shard of `N`, and [`shard_of`] assigns every
//!   scenario to exactly one shard by hashing its *name* — not its
//!   position — so adding or removing grid cells never reshuffles the
//!   cells that stayed. This is the default partition: workers need
//!   nothing but the config and `I/N`.
//! * [`CellAssignment`] is an explicit set of cell names — any subset of
//!   the plan, handed to any worker. This is what fault-tolerant
//!   rescheduling needs: when a shard's worker dies for good, its
//!   unfinished cells are rebalanced across replacement workers as
//!   explicit assignments (`fahana-campaign --cells FILE`) that no hash
//!   could describe.
//!
//! The hash assignment must be stable across processes, machines and
//! releases (a coordinator and its workers may not even share a binary),
//! so it uses a fixed FNV-1a hash rather than `std::hash`, whose output
//! is deliberately unstable.

use std::str::FromStr;

use crate::scenario::Scenario;
use crate::RuntimeError;

/// One shard of an `N`-way partition: `index` in `0..total`.
///
/// The CLI surface is 1-based (`--shard 1/3` … `--shard 3/3`, matching
/// how people count workers); the in-memory form is 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    index: usize,
    total: usize,
}

impl ShardSpec {
    /// A shard handle with 0-based `index` out of `total`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when `total` is zero or `index`
    /// is out of range.
    pub fn new(index: usize, total: usize) -> crate::Result<Self> {
        if total == 0 {
            return Err(RuntimeError::InvalidConfig(
                "shard count must be positive".into(),
            ));
        }
        if index >= total {
            return Err(RuntimeError::InvalidConfig(format!(
                "shard index {index} out of range for {total} shards"
            )));
        }
        Ok(ShardSpec { index, total })
    }

    /// 0-based shard index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of shards in the partition.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether this shard owns the scenario.
    pub fn owns(&self, scenario: &Scenario) -> bool {
        shard_of(&scenario.name, self.total) == self.index
    }
}

impl FromStr for ShardSpec {
    type Err = RuntimeError;

    /// Parses the CLI form `I/N` with 1-based `I` (e.g. `2/3`).
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let bad = || {
            RuntimeError::InvalidConfig(format!(
                "shard spec `{text}` must look like I/N with 1 <= I <= N"
            ))
        };
        let (index, total) = text.split_once('/').ok_or_else(bad)?;
        let index: usize = index.trim().parse().map_err(|_| bad())?;
        let total: usize = total.trim().parse().map_err(|_| bad())?;
        if index == 0 {
            return Err(bad());
        }
        ShardSpec::new(index - 1, total).map_err(|_| bad())
    }
}

impl std::fmt::Display for ShardSpec {
    /// Renders the CLI form (`2/3` for index 1 of 3).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.total)
    }
}

/// An explicit set of plan cells (scenario names) assigned to one
/// worker.
///
/// The text form is one cell name per line; blank lines and `#` comments
/// are ignored, so assignment files stay hand-editable and
/// coordinator-annotatable. An empty assignment is valid (a replacement
/// worker may end up with nothing when there are more survivors than
/// unfinished cells); duplicate names are rejected — one cell must never
/// run twice within one assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellAssignment {
    cells: Vec<String>,
}

impl CellAssignment {
    /// An assignment over the given cell names (kept in the given order).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when a name appears twice.
    pub fn new(cells: Vec<String>) -> crate::Result<Self> {
        let mut seen = std::collections::BTreeSet::new();
        for cell in &cells {
            if !seen.insert(cell.as_str()) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "cell `{cell}` appears twice in the assignment"
                )));
            }
        }
        Ok(CellAssignment { cells })
    }

    /// Parses the text form (one name per line, `#` comments, blank lines
    /// ignored).
    ///
    /// # Errors
    ///
    /// As [`CellAssignment::new`].
    pub fn parse(text: &str) -> crate::Result<Self> {
        CellAssignment::new(
            text.lines()
                .map(str::trim)
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .map(str::to_string)
                .collect(),
        )
    }

    /// Renders the text form [`CellAssignment::parse`] inverts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(cell);
            out.push('\n');
        }
        out
    }

    /// The assigned cell names, in assignment order.
    pub fn cells(&self) -> &[String] {
        &self.cells
    }

    /// Number of assigned cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the assignment holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// How a worker's share of the plan is expressed: the generalization from
/// pure hash partitions to arbitrary cell sets.
///
/// [`crate::CampaignPlan::slice_assignment`] resolves either form to the
/// concrete scenarios, and `fahana-campaign` accepts either on the CLI
/// (`--shard I/N` or `--cells FILE`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAssignment {
    /// One slice of the stable name-hash partition.
    Hash(ShardSpec),
    /// An explicit cell set chosen by a coordinator.
    Cells(CellAssignment),
}

impl std::fmt::Display for ShardAssignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardAssignment::Hash(spec) => write!(f, "shard {spec}"),
            ShardAssignment::Cells(cells) => {
                write!(f, "explicit assignment ({} cells)", cells.len())
            }
        }
    }
}

/// The shard (0-based, `< total`) that owns a scenario name.
///
/// Stable FNV-1a (`fnv1a`) over the name's bytes (the assignment is pinned by
/// literal values in this module's tests): the same name always lands on
/// the same shard, on every platform and in every release.
pub fn shard_of(scenario_name: &str, total: usize) -> usize {
    debug_assert!(total > 0, "shard_of needs a positive shard count");
    (fnv1a(scenario_name.as_bytes()) % total as u64) as usize
}

/// Plain 64-bit FNV-1a. Its output is a durable contract (the
/// worker↔coordinator cell assignment of [`shard_of`]), so it must never
/// change.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CampaignConfig;

    #[test]
    fn specs_parse_the_one_based_cli_form() {
        let spec: ShardSpec = "2/3".parse().unwrap();
        assert_eq!(spec.index(), 1);
        assert_eq!(spec.total(), 3);
        assert_eq!(spec.to_string(), "2/3");
        assert_eq!(
            "1/1".parse::<ShardSpec>().unwrap(),
            ShardSpec::new(0, 1).unwrap()
        );
        for bad in ["", "3", "0/3", "4/3", "a/b", "1/0", "1//2"] {
            assert!(
                bad.parse::<ShardSpec>().is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn construction_rejects_out_of_range_shards() {
        assert!(ShardSpec::new(0, 0).is_err());
        assert!(ShardSpec::new(3, 3).is_err());
        assert!(ShardSpec::new(2, 3).is_ok());
    }

    #[test]
    fn every_scenario_lands_on_exactly_one_shard() {
        let scenarios = CampaignConfig::default().expand();
        for total in [1usize, 2, 3, 5, 8, 13] {
            for scenario in &scenarios {
                let owners: Vec<usize> = (0..total)
                    .filter(|&index| ShardSpec::new(index, total).unwrap().owns(scenario))
                    .collect();
                assert_eq!(
                    owners.len(),
                    1,
                    "{} must have exactly one owner of {total}, got {owners:?}",
                    scenario.name
                );
                assert_eq!(owners[0], shard_of(&scenario.name, total));
            }
        }
    }

    #[test]
    fn cell_assignments_round_trip_and_reject_duplicates() {
        let assignment = CellAssignment::parse(
            "# rebalanced by fahana-shard\n\
             raspberry_pi_4/balanced/frozen\n\
             \n\
             odroid_xu4/balanced/full\n",
        )
        .unwrap();
        assert_eq!(
            assignment.cells(),
            [
                "raspberry_pi_4/balanced/frozen".to_string(),
                "odroid_xu4/balanced/full".to_string(),
            ]
        );
        assert_eq!(assignment.len(), 2);
        assert!(!assignment.is_empty());
        // render → parse is lossless (comments and blanks aside)
        assert_eq!(
            CellAssignment::parse(&assignment.render()).unwrap(),
            assignment
        );

        // empty assignments are valid (a replacement worker may get none)
        let empty = CellAssignment::parse("# nothing left\n").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.render(), "");

        let err = CellAssignment::parse("a/b/c\na/b/c\n").unwrap_err();
        assert!(err.to_string().contains("appears twice"), "{err}");
    }

    #[test]
    fn shard_assignments_describe_themselves() {
        let hash = ShardAssignment::Hash("2/3".parse().unwrap());
        assert_eq!(hash.to_string(), "shard 2/3");
        let cells = ShardAssignment::Cells(
            CellAssignment::new(vec!["a/b/c".into(), "d/e/f".into()]).unwrap(),
        );
        assert_eq!(cells.to_string(), "explicit assignment (2 cells)");
    }

    #[test]
    fn assignment_is_pinned() {
        // pinned values: the partition is part of the on-the-wire contract
        // between coordinator and workers (which may run different builds
        // on different machines), so it must never drift
        for (name, at2, at3, at8) in [
            ("raspberry_pi_4/balanced/frozen", 0, 1, 2),
            ("raspberry_pi_4/balanced/full", 1, 2, 5),
            ("raspberry_pi_4/fairness_heavy/frozen", 1, 0, 5),
            ("raspberry_pi_4/fairness_heavy/full", 0, 0, 6),
            ("odroid_xu4/balanced/frozen", 0, 0, 6),
            ("odroid_xu4/balanced/full", 1, 0, 1),
            ("odroid_xu4/fairness_heavy/frozen", 1, 0, 1),
            ("odroid_xu4/fairness_heavy/full", 0, 2, 2),
        ] {
            assert_eq!(shard_of(name, 2), at2, "{name} at N=2");
            assert_eq!(shard_of(name, 3), at3, "{name} at N=3");
            assert_eq!(shard_of(name, 8), at8, "{name} at N=8");
        }
    }
}
