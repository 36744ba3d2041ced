//! `fahana` — Fairness- and Hardware-aware Neural Architecture Search.
//!
//! This crate implements the paper's primary contribution (DAC 2022,
//! "The Larger The Fairer? Small Neural Networks Can Achieve Fairness for
//! Edge Devices"): a reinforcement-learning NAS framework that finds neural
//! architectures balancing accuracy, fairness and hardware efficiency.
//!
//! The four components of Figure 4 map onto the following modules:
//!
//! | Paper component | Module |
//! |---|---|
//! | ➀ RNN controller + Monte-Carlo policy gradient (Eq. 2) | [`controller`] |
//! | ➁ Block-based search space | re-exported from [`archspace`] |
//! | ➂ Backbone producer with the freezing method | [`archspace::backbone`] + [`evaluator::variation`] |
//! | ➃ Evaluator/trainer with the reward of Eq. 1 | [`reward`] + [`evaluator`] + [`edgehw`] |
//!
//! The search loop itself lives in [`search`]; the MONAS baseline (the
//! multi-objective NAS the paper compares against in Table 2) in [`monas`];
//! Pareto-frontier utilities for Figures 5 and 6 in [`pareto`].
//!
//! # Quick start
//!
//! ```
//! use fahana::{FahanaConfig, FahanaSearch};
//!
//! let config = FahanaConfig {
//!     episodes: 12,
//!     seed: 7,
//!     ..FahanaConfig::default()
//! };
//! let outcome = FahanaSearch::new(config)?.run()?;
//! assert_eq!(outcome.history.len(), 12);
//! assert!(outcome.space_log10_size > 0.0);
//! # Ok::<(), fahana::FahanaError>(())
//! ```

pub mod controller;
pub mod error;
pub mod monas;
pub mod pareto;
pub mod reward;
pub mod search;

pub use controller::{ControllerConfig, EpisodeSample, RnnController};
pub use error::FahanaError;
pub use monas::{MonasConfig, MonasSearch};
pub use pareto::{descending_nan_last, merge_frontiers, pareto_frontier, ParetoPoint};
pub use reward::{Reward, RewardConfig};
pub use search::{DiscoveredNetwork, EpisodeRecord, FahanaConfig, FahanaSearch, SearchOutcome};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, FahanaError>;
