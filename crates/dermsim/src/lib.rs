//! `dermsim` — a synthetic, group-structured dermatology dataset.
//!
//! The FaHaNa paper evaluates on a dermatology dataset assembled from ISIC
//! 2019 (light-skin majority), Dermnet and Atlas Dermatology (dark-skin
//! minority), labelled with five disease classes. Those images cannot be
//! redistributed, so this crate generates a synthetic stand-in that preserves
//! the property the paper studies: *group-dependent feature shifts combined
//! with group imbalance make the minority group harder to classify, and the
//! gap shrinks as model capacity grows*.
//!
//! Every sample is a small RGB image (NCHW, `3 × size × size`):
//!
//! * the **background tone** encodes the demographic group (light skin =
//!   bright background, dark skin = dark background);
//! * the **lesion pattern** encodes the disease class (five distinct spatial
//!   patterns);
//! * the lesion **contrast is lower for the dark-skin group**, so the same
//!   class is intrinsically harder to recognise for the minority — the same
//!   mechanism the paper's Figure 2 documents for real dermatology images;
//! * label noise and per-sample jitter keep the task non-trivial.
//!
//! The crate also implements the **data balancing** technique of Table 4
//! (generating extra minority data, following the fair-generative-model idea
//! of the paper's reference \[18\]) as [`balance_dataset`].
//!
//! # Example
//!
//! ```
//! use dermsim::{DermatologyConfig, DermatologyGenerator};
//!
//! let config = DermatologyConfig { samples: 200, ..DermatologyConfig::default() };
//! let dataset = DermatologyGenerator::new(config).generate();
//! assert_eq!(dataset.len(), 200);
//! let split = dataset.split_default();
//! assert!(split.train.len() > split.test.len());
//! ```

pub mod balancing;
pub mod dataset;
pub mod generator;
pub mod sample;
pub mod stats;

pub use balancing::{balance_dataset, BalancingConfig};
pub use dataset::{Dataset, DatasetSplit};
pub use generator::{DermatologyConfig, DermatologyGenerator};
pub use sample::{DiseaseClass, Group, Sample};
pub use stats::DatasetStats;
