//! `fahana-runtime` — parallel, cache-aware FaHaNa search campaigns.
//!
//! The paper runs *one* search against *one* device and *one* reward
//! setting; real deployments (and the follow-up literature on scenario
//! diversity) need sweeps over many device profiles, reward weightings and
//! search-space configurations. This crate turns the single-search engine
//! of [`fahana`] into a campaign system:
//!
//! * [`pool`] — a std-only thread pool with one job queue and a helping
//!   `map`, safe for nested parallelism (a pool job may fan out on the
//!   same pool without deadlocking);
//! * [`cache`] — an architecture-fingerprint-keyed evaluation cache behind
//!   an `RwLock`, memoising [`evaluator::SurrogateEvaluator`] results for
//!   one campaign run so scenarios that re-visit the same child
//!   architecture (same controller seed, different device/reward) never
//!   re-evaluate it;
//! * [`scenario`] — the declarative scenario grid (device × reward ×
//!   freezing) and the campaign config-file parser;
//! * [`campaign`] — the engine that expands a grid and runs every scenario
//!   on the pool, sharing per-device latency tables
//!   ([`edgehw::SharedBlockLatencyTable`]) and the evaluation cache;
//! * [`plan`] / [`shard`] — the plan → partition half of sharded
//!   execution: a [`CampaignPlan`] enumerates grid cells deterministically
//!   and slices them into `N` shards by stable name hash — or into
//!   arbitrary explicit cell sets ([`CellAssignment`],
//!   `fahana-campaign --cells`) — so independent worker processes
//!   (fanned out by the `fahana-shard` coordinator, which retries failed
//!   workers and rebalances their unfinished cells) jointly cover the
//!   grid exactly once and their partial reports merge back
//!   bit-identically to a single-process run;
//! * [`fsutil`] — crash-safe staging writes ([`write_atomic`]) shared by
//!   every artifact emitter, so a worker killed mid-write never leaves a
//!   torn report for a retrying coordinator to trip over;
//! * [`report`] — hand-rolled JSON reports (best architecture, Pareto
//!   frontier, wall-clock, cache hit-rate) for each scenario and the
//!   campaign as a whole, with a parser and typed schema structs so
//!   reports round-trip;
//! * [`store`] — the campaign artifact store: ingested reports indexed by
//!   device × reward × freezing, answering "best architecture for device
//!   X under constraint Y" queries (the `fahana-query` binary) with
//!   cross-campaign Pareto-frontier merging;
//! * [`serve`] — the long-lived serving front-end: the `fahana-serve`
//!   HTTP/1.1 daemon over the artifact store, sharing the exact query core
//!   with the CLI and handling connections on the same thread pool;
//! * [`telemetry`] — the observability side channel: a lock-cheap
//!   [`MetricsRegistry`] (counters, gauges, fixed-bucket latency
//!   histograms; Prometheus text + JSON renderings) and a JSONL
//!   [`TraceSink`] (`--trace-out`), instrumented through the campaign
//!   engine, the pool, the shard coordinator and the serve stack —
//!   guaranteed never to change any artifact byte.
//!
//! Determinism is a hard guarantee: a scenario's [`fahana::SearchOutcome`]
//! is bit-identical whether it runs serially or through the pool, with the
//! cache enabled or disabled, whole or as shards (see
//! `tests/determinism.rs`).

pub mod cache;
pub mod campaign;
pub mod fsutil;
pub mod plan;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod shard;
pub mod store;
pub mod telemetry;

pub use cache::{CacheStats, CachedEvaluator, EvalCache};
pub use campaign::{CampaignEngine, CampaignOutcome, ScenarioOutcome};
pub use fsutil::write_atomic;
pub use plan::CampaignPlan;
pub use pool::{PoolMonitor, PoolStats, ThreadPool};
pub use report::{
    campaign_json, scenario_json, CampaignReport, Json, ReportError, ReportMergeError,
    ScenarioReport,
};
pub use scenario::{CampaignConfig, RewardSetting, Scenario};
pub use serve::{ResponseCache, ServeOptions, Server, ServerHandle, StoreView};
pub use shard::{shard_of, CellAssignment, ShardAssignment, ShardSpec};
pub use store::{
    answer_query, catalog_json, leaderboard, ArtifactStore, Candidate, Leaderboard, QueryAnswer,
    StoreError, StoreQuery, StoredCampaign,
};
pub use telemetry::{MetricsRegistry, Telemetry, TraceSink};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Error type of the campaign runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The campaign configuration (file or grid) is invalid.
    InvalidConfig(String),
    /// A scenario's search failed.
    Scenario {
        /// Name of the failing scenario.
        name: String,
        /// The underlying search error, formatted.
        message: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::InvalidConfig(msg) => write!(f, "invalid campaign config: {msg}"),
            RuntimeError::Scenario { name, message } => {
                write!(f, "scenario `{name}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}
