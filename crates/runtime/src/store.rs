//! The campaign artifact store: a durable, queryable catalog of completed
//! campaign reports.
//!
//! A campaign run is expensive; its report is cheap to keep. The store
//! ingests campaign JSON reports (as written by `fahana-campaign --out`)
//! under a root directory and answers the question the ROADMAP's serving
//! front-end cares about: *"best architecture for device X under
//! latency/fairness constraint Y"* — across every campaign ever ingested,
//! with Pareto frontiers merged via [`fahana::merge_frontiers`].
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   artifacts/<id>.json   # one ingested campaign report, verbatim
//!   catalog.json          # regenerated index: id → scenario keys
//! ```
//!
//! Artifacts are the source of truth; `catalog.json` is a derived,
//! human-readable index rewritten on every ingest (it is never read back,
//! so a stale or deleted catalog can not corrupt anything). The one-shot
//! paths ([`ArtifactStore::ingest`], [`ArtifactStore::rebuild_catalog`])
//! rebuild it by re-parsing every artifact on disk; the daemon's
//! [`crate::serve::StoreView::ingest`] keeps every campaign parsed with
//! its rendered catalog entry, renders only the new campaign's entry and
//! reassembles the catalog from the kept ones, re-reading the disk only
//! when the artifact names show an out-of-band writer. Scenarios are
//! keyed by device slug × reward name × freezing mode — the three grid
//! axes of [`crate::scenario::CampaignConfig`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use edgehw::DeviceKind;
use fahana::{merge_frontiers, EpisodeRecord, ParetoPoint};

use crate::report::{CampaignReport, Json, ReportError, ScenarioReport};

/// Failure of a store operation.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem trouble.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, formatted.
        message: String,
    },
    /// An artifact file is not a valid campaign report.
    BadArtifact {
        /// The offending file.
        path: String,
        /// Why it failed to parse.
        error: ReportError,
    },
    /// An artifact with this id already exists.
    DuplicateId(String),
    /// The id contains characters that would escape the artifacts
    /// directory.
    InvalidId(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "store io on {path}: {message}"),
            StoreError::BadArtifact { path, error } => {
                write!(f, "bad artifact {path}: {error}")
            }
            StoreError::DuplicateId(id) => write!(f, "artifact id `{id}` already exists"),
            StoreError::InvalidId(id) => write!(f, "invalid artifact id `{id}`"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One campaign report held by the store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCampaign {
    /// The artifact id (file stem under `artifacts/`).
    pub id: String,
    /// The parsed report, shared: a clone of a campaign list copies
    /// pointers, not reports.
    pub report: Arc<CampaignReport>,
}

/// A "best architecture for device X under constraint Y" question.
///
/// Unset fields do not constrain. Constraints apply to the *records* the
/// reports carry (best / best-small / fairest architectures per scenario);
/// only records marked valid by their search are considered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreQuery {
    /// Only scenarios targeting this device.
    pub device: Option<DeviceKind>,
    /// Only scenarios with this reward setting name.
    pub reward: Option<String>,
    /// Only scenarios with this freezing mode.
    pub freezing: Option<bool>,
    /// Upper bound on estimated device latency (ms).
    pub max_latency_ms: Option<f64>,
    /// Upper bound on the unfairness score.
    pub max_unfairness: Option<f64>,
    /// Lower bound on overall accuracy.
    pub min_accuracy: Option<f64>,
    /// Upper bound on parameter count.
    pub max_params: Option<u64>,
}

impl StoreQuery {
    /// Every filter key [`StoreQuery::set`] understands, in display order.
    pub const KEYS: [&'static str; 7] = [
        "device",
        "reward",
        "freezing",
        "max_latency_ms",
        "max_unfairness",
        "min_accuracy",
        "max_params",
    ];

    /// Sets one filter from a textual key/value pair — the single parsing
    /// path shared by the `fahana-query` CLI flags and the `fahana-serve`
    /// daemon's URL query parameters.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown keys or unparsable values.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        // NaN and the infinities parse as f64 but are no usable bound
        let number = |key: &str, value: &str| -> Result<f64, String> {
            value
                .parse()
                .ok()
                .filter(|bound: &f64| bound.is_finite())
                .ok_or_else(|| format!("`{key}` expects a number, got `{value}`"))
        };
        match key {
            "device" => {
                self.device = Some(DeviceKind::from_slug(value).ok_or_else(|| {
                    let known: Vec<&str> = DeviceKind::all().iter().map(|d| d.slug()).collect();
                    format!(
                        "unknown device `{value}` (expected one of {})",
                        known.join(", ")
                    )
                })?);
            }
            "reward" => self.reward = Some(value.to_string()),
            "freezing" => {
                self.freezing = Some(match value {
                    "on" | "true" | "yes" | "1" => true,
                    "off" | "false" | "no" | "0" => false,
                    other => return Err(format!("`freezing` expects on/off, got `{other}`")),
                });
            }
            "max_latency_ms" => self.max_latency_ms = Some(number(key, value)?),
            "max_unfairness" => self.max_unfairness = Some(number(key, value)?),
            "min_accuracy" => self.min_accuracy = Some(number(key, value)?),
            "max_params" => {
                self.max_params = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`max_params` expects an integer, got `{value}`"))?,
                );
            }
            other => {
                return Err(format!(
                    "unknown filter `{other}` (expected one of {})",
                    Self::KEYS.join(", ")
                ))
            }
        }
        Ok(())
    }

    fn admits(&self, record: &EpisodeRecord) -> bool {
        record.valid
            && self.max_latency_ms.is_none_or(|tc| record.latency_ms <= tc)
            && self.max_unfairness.is_none_or(|u| record.unfairness <= u)
            && self.min_accuracy.is_none_or(|a| record.accuracy >= a)
            && self.max_params.is_none_or(|p| record.params <= p)
    }

    fn admits_scenario(&self, scenario: &ScenarioReport) -> bool {
        self.device
            .is_none_or(|device| scenario.device_slug == device.slug())
            && self.reward.as_deref().is_none_or(|r| scenario.reward == r)
            && self.freezing.is_none_or(|f| scenario.use_freezing == f)
    }
}

/// One architecture satisfying a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Which artifact it came from.
    pub campaign: String,
    /// Which scenario within that campaign.
    pub scenario: String,
    /// The role the record played in its report (`best`, `best_small`,
    /// `fairest`).
    pub role: &'static str,
    /// The discovered architecture's metrics.
    pub record: EpisodeRecord,
}

/// The answer to a [`StoreQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Highest-reward admissible architecture, if any.
    pub best: Option<Candidate>,
    /// Every admissible architecture, deduplicated by name (highest
    /// reward kept), sorted by reward descending.
    pub candidates: Vec<Candidate>,
    /// The accuracy/unfairness Pareto frontier merged across every
    /// matching scenario of every campaign.
    pub frontier: Vec<ParetoPoint>,
    /// Campaigns inspected.
    pub campaigns_consulted: usize,
    /// Scenarios that matched the device/reward/freezing filters.
    pub scenarios_matched: usize,
}

impl QueryAnswer {
    /// Renders the answer as JSON (what `fahana-query --json` prints).
    pub fn to_json(&self) -> Json {
        let candidate_json = |c: &Candidate| {
            Json::Obj(vec![
                ("campaign".into(), Json::str(&c.campaign)),
                ("scenario".into(), Json::str(&c.scenario)),
                ("role".into(), Json::str(c.role)),
                ("name".into(), Json::str(&c.record.name)),
                ("params".into(), Json::Int(c.record.params as i64)),
                ("latency_ms".into(), Json::Num(c.record.latency_ms)),
                ("accuracy".into(), Json::Num(c.record.accuracy)),
                ("unfairness".into(), Json::Num(c.record.unfairness)),
                ("reward".into(), Json::Num(c.record.reward)),
            ])
        };
        Json::Obj(vec![
            (
                "best".into(),
                self.best.as_ref().map(candidate_json).unwrap_or(Json::Null),
            ),
            (
                "candidates".into(),
                Json::Arr(self.candidates.iter().map(candidate_json).collect()),
            ),
            (
                "frontier".into(),
                Json::Arr(
                    self.frontier
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(&p.label)),
                                ("maximize".into(), Json::Num(p.maximize)),
                                ("minimize".into(), Json::Num(p.minimize)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "campaigns_consulted".into(),
                Json::Int(self.campaigns_consulted as i64),
            ),
            (
                "scenarios_matched".into(),
                Json::Int(self.scenarios_matched as i64),
            ),
        ])
    }
}

/// Answers a query from an in-memory set of campaigns: filters scenarios
/// by device/reward/freezing, collects admissible best/best-small/fairest
/// records, and merges the accuracy/unfairness frontiers of every matching
/// scenario into one cross-campaign Pareto frontier.
///
/// This is the single query/answer core shared by the one-shot
/// `fahana-query` CLI (via [`ArtifactStore::query`], which re-scans disk)
/// and the long-lived `fahana-serve` daemon (which holds the campaigns in
/// a [`crate::serve::StoreView`] and never re-scans per request).
pub fn answer_query(campaigns: &[StoredCampaign], query: &StoreQuery) -> QueryAnswer {
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut frontiers: Vec<Vec<ParetoPoint>> = Vec::new();
    let mut scenarios_matched = 0;
    for campaign in campaigns {
        for scenario in &campaign.report.scenarios {
            if !query.admits_scenario(scenario) {
                continue;
            }
            scenarios_matched += 1;
            frontiers.push(scenario.accuracy_fairness_frontier.clone());
            for (role, record) in [
                ("best", &scenario.best),
                ("best_small", &scenario.best_small),
                ("fairest", &scenario.fairest),
            ] {
                if let Some(record) = record {
                    if query.admits(record) {
                        candidates.push(Candidate {
                            campaign: campaign.id.clone(),
                            scenario: scenario.scenario.clone(),
                            role,
                            record: record.clone(),
                        });
                    }
                }
            }
        }
    }

    // dedupe by architecture name, keeping the highest-reward sighting
    candidates.sort_by(|a, b| {
        b.record
            .reward
            .partial_cmp(&a.record.reward)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.record.name.cmp(&b.record.name))
    });
    let mut seen = std::collections::BTreeSet::new();
    candidates.retain(|c| seen.insert(c.record.name.clone()));

    QueryAnswer {
        best: candidates.first().cloned(),
        candidates,
        frontier: merge_frontiers(frontiers),
        campaigns_consulted: campaigns.len(),
        scenarios_matched,
    }
}

/// A per-device leaderboard: the admissible architectures for one device,
/// deduplicated by name and ranked by reward descending — the store-side
/// aggregation behind `fahana-serve`'s `GET /leaderboard/{device_slug}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaderboard {
    /// The device the board ranks for.
    pub device: DeviceKind,
    /// Ranked entries, best first, truncated to the requested size.
    pub entries: Vec<Candidate>,
    /// Campaigns inspected.
    pub campaigns_consulted: usize,
    /// Scenarios targeting the device.
    pub scenarios_matched: usize,
}

/// Builds the [`Leaderboard`] for `device` over `campaigns`, keeping the
/// `top` highest-reward architectures.
pub fn leaderboard(campaigns: &[StoredCampaign], device: DeviceKind, top: usize) -> Leaderboard {
    let answer = answer_query(
        campaigns,
        &StoreQuery {
            device: Some(device),
            ..StoreQuery::default()
        },
    );
    let mut entries = answer.candidates;
    entries.truncate(top);
    Leaderboard {
        device,
        entries,
        campaigns_consulted: answer.campaigns_consulted,
        scenarios_matched: answer.scenarios_matched,
    }
}

impl Leaderboard {
    /// Renders the leaderboard as JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("device_slug".into(), Json::str(self.device.slug())),
            ("device".into(), Json::str(self.device.label())),
            (
                "entries".into(),
                Json::Arr(
                    self.entries
                        .iter()
                        .enumerate()
                        .map(|(index, c)| {
                            Json::Obj(vec![
                                ("rank".into(), Json::Int(index as i64 + 1)),
                                ("name".into(), Json::str(&c.record.name)),
                                ("reward".into(), Json::Num(c.record.reward)),
                                ("accuracy".into(), Json::Num(c.record.accuracy)),
                                ("unfairness".into(), Json::Num(c.record.unfairness)),
                                ("latency_ms".into(), Json::Num(c.record.latency_ms)),
                                ("params".into(), Json::Int(c.record.params as i64)),
                                ("campaign".into(), Json::str(&c.campaign)),
                                ("scenario".into(), Json::str(&c.scenario)),
                                ("role".into(), Json::str(c.role)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "campaigns_consulted".into(),
                Json::Int(self.campaigns_consulted as i64),
            ),
            (
                "scenarios_matched".into(),
                Json::Int(self.scenarios_matched as i64),
            ),
        ])
    }
}

/// The catalog document: a human-readable index keyed by artifact id
/// listing each scenario's device/reward/freezing key, plus a coverage
/// summary of the whole store. `catalog.json` and `fahana-serve`'s
/// `GET /catalog` carry exactly its rendering, assembled from one cached
/// entry per campaign (`CatalogEntry`, `render_catalog`) built from the
/// same definitions of an entry and of coverage.
pub fn catalog_json(campaigns: &[StoredCampaign]) -> Json {
    let keys: Vec<String> = campaigns
        .iter()
        .flat_map(|campaign| campaign.report.scenarios.iter().map(coverage_key))
        .collect();
    Json::Obj(vec![
        (
            "campaigns".into(),
            Json::Arr(campaigns.iter().map(catalog_entry_json).collect()),
        ),
        (
            "coverage".into(),
            coverage_json(keys.iter().map(String::as_str)),
        ),
    ])
}

/// One campaign's element of the catalog's `campaigns` array.
fn catalog_entry_json(campaign: &StoredCampaign) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::str(&campaign.id)),
        (
            "scenarios".into(),
            Json::Arr(
                campaign
                    .report
                    .scenarios
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("device_slug".into(), Json::str(&s.device_slug)),
                            ("reward".into(), Json::str(&s.reward)),
                            ("use_freezing".into(), Json::Bool(s.use_freezing)),
                            ("scenario".into(), Json::str(&s.scenario)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The key a scenario counts under in the catalog's `coverage` summary:
/// `device/reward/mode`.
fn coverage_key(scenario: &ScenarioReport) -> String {
    let mode = if scenario.use_freezing {
        "frozen"
    } else {
        "full"
    };
    format!("{}/{}/{mode}", scenario.device_slug, scenario.reward)
}

/// The catalog's `coverage` object: how many scenarios carry each key, in
/// key order.
fn coverage_json<'a>(keys: impl Iterator<Item = &'a str>) -> Json {
    let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
    for key in keys {
        *counts.entry(key).or_insert(0) += 1;
    }
    Json::Obj(
        counts
            .into_iter()
            .map(|(key, count)| (key.to_string(), Json::Int(count)))
            .collect(),
    )
}

/// One campaign's share of the catalog, kept so that a catalog can be
/// reassembled after an ingest without rendering the other campaigns
/// again: its rendered element of the `campaigns` array and the coverage
/// key of each of its scenarios.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CatalogEntry {
    rendered: String,
    coverage_keys: Vec<String>,
}

impl CatalogEntry {
    /// Renders `campaign`'s share of the catalog.
    pub(crate) fn new(campaign: &StoredCampaign) -> CatalogEntry {
        CatalogEntry {
            rendered: catalog_entry_json(campaign).render(),
            coverage_keys: campaign.report.scenarios.iter().map(coverage_key).collect(),
        }
    }
}

/// Assembles the catalog from one entry per campaign, in id order: the
/// bytes `catalog_json(campaigns).render()` gives for the same campaigns.
/// Only the coverage counts are computed here; every campaign's element
/// is copied from its entry.
pub(crate) fn render_catalog(entries: &[CatalogEntry]) -> String {
    let coverage = coverage_json(
        entries
            .iter()
            .flat_map(|entry| entry.coverage_keys.iter().map(String::as_str)),
    )
    .render();
    let elements: usize = entries.iter().map(|entry| entry.rendered.len() + 1).sum();
    let mut out = String::with_capacity(elements + coverage.len() + 32);
    out.push_str(r#"{"campaigns":["#);
    for (index, entry) in entries.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&entry.rendered);
    }
    out.push_str(r#"],"coverage":"#);
    out.push_str(&coverage);
    out.push('}');
    out
}

/// Best-effort removal of hidden `.*.tmp` staging files left behind by
/// writers that crashed between staging and publishing.
fn sweep_stale_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') && name.ends_with(".tmp") {
            std::fs::remove_file(entry.path()).ok();
        }
    }
}

/// A directory of ingested campaign reports with query support.
///
/// Clones share one catalog-rebuild lock, so concurrent in-process
/// ingests serialize their `catalog.json` regeneration: the last rebuild
/// is guaranteed to have listed the artifacts directory *after* every
/// completed ingest, i.e. the settled catalog is complete. (Writers in
/// *other* processes still interleave safely — the atomic rename means no
/// reader ever sees a torn catalog — but the settled document then
/// reflects whichever process rebuilt last; [`rebuild_catalog`] brings it
/// current.)
///
/// [`rebuild_catalog`]: ArtifactStore::rebuild_catalog
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    catalog_lock: std::sync::Arc<std::sync::Mutex<()>>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// Stale `.*.tmp` files — the residue of ingests or catalog writes
    /// that crashed between staging and publishing — are swept here, so a
    /// crashed writer never leaks hidden files forever. (A store should be
    /// opened before concurrent writers start; opening mid-ingest from a
    /// *different* process could sweep that ingest's staging file and fail
    /// its publish, which is safe but noisy.)
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory tree cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        let artifacts = root.join("artifacts");
        std::fs::create_dir_all(&artifacts).map_err(|e| StoreError::Io {
            path: artifacts.display().to_string(),
            message: e.to_string(),
        })?;
        for dir in [&root, &artifacts] {
            sweep_stale_tmp(dir);
        }
        Ok(ArtifactStore {
            root,
            catalog_lock: std::sync::Arc::new(std::sync::Mutex::new(())),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn artifact_path(&self, id: &str) -> PathBuf {
        self.root.join("artifacts").join(format!("{id}.json"))
    }

    /// Ingests a campaign report (JSON text) under `id`. The report is
    /// validated by parsing before anything is written; the id must be a
    /// plain file stem (letters, digits, `-`, `_`, `.`).
    ///
    /// # Errors
    ///
    /// [`StoreError::BadArtifact`] for unparsable reports,
    /// [`StoreError::DuplicateId`] / [`StoreError::InvalidId`] for id
    /// problems, [`StoreError::Io`] for filesystem failures.
    pub fn ingest(&self, id: &str, report_json: &str) -> Result<StoredCampaign, StoreError> {
        let stored = self.ingest_inner(id, report_json)?;
        self.write_catalog()?;
        Ok(stored)
    }

    /// Validates and publishes one artifact without touching
    /// `catalog.json` — the shared first half of every ingest path.
    pub(crate) fn ingest_inner(
        &self,
        id: &str,
        report_json: &str,
    ) -> Result<StoredCampaign, StoreError> {
        if id.is_empty()
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        {
            return Err(StoreError::InvalidId(id.to_string()));
        }
        let report =
            CampaignReport::parse(report_json).map_err(|error| StoreError::BadArtifact {
                path: format!("<ingest:{id}>"),
                error,
            })?;
        let path = self.artifact_path(id);
        if path.exists() {
            return Err(StoreError::DuplicateId(id.to_string()));
        }
        // atomic publish: write a hidden sibling (never listed — campaigns()
        // only reads `*.json`), then hard-link it into place. The link fails
        // if a concurrent ingest won the race, so an artifact can neither be
        // observed half-written nor silently overwritten. The staging name
        // must be unique per writer: after the winner's hard_link, its tmp
        // shares an inode with the published artifact, so a loser reusing
        // the same tmp name would truncate the *published* file in place.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.root.join("artifacts").join(format!(
            ".{id}.{}.{}.tmp",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, report_json).map_err(|e| StoreError::Io {
            path: tmp.display().to_string(),
            message: e.to_string(),
        })?;
        let publish = std::fs::hard_link(&tmp, &path);
        std::fs::remove_file(&tmp).ok();
        publish.map_err(|e| {
            if e.kind() == std::io::ErrorKind::AlreadyExists {
                StoreError::DuplicateId(id.to_string())
            } else {
                StoreError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                }
            }
        })?;
        Ok(StoredCampaign {
            id: id.to_string(),
            report: Arc::new(report),
        })
    }

    /// Like [`ArtifactStore::ingest`], but on [`StoreError::DuplicateId`]
    /// retries with `-2`, `-3`, … suffixes until an id is free — the one
    /// collision policy shared by `fahana-campaign --store` and the
    /// `fahana-shard` coordinator (whose HTTP publish maps the same
    /// policy onto 409 answers), so repeated runs with a default id never
    /// discard a finished campaign.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::ingest`], except `DuplicateId` (retried away).
    pub fn ingest_with_suffix(
        &self,
        id: &str,
        report_json: &str,
    ) -> Result<StoredCampaign, StoreError> {
        let stored = self.ingest_first_free(id, report_json)?;
        self.write_catalog()?;
        Ok(stored)
    }

    /// Ingests a report file, deriving the id from its file stem and
    /// suffixing `-2`, `-3`, … if that id is taken.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::ingest`].
    pub fn ingest_file(&self, path: impl AsRef<Path>) -> Result<StoredCampaign, StoreError> {
        let stored = self.ingest_file_inner(path.as_ref())?;
        self.write_catalog()?;
        Ok(stored)
    }

    /// Ingests several report files, rebuilding the catalog once at the
    /// end instead of after every file (ingesting N reports re-parses the
    /// whole store per catalog rebuild, so per-file rebuilds would be
    /// quadratic).
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::ingest`]; the first failure aborts the batch
    /// (already-ingested files stay ingested, and the catalog is rebuilt
    /// before the error is returned so it never lags the artifacts).
    pub fn ingest_files(
        &self,
        paths: &[impl AsRef<Path>],
    ) -> Result<Vec<StoredCampaign>, StoreError> {
        let mut stored = Vec::with_capacity(paths.len());
        let mut failure = None;
        for path in paths {
            match self.ingest_file_inner(path.as_ref()) {
                Ok(campaign) => stored.push(campaign),
                Err(error) => {
                    failure = Some(error);
                    break;
                }
            }
        }
        if !stored.is_empty() {
            self.write_catalog()?;
        }
        match failure {
            Some(error) => Err(error),
            None => Ok(stored),
        }
    }

    fn ingest_file_inner(&self, path: &Path) -> Result<StoredCampaign, StoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| StoreError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let stem: String = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "campaign".into())
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.ingest_first_free(&stem, &text)
    }

    /// Publishes one artifact under `id`, or under the first free one of
    /// `id-2`, `id-3`, … if `id` is taken, without touching `catalog.json`.
    fn ingest_first_free(&self, id: &str, report_json: &str) -> Result<StoredCampaign, StoreError> {
        let mut suffix = 1;
        loop {
            let attempt = if suffix == 1 {
                id.to_string()
            } else {
                format!("{id}-{suffix}")
            };
            match self.ingest_inner(&attempt, report_json) {
                Err(StoreError::DuplicateId(_)) => suffix += 1,
                other => return other,
            }
        }
    }

    /// Loads every ingested campaign, sorted by id.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on unreadable directories/files,
    /// [`StoreError::BadArtifact`] if an artifact no longer parses
    /// (external tampering — the store itself only writes validated
    /// reports).
    pub fn campaigns(&self) -> Result<Vec<StoredCampaign>, StoreError> {
        let dir = self.root.join("artifacts");
        let entries = std::fs::read_dir(&dir).map_err(|e| StoreError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let mut campaigns = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
            let path = entry.path();
            let Some(id) = artifact_id(&path) else {
                continue;
            };
            let text = std::fs::read_to_string(&path).map_err(|e| StoreError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            let report = CampaignReport::parse(&text).map_err(|error| StoreError::BadArtifact {
                path: path.display().to_string(),
                error,
            })?;
            campaigns.push(StoredCampaign {
                id,
                report: Arc::new(report),
            });
        }
        campaigns.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(campaigns)
    }

    /// Answers a query from every ingested campaign — re-scans disk, then
    /// delegates to [`answer_query`] (the core shared with `fahana-serve`).
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::campaigns`].
    pub fn query(&self, query: &StoreQuery) -> Result<QueryAnswer, StoreError> {
        Ok(answer_query(&self.campaigns()?, query))
    }

    /// Regenerates `catalog.json` from the artifacts on disk — useful
    /// after out-of-band writes (a second process ingesting into the same
    /// root, or hand-dropped artifact files).
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::campaigns`], plus [`StoreError::Io`] on write
    /// failures.
    pub fn rebuild_catalog(&self) -> Result<(), StoreError> {
        self.write_catalog()
    }

    /// The ids of every artifact on disk, sorted — the names
    /// [`ArtifactStore::campaigns`] would load, found by listing the
    /// directory without reading or parsing a single file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on an unreadable artifacts directory.
    pub(crate) fn artifact_ids(&self) -> Result<Vec<String>, StoreError> {
        let dir = self.root.join("artifacts");
        let io = |e: std::io::Error| StoreError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        };
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(io)? {
            ids.extend(artifact_id(&entry.map_err(io)?.path()));
        }
        ids.sort();
        Ok(ids)
    }

    /// Takes the catalog-rebuild lock shared by every clone (see the
    /// type-level docs). A caller that writes the catalog from its own
    /// list holds it from its [`ArtifactStore::artifact_ids`] check to
    /// its [`ArtifactStore::write_catalog_bytes`], so a concurrent
    /// in-process ingest either shows up in that listing or rebuilds the
    /// catalog from disk after it.
    pub(crate) fn lock_catalog(&self) -> std::sync::MutexGuard<'_, ()> {
        // the lock guards no data, so a panicked holder leaves nothing torn
        self.catalog_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Regenerates `catalog.json` from the artifacts on disk (see
    /// [`catalog_json`]). Rebuilds are serialized across clones (see the
    /// type-level docs), so the settled catalog covers every in-process
    /// ingest.
    fn write_catalog(&self) -> Result<(), StoreError> {
        let _serialize = self.lock_catalog();
        let entries: Vec<CatalogEntry> = self.campaigns()?.iter().map(CatalogEntry::new).collect();
        self.write_catalog_bytes(&render_catalog(&entries))
    }

    /// Writes `catalog` as `catalog.json`. The caller holds
    /// [`ArtifactStore::lock_catalog`].
    ///
    /// The write is atomic ([`crate::fsutil::write_atomic`]: staged in a
    /// hidden uniquely named sibling and renamed into place), so a
    /// process crash or a concurrent ingest can never leave a torn
    /// catalog — readers always observe some complete catalog, matching
    /// the artifact publish discipline of [`ArtifactStore::ingest`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failures.
    pub(crate) fn write_catalog_bytes(&self, catalog: &str) -> Result<(), StoreError> {
        let path = self.root.join("catalog.json");
        crate::fsutil::write_atomic(&path, catalog).map_err(|e| StoreError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }
}

/// The artifact id a path under `artifacts/` stands for: the stem of a
/// `*.json` file. Hidden `.*.tmp` staging files and anything else yield
/// `None`.
fn artifact_id(path: &Path) -> Option<String> {
    if path.extension().and_then(|e| e.to_str()) != Some("json") {
        return None;
    }
    Some(
        path.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CampaignConfig, RewardSetting};
    use crate::{campaign_json, CampaignEngine};

    fn temp_store(tag: &str) -> ArtifactStore {
        let root = std::env::temp_dir().join(format!("fahana-store-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        ArtifactStore::open(root).unwrap()
    }

    fn tiny_report(seed: u64) -> String {
        let outcome = CampaignEngine::new(CampaignConfig {
            episodes: 4,
            samples: 120,
            threads: 2,
            seed,
            devices: vec![DeviceKind::RaspberryPi4, DeviceKind::OdroidXu4],
            rewards: vec![RewardSetting::balanced()],
            freezing: vec![true],
            ..CampaignConfig::default()
        })
        .unwrap()
        .run()
        .unwrap();
        campaign_json(&outcome)
    }

    #[test]
    fn ingest_validates_and_persists() {
        let store = temp_store("ingest");
        let report = tiny_report(1);
        let stored = store.ingest("run-1", &report).unwrap();
        assert_eq!(stored.id, "run-1");
        assert_eq!(stored.report.scenarios.len(), 2);
        // artifact is on disk, verbatim
        let on_disk =
            std::fs::read_to_string(store.root().join("artifacts").join("run-1.json")).unwrap();
        assert_eq!(on_disk, report);
        // catalog was regenerated and is valid JSON
        let catalog = std::fs::read_to_string(store.root().join("catalog.json")).unwrap();
        let parsed = Json::parse(&catalog).unwrap();
        assert_eq!(parsed.get("campaigns").unwrap().as_arr().unwrap().len(), 1);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn bad_reports_and_ids_are_rejected() {
        let store = temp_store("bad");
        assert!(matches!(
            store.ingest("x", "not json"),
            Err(StoreError::BadArtifact { .. })
        ));
        assert!(matches!(
            store.ingest("../escape", "{}"),
            Err(StoreError::InvalidId(_))
        ));
        let report = tiny_report(2);
        store.ingest("dup", &report).unwrap();
        assert_eq!(
            store.ingest("dup", &report),
            Err(StoreError::DuplicateId("dup".into()))
        );
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn ingest_file_derives_and_disambiguates_ids() {
        let store = temp_store("files");
        let report = tiny_report(3);
        let src = store.root().join("incoming.json");
        std::fs::write(&src, &report).unwrap();
        assert_eq!(store.ingest_file(&src).unwrap().id, "incoming");
        assert_eq!(store.ingest_file(&src).unwrap().id, "incoming-2");
        assert_eq!(store.campaigns().unwrap().len(), 2);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn ingest_files_batches_with_one_catalog_rebuild() {
        let store = temp_store("batch");
        let report = tiny_report(4);
        let a = store.root().join("a.json");
        let b = store.root().join("b.json");
        std::fs::write(&a, &report).unwrap();
        std::fs::write(&b, &report).unwrap();
        let stored = store.ingest_files(&[&a, &b]).unwrap();
        assert_eq!(
            stored.iter().map(|s| s.id.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        // catalog reflects both
        let catalog = std::fs::read_to_string(store.root().join("catalog.json")).unwrap();
        let parsed = Json::parse(&catalog).unwrap();
        assert_eq!(parsed.get("campaigns").unwrap().as_arr().unwrap().len(), 2);
        // a failing entry aborts the batch but keeps earlier ingests
        let bad = store.root().join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        let c = store.root().join("c.json");
        std::fs::write(&c, &report).unwrap();
        assert!(matches!(
            store.ingest_files(&[&c, &bad]),
            Err(StoreError::BadArtifact { .. })
        ));
        assert_eq!(store.campaigns().unwrap().len(), 3);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn query_filters_and_ranks() {
        let store = temp_store("query");
        store.ingest("a", &tiny_report(10)).unwrap();
        store.ingest("b", &tiny_report(11)).unwrap();

        let all = store.query(&StoreQuery::default()).unwrap();
        assert_eq!(all.campaigns_consulted, 2);
        assert_eq!(all.scenarios_matched, 4);
        assert!(!all.candidates.is_empty());
        // ranked by reward, best is the head
        assert!(all
            .candidates
            .windows(2)
            .all(|w| w[0].record.reward >= w[1].record.reward));
        assert_eq!(all.best.as_ref(), all.candidates.first());
        // frontier is mutually non-dominated
        for p in &all.frontier {
            for q in &all.frontier {
                assert!(!p.dominates(q) || p.maximize == q.maximize);
            }
        }

        // device filter restricts the scenarios consulted
        let pi_only = store
            .query(&StoreQuery {
                device: Some(DeviceKind::RaspberryPi4),
                ..StoreQuery::default()
            })
            .unwrap();
        assert_eq!(pi_only.scenarios_matched, 2);

        // an unsatisfiable constraint yields an empty, well-formed answer
        let impossible = store
            .query(&StoreQuery {
                max_latency_ms: Some(0.0),
                ..StoreQuery::default()
            })
            .unwrap();
        assert!(impossible.best.is_none());
        assert!(impossible.candidates.is_empty());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn open_sweeps_stale_tmp_files_from_crashed_writers() {
        let store = temp_store("sweep");
        store.ingest("keep", &tiny_report(20)).unwrap();
        // plant the residue of a crashed ingest and a crashed catalog write
        let stale_artifact = store.root().join("artifacts").join(".crashed.tmp");
        let stale_catalog = store.root().join(".catalog.1234.0.tmp");
        std::fs::write(&stale_artifact, "half-written").unwrap();
        std::fs::write(&stale_catalog, "{\"campai").unwrap();

        let reopened = ArtifactStore::open(store.root()).unwrap();
        assert!(!stale_artifact.exists(), "stale artifact tmp must be swept");
        assert!(!stale_catalog.exists(), "stale catalog tmp must be swept");
        // the published artifact and catalog are untouched
        assert_eq!(reopened.campaigns().unwrap().len(), 1);
        let catalog = std::fs::read_to_string(reopened.root().join("catalog.json")).unwrap();
        Json::parse(&catalog).unwrap();
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn catalog_writes_leave_no_tmp_residue() {
        let store = temp_store("no-residue");
        store.ingest("a", &tiny_report(21)).unwrap();
        store.ingest("b", &tiny_report(22)).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(store.root())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp residue: {leftovers:?}");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn query_set_parses_every_key_and_rejects_garbage() {
        let mut query = StoreQuery::default();
        for (key, value) in [
            ("device", "raspberry_pi_4"),
            ("reward", "balanced"),
            ("freezing", "on"),
            ("max_latency_ms", "25.5"),
            ("max_unfairness", "0.2"),
            ("min_accuracy", "0.7"),
            ("max_params", "4000000"),
        ] {
            query.set(key, value).unwrap();
        }
        assert_eq!(
            query,
            StoreQuery {
                device: Some(DeviceKind::RaspberryPi4),
                reward: Some("balanced".into()),
                freezing: Some(true),
                max_latency_ms: Some(25.5),
                max_unfairness: Some(0.2),
                min_accuracy: Some(0.7),
                max_params: Some(4_000_000),
            }
        );
        assert!(query
            .set("device", "toaster")
            .unwrap_err()
            .contains("unknown device"));
        assert!(query
            .set("freezing", "maybe")
            .unwrap_err()
            .contains("on/off"));
        for key in ["max_latency_ms", "max_unfairness", "min_accuracy"] {
            for value in ["fast", "NaN", "nan", "inf", "-inf", "infinity"] {
                let err = query.set(key, value).unwrap_err();
                assert!(err.contains("expects a number"), "{key}={value}: {err}");
            }
        }
        assert!(query
            .set("max_params", "1.5")
            .unwrap_err()
            .contains("integer"));
        assert!(query
            .set("bogus", "1")
            .unwrap_err()
            .contains("unknown filter"));
    }

    #[test]
    fn leaderboard_ranks_per_device_and_truncates() {
        let store = temp_store("leaderboard");
        store.ingest("a", &tiny_report(30)).unwrap();
        store.ingest("b", &tiny_report(31)).unwrap();
        let campaigns = store.campaigns().unwrap();

        let board = leaderboard(&campaigns, DeviceKind::RaspberryPi4, 3);
        assert_eq!(board.campaigns_consulted, 2);
        assert_eq!(board.scenarios_matched, 2);
        assert!(board.entries.len() <= 3);
        assert!(board
            .entries
            .windows(2)
            .all(|w| w[0].record.reward >= w[1].record.reward));
        // the board is the device-filtered query answer, truncated
        let answer = answer_query(
            &campaigns,
            &StoreQuery {
                device: Some(DeviceKind::RaspberryPi4),
                ..StoreQuery::default()
            },
        );
        assert_eq!(board.entries, answer.candidates[..board.entries.len()]);

        // renders with ranks starting at 1
        let rendered = board.to_json().render();
        let parsed = Json::parse(&rendered).unwrap();
        let entries = parsed.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), board.entries.len());
        if let Some(first) = entries.first() {
            assert_eq!(first.get("rank").unwrap().as_i64(), Some(1));
        }
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn the_assembled_catalog_is_the_rendered_catalog_document() {
        assert_eq!(render_catalog(&[]), catalog_json(&[]).render());
        let store = temp_store("assembled-catalog");
        store.ingest("a", &tiny_report(40)).unwrap();
        store.ingest("b", &tiny_report(41)).unwrap();
        let campaigns = store.campaigns().unwrap();
        let entries: Vec<CatalogEntry> = campaigns.iter().map(CatalogEntry::new).collect();
        let assembled = render_catalog(&entries);
        assert_eq!(assembled, catalog_json(&campaigns).render());
        // both campaigns cover the same two scenario keys, so the coverage
        // counts come from both entries
        let parsed = Json::parse(&assembled).unwrap();
        let coverage = parsed.get("coverage").unwrap();
        assert_eq!(
            coverage
                .get("raspberry_pi_4/balanced/frozen")
                .unwrap()
                .as_i64(),
            Some(2)
        );
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn query_answer_renders_as_json() {
        let store = temp_store("answer-json");
        store.ingest("a", &tiny_report(12)).unwrap();
        let answer = store.query(&StoreQuery::default()).unwrap();
        let rendered = answer.to_json().render();
        let parsed = Json::parse(&rendered).unwrap();
        assert!(parsed.get("best").is_some());
        assert_eq!(parsed.get("campaigns_consulted").unwrap().as_i64(), Some(1));
        std::fs::remove_dir_all(store.root()).ok();
    }
}
