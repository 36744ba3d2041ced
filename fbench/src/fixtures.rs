//! Per-seed inputs, generated once and reused by every later run with the
//! same seed. Generation happens before any timed phase and is never part
//! of `setup_s`.
//!
//! Layout under the work directory:
//!
//! ```text
//! campaign-<seed>/canonical.json   reference canonical campaign report
//! reports/r-<i>.json               REPORTS real campaign reports
//! store-<seed>/                    ArtifactStore with STORE_CAMPAIGNS artifacts
//! ```
//!
//! The report pool comes from fixed campaign seeds and is shared by every
//! seed; a seed decides which report each store id and each ingest gets.
//! Every seeded store therefore holds the same bytes under different ids,
//! so the serve workloads cost the same whatever the seed.
//!
//! Each directory is built under a temporary name and renamed into place,
//! so an interrupted generation is redone rather than half-used.

use std::path::{Path, PathBuf};

use fahana_runtime::{ArtifactStore, CampaignConfig, CampaignEngine, CampaignReport};

use crate::sys::SplitMix;

/// Distinct campaign reports generated per seed.
pub const REPORTS: usize = 8;
/// Artifacts in the seeded store (each report published under
/// `STORE_CAMPAIGNS / REPORTS` ids).
pub const STORE_CAMPAIGNS: usize = 64;

/// The campaign grid every workload uses: the default `fahana-campaign`
/// grid (2 devices x 2 rewards x frozen/full, 40 episodes, shared seed,
/// cache on) on one pool worker.
pub fn grid_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        threads: 1,
        ..CampaignConfig::default()
    }
}

fn build_once(
    dir: &Path,
    build: impl FnOnce(&Path) -> Result<(), String>,
) -> Result<PathBuf, String> {
    if dir.is_dir() {
        return Ok(dir.to_path_buf());
    }
    let staging = dir.with_extension(format!("tmp{}", std::process::id()));
    std::fs::remove_dir_all(&staging).ok();
    std::fs::create_dir_all(&staging)
        .map_err(|e| format!("cannot create {}: {e}", staging.display()))?;
    build(&staging)?;
    std::fs::rename(&staging, dir).map_err(|e| format!("cannot publish {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// The canonical report of the seed's grid, run with the evaluation
/// cache off: a timed run (cache on) must render byte-identical bytes.
pub fn campaign_reference(work: &Path, seed: u64) -> Result<String, String> {
    let dir = build_once(&work.join(format!("campaign-{seed}")), |dir| {
        let outcome = CampaignEngine::new(CampaignConfig {
            use_cache: false,
            ..grid_config(seed)
        })
        .and_then(|engine| engine.run())
        .map_err(|e| format!("reference campaign failed: {e}"))?;
        let canonical = CampaignReport::from_outcome(&outcome)
            .canonical()
            .to_json()
            .render();
        std::fs::write(dir.join("canonical.json"), canonical)
            .map_err(|e| format!("cannot write reference: {e}"))
    })?;
    std::fs::read_to_string(dir.join("canonical.json"))
        .map_err(|e| format!("cannot read reference: {e}"))
}

/// The seeded serve inputs: the report pool (ingest bodies), the order a
/// round ingests them in, and the store every serve round starts from.
#[derive(Debug, Clone)]
pub struct StoreFixture {
    pub reports: Vec<String>,
    pub ingest_order: Vec<usize>,
    pub store: PathBuf,
}

/// A seeded permutation of `0..n`.
fn permutation(rng: &mut SplitMix, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn report_pool(work: &Path) -> Result<Vec<String>, String> {
    let dir = build_once(&work.join("reports"), |dir| {
        for i in 0..REPORTS {
            let outcome = CampaignEngine::new(grid_config(1000 + i as u64))
                .and_then(|engine| engine.run())
                .map_err(|e| format!("fixture campaign failed: {e}"))?;
            let text = CampaignReport::from_outcome(&outcome).to_json().render();
            std::fs::write(dir.join(format!("r-{i}.json")), text).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    (0..REPORTS)
        .map(|i| std::fs::read_to_string(dir.join(format!("r-{i}.json"))))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read fixture reports: {e}"))
}

pub fn store_fixture(work: &Path, seed: u64) -> Result<StoreFixture, String> {
    let reports = report_pool(work)?;
    let mut rng = SplitMix::new(seed);
    let placement = permutation(&mut rng, REPORTS);
    let ingest_order = permutation(&mut rng, REPORTS);
    let store = build_once(&work.join(format!("store-{seed}")), |dir| {
        // publish every artifact, then rebuild the catalog once (one
        // ingest per artifact would rebuild it 64 times)
        let staged = dir.join("staged");
        std::fs::create_dir_all(&staged).map_err(|e| e.to_string())?;
        let files: Vec<PathBuf> = (0..STORE_CAMPAIGNS)
            .map(|i| {
                let path = staged.join(format!("c-{i:02}.json"));
                std::fs::write(&path, &reports[placement[i % REPORTS]]).map(|_| path)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
        store.ingest_files(&files).map_err(|e| e.to_string())?;
        std::fs::remove_dir_all(&staged).map_err(|e| e.to_string())
    })?;
    Ok(StoreFixture {
        reports,
        ingest_order,
        store,
    })
}

/// Copies a store directory tree (artifacts + catalog), so every round
/// starts from identical bytes.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(to).ok();
    copy_tree(from, to).map_err(|e| format!("cannot copy store to {}: {e}", to.display()))
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
