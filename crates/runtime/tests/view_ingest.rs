//! The daemon's ingest path against the from-disk path: a
//! [`StoreView::ingest`] inserts the parsed report in memory and writes
//! `catalog.json` from that list, and after any mix of view ingests,
//! out-of-band store writes and reloads — sequential or concurrent — the
//! view and the catalog must equal what re-parsing the directory gives,
//! byte for byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

use edgehw::DeviceKind;
use fahana_runtime::{
    campaign_json, catalog_json, ArtifactStore, CampaignConfig, CampaignEngine, RewardSetting,
    StoreError, StoreView,
};
use proptest::prelude::*;

fn temp_root(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let root = std::env::temp_dir().join(format!(
        "fahana-view-ingest-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// Three small reports over different device grids, so their catalog
/// entries and coverage counts differ.
fn reports() -> &'static [String] {
    static REPORTS: OnceLock<Vec<String>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        [
            vec![DeviceKind::RaspberryPi4],
            vec![DeviceKind::OdroidXu4],
            vec![DeviceKind::RaspberryPi4, DeviceKind::OdroidXu4],
        ]
        .into_iter()
        .enumerate()
        .map(|(index, devices)| {
            let outcome = CampaignEngine::new(CampaignConfig {
                episodes: 3,
                samples: 120,
                threads: 2,
                seed: 40 + index as u64,
                devices,
                rewards: vec![RewardSetting::balanced()],
                freezing: vec![true],
                ..CampaignConfig::default()
            })
            .unwrap()
            .run()
            .unwrap();
            campaign_json(&outcome)
        })
        .collect()
    })
}

/// `catalog.json` as a from-disk rebuild would write it.
fn disk_catalog(store: &ArtifactStore) -> String {
    catalog_json(&store.campaigns().unwrap()).render()
}

fn catalog_on_disk(store: &ArtifactStore) -> String {
    std::fs::read_to_string(store.root().join("catalog.json")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each step is `(kind, id, report)`: kind 0–1 ingests through the
    /// view, 2 ingests out-of-band through the store and 3 deletes an
    /// artifact out-of-band (so the next view ingest has to heal from
    /// disk), 4 reloads the view.
    #[test]
    fn prop_view_ingests_match_the_from_disk_path(
        steps in proptest::collection::vec((0u8..5, 0usize..10, 0usize..3), 1..16),
    ) {
        let store = ArtifactStore::open(temp_root("prop")).unwrap();
        store.ingest("seed", &reports()[0]).unwrap();
        let view = StoreView::open(store.clone()).unwrap();
        let mut updates = 0;
        // an out-of-band write the view has not caught up with yet
        let mut behind = false;
        for &(kind, id, report) in &steps {
            let id = format!("c{id}");
            let report = &reports()[report];
            match kind {
                0 | 1 => match view.ingest(&id, report) {
                    Ok(stored) => {
                        prop_assert_eq!(&stored.id, &id);
                        updates += 1;
                        behind = false;
                    }
                    Err(error) => prop_assert_eq!(error, StoreError::DuplicateId(id)),
                },
                2 => match store.ingest(&id, report) {
                    Ok(_) => behind = true,
                    Err(error) => prop_assert_eq!(error, StoreError::DuplicateId(id)),
                },
                3 => {
                    let artifact = store.root().join("artifacts").join(format!("{id}.json"));
                    if std::fs::remove_file(artifact).is_ok() {
                        store.rebuild_catalog().unwrap();
                        behind = true;
                    }
                }
                _ => {
                    view.reload().unwrap();
                    updates += 1;
                    behind = false;
                }
            }
            if !behind {
                prop_assert_eq!(view.campaigns().to_vec(), store.campaigns().unwrap());
            }
            prop_assert_eq!(catalog_on_disk(&store), disk_catalog(&store));
            prop_assert_eq!(view.generation(), updates);
        }
        std::fs::remove_dir_all(store.root()).ok();
    }
}

#[test]
fn concurrent_view_ingests_lose_nothing() {
    const THREADS: usize = 8;
    const INGESTS_PER_THREAD: usize = 4;

    let store = ArtifactStore::open(temp_root("concurrent")).unwrap();
    store.ingest("seed", &reports()[0]).unwrap();
    let view = Arc::new(StoreView::open(store.clone()).unwrap());
    // every thread starts its first ingest at once, so they contend
    let start = Arc::new(Barrier::new(THREADS));

    let workers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let view = Arc::clone(&view);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for index in 0..INGESTS_PER_THREAD {
                    let report = &reports()[(thread + index) % reports().len()];
                    view.ingest(&format!("t{thread}-{index}"), report).unwrap();
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    let campaigns = view.campaigns();
    assert_eq!(campaigns.len(), THREADS * INGESTS_PER_THREAD + 1);
    for thread in 0..THREADS {
        for index in 0..INGESTS_PER_THREAD {
            let id = format!("t{thread}-{index}");
            assert!(campaigns.iter().any(|c| c.id == id), "lost {id}");
        }
    }
    assert_eq!(view.generation(), (THREADS * INGESTS_PER_THREAD) as u64);
    assert_eq!(campaigns.as_ref(), &store.campaigns().unwrap());
    assert_eq!(catalog_on_disk(&store), disk_catalog(&store));
    std::fs::remove_dir_all(store.root()).ok();
}
