//! A shared, update-on-ingest read view over an [`ArtifactStore`].
//!
//! The one-shot `fahana-query` CLI re-scans and re-parses every artifact
//! per invocation — fine for a batch tool, unacceptable per request in a
//! long-lived daemon. [`StoreView`] parses the store once at startup and
//! hands out cheap `Arc` snapshots of the campaign set together with the
//! catalog rendered from it.
//!
//! An ingest through the view costs the new report, not the store. It
//! parses only the report it publishes and inserts it at its sorted
//! position into a copy of the current list, whose reports are shared
//! (`Arc`), so the copy and the freeing of the old list are pointer
//! operations. The view keeps each campaign's rendered catalog entry and
//! coverage keys, so the next catalog renders only the new campaign's
//! entry, recounts coverage from the kept keys and concatenates; those
//! bytes are written to `catalog.json` and served as `GET /catalog`. A
//! directory listing (names only, no reads) checks that the disk holds
//! exactly the view's ids plus the new one; when another process has
//! written artifacts meanwhile (say a concurrent `fahana-campaign
//! --store`), the view heals by re-reading the store from disk instead.
//! [`reload`] re-reads it on demand. Opening, reloading and healing render
//! every campaign's entry, once.
//!
//! [`reload`]: StoreView::reload

use std::sync::{Arc, Mutex, RwLock};

use crate::store::{render_catalog, ArtifactStore, CatalogEntry, StoreError, StoredCampaign};

/// One generation of the view: the campaign set and the catalog rendered
/// from it, installed together.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// How many times the view had been updated (by an ingest or a
    /// reload) when this snapshot was installed.
    pub generation: u64,
    /// Every campaign, sorted by id.
    pub campaigns: Arc<Vec<StoredCampaign>>,
    /// The catalog of `campaigns`: the bytes of
    /// `catalog_json(&campaigns).render()`, which the view writes to
    /// `catalog.json` and the router serves as `GET /catalog`.
    pub catalog: Arc<str>,
}

/// An in-memory view of a store's campaigns, shared across request
/// handler threads.
///
/// The campaign set, its catalog and its generation number live under one
/// lock and are swapped together, so [`StoreView::snapshot`] hands out a
/// consistent [`Snapshot`]: the response cache keys rendered bytes by
/// exactly the generation those bytes were rendered from, and a reload
/// racing a render can never mislabel old bytes with a new generation (or
/// vice versa).
#[derive(Debug)]
pub struct StoreView {
    store: ArtifactStore,
    /// The current [`Snapshot`], swapped atomically. The generation bumps
    /// by one on every successful [`StoreView::ingest`] or
    /// [`StoreView::reload`]; `/statusz` reports it so a scraper can tell
    /// "the daemon restarted" from "the view refreshed".
    state: RwLock<Snapshot>,
    /// Each current campaign's catalog entry, in the snapshot's order.
    /// Ingests and reloads hold it from their first read of the current
    /// list to their swap, so two of them can never both build on the
    /// same list and lose each other's update, or write an older catalog
    /// last. It matches the installed snapshot at every unlock: each path
    /// that changes it goes on to its swap with no step in between that
    /// can return early or panic.
    writer: Mutex<Vec<CatalogEntry>>,
}

impl StoreView {
    /// Opens a view over `store`, loading every campaign and rendering
    /// the catalog eagerly so the first request pays no parse or render
    /// cost (and a corrupt store fails fast, at startup).
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::campaigns`].
    pub fn open(store: ArtifactStore) -> Result<Self, StoreError> {
        let campaigns = store.campaigns()?;
        let entries: Vec<CatalogEntry> = campaigns.iter().map(CatalogEntry::new).collect();
        let snapshot = Snapshot {
            generation: 0,
            campaigns: Arc::new(campaigns),
            catalog: render_catalog(&entries).into(),
        };
        Ok(StoreView {
            store,
            state: RwLock::new(snapshot),
            writer: Mutex::new(entries),
        })
    }

    /// How many times the view has been successfully updated (by an
    /// ingest or a reload) since it was opened.
    pub fn generation(&self) -> u64 {
        super::unpoison(self.state.read()).generation
    }

    /// The underlying store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// A snapshot of the current campaign set. The `Arc` keeps the
    /// snapshot alive for as long as the request needs it, even if an
    /// ingest swaps the view underneath.
    pub fn campaigns(&self) -> Arc<Vec<StoredCampaign>> {
        Arc::clone(&super::unpoison(self.state.read()).campaigns)
    }

    /// The current [`Snapshot`], read under one lock so its generation,
    /// campaigns and catalog can never disagree — the anchor the response
    /// cache hangs its "never serve stale-generation bytes" guarantee on.
    pub fn snapshot(&self) -> Snapshot {
        super::unpoison(self.state.read()).clone()
    }

    /// Re-reads the campaign set from disk (after out-of-band store
    /// writes, e.g. a concurrently running `fahana-campaign --store`) and
    /// renders its catalog.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::campaigns`]; the previous snapshot stays
    /// in place on failure.
    pub fn reload(&self) -> Result<usize, StoreError> {
        let mut entries = super::unpoison(self.writer.lock());
        let fresh = self.store.campaigns()?;
        *entries = fresh.iter().map(CatalogEntry::new).collect();
        let count = fresh.len();
        self.swap(fresh, render_catalog(&entries));
        Ok(count)
    }

    /// Ingests a report and updates the view, so the next query sees the
    /// new campaign without a daemon restart.
    ///
    /// The report is validated and published like
    /// [`ArtifactStore::ingest`] does. The next campaign list is the
    /// current one with the parsed report inserted at its sorted position,
    /// and the catalog is reassembled from the kept entries plus the new
    /// campaign's, then written to `catalog.json` — no stored artifact is
    /// read and no other campaign is rendered. If the artifact names on
    /// disk are not exactly the view's ids plus `id` (another process
    /// wrote to the store), the list is re-read from disk instead and the
    /// catalog rebuilt from it, as [`ArtifactStore::rebuild_catalog`] plus
    /// [`StoreView::reload`] would. The generation bumps by one either
    /// way.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::ingest`], for failures up to and including the
    /// publish. Anything that fails after a successful publish — listing
    /// the directory, re-reading it, writing the catalog — is swallowed:
    /// the artifact is already on disk, so reporting an error would tell
    /// the client its (accepted) publish failed, and a retry would then
    /// hit `DuplicateId`. The view then holds the in-memory list, and a
    /// stale catalog heals on the next successful ingest or
    /// [`ArtifactStore::rebuild_catalog`].
    pub fn ingest(&self, id: &str, report_json: &str) -> Result<StoredCampaign, StoreError> {
        let mut entries = super::unpoison(self.writer.lock());
        let stored = self.store.ingest_inner(id, report_json)?;
        let mut next = self.campaigns().as_ref().clone();
        let entry = CatalogEntry::new(&stored);
        match next.binary_search_by(|campaign| campaign.id.as_str().cmp(id)) {
            // an artifact deleted out-of-band and now published again
            // under its old id: the fresh report replaces the stale one
            Ok(at) => {
                next[at] = stored.clone();
                entries[at] = entry;
            }
            Err(at) => {
                next.insert(at, stored.clone());
                entries.insert(at, entry);
            }
        }

        let catalog_lock = self.store.lock_catalog();
        let in_sync = self
            .store
            .artifact_ids()
            .is_ok_and(|ids| ids.iter().eq(next.iter().map(|c| &c.id)));
        if !in_sync {
            if let Ok(fresh) = self.store.campaigns() {
                *entries = fresh.iter().map(CatalogEntry::new).collect();
                next = fresh;
            }
        }
        let catalog = render_catalog(&entries);
        self.store.write_catalog_bytes(&catalog).ok();
        drop(catalog_lock);

        self.swap(next, catalog);
        Ok(stored)
    }

    /// Installs `campaigns` and their `catalog` as the next generation.
    fn swap(&self, campaigns: Vec<StoredCampaign>, catalog: String) {
        let campaigns = Arc::new(campaigns);
        let catalog: Arc<str> = catalog.into();
        let mut state = super::unpoison(self.state.write());
        let next = Snapshot {
            generation: state.generation + 1,
            campaigns,
            catalog,
        };
        let previous = std::mem::replace(&mut *state, next);
        drop(state);
        // after an ingest the previous generation shares every report with
        // the next one, but after a reload it holds the last reference to
        // a whole parsed store; either way readers must not wait on it
        drop(previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CampaignConfig, RewardSetting};
    use crate::store::catalog_json;
    use crate::{campaign_json, CampaignEngine};
    use edgehw::DeviceKind;

    fn tiny_report(seed: u64) -> String {
        let outcome = CampaignEngine::new(CampaignConfig {
            episodes: 4,
            samples: 120,
            threads: 2,
            seed,
            devices: vec![DeviceKind::RaspberryPi4],
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
    fn view_snapshots_and_reloads_on_ingest() {
        let root = std::env::temp_dir().join(format!("fahana-view-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ArtifactStore::open(&root).unwrap();
        store.ingest("first", &tiny_report(1)).unwrap();

        let view = StoreView::open(store.clone()).unwrap();
        let before = view.campaigns();
        assert_eq!(before.len(), 1);

        // ingest through the view: new snapshot, old one still readable
        view.ingest("second", &tiny_report(2)).unwrap();
        assert_eq!(before.len(), 1, "held snapshot is immutable");
        assert_eq!(view.campaigns().len(), 2);

        // out-of-band store write is invisible until reload()
        store.ingest("third", &tiny_report(3)).unwrap();
        assert_eq!(view.campaigns().len(), 2);
        assert_eq!(view.reload().unwrap(), 3);
        assert_eq!(view.campaigns().len(), 3);

        // duplicate ids surface the store's error
        assert!(matches!(
            view.ingest("second", &tiny_report(4)),
            Err(StoreError::DuplicateId(_))
        ));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn ingest_heals_from_disk_when_the_artifact_names_disagree() {
        let root = std::env::temp_dir().join(format!("fahana-view-heal-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ArtifactStore::open(&root).unwrap();
        let report = tiny_report(5);
        for id in ["a", "b"] {
            store.ingest(id, &report).unwrap();
        }
        let view = StoreView::open(store.clone()).unwrap();
        let ids = |view: &StoreView| -> Vec<String> {
            view.campaigns().iter().map(|c| c.id.clone()).collect()
        };
        let catalog = || std::fs::read_to_string(root.join("catalog.json")).unwrap();

        // another writer deletes one artifact and adds one: the count still
        // matches the view's, the names do not
        std::fs::remove_file(root.join("artifacts").join("a.json")).unwrap();
        store.ingest("c", &report).unwrap();
        view.ingest("d", &report).unwrap();
        assert_eq!(ids(&view), ["b", "c", "d"]);
        assert_eq!(view.generation(), 1);
        assert_eq!(
            catalog(),
            catalog_json(&store.campaigns().unwrap()).render()
        );

        // a heal that cannot parse the disk still acknowledges the publish:
        // the view and the catalog fall back to the in-memory list
        std::fs::write(root.join("artifacts").join("junk.json"), "not json").unwrap();
        view.ingest("e", &report).unwrap();
        assert_eq!(ids(&view), ["b", "c", "d", "e"]);
        assert_eq!(view.generation(), 2);
        assert_eq!(catalog(), catalog_json(&view.campaigns()).render());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn an_ingest_shares_every_kept_campaign_with_the_previous_snapshot() {
        let root = std::env::temp_dir().join(format!("fahana-view-share-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ArtifactStore::open(&root).unwrap();
        for (id, seed) in [("a", 6), ("c", 7)] {
            store.ingest(id, &tiny_report(seed)).unwrap();
        }
        let on_disk = store.campaigns().unwrap();
        let view = StoreView::open(store).unwrap();
        let held = view.snapshot();

        view.ingest("b", &tiny_report(8)).unwrap();
        let next = view.snapshot();
        let ids: Vec<&str> = next.campaigns.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "c"]);
        for kept in held.campaigns.iter() {
            let shared = next.campaigns.iter().find(|c| c.id == kept.id).unwrap();
            assert!(
                Arc::ptr_eq(&kept.report, &shared.report),
                "`{}` was copied into the next snapshot",
                kept.id
            );
        }
        assert_eq!(&*next.catalog, catalog_json(&next.campaigns).render());

        // the snapshot held across the ingest still describes the store
        // as it was when taken
        assert_eq!(held.generation, 0);
        assert_eq!(*held.campaigns, on_disk);
        assert_eq!(&*held.catalog, catalog_json(&on_disk).render());
        std::fs::remove_dir_all(&root).ok();
    }
}
