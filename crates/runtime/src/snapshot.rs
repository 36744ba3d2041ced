//! Persistent, checksummed snapshots of the evaluation cache.
//!
//! A campaign's [`EvalCache`](crate::EvalCache) is the expensive part of a
//! run: every entry stands for one surrogate training/evaluation. This
//! module gives the cache a durable on-disk form so later campaigns over
//! the same architecture space warm-start instead of re-evaluating:
//!
//! * [`CacheSnapshot`] — an immutable, order-normalised copy of a cache's
//!   entries, keyed by the same 128-bit fingerprints the live cache uses
//!   (evaluator fingerprint × architecture structure × frozen blocks, so
//!   snapshots from differently configured evaluators merge safely without
//!   aliasing);
//! * a versioned binary codec ([`CacheSnapshot::to_bytes`] /
//!   [`CacheSnapshot::from_bytes`]) with a magic header and a trailing
//!   FNV-1a checksum — corrupted, truncated or foreign files are rejected
//!   with a typed [`SnapshotError`], never a panic;
//! * [`CacheSnapshot::merge`] — set-union of snapshots from different
//!   campaigns (first snapshot wins on conflicting values, and conflicts
//!   are counted so callers can surface fingerprint collisions);
//! * [`EvalCache::snapshot`] / [`EvalCache::absorb`] — the bridge between
//!   the live cache and its persistent form.
//!
//! The encoding is deterministic: entries are sorted by key, so two
//! caches with the same contents always produce byte-identical files.

use std::collections::BTreeMap;
use std::path::Path;

use dermsim::Group;
use evaluator::{FairnessEvaluation, FairnessReport, GroupAccuracy};

use crate::cache::{CacheKey, EvalCache};

/// Magic bytes opening every snapshot file.
const MAGIC: [u8; 8] = *b"FAHSNAP\x01";
/// Current format version.
const VERSION: u32 = 1;
/// Fixed prefix: magic + version + entry count.
const HEADER_LEN: usize = 8 + 4 + 8;
/// Trailing checksum.
const FOOTER_LEN: usize = 8;

/// Typed failure of snapshot encoding/decoding or I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io {
        /// The file involved.
        path: String,
        /// The underlying I/O error, formatted.
        message: String,
    },
    /// The file does not start with the snapshot magic — it is not a
    /// cache snapshot at all.
    BadMagic,
    /// The file claims a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The file ends before the declared contents do.
    Truncated,
    /// The trailing checksum does not match the contents.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed from the contents.
        computed: u64,
    },
    /// The contents are structurally invalid (bad string, impossible
    /// length, trailing garbage).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, message } => write!(f, "snapshot io on {path}: {message}"),
            SnapshotError::BadMagic => write!(f, "not a cache snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(version) => {
                write!(f, "unsupported snapshot version {version}")
            }
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapshotError::Malformed(message) => write!(f, "malformed snapshot: {message}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What [`CacheSnapshot::merge`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeOutcome {
    /// Entries newly added from the other snapshot.
    pub added: usize,
    /// Keys present in both snapshots with identical evaluations.
    pub duplicates: usize,
    /// Keys present in both snapshots with *different* evaluations (the
    /// receiver's value was kept). Nonzero only on fingerprint collisions
    /// or snapshots from incompatible builds.
    pub conflicts: usize,
}

/// An immutable copy of an evaluation cache, ready to persist or merge.
///
/// Construction: [`EvalCache::snapshot`] for a live cache,
/// [`CacheSnapshot::from_entries`] for synthetic contents (tests),
/// [`CacheSnapshot::load`] / [`CacheSnapshot::from_bytes`] for persisted
/// ones.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CacheSnapshot {
    /// Sorted so encoding is deterministic.
    entries: BTreeMap<(u64, u64), FairnessEvaluation>,
}

impl CacheSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        CacheSnapshot::default()
    }

    /// Builds a snapshot from raw `(key, evaluation)` pairs. Later pairs
    /// overwrite earlier ones with the same key.
    pub fn from_entries(
        entries: impl IntoIterator<Item = ((u64, u64), FairnessEvaluation)>,
    ) -> Self {
        CacheSnapshot {
            entries: entries.into_iter().collect(),
        }
    }

    /// Number of memoised evaluations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&(u64, u64), &FairnessEvaluation)> {
        self.entries.iter()
    }

    /// The GC policy hook: keeps only the entries `keep` approves and
    /// returns how many were dropped. Compaction
    /// (`fahana-campaign --cache-compact`) uses this to drop entries whose
    /// fingerprints the configured search space no longer reaches (see
    /// [`EvalCache::snapshot_touched`]); other policies — by architecture
    /// name, by evaluation contents — are one closure away.
    pub fn retain(
        &mut self,
        mut keep: impl FnMut(&(u64, u64), &FairnessEvaluation) -> bool,
    ) -> usize {
        let before = self.entries.len();
        self.entries.retain(|key, evaluation| keep(key, evaluation));
        before - self.entries.len()
    }

    /// Unions `other` into `self`. Existing entries win on key conflicts;
    /// the outcome reports how many entries were added, how many were
    /// already present, and how many conflicted.
    pub fn merge(&mut self, other: &CacheSnapshot) -> MergeOutcome {
        let mut outcome = MergeOutcome::default();
        for (key, evaluation) in &other.entries {
            match self.entries.get(key) {
                None => {
                    self.entries.insert(*key, evaluation.clone());
                    outcome.added += 1;
                }
                Some(existing) if existing == evaluation => outcome.duplicates += 1,
                Some(_) => outcome.conflicts += 1,
            }
        }
        outcome
    }

    /// Encodes the snapshot: magic, version, entry count, sorted entries,
    /// trailing FNV-1a checksum over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.entries.len() * 96 + FOOTER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for ((lo, hi), evaluation) in &self.entries {
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
            write_str(&mut out, &evaluation.architecture);
            out.extend_from_slice(&evaluation.trained_params.to_le_bytes());
            out.extend_from_slice(&evaluation.report.overall_accuracy.to_bits().to_le_bytes());
            out.extend_from_slice(&evaluation.report.unfairness.to_bits().to_le_bytes());
            out.extend_from_slice(&(evaluation.report.per_group.len() as u32).to_le_bytes());
            for group in &evaluation.report.per_group {
                out.extend_from_slice(&(group.group.0 as u64).to_le_bytes());
                out.extend_from_slice(&group.accuracy.to_bits().to_le_bytes());
                out.extend_from_slice(&(group.count as u64).to_le_bytes());
            }
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a snapshot produced by [`CacheSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`] for foreign files,
    /// [`SnapshotError::UnsupportedVersion`] for future formats,
    /// [`SnapshotError::Truncated`] / [`SnapshotError::ChecksumMismatch`] /
    /// [`SnapshotError::Malformed`] for damaged ones.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            return Err(
                if bytes.starts_with(&MAGIC[..bytes.len()]) && !bytes.is_empty() {
                    SnapshotError::Truncated
                } else {
                    SnapshotError::BadMagic
                },
            );
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER_LEN + FOOTER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let (contents, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
        let stored = u64::from_le_bytes(footer.try_into().expect("footer is 8 bytes"));
        let computed = fnv1a(contents);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }

        let mut reader = Reader::new(&contents[MAGIC.len()..]);
        let version = reader.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let count = reader.u64()?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let lo = reader.u64()?;
            let hi = reader.u64()?;
            let architecture = reader.string()?;
            let trained_params = reader.u64()?;
            let overall_accuracy = f64::from_bits(reader.u64()?);
            let unfairness = f64::from_bits(reader.u64()?);
            let group_count = reader.u32()?;
            // each group record is 24 bytes; bound before allocating
            if reader.remaining() < group_count as usize * 24 {
                return Err(SnapshotError::Truncated);
            }
            let mut per_group = Vec::with_capacity(group_count as usize);
            for _ in 0..group_count {
                let group = Group(reader.u64()? as usize);
                let accuracy = f64::from_bits(reader.u64()?);
                let count = reader.u64()? as usize;
                per_group.push(GroupAccuracy {
                    group,
                    accuracy,
                    count,
                });
            }
            entries.insert(
                (lo, hi),
                FairnessEvaluation {
                    architecture,
                    report: FairnessReport {
                        overall_accuracy,
                        per_group,
                        unfairness,
                    },
                    trained_params,
                },
            );
        }
        if reader.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after the last entry",
                reader.remaining()
            )));
        }
        if entries.len() as u64 != count {
            return Err(SnapshotError::Malformed("duplicate keys".into()));
        }
        Ok(CacheSnapshot { entries })
    }

    /// Writes the encoded snapshot to `path` (atomically, via
    /// [`crate::fsutil::write_atomic`]: a uniquely named temporary sibling
    /// is renamed into place, so readers never observe a half-written
    /// snapshot and concurrent writers never collide on the staging file).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        crate::fsutil::write_atomic(path, self.to_bytes()).map_err(|e| SnapshotError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Reads and decodes a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures, plus every decoding
    /// error of [`CacheSnapshot::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        CacheSnapshot::from_bytes(&bytes)
    }
}

impl EvalCache {
    /// Copies the cache's current contents into a persistable snapshot.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot::from_entries(
            self.export_entries()
                .into_iter()
                .map(|(key, evaluation)| ((key.lo, key.hi), evaluation)),
        )
    }

    /// The compaction half of [`EvalCache::snapshot`]: only the entries
    /// lookups actually consulted (hit or freshly evaluated) since the
    /// cache was built — i.e. the entries the configured search space
    /// still reaches. Entries absorbed from a snapshot and never consulted
    /// are left out.
    ///
    /// The contract is *shrunken but equivalent*: warm-starting the same
    /// campaign from the touched-only snapshot serves every lookup
    /// (zero misses), exactly like the uncompacted snapshot would.
    pub fn snapshot_touched(&self) -> CacheSnapshot {
        CacheSnapshot::from_entries(
            self.touched_entries()
                .into_iter()
                .map(|(key, evaluation)| ((key.lo, key.hi), evaluation)),
        )
    }

    /// Seeds the cache from a snapshot. Entries already memoised win, so
    /// absorbing can never change what a running campaign would observe.
    /// Returns the number of entries added.
    pub fn absorb(&self, snapshot: &CacheSnapshot) -> usize {
        let added = self.import_entries(
            snapshot
                .entries
                .iter()
                .map(|(&(lo, hi), evaluation)| (CacheKey { lo, hi }, evaluation.clone())),
        );
        self.record_absorbed(added);
        added
    }
}

fn write_str(out: &mut Vec<u8>, value: &str) {
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value.as_bytes());
}

/// Plain 64-bit FNV-1a — the snapshot checksum, also reused by
/// [`crate::shard::shard_of`] for the shard partition. Its output is part
/// of two durable contracts (on-disk checksums, worker↔coordinator cell
/// assignment, the latter pinned by literal values in `shard.rs` tests),
/// so it must never change.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A bounds-checked little-endian reader; running out of bytes is
/// [`SnapshotError::Truncated`], never a panic.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() < len {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.bytes.split_at(len);
        self.bytes = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("architecture name is not UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archspace::zoo;
    use evaluator::{Evaluate, SurrogateEvaluator};
    use std::sync::Arc;

    use crate::cache::CachedEvaluator;

    fn sample_evaluation(name: &str, accuracy: f64) -> FairnessEvaluation {
        FairnessEvaluation {
            architecture: name.to_string(),
            report: FairnessReport {
                overall_accuracy: accuracy,
                per_group: vec![
                    GroupAccuracy {
                        group: Group(0),
                        accuracy: accuracy - 0.01,
                        count: 120,
                    },
                    GroupAccuracy {
                        group: Group(1),
                        accuracy: accuracy + 0.01,
                        count: 80,
                    },
                ],
                unfairness: 0.02,
            },
            trained_params: 1_234_567,
        }
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let snapshot = CacheSnapshot::from_entries([
            ((1, 2), sample_evaluation("child-1", 0.83)),
            ((3, 4), sample_evaluation("child-2", 0.79)),
        ]);
        let bytes = snapshot.to_bytes();
        let decoded = CacheSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        // deterministic encoding: same contents, same bytes
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = CacheSnapshot::new();
        assert!(empty.is_empty());
        let decoded = CacheSnapshot::from_bytes(&empty.to_bytes()).unwrap();
        assert_eq!(decoded.len(), 0);
    }

    #[test]
    fn foreign_files_are_bad_magic() {
        assert_eq!(
            CacheSnapshot::from_bytes(b"{\"not\":\"a snapshot\"}"),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(CacheSnapshot::from_bytes(b""), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn every_truncation_is_rejected_without_panicking() {
        let bytes = CacheSnapshot::from_entries([((9, 9), sample_evaluation("t", 0.8))]).to_bytes();
        for len in 0..bytes.len() {
            let err = CacheSnapshot::from_bytes(&bytes[..len])
                .expect_err("truncated snapshot must not decode");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::BadMagic
                ),
                "unexpected error for prefix of {len} bytes: {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_detected_by_the_checksum() {
        let bytes = CacheSnapshot::from_entries([((5, 6), sample_evaluation("c", 0.8))]).to_bytes();
        // flip one bit in every byte after the magic — all must fail typed
        for index in MAGIC.len()..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[index] ^= 0x40;
            let err = CacheSnapshot::from_bytes(&corrupt)
                .expect_err("corrupted snapshot must not decode");
            assert!(
                matches!(
                    err,
                    SnapshotError::ChecksumMismatch { .. } | SnapshotError::UnsupportedVersion(_)
                ),
                "byte {index}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = CacheSnapshot::new().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let len = bytes.len();
        let checksum = fnv1a(&bytes[..len - FOOTER_LEN]);
        bytes[len - FOOTER_LEN..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            CacheSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn merge_unions_and_counts() {
        let mut left = CacheSnapshot::from_entries([
            ((1, 1), sample_evaluation("a", 0.8)),
            ((2, 2), sample_evaluation("b", 0.7)),
        ]);
        let right = CacheSnapshot::from_entries([
            ((2, 2), sample_evaluation("b", 0.7)),       // duplicate
            ((3, 3), sample_evaluation("c", 0.9)),       // new
            ((1, 1), sample_evaluation("a-prime", 0.8)), // conflict
        ]);
        let outcome = left.merge(&right);
        assert_eq!(
            outcome,
            MergeOutcome {
                added: 1,
                duplicates: 1,
                conflicts: 1,
            }
        );
        assert_eq!(left.len(), 3);
        // the receiver's value won the conflict
        let kept = &left.entries[&(1, 1)];
        assert_eq!(kept.architecture, "a");
    }

    #[test]
    fn retain_is_a_gc_policy_hook() {
        let mut snapshot = CacheSnapshot::from_entries([
            ((1, 1), sample_evaluation("a", 0.8)),
            ((2, 2), sample_evaluation("b", 0.7)),
            ((3, 3), sample_evaluation("c", 0.9)),
        ]);
        let dropped =
            snapshot.retain(|&(lo, _), evaluation| lo != 2 && evaluation.architecture != "c");
        assert_eq!(dropped, 2);
        assert_eq!(snapshot.len(), 1);
        assert!(snapshot.entries().all(|(_, e)| e.architecture == "a"));
        // determinism survives GC
        assert_eq!(
            CacheSnapshot::from_bytes(&snapshot.to_bytes()).unwrap(),
            snapshot
        );
    }

    #[test]
    fn snapshot_touched_keeps_consulted_entries_and_drops_stale_ones() {
        // absorbed-but-never-consulted entries are what compaction drops
        let cache = EvalCache::new();
        let stale = CacheSnapshot::from_entries([((7, 7), sample_evaluation("stale", 0.5))]);
        assert_eq!(cache.absorb(&stale), 1);
        assert_eq!(cache.snapshot_touched().len(), 0, "nothing consulted yet");

        let cache = Arc::new(cache);
        let mut cached = CachedEvaluator::surrogate(SurrogateEvaluator::default(), cache.clone());
        cached
            .evaluate_with_frozen(&zoo::paper_fahana_small(5, 64), 1)
            .unwrap();
        let touched = cache.snapshot_touched();
        assert_eq!(touched.len(), 1, "only the consulted entry is retained");
        assert_eq!(cache.snapshot().len(), 2, "the full snapshot keeps both");
        assert!(touched.entries().all(|(_, e)| e.architecture != "stale"));
    }

    #[test]
    fn live_cache_round_trips_through_snapshot_and_absorb() {
        let cache = Arc::new(EvalCache::new());
        let mut cached = CachedEvaluator::surrogate(SurrogateEvaluator::default(), cache.clone());
        for arch in [zoo::paper_fahana_small(5, 64), zoo::mobilenet_v2(5, 64)] {
            cached.evaluate_with_frozen(&arch, 1).unwrap();
        }
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.len(), 2);

        let restored = EvalCache::new();
        assert_eq!(restored.absorb(&snapshot), 2);
        assert_eq!(restored.len(), 2);
        // absorbing again adds nothing
        assert_eq!(restored.absorb(&snapshot), 0);
        assert_eq!(restored.snapshot(), snapshot);

        // a cached evaluator over the restored cache hits immediately
        let restored = Arc::new(restored);
        let mut warm = CachedEvaluator::surrogate(SurrogateEvaluator::default(), restored);
        let warm_result = warm
            .evaluate_with_frozen(&zoo::paper_fahana_small(5, 64), 1)
            .unwrap();
        assert_eq!(warm.local_stats().hits, 1);
        assert_eq!(warm.local_stats().misses, 0);
        let mut plain = SurrogateEvaluator::default();
        let fresh = plain
            .evaluate_with_frozen(&zoo::paper_fahana_small(5, 64), 1)
            .unwrap();
        assert_eq!(warm_result, fresh);
    }

    #[test]
    fn save_and_load_through_a_file() {
        let dir = std::env::temp_dir().join(format!("fahana-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.fsnap");
        let snapshot = CacheSnapshot::from_entries([((7, 8), sample_evaluation("disk", 0.81))]);
        snapshot.save(&path).unwrap();
        let loaded = CacheSnapshot::load(&path).unwrap();
        assert_eq!(loaded, snapshot);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_of_a_missing_file_is_a_typed_io_error() {
        let err = CacheSnapshot::load("/nonexistent/dir/cache.fsnap").unwrap_err();
        assert!(matches!(err, SnapshotError::Io { .. }), "{err:?}");
    }
}
