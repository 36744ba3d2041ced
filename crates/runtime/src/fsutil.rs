//! Crash-safe filesystem helpers shared by the binaries and the
//! persistence layers.
//!
//! Every durable artifact in this workspace — campaign reports, scenario
//! reports, store catalogs — must never be observable half-written: a
//! worker killed mid-write would otherwise leave a torn file that a
//! retrying coordinator parses (or mis-diagnoses as corruption) on its
//! next pass. [`write_atomic`] is the one implementation of the staging
//! idiom: write the full contents to a uniquely named hidden sibling,
//! then rename it over the destination. Rename is atomic on POSIX
//! filesystems, so readers see either the old file or the complete new
//! one, never a prefix.
//!
//! Nothing here calls `fsync`, on the staged file or on its directory, so
//! the guarantee covers a crashed *process* only: after an OS crash or a
//! power loss the renamed file may still be empty or missing. The
//! ROADMAP's durable-publish item tracks closing that gap.
//!
//! The temporary name embeds the process id and a per-process counter, so
//! concurrent writers (several workers sharing a directory, or a retry
//! racing a straggler from a previous attempt) never stage into each
//! other's files. The leading dot matches the `.*.tmp` convention the
//! artifact store sweeps on open, so residue from a crashed writer is
//! garbage-collected rather than accumulated.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process staging counter: distinguishes concurrent writes from one
/// process the pid alone cannot.
static STAGING_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: the bytes are staged to a
/// unique hidden `.NAME.PID-SEQ.tmp` sibling and renamed into place, so
/// no reader — and no process crash at any instant — ever observes a
/// partially written file at `path`. Nothing is `fsync`ed, so an OS
/// crash or power loss is not covered (see the module docs).
///
/// # Errors
///
/// Any underlying `std::io::Error` from writing the staging file or
/// renaming it.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    let path = path.as_ref();
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "cannot write atomically to `{}`: no file name",
                path.display()
            ),
        )
    })?;
    let mut staged_name = std::ffi::OsString::from(".");
    staged_name.push(name);
    staged_name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        STAGING_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let staged = path.with_file_name(staged_name);
    std::fs::write(&staged, contents)?;
    match std::fs::rename(&staged, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // the rename failed, so the staging file is orphaned — remove
            // it rather than leaking one per failed attempt
            std::fs::remove_file(&staged).ok();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_writes_land_complete_and_leave_no_residue() {
        let dir = std::env::temp_dir().join(format!("fahana-fsutil-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");

        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // overwrite is equally atomic
        write_atomic(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");

        // no staging residue survives a successful write
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "staging files leaked: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pathless_destinations_are_rejected() {
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }
}
