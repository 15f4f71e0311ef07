//! The content-addressed snapshot side of a store directory.
//!
//! A store directory holds:
//!
//! ```text
//! <dir>/MANIFEST             # "fgstore2 <hash:016x> <seq> <chain:016x>"
//! <dir>/snap-<hash:016x>.bin # checkpoint bytes, named by FNV-64 content hash
//! <dir>/wal-<seq>.log        # the segment following that checkpoint
//! ```
//!
//! The manifest is the single commit point: it is replaced atomically
//! (write-temp, fsync, rename, **directory fsync**), and everything it
//! references is fsynced *before* the rename. A crash at any point
//! leaves the manifest naming a snapshot and a segment that both exist
//! and are internally complete — including across the rename itself,
//! because the parent directory is `fsync`ed after every rename and
//! segment creation (a rename that is never fsynced into its directory
//! can vanish on power loss even though both files were durable).
//! Files a crash orphaned (a snapshot or segment written but never
//! referenced) are swept opportunistically at the next checkpoint.

use crate::codec::fnv64;
use crate::durable::CHAIN_BASE;
use crate::error::{RecoveryError, StoreError};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// What the manifest commits to: the checkpoint's content hash, the
/// engine epoch it captured, and the certificate chain digest of the
/// whole history up to that epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// FNV-64 content hash of the snapshot bytes (also its file name).
    pub hash: u64,
    /// Engine epoch at checkpoint time; the live segment is
    /// `wal-<seq>.log` and only holds records with greater sequence
    /// numbers.
    pub seq: u64,
    /// The chained outcome digest of every event up to `seq` (the fold
    /// of [`crate::durable::chain_fold`] from [`CHAIN_BASE`]) — what
    /// makes a recovered store resume the *same* `(epoch, digest)`
    /// certificate chain the serving layer stamps responses with.
    /// Stores written before the chain existed (format tag `fgstore1`)
    /// read back as [`CHAIN_BASE`].
    pub chain: u64,
}

/// Fsyncs a directory so renames and file creations inside it are
/// durable — on POSIX, a rename is only crash-safe once the *directory*
/// holding the new name has itself been synced.
///
/// # Errors
///
/// Any I/O failure (non-Unix targets, where directories cannot be
/// opened for syncing, are a no-op).
pub fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Path of the manifest file inside `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Path of the snapshot named by `hash`.
pub fn snapshot_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("snap-{hash:016x}.bin"))
}

/// Path of the WAL segment following the checkpoint at `seq`.
pub fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq}.log"))
}

/// Writes `bytes` as a content-addressed snapshot file (temp + fsync +
/// rename + directory fsync) and returns its hash.
///
/// # Errors
///
/// Any I/O failure.
pub fn write_snapshot(dir: &Path, bytes: &[u8]) -> Result<u64, StoreError> {
    let hash = fnv64(bytes);
    let final_path = snapshot_path(dir, hash);
    let tmp = dir.join(format!("snap-{hash:016x}.tmp"));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, &final_path)?;
    sync_dir(dir)?;
    Ok(hash)
}

/// Atomically replaces the manifest (temp + fsync + rename + directory
/// fsync). This is the checkpoint's commit point.
///
/// # Errors
///
/// Any I/O failure.
pub fn write_manifest(dir: &Path, manifest: Manifest) -> Result<(), StoreError> {
    let tmp = dir.join("MANIFEST.tmp");
    let mut file = fs::File::create(&tmp)?;
    writeln!(
        file,
        "fgstore2 {:016x} {} {:016x}",
        manifest.hash, manifest.seq, manifest.chain
    )?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, manifest_path(dir))?;
    sync_dir(dir)?;
    Ok(())
}

/// Reads and parses the manifest.
///
/// # Errors
///
/// [`RecoveryError::MissingManifest`] if there is none,
/// [`RecoveryError::BadManifest`] if it does not parse.
pub fn read_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    let path = manifest_path(dir);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(RecoveryError::MissingManifest(dir.to_path_buf()).into());
        }
        Err(e) => return Err(e.into()),
    };
    let bad = |detail: &str| {
        StoreError::from(RecoveryError::BadManifest {
            path: path.clone(),
            detail: detail.to_string(),
        })
    };
    let mut parts = text.split_whitespace();
    let tag = parts.next();
    if tag != Some("fgstore1") && tag != Some("fgstore2") {
        return Err(bad("unknown format tag"));
    }
    let hash = parts
        .next()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| bad("unparseable snapshot hash"))?;
    let seq = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable sequence number"))?;
    // fgstore1 predates the certificate chain: those stores resume the
    // chain from its base, exactly as the serving layer did back then.
    let chain = if tag == Some("fgstore2") {
        parts
            .next()
            .and_then(|c| u64::from_str_radix(c, 16).ok())
            .ok_or_else(|| bad("unparseable chain digest"))?
    } else {
        CHAIN_BASE
    };
    if parts.next().is_some() {
        return Err(bad("trailing fields"));
    }
    Ok(Manifest { hash, seq, chain })
}

/// Loads the snapshot the manifest names and verifies its content hash.
///
/// # Errors
///
/// [`RecoveryError::SnapshotHashMismatch`] on a hash disagreement (bit
/// rot), or I/O failure (a missing file surfaces as [`StoreError::Io`]).
pub fn load_snapshot(dir: &Path, manifest: Manifest) -> Result<Vec<u8>, StoreError> {
    let path = snapshot_path(dir, manifest.hash);
    let bytes = fs::read(&path)?;
    let actual = fnv64(&bytes);
    if actual != manifest.hash {
        return Err(RecoveryError::SnapshotHashMismatch {
            path,
            expected: manifest.hash,
            actual,
        }
        .into());
    }
    Ok(bytes)
}

/// Deletes snapshot/segment files that the manifest no longer
/// references (crash orphans and superseded checkpoints). Best-effort:
/// failures are ignored — orphans are garbage, not state.
pub fn sweep_unreferenced(dir: &Path, keep: Manifest) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let keep_snap = snapshot_path(dir, keep.hash);
    let keep_wal = wal_path(dir, keep.seq);
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let sweepable = (name.starts_with("snap-") && path != keep_snap)
            || (name.starts_with("wal-") && path != keep_wal)
            || name.ends_with(".tmp");
        if sweepable {
            // fg-lint: allow(swallowed-results): orphan sweeping is advisory; a busy file is retried on the next checkpoint
            let _ = fs::remove_file(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fg-snapstore-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_round_trips() {
        let dir = temp_dir("manifest");
        let m = Manifest {
            hash: 0xdead_beef_0123_4567,
            seq: 42,
            chain: 0x0123_4567_89ab_cdef,
        };
        write_manifest(&dir, m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), m);
    }

    #[test]
    fn legacy_fgstore1_manifest_reads_with_base_chain() {
        let dir = temp_dir("legacy");
        fs::write(
            manifest_path(&dir),
            "fgstore1 00000000000000ab 7\n".as_bytes(),
        )
        .unwrap();
        let m = read_manifest(&dir).unwrap();
        assert_eq!((m.hash, m.seq), (0xab, 7));
        assert_eq!(m.chain, CHAIN_BASE);
    }

    #[test]
    fn missing_manifest_is_typed() {
        let dir = temp_dir("missing");
        match read_manifest(&dir) {
            Err(StoreError::Recovery(RecoveryError::MissingManifest(_))) => {}
            other => panic!("expected MissingManifest, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_content_addressed_and_verified() {
        let dir = temp_dir("snap");
        let bytes = b"snapshot payload".to_vec();
        let hash = write_snapshot(&dir, &bytes).unwrap();
        let m = Manifest {
            hash,
            seq: 7,
            chain: CHAIN_BASE,
        };
        assert_eq!(load_snapshot(&dir, m).unwrap(), bytes);
        // Corrupt the file: the hash check must catch it.
        fs::write(snapshot_path(&dir, hash), b"snapshot pAyload").unwrap();
        match load_snapshot(&dir, m) {
            Err(StoreError::Recovery(RecoveryError::SnapshotHashMismatch { .. })) => {}
            other => panic!("expected SnapshotHashMismatch, got {other:?}"),
        }
    }

    #[test]
    fn sweep_keeps_only_referenced_files() {
        let dir = temp_dir("sweep");
        let hash = write_snapshot(&dir, b"current").unwrap();
        let old = write_snapshot(&dir, b"older").unwrap();
        fs::write(wal_path(&dir, 3), b"").unwrap();
        fs::write(wal_path(&dir, 9), b"").unwrap();
        fs::write(dir.join("snap-feed.tmp"), b"").unwrap();
        let keep = Manifest {
            hash,
            seq: 9,
            chain: CHAIN_BASE,
        };
        sweep_unreferenced(&dir, keep);
        assert!(snapshot_path(&dir, hash).exists());
        assert!(wal_path(&dir, 9).exists());
        assert!(!snapshot_path(&dir, old).exists());
        assert!(!wal_path(&dir, 3).exists());
        assert!(!dir.join("snap-feed.tmp").exists());
    }
}
