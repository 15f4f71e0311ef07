//! The append-only write-ahead log: checksummed, length-prefixed event
//! records with group-commit fsync batching, and a reader that separates
//! torn tails (crash damage, safe to truncate) from mid-file corruption
//! (damage to acknowledged history, fatal).
//!
//! ## Record format
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload]
//! payload = [seq: u64 LE][flags: u8][digest: u64 LE][event wire form]
//! ```
//!
//! * The frame is [`crate::codec`]'s: [`crate::codec::frame`] writes it,
//!   and [`crate::codec::frame_at`] reads it back under this log's
//!   payload bounds (22 bytes to 16 MiB). `len` is the payload length;
//!   `crc` is CRC-32 (IEEE) over the payload.
//! * `seq` is the engine's structural epoch *after* applying the event —
//!   epochs advance by exactly one per event, so sequence numbers are
//!   dense and recovery can detect gaps.
//! * `digest` is the event's structural [`fg_core::HealOutcome`] digest,
//!   captured when the event was first applied. Replay recomputes it and
//!   any difference is proof of drift (DESIGN.md §11).
//! * `flags` carries [`FLAG_COMMIT`]: set on every single-event record
//!   and on the *last* record of a batch. Replay stops at the last
//!   commit record, so a partially persisted batch is never half-applied.
//!
//! ## Segments
//!
//! A WAL file is one *segment*, named `wal-<seq>.log` where `<seq>` is
//! the sequence number of the checkpoint snapshot it follows; it only
//! ever holds records with sequence numbers `> seq`. Checkpointing
//! rotates to a fresh segment, so a checksum failure inside a segment is
//! never "before a committed checkpoint" by construction — the torn-tail
//! truncation rule can never eat checkpointed history.

use crate::codec::{decode_event, encode_event, frame, frame_at, Cursor};
use crate::error::StoreError;
use fg_core::NetworkEvent;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Set on the last record of every atomically committed group (every
/// single event, and the final record of a batch).
pub const FLAG_COMMIT: u8 = 1;

/// Smallest possible payload: seq + flags + digest + a 1-byte event tag
/// with a 4-byte id.
const MIN_PAYLOAD: usize = 8 + 1 + 8 + 5;

/// Upper bound on a sane payload; anything larger is framing garbage.
const MAX_PAYLOAD: usize = 16 << 20;

/// One durable event record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Engine epoch after applying the event.
    pub seq: u64,
    /// Record flags ([`FLAG_COMMIT`]).
    pub flags: u8,
    /// The structural digest the event produced when first applied.
    pub digest: u64,
    /// The adversarial event itself.
    pub event: NetworkEvent,
}

impl WalRecord {
    /// Whether this record closes an atomically committed group.
    pub fn is_commit(&self) -> bool {
        self.flags & FLAG_COMMIT != 0
    }

    /// The framed on-disk bytes of this record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(MIN_PAYLOAD + 16);
        payload.extend_from_slice(&self.seq.to_le_bytes());
        payload.push(self.flags);
        payload.extend_from_slice(&self.digest.to_le_bytes());
        encode_event(&mut payload, &self.event);
        frame(&payload)
    }
}

/// Everything a sequential scan learned about one WAL segment.
#[derive(Debug)]
pub struct WalScan {
    /// Every well-formed record, in file order (committed or not).
    pub records: Vec<WalRecord>,
    /// How many leading records belong to the committed prefix (through
    /// the last record with [`FLAG_COMMIT`]). Only these may be replayed.
    pub committed: usize,
    /// Byte length of the committed prefix — where recovery truncates to.
    pub committed_len: u64,
    /// Byte offset past the last well-formed record.
    pub valid_len: u64,
    /// Whether bytes after `valid_len` exist that do not parse (a torn
    /// tail from a crash, or worse — see `resync_offset`).
    pub torn: bool,
    /// If, past the first bad byte, a later offset parses as a complete
    /// valid record, that offset. Valid data beyond damage means the
    /// damage is *inside* acknowledged history, not a tail: recovery
    /// must refuse to truncate ([`crate::RecoveryError::CorruptCommitted`]).
    pub resync_offset: Option<u64>,
}

/// Reads and classifies a whole WAL segment.
///
/// The scan walks records front to back and stops at the first framing
/// or checksum violation. It then probes the remaining bytes for any
/// offset that parses as a complete record — distinguishing a torn tail
/// (nothing valid follows; the file just ends mid-write) from mid-file
/// corruption (valid records follow the damage).
///
/// # Errors
///
/// * [`StoreError::Io`] if the file cannot be read;
/// * [`StoreError::Corrupt`] if a record passes its CRC but does not
///   decode — that is writer-side version skew, not crash damage, and
///   no truncation rule can repair it.
pub fn scan_wal(path: &Path) -> Result<WalScan, StoreError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;

    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut committed = 0usize;
    let mut committed_len = 0u64;
    let mut torn = false;
    while pos < buf.len() {
        match parse_record_at(&buf, pos) {
            Ok((record, end)) => {
                pos = end;
                records.push(record);
                if records[records.len() - 1].is_commit() {
                    committed = records.len();
                    committed_len = pos as u64;
                }
            }
            Err(ParseFailure::Damaged) => {
                torn = true;
                break;
            }
            Err(ParseFailure::Undecodable(detail)) => {
                return Err(StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: pos as u64,
                    detail,
                });
            }
        }
    }

    let valid_len = pos as u64;
    let mut resync_offset = None;
    if torn {
        // Probe every later offset for a complete record. CRC over the
        // claimed span makes a false positive astronomically unlikely.
        for probe in pos + 1..buf.len().saturating_sub(8 + MIN_PAYLOAD - 1) {
            if parse_record_at(&buf, probe).is_ok() {
                resync_offset = Some(probe as u64);
                break;
            }
        }
    }

    Ok(WalScan {
        records,
        committed,
        committed_len,
        valid_len,
        torn,
        resync_offset,
    })
}

/// Decodes a byte range that must consist of exactly whole, valid WAL
/// records — the strict parser for *shipped* record ranges (replication),
/// where any violation is tampering or truncation in transit, never a
/// crash artifact to be truncated away.
///
/// # Errors
///
/// A human-readable description of the first violation (bad framing,
/// CRC mismatch, undecodable payload, or trailing bytes).
pub fn decode_records(buf: &[u8]) -> Result<Vec<WalRecord>, String> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        match parse_record_at(buf, pos) {
            Ok((record, end)) => {
                records.push(record);
                pos = end;
            }
            Err(ParseFailure::Damaged) => {
                return Err(format!(
                    "record framing or checksum violation at byte {pos} of a {}-byte range",
                    buf.len()
                ));
            }
            Err(ParseFailure::Undecodable(detail)) => {
                return Err(format!("record at byte {pos} does not decode: {detail}"));
            }
        }
    }
    Ok(records)
}

enum ParseFailure {
    /// Framing or checksum violation — crash damage or garbage.
    Damaged,
    /// CRC passed but the payload does not decode — writer bug or
    /// format-version skew; not repairable by truncation.
    Undecodable(String),
}

fn parse_record_at(buf: &[u8], pos: usize) -> Result<(WalRecord, usize), ParseFailure> {
    let rest = buf.get(pos..).unwrap_or_default();
    let (payload, len) =
        frame_at(rest, MIN_PAYLOAD..=MAX_PAYLOAD).map_err(|_| ParseFailure::Damaged)?;
    let mut cur = Cursor::new(payload);
    let record = (|| -> Result<WalRecord, String> {
        let record = WalRecord {
            seq: cur.u64()?,
            flags: cur.u8()?,
            digest: cur.u64()?,
            event: decode_event(&mut cur)?,
        };
        cur.finish()?;
        Ok(record)
    })()
    .map_err(ParseFailure::Undecodable)?;
    Ok((record, pos + len))
}

/// The fsync-batched appender.
///
/// Records are *staged* into an in-memory buffer, flushed to the file as
/// one write by [`WalWriter::commit`], and fsynced either every
/// `sync_every` committed records or on an explicit [`WalWriter::sync`].
/// Group commit trades the last `< sync_every` acknowledgements for
/// throughput; recovery still lands on a digest-certified committed
/// prefix whatever the crash point (DESIGN.md §11).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    staged: Vec<u8>,
    unsynced: usize,
    sync_every: usize,
}

impl WalWriter {
    /// Creates a fresh, empty segment (truncating any previous file at
    /// `path` — rotation owns segment naming) and fsyncs it into
    /// existence, **including the parent directory**: the file's own
    /// fsync does not make its directory entry durable, so without the
    /// directory sync the segment itself could vanish on a crash right
    /// after a checkpoint committed a manifest that names it.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn create(path: &Path, sync_every: usize) -> Result<Self, StoreError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.sync_all()?;
        if let Some(dir) = path.parent() {
            crate::snapstore::sync_dir(dir)?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            staged: Vec::new(),
            unsynced: 0,
            sync_every: sync_every.max(1),
        })
    }

    /// Opens an existing segment for appending at `committed_len`,
    /// truncating everything after it (the torn / uncommitted tail a
    /// scan refused to replay).
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn open_at(path: &Path, committed_len: u64, sync_every: usize) -> Result<Self, StoreError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(committed_len)?;
        file.sync_all()?;
        let mut writer = WalWriter {
            file,
            path: path.to_path_buf(),
            staged: Vec::new(),
            unsynced: 0,
            sync_every: sync_every.max(1),
        };
        writer.seek_end()?;
        Ok(writer)
    }

    fn seek_end(&mut self) -> Result<(), StoreError> {
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::End(0))?;
        Ok(())
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stages one record; nothing reaches the file until
    /// [`WalWriter::commit`].
    pub fn stage(&mut self, record: &WalRecord) {
        self.staged.extend_from_slice(&record.to_bytes());
        self.unsynced += 1;
    }

    /// Writes all staged records as a single append, fsyncing if the
    /// batching threshold is reached.
    ///
    /// # Errors
    ///
    /// Any I/O failure; staged bytes remain staged so the caller can
    /// retry or abort.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        if !self.staged.is_empty() {
            self.file.write_all(&self.staged)?;
            self.staged.clear();
        }
        if self.unsynced >= self.sync_every {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Flushes staged records and forces an fsync regardless of the
    /// batching threshold; a no-op when every record is already synced.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        if !self.staged.is_empty() {
            self.file.write_all(&self.staged)?;
            self.staged.clear();
        }
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort durability on clean shutdown; a crash simulation
        // (mem::forget or kill) skips this, which is the point.
        // fg-lint: allow(swallowed-results): Drop cannot propagate; callers needing certainty call sync() themselves
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::NodeId;

    fn record(seq: u64, flags: u8) -> WalRecord {
        WalRecord {
            seq,
            flags,
            digest: 0x1000 + seq,
            event: NetworkEvent::delete(NodeId::new(seq as u32)),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fg-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn record_bytes_are_pinned() {
        let record = WalRecord {
            seq: 7,
            flags: FLAG_COMMIT,
            digest: 0x0123_4567_89ab_cdef,
            event: NetworkEvent::insert([NodeId::new(3), NodeId::new(258)]),
        };
        let expected: Vec<u8> = [
            &[30, 0, 0, 0][..],                                // len
            &[0x82, 0x2a, 0x4b, 0xdd],                         // crc32(payload)
            &[7, 0, 0, 0, 0, 0, 0, 0],                         // seq
            &[1],                                              // flags: commit
            &[0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01], // digest
            &[0, 2, 0, 0, 0],                                  // insert, two ids
            &[3, 0, 0, 0, 2, 1, 0, 0],                         // 3, 258
        ]
        .concat();
        assert_eq!(record.to_bytes(), expected);
    }

    #[test]
    fn write_scan_round_trip() {
        let path = temp_path("round-trip.log");
        let mut w = WalWriter::create(&path, 1).unwrap();
        for seq in 1..=5 {
            w.stage(&record(seq, FLAG_COMMIT));
            w.commit().unwrap();
        }
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.committed, 5);
        assert!(!scan.torn);
        assert_eq!(scan.committed_len, scan.valid_len);
        assert_eq!(scan.records[2], record(3, FLAG_COMMIT));
    }

    #[test]
    fn uncommitted_tail_is_excluded_from_committed_prefix() {
        let path = temp_path("uncommitted.log");
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.stage(&record(1, FLAG_COMMIT));
        // A batch whose commit record never made it.
        w.stage(&record(2, 0));
        w.stage(&record(3, 0));
        w.sync().unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.committed, 1);
        assert!(!scan.torn);
        assert!(scan.committed_len < scan.valid_len);
    }

    #[test]
    fn torn_tail_is_detected_without_resync() {
        let path = temp_path("torn.log");
        let mut w = WalWriter::create(&path, 1).unwrap();
        for seq in 1..=3 {
            w.stage(&record(seq, FLAG_COMMIT));
        }
        w.sync().unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.committed, 2);
        assert!(scan.torn);
        assert_eq!(scan.resync_offset, None);
    }

    #[test]
    fn mid_file_flip_resyncs_to_later_record() {
        let path = temp_path("flip.log");
        let mut w = WalWriter::create(&path, 1).unwrap();
        for seq in 1..=4 {
            w.stage(&record(seq, FLAG_COMMIT));
        }
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = bytes.len() / 4;
        // Flip a byte inside the second record's payload.
        bytes[record_len + 12] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.committed, 1);
        assert!(scan.torn);
        let resync = scan.resync_offset.expect("later records are intact");
        assert!(resync > scan.valid_len && resync < bytes.len() as u64);
    }

    #[test]
    fn open_at_truncates_the_tail() {
        let path = temp_path("reopen.log");
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.stage(&record(1, FLAG_COMMIT));
        w.stage(&record(2, 0));
        w.sync().unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        let mut w = WalWriter::open_at(&path, scan.committed_len, 1).unwrap();
        w.stage(&record(2, FLAG_COMMIT));
        w.sync().unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.committed, 2);
        assert_eq!(scan.records[1].flags, FLAG_COMMIT);
        assert!(!scan.torn);
    }

    #[test]
    fn empty_segment_scans_clean() {
        let path = temp_path("empty.log");
        drop(WalWriter::create(&path, 8).unwrap());
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.committed, 0);
        assert!(!scan.torn);
    }
}
