//! [`DurableHealer`]: crash-safe persistence for any [`Persistable`]
//! self-healer, with digest-certified recovery.
//!
//! ## Write path
//!
//! Every applied event is appended to the live WAL segment as a record
//! carrying `(seq, digest, event)` — the engine's epoch after the event
//! and the structural digest of its outcome. The digest is only known
//! *after* applying (it is a property of what the repair did), so the
//! order is apply → log → group-commit fsync → acknowledge: an operation
//! whose call has returned under `sync_every = 1` (or any completed
//! [`DurableHealer::sync`]/batch) is durable, and state is memory-only
//! until recovery, so logging after applying loses nothing a crash
//! would not lose anyway.
//!
//! ## Recovery
//!
//! [`DurableHealer::open`] = load the manifest's snapshot (content-hash
//! verified), then replay the committed WAL suffix, recomputing each
//! event's digest and comparing it to the logged one. Any disagreement
//! is typed ([`crate::RecoveryError`]) and fatal — recovery never serves
//! a state it cannot certify byte-for-byte against the acknowledged
//! history. Torn tails are truncated; damage *inside* committed history
//! (valid records beyond a bad checksum) is refused.
//!
//! ## Checkpoints
//!
//! Every `checkpoint_every` events (or on demand) the full engine state
//! is written as a content-addressed snapshot, the manifest is atomically
//! repointed, and the WAL rotates to a fresh segment — bounding both
//! recovery time and the truncation rule's blast radius (a segment never
//! contains pre-checkpoint records, so tail truncation cannot cross a
//! checkpoint).

use crate::error::{RecoveryError, StoreError};
use crate::snapstore::{
    load_snapshot, read_manifest, sweep_unreferenced, wal_path, write_manifest, write_snapshot,
    Manifest,
};
use crate::wal::{scan_wal, WalRecord, WalWriter, FLAG_COMMIT};
use fg_core::{
    BatchReport, EngineError, ForgivingGraph, HealOutcome, InsertReport, NetworkEvent,
    RepairReport, ReportDigest, SelfHealer,
};
use fg_graph::{Graph, NodeId};
use std::io;
use std::path::{Path, PathBuf};

/// The certificate chain's starting value (the FNV-1a offset basis) —
/// the digest of an empty history. The serving layer's `BASE_DIGEST`
/// is defined as this constant, so a durable store and a fresh
/// in-memory publisher stamp identical certificates for identical
/// histories.
pub const CHAIN_BASE: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one event's outcome digest into the certificate chain:
/// `chain' = fnv(chain ‖ outcome_digest)`. This is the single chaining
/// rule shared by the WAL master, every replica, and the serving
/// layer's response stamps — equal committed histories produce equal
/// chains, whatever the batching.
pub fn chain_fold(chain: u64, outcome_digest: u64) -> u64 {
    ReportDigest::new().word(chain).word(outcome_digest).value()
}

/// A self-healer whose full state can round-trip through bytes — what
/// the store needs to checkpoint and recover it.
///
/// The contract is behavioural, not just structural: a restored healer
/// must replay any event sequence to the *same outcomes* (digests
/// included) as the original would have.
pub trait Persistable: SelfHealer + Sized {
    /// Serializes the healer's complete logical state deterministically
    /// (equal states must yield equal bytes — snapshots are named by
    /// content hash).
    fn snapshot_bytes(&self) -> Vec<u8>;

    /// Rebuilds a healer from [`Persistable::snapshot_bytes`] output.
    ///
    /// # Errors
    ///
    /// A human-readable description of why the bytes are not a valid
    /// state.
    fn restore(bytes: &[u8]) -> Result<Self, String>;
}

impl Persistable for ForgivingGraph {
    fn snapshot_bytes(&self) -> Vec<u8> {
        ForgivingGraph::snapshot_bytes(self)
    }

    fn restore(bytes: &[u8]) -> Result<Self, String> {
        ForgivingGraph::from_snapshot_bytes(bytes)
    }
}

/// Tuning knobs for a [`DurableHealer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Checkpoint (snapshot + WAL rotation) after this many events;
    /// `None` never checkpoints automatically.
    pub checkpoint_every: Option<u64>,
    /// Group-commit width: fsync after this many single-event appends.
    /// `1` makes every acknowledged event durable; larger values trade
    /// the tail of a crash for throughput. Batches always fsync once at
    /// the end regardless.
    pub sync_every: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            checkpoint_every: None,
            sync_every: 64,
        }
    }
}

/// What a recovery did: where it started, what it replayed and what it
/// cut from the live segment's tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the snapshot recovery started from.
    pub snapshot_seq: u64,
    /// Content hash of that snapshot.
    pub snapshot_hash: u64,
    /// Committed WAL records replayed (each digest-verified).
    pub replayed: usize,
    /// Well-formed records dropped because no commit record followed
    /// them (a batch that crashed before its commit mark).
    pub dropped_uncommitted: usize,
    /// Bytes cut from the segment tail (uncommitted records + torn
    /// garbage).
    pub truncated_bytes: u64,
    /// Whether unparseable tail bytes were present.
    pub torn_tail: bool,
    /// The recovered engine's epoch.
    pub epoch: u64,
}

/// A write-ahead-logged wrapper: durability for any [`Persistable`]
/// healer behind the plain [`SelfHealer`] façade.
///
/// # Panics
///
/// The [`SelfHealer`] surface has no I/O error channel, so a *write*
/// failure of the log or an automatic checkpoint panics: continuing
/// would acknowledge events that were never made durable, which is the
/// one lie a durability layer must not tell. Recovery and explicit
/// maintenance ([`DurableHealer::open`], [`DurableHealer::checkpoint`],
/// [`DurableHealer::sync`]) return typed [`StoreError`]s instead.
///
/// # Examples
///
/// ```
/// use fg_core::{ForgivingGraph, SelfHealer};
/// use fg_graph::{generators, NodeId};
/// use fg_store::{DurableHealer, DurableOptions};
///
/// let dir = std::env::temp_dir().join(format!("fg-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let engine = ForgivingGraph::from_graph(&generators::star(6))?;
/// let mut durable = DurableHealer::create(engine, &dir, DurableOptions::default())?;
/// let _ = durable.delete(NodeId::new(0))?;
/// durable.sync()?;
/// drop(durable);
///
/// let (recovered, report) = DurableHealer::<ForgivingGraph>::open(&dir, DurableOptions::default())?;
/// assert_eq!(report.replayed, 1);
/// assert!(!recovered.is_alive(NodeId::new(0)));
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DurableHealer<H: Persistable> {
    inner: H,
    dir: PathBuf,
    wal: WalWriter,
    opts: DurableOptions,
    snapshot_seq: u64,
    since_checkpoint: u64,
    chain: u64,
}

impl<H: Persistable> DurableHealer<H> {
    /// Adopts `inner` into a fresh store directory: writes the initial
    /// checkpoint (so even an empty-WAL store recovers), the manifest,
    /// and an empty WAL segment.
    ///
    /// # Errors
    ///
    /// I/O failure, or `AlreadyExists` if `dir` already holds a store.
    pub fn create(inner: H, dir: &Path, opts: DurableOptions) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        if crate::snapstore::manifest_path(dir).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds a store; use open()", dir.display()),
            )
            .into());
        }
        let seq = inner.epoch();
        let hash = write_snapshot(dir, &inner.snapshot_bytes())?;
        let wal = WalWriter::create(&wal_path(dir, seq), opts.sync_every)?;
        write_manifest(
            dir,
            Manifest {
                hash,
                seq,
                chain: CHAIN_BASE,
            },
        )?;
        Ok(DurableHealer {
            inner,
            dir: dir.to_path_buf(),
            wal,
            opts,
            snapshot_seq: seq,
            since_checkpoint: 0,
            chain: CHAIN_BASE,
        })
    }

    /// Recovers a store directory: snapshot + digest-verified replay of
    /// the committed WAL suffix, truncating any torn/uncommitted tail.
    ///
    /// # Errors
    ///
    /// * I/O failures ([`StoreError::Io`]);
    /// * framing damage that is not a tail ([`StoreError::Corrupt`],
    ///   [`RecoveryError::CorruptCommitted`]);
    /// * certification failures — hash, sequence, or digest disagreement
    ///   (the [`RecoveryError`] variants). Callers must treat every
    ///   error as "do not serve this state" and exit nonzero.
    pub fn open(dir: &Path, opts: DurableOptions) -> Result<(Self, RecoveryReport), StoreError> {
        let manifest = read_manifest(dir)?;
        let bytes = load_snapshot(dir, manifest)?;
        let mut inner = H::restore(&bytes).map_err(|detail| RecoveryError::SnapshotDecode {
            path: crate::snapstore::snapshot_path(dir, manifest.hash),
            detail,
        })?;
        if inner.epoch() != manifest.seq {
            return Err(RecoveryError::SnapshotDecode {
                path: crate::snapstore::snapshot_path(dir, manifest.hash),
                detail: format!(
                    "snapshot decodes to epoch {} but manifest committed {}",
                    inner.epoch(),
                    manifest.seq
                ),
            }
            .into());
        }

        let segment = wal_path(dir, manifest.seq);
        let scan = scan_wal(&segment)?;
        if let Some(resync_offset) = scan.resync_offset {
            return Err(RecoveryError::CorruptCommitted {
                path: segment,
                bad_offset: scan.valid_len,
                resync_offset,
            }
            .into());
        }

        let mut chain = manifest.chain;
        for record in &scan.records[..scan.committed] {
            chain = chain_fold(chain, replay_record(&mut inner, record)?.digest());
        }

        let file_len = std::fs::metadata(&segment)?.len();
        let wal = WalWriter::open_at(&segment, scan.committed_len, opts.sync_every)?;
        let report = RecoveryReport {
            snapshot_seq: manifest.seq,
            snapshot_hash: manifest.hash,
            replayed: scan.committed,
            dropped_uncommitted: scan.records.len() - scan.committed,
            truncated_bytes: file_len - scan.committed_len,
            torn_tail: scan.torn,
            epoch: inner.epoch(),
        };
        Ok((
            DurableHealer {
                inner,
                dir: dir.to_path_buf(),
                wal,
                opts,
                snapshot_seq: manifest.seq,
                since_checkpoint: scan.committed as u64,
                chain,
            },
            report,
        ))
    }

    /// The wrapped healer.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Unwraps the healer, abandoning the log (a final
    /// [`DurableHealer::sync`] runs on drop of the writer).
    pub fn into_inner(self) -> H {
        self.inner
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Epoch of the checkpoint the live segment follows.
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// The certificate chain digest over every event logged or staged so
    /// far — the fold of [`chain_fold`] from [`CHAIN_BASE`] across the
    /// full acknowledged history. A serving layer that stamps responses with
    /// this value lets any client check a replica's answers against the
    /// master's committed history; recovery resumes it exactly (it is
    /// persisted in the manifest and re-folded over the replayed WAL
    /// suffix).
    pub fn chain_digest(&self) -> u64 {
        self.chain
    }

    /// Forces staged records to disk with one write and one fsync — the
    /// commit point of [`DurableHealer::stage_batch`].
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    /// Applies `events` in order and stages one WAL record per applied
    /// event, the commit flag on the last — exactly the records
    /// [`SelfHealer::apply_batch`] logs — but writes nothing: they reach
    /// the file with the next [`DurableHealer::sync`], and the batch is
    /// durable once that returns. `apply_batch` is this plus that sync, so
    /// a writer that stages several batches and then syncs once writes
    /// the same bytes as applying them one by one, in one write and one
    /// fsync. An automatic checkpoint due after the batch still runs here,
    /// writing out what is staged first.
    ///
    /// # Errors
    ///
    /// The first refused event's [`EngineError`], wrapped by
    /// [`EngineError::at_event`]. Earlier events stay applied, and are
    /// staged as a group of their own.
    ///
    /// # Panics
    ///
    /// If an automatic checkpoint fails (see [`DurableHealer`]).
    pub fn stage_batch(&mut self, events: &[NetworkEvent]) -> Result<BatchReport, EngineError> {
        let mut batch = BatchReport::new();
        let mut records = Vec::with_capacity(events.len());
        for (index, event) in events.iter().enumerate() {
            match self.inner.apply_event(event) {
                Ok(outcome) => {
                    records.push(self.batch_record(event, outcome.digest()));
                    batch.push(outcome);
                }
                Err(source) => {
                    self.stage_group(records);
                    return Err(EngineError::at_event(index, event, source));
                }
            }
        }
        self.stage_group(records);
        self.auto_checkpoint();
        Ok(batch)
    }

    /// Takes a checkpoint now: snapshot the engine, atomically repoint
    /// the manifest, rotate the WAL, and sweep superseded files. A no-op
    /// if no event has been applied since the last checkpoint.
    ///
    /// # Errors
    ///
    /// Any I/O failure; the store stays on the previous checkpoint.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.wal.sync()?;
        let seq = self.inner.epoch();
        if seq == self.snapshot_seq {
            return Ok(());
        }
        let hash = write_snapshot(&self.dir, &self.inner.snapshot_bytes())?;
        let fresh = WalWriter::create(&wal_path(&self.dir, seq), self.opts.sync_every)?;
        let manifest = Manifest {
            hash,
            seq,
            chain: self.chain,
        };
        write_manifest(&self.dir, manifest)?;
        self.wal = fresh;
        self.snapshot_seq = seq;
        self.since_checkpoint = 0;
        sweep_unreferenced(&self.dir, manifest);
        Ok(())
    }

    /// Appends one just-applied event (single-op path: commit record,
    /// group-commit fsync policy).
    fn log_one(&mut self, event: NetworkEvent, digest: u64) {
        self.wal.stage(&WalRecord {
            seq: self.inner.epoch(),
            flags: FLAG_COMMIT,
            digest,
            event,
        });
        self.wal.commit().unwrap_or_else(Self::die);
        self.chain = chain_fold(self.chain, digest);
        self.since_checkpoint += 1;
        self.auto_checkpoint();
    }

    /// Stages a batch's records as one atomically recovered group: commit
    /// flag on the last record. They reach the file, in one write and
    /// one fsync, at the next [`DurableHealer::sync`].
    fn stage_group(&mut self, mut records: Vec<WalRecord>) {
        let Some(last) = records.last_mut() else {
            return;
        };
        last.flags |= FLAG_COMMIT;
        for record in &records {
            self.wal.stage(record);
            self.chain = chain_fold(self.chain, record.digest);
        }
        self.since_checkpoint += records.len() as u64;
    }

    fn auto_checkpoint(&mut self) {
        if let Some(every) = self.opts.checkpoint_every {
            if self.since_checkpoint >= every {
                self.checkpoint().unwrap_or_else(Self::die);
            }
        }
    }

    fn die<T>(err: StoreError) -> T {
        panic!("durability write failed — refusing to acknowledge un-logged events: {err}");
    }

    /// Applies one record shipped from a replication master, with the
    /// same digest certification recovery uses: the record must be the
    /// next in sequence, must replay to exactly the logged digest, and
    /// is then staged into this store's own WAL **verbatim** (flags
    /// included) — so a replica's committed WAL prefix stays
    /// byte-identical to the master's and its own recovery replays the
    /// identical certified history.
    ///
    /// The record is staged, not fsynced: callers apply a shipped run of
    /// records and then call [`DurableHealer::sync`] once (the run's
    /// acknowledgement point). Automatic checkpoints only trigger at
    /// commit-flagged records, so a checkpoint never lands inside a
    /// half-shipped batch.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::SequenceGap`], [`RecoveryError::Replay`], or
    /// [`RecoveryError::DigestMismatch`] — the same refusal semantics as
    /// [`DurableHealer::open`]. A refused record is never staged, so the
    /// durable state holds only certified history; on `DigestMismatch`
    /// the in-memory engine has already applied the event (the digest is
    /// only knowable post-apply, as in recovery replay), so the healer
    /// must be discarded and reopened from its own store directory.
    /// I/O failure if an automatic checkpoint fails.
    pub fn apply_replicated(&mut self, record: &WalRecord) -> Result<HealOutcome, StoreError> {
        let outcome = replay_record(&mut self.inner, record)?;
        self.wal.stage(record);
        self.chain = chain_fold(self.chain, record.digest);
        self.since_checkpoint += 1;
        if record.is_commit() {
            if let Some(every) = self.opts.checkpoint_every {
                if self.since_checkpoint >= every {
                    self.checkpoint()?;
                }
            }
        }
        Ok(outcome)
    }

    fn batch_record(&self, event: &NetworkEvent, digest: u64) -> WalRecord {
        WalRecord {
            seq: self.inner.epoch(),
            flags: 0,
            digest,
            event: event.clone(),
        }
    }
}

/// Applies one logged record to `inner` and certifies it: the record
/// must be the next in sequence and must replay to exactly its logged
/// digest. Recovery replay and replica apply both run this check.
fn replay_record<H: Persistable>(
    inner: &mut H,
    record: &WalRecord,
) -> Result<HealOutcome, RecoveryError> {
    let expected = inner.epoch() + 1;
    if record.seq != expected {
        return Err(RecoveryError::SequenceGap {
            expected,
            found: record.seq,
        });
    }
    let outcome = inner
        .apply_event(&record.event)
        .map_err(|error| RecoveryError::Replay {
            seq: record.seq,
            error,
        })?;
    let replayed = outcome.digest();
    if replayed != record.digest {
        return Err(RecoveryError::DigestMismatch {
            seq: record.seq,
            logged: record.digest,
            replayed,
        });
    }
    Ok(outcome)
}

impl<H: Persistable> SelfHealer for DurableHealer<H> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn insert(&mut self, neighbors: &[NodeId]) -> Result<InsertReport, EngineError> {
        let report = self.inner.insert(neighbors)?;
        self.log_one(
            NetworkEvent::insert(neighbors.iter().copied()),
            report.digest(),
        );
        Ok(report)
    }

    fn delete(&mut self, v: NodeId) -> Result<RepairReport, EngineError> {
        let report = self.inner.delete(v)?;
        self.log_one(NetworkEvent::delete(v), report.digest());
        Ok(report)
    }

    fn image(&self) -> &Graph {
        self.inner.image()
    }

    fn ghost(&self) -> &Graph {
        self.inner.ghost()
    }

    fn is_alive(&self, v: NodeId) -> bool {
        self.inner.is_alive(v)
    }

    fn enable_profiling(&mut self) {
        self.inner.enable_profiling();
    }

    fn phase_times(&self) -> Option<fg_core::PhaseTimes> {
        self.inner.phase_times()
    }

    fn apply_batch(&mut self, events: &[NetworkEvent]) -> Result<BatchReport, EngineError> {
        // "Earlier events stay applied" — so the applied prefix of a
        // failed batch is made durable before the error is reported too.
        let result = self.stage_batch(events);
        self.sync().unwrap_or_else(Self::die);
        result
    }
}
