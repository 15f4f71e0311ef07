//! Golden crash-injection suite: the durability layer against the golden
//! corpus. For every golden trace, a [`DurableHealer`] runs the full
//! trace on each of two stores — fsync per event with no checkpoint,
//! and group commits with a checkpoint every 48 events, so a torn
//! segment follows a checkpoint — the live WAL segment is then injured
//! at a sweep of byte offsets (truncation — a torn tail — and bit
//! flips), and recovery must reach **exactly** the state the committed
//! prefix describes: the recovered engine's snapshot is bit-identical
//! to the crash-free engine after the same prefix, and completing the
//! trace reproduces the golden digest stream to the last event.
//!
//! This is the integration-level half of the crash story; the byte-level
//! exhaustive sweep over a synthetic store lives in
//! `crates/store/tests/durable_recovery.rs`.

use forgiving_graph::bench::replay::parse_digest_file;
use forgiving_graph::bench::Scenario;
use forgiving_graph::core::{ForgivingGraph, SelfHealer};
use forgiving_graph::store::{
    read_manifest, scan_wal, wal_path, DurableHealer, DurableOptions, RecoveryError, StoreError,
};
use std::path::{Path, PathBuf};

const CORPUS: &[&str] = &["churn", "hub-cascade", "partition-then-heal"];

/// Fsync per event and no checkpoint: the whole trace in one segment.
const PER_EVENT: DurableOptions = DurableOptions {
    checkpoint_every: None,
    sync_every: 1,
};

/// Group commits of 64 and a checkpoint every 48 events: on the
/// 120-event golden traces the live segment holds the 24 records after
/// the checkpoint at event 96.
const CHECKPOINTED: DurableOptions = DurableOptions {
    checkpoint_every: Some(48),
    sync_every: 64,
};

/// The stores both sweeps injure.
const STORES: [(&str, DurableOptions); 2] =
    [("per-event", PER_EVENT), ("checkpointed", CHECKPOINTED)];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fg-crash-{tag}-{}", std::process::id()))
}

fn load(name: &str) -> (Scenario, Vec<u64>) {
    let dir = golden_dir();
    let trace = std::fs::read_to_string(dir.join(format!("{name}.trace"))).expect("golden trace");
    let digests =
        std::fs::read_to_string(dir.join(format!("{name}.digests"))).expect("golden digests");
    (
        Scenario::read_trace(name, &trace).expect("golden trace parses"),
        parse_digest_file(&digests).expect("golden digest file parses"),
    )
}

/// A store built from a whole trace (every event committed).
struct Built {
    /// The crash-free per-prefix snapshots — `states[k]` is the engine
    /// after `k` events — so any recovery point can be certified bit for
    /// bit.
    states: Vec<Vec<u8>>,
    /// The events the latest checkpoint covers; the live segment holds
    /// the rest.
    checkpointed: usize,
    /// The live segment's epoch, which names its file in any copy of the
    /// store.
    seq: u64,
}

fn build(sc: &Scenario, dir: &Path, opts: DurableOptions) -> Built {
    let _ = std::fs::remove_dir_all(dir);
    let engine = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
    let base = engine.epoch();
    let mut durable = DurableHealer::create(engine, dir, opts).expect("fresh store");
    let mut states = vec![durable.inner().snapshot_bytes()];
    for event in &sc.events {
        let _ = durable.apply_event(event).expect("legal trace event");
        states.push(durable.inner().snapshot_bytes());
    }
    durable.sync().expect("final sync");
    let seq = read_manifest(dir).expect("manifest").seq;
    Built {
        states,
        checkpointed: (seq - base) as usize,
        seq,
    }
}

fn clone_store(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("clone dir");
    for entry in std::fs::read_dir(src).expect("source store") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("clone file");
    }
}

/// Record frame boundaries of a WAL segment (cumulative byte offsets of
/// each complete record's end) — the offsets where truncation loses a
/// whole event, plus the interesting neighbourhood around each.
fn record_ends(wal: &Path) -> Vec<usize> {
    let scan = scan_wal(wal).expect("intact segment scans");
    let mut ends = Vec::with_capacity(scan.records.len());
    let mut at = 0usize;
    for record in &scan.records {
        at += record.to_bytes().len();
        ends.push(at);
    }
    ends
}

#[test]
fn truncation_sweep_recovers_certified_prefix_and_completes_to_golden() {
    for name in CORPUS {
        let (sc, golden) = load(name);
        for (store, opts) in STORES {
            let dir = temp_dir(&format!("trunc-{name}-{store}"));
            let built = build(&sc, &dir, opts);
            let wal = wal_path(&dir, built.seq);
            let bytes = std::fs::read(&wal).expect("live segment");
            let ends = record_ends(&wal);

            // The sweep: every record boundary and its ±1 neighbourhood
            // (where a cut straddles the commit point), plus a stride
            // across the interior of every frame.
            let mut cuts: Vec<usize> = vec![0, 1, bytes.len()];
            for &end in &ends {
                cuts.extend([end.saturating_sub(1), end, (end + 1).min(bytes.len())]);
            }
            cuts.extend((0..bytes.len()).step_by(13));
            cuts.sort_unstable();
            cuts.dedup();

            let scratch = temp_dir(&format!("trunc-{name}-{store}-cut"));
            for &cut in &cuts {
                clone_store(&dir, &scratch);
                let mut cut_bytes = bytes.clone();
                cut_bytes.truncate(cut);
                std::fs::write(wal_path(&scratch, built.seq), cut_bytes)
                    .expect("injected truncation");

                let (recovered, report) = DurableHealer::<ForgivingGraph>::open(&scratch, opts)
                    .unwrap_or_else(|e| {
                        panic!("{name}/{store}: cut at {cut} refused recovery: {e}")
                    });
                // Every fully-written record is committed (each event
                // is logged with its commit flag), so the certified
                // prefix is the checkpoint plus exactly the records the
                // cut left whole.
                let survive = ends.iter().filter(|&&end| end <= cut).count();
                let recovered_to = built.checkpointed + survive;
                assert_eq!(report.replayed, survive, "{name}/{store}: cut at {cut}");
                assert_eq!(
                    recovered.inner().snapshot_bytes(),
                    built.states[recovered_to],
                    "{name}/{store}: cut at {cut} recovered a different state than the \
                     crash-free engine after {recovered_to} events"
                );
                drop(recovered);

                // Completion at record boundaries, from the bare
                // checkpoint up: re-applying the lost suffix must
                // reproduce the golden digest stream exactly.
                if cut == 0 || ends.contains(&cut) || cut == bytes.len() {
                    let (mut recovered, _) = DurableHealer::<ForgivingGraph>::open(&scratch, opts)
                        .expect("clean reopen after truncation repair");
                    for (i, event) in sc.events.iter().enumerate().skip(recovered_to) {
                        let digest = recovered
                            .apply_event(event)
                            .expect("legal trace event")
                            .digest();
                        assert_eq!(
                            digest, golden[i],
                            "{name}/{store}: event {i} drifted from the golden digest after \
                             recovering from a cut at {cut}"
                        );
                    }
                    assert_eq!(
                        recovered.inner().snapshot_bytes(),
                        built.states[sc.events.len()],
                        "{name}/{store}: completed run diverged from the crash-free final state"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&scratch);
        }
    }
}

#[test]
fn bit_flips_truncate_the_tail_or_refuse_loudly() {
    for name in CORPUS {
        let (sc, _) = load(name);
        for (store, opts) in STORES {
            let dir = temp_dir(&format!("flip-{name}-{store}"));
            let built = build(&sc, &dir, opts);
            let wal = wal_path(&dir, built.seq);
            let bytes = std::fs::read(&wal).expect("live segment");
            let ends = record_ends(&wal);

            let scratch = temp_dir(&format!("flip-{name}-{store}-hit"));
            for at in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
                clone_store(&dir, &scratch);
                let mut hit = bytes.clone();
                hit[at] ^= 0x10;
                std::fs::write(wal_path(&scratch, built.seq), hit).expect("injected bit flip");

                match DurableHealer::<ForgivingGraph>::open(&scratch, opts) {
                    // A flip in the final frame reads as a torn tail: the
                    // certified prefix is every record before it.
                    Ok((recovered, report)) => {
                        assert!(
                            report.torn_tail,
                            "{name}/{store}: flip at {at} recovered without noticing damage"
                        );
                        let survive = ends.iter().filter(|&&end| end <= at).count();
                        assert_eq!(report.replayed, survive, "{name}/{store}: flip at {at}");
                        assert_eq!(
                            recovered.inner().snapshot_bytes(),
                            built.states[built.checkpointed + survive],
                            "{name}/{store}: flip at {at} certified the wrong prefix"
                        );
                    }
                    // A flip before the final frame means committed
                    // history is damaged: recovery must refuse with the
                    // typed error, never silently drop committed events.
                    Err(StoreError::Recovery(RecoveryError::CorruptCommitted { .. })) => {
                        assert!(
                            at < ends[ends.len() - 1] - 1,
                            "{name}/{store}: flip at {at} in the final frame should be a torn tail"
                        );
                    }
                    Err(e) => panic!("{name}/{store}: flip at {at}: unexpected error {e}"),
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&scratch);
        }
    }
}

#[test]
fn checkpointed_stores_recover_from_the_latest_snapshot() {
    for name in CORPUS {
        let (sc, golden) = load(name);
        let dir = temp_dir(&format!("ckpt-{name}"));
        let built = build(&sc, &dir, CHECKPOINTED);
        let segment = scan_wal(&wal_path(&dir, built.seq)).expect("live segment scans");
        assert!(
            built.checkpointed > 0 && !segment.records.is_empty(),
            "{name}: {} of {} events checkpointed, {} in the live segment; the test needs both",
            built.checkpointed,
            sc.events.len(),
            segment.records.len()
        );

        // With the segment intact, recovery replays it from the
        // checkpoint, and each replayed record carries its event's golden
        // digest. (A destroyed segment is the truncation sweep's cut 0
        // on this store: recovery lands on the checkpoint and completes
        // to the golden stream.)
        let (recovered, report) =
            DurableHealer::<ForgivingGraph>::open(&dir, CHECKPOINTED).expect("recovery");
        assert_eq!(report.snapshot_seq, built.seq, "{name}");
        assert_eq!(report.replayed, segment.records.len(), "{name}");
        for (i, record) in segment.records.iter().enumerate() {
            let event = built.checkpointed + i;
            assert_eq!(record.digest, golden[event], "{name}: event {event}");
        }
        assert_eq!(
            recovered.inner().snapshot_bytes(),
            built.states[sc.events.len()],
            "{name}: replaying the live segment drifted from the crash-free engine"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
