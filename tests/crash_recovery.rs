//! Golden crash-injection suite: the durability layer against the golden
//! corpus. For every golden trace, a [`DurableHealer`] runs the full
//! trace with per-event commits, the WAL is then injured at a sweep of
//! byte offsets (truncation — a torn tail — and bit flips), and recovery
//! must reach **exactly** the state the committed prefix describes:
//! the recovered engine's snapshot is bit-identical to the crash-free
//! engine after the same prefix, and completing the trace reproduces the
//! golden digest stream to the last event.
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

/// Builds the store by running the whole trace (every event committed),
/// returning the crash-free per-prefix snapshots — `states[k]` is the
/// engine after `k` events — so any recovery point can be certified
/// bit-for-bit.
fn build(sc: &Scenario, dir: &Path, opts: DurableOptions) -> (Vec<Vec<u8>>, u64) {
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
    (states, base)
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
        let dir = temp_dir(&format!("trunc-{name}"));
        let opts = DurableOptions {
            checkpoint_every: None,
            sync_every: 1,
        };
        let (states, base) = build(&sc, &dir, opts);
        let wal = wal_path(&dir, read_manifest(&dir).expect("manifest").seq);
        let bytes = std::fs::read(&wal).expect("live segment");
        let ends = record_ends(&wal);

        // The sweep: every record boundary and its ±1 neighbourhood
        // (where a cut straddles the commit point), plus a stride across
        // the interior of every frame.
        let mut cuts: Vec<usize> = vec![0, 1, bytes.len()];
        for &end in &ends {
            cuts.extend([end.saturating_sub(1), end, (end + 1).min(bytes.len())]);
        }
        cuts.extend((0..bytes.len()).step_by(13));
        cuts.sort_unstable();
        cuts.dedup();

        let scratch = temp_dir(&format!("trunc-{name}-cut"));
        for &cut in &cuts {
            clone_store(&dir, &scratch);
            let mut cut_bytes = bytes.clone();
            cut_bytes.truncate(cut);
            std::fs::write(wal_path(&scratch, base), cut_bytes).expect("injected truncation");

            let (recovered, report) = DurableHealer::<ForgivingGraph>::open(&scratch, opts)
                .unwrap_or_else(|e| panic!("{name}: cut at {cut} refused recovery: {e}"));
            // Every fully-written record is committed (sync_every = 1),
            // so the certified prefix is exactly the records the cut
            // left whole.
            let survive = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(report.replayed, survive, "{name}: cut at {cut}");
            assert_eq!(
                recovered.inner().snapshot_bytes(),
                states[survive],
                "{name}: cut at {cut} recovered a different state than the \
                 crash-free engine after {survive} events"
            );
            drop(recovered);

            // Completion at record boundaries: re-applying the lost
            // suffix must reproduce the golden digest stream exactly.
            if ends.contains(&cut) || cut == bytes.len() {
                let (mut recovered, _) = DurableHealer::<ForgivingGraph>::open(&scratch, opts)
                    .expect("clean reopen after truncation repair");
                for (i, event) in sc.events.iter().enumerate().skip(survive) {
                    let digest = recovered
                        .apply_event(event)
                        .expect("legal trace event")
                        .digest();
                    assert_eq!(
                        digest, golden[i],
                        "{name}: event {i} drifted from the golden digest after \
                         recovering from a cut at {cut}"
                    );
                }
                assert_eq!(
                    recovered.inner().snapshot_bytes(),
                    states[sc.events.len()],
                    "{name}: completed run diverged from the crash-free final state"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

#[test]
fn bit_flips_truncate_the_tail_or_refuse_loudly() {
    for name in CORPUS {
        let (sc, _) = load(name);
        let dir = temp_dir(&format!("flip-{name}"));
        let opts = DurableOptions {
            checkpoint_every: None,
            sync_every: 1,
        };
        let (states, base) = build(&sc, &dir, opts);
        let wal = wal_path(&dir, base);
        let bytes = std::fs::read(&wal).expect("live segment");
        let ends = record_ends(&wal);

        let scratch = temp_dir(&format!("flip-{name}-hit"));
        for at in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            clone_store(&dir, &scratch);
            let mut hit = bytes.clone();
            hit[at] ^= 0x10;
            std::fs::write(wal_path(&scratch, base), hit).expect("injected bit flip");

            match DurableHealer::<ForgivingGraph>::open(&scratch, opts) {
                // A flip in the final frame reads as a torn tail: the
                // certified prefix is every record before it.
                Ok((recovered, report)) => {
                    assert!(
                        report.torn_tail,
                        "{name}: flip at {at} recovered without noticing damage"
                    );
                    let survive = ends.iter().filter(|&&end| end <= at).count();
                    assert_eq!(report.replayed, survive, "{name}: flip at {at}");
                    assert_eq!(
                        recovered.inner().snapshot_bytes(),
                        states[survive],
                        "{name}: flip at {at} certified the wrong prefix"
                    );
                }
                // A flip before the final frame means committed history
                // is damaged: recovery must refuse with the typed error,
                // never silently drop committed events.
                Err(StoreError::Recovery(RecoveryError::CorruptCommitted { .. })) => {
                    assert!(
                        at < ends[ends.len() - 1] - 1,
                        "{name}: flip at {at} in the final frame should be a torn tail"
                    );
                }
                Err(e) => panic!("{name}: flip at {at}: unexpected error {e}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

#[test]
fn checkpointed_stores_recover_from_the_latest_snapshot() {
    for name in CORPUS {
        let (sc, golden) = load(name);
        let dir = temp_dir(&format!("ckpt-{name}"));
        let opts = DurableOptions {
            checkpoint_every: Some(40),
            sync_every: 1,
        };
        let (states, base) = build(&sc, &dir, opts);
        let manifest = read_manifest(&dir).expect("manifest");
        assert!(
            manifest.seq > base,
            "{name}: checkpoint cadence 40 over {} events never checkpointed",
            sc.events.len()
        );
        let checkpointed = (manifest.seq - base) as usize;

        // Destroy the live segment entirely: recovery must land exactly
        // on the last checkpoint and complete to the golden stream.
        std::fs::write(wal_path(&dir, manifest.seq), []).expect("destroyed segment");
        let (mut recovered, report) =
            DurableHealer::<ForgivingGraph>::open(&dir, opts).expect("recovery from checkpoint");
        assert_eq!(report.replayed, 0, "{name}");
        assert_eq!(report.epoch, manifest.seq, "{name}");
        assert_eq!(
            recovered.inner().snapshot_bytes(),
            states[checkpointed],
            "{name}: checkpoint state drifted from the crash-free engine"
        );
        for (i, event) in sc.events.iter().enumerate().skip(checkpointed) {
            let digest = recovered
                .apply_event(event)
                .expect("legal trace event")
                .digest();
            assert_eq!(
                digest, golden[i],
                "{name}: event {i} drifted from the golden digest after \
                 recovering from the checkpoint"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
