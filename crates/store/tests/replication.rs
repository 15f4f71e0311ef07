//! FGR1 replication tests at the store layer: bootstrap from a shipped
//! snapshot, incremental WAL streaming (a fetch's byte cap rounded up to
//! a commit boundary), certificate-chain equality,
//! typed refusal of tampered shipments, replica/master restart
//! resilience, and the dir-entry crash-injection regression for the
//! parent-directory fsync fix.

use fg_core::{ForgivingGraph, NetworkEvent, SelfHealer};
use fg_graph::{generators, NodeId};
use fg_store::repl::{read_frame, write_frame, REPL_ERR_BAD_REQUEST};
use fg_store::{
    manifest_path, read_manifest, wake_addr, DurableHealer, DurableOptions, RecoveryError,
    ReplError, ReplListener, ReplRequest, ReplResponse, Replica, StoreError, WalRecord,
    FLAG_COMMIT,
};
use std::fs;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fg-repl-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seed_engine() -> ForgivingGraph {
    ForgivingGraph::from_graph(&generators::barabasi_albert(24, 2, 7)).unwrap()
}

/// A deterministic applicable event script (same construction as the
/// recovery suite).
fn script(events: usize, mut seed: u64) -> Vec<NetworkEvent> {
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut scratch = seed_engine();
    let mut out = Vec::with_capacity(events);
    while out.len() < events {
        let alive: Vec<NodeId> = (0..4096)
            .map(NodeId::new)
            .filter(|&v| scratch.is_alive(v))
            .collect();
        let event = if alive.len() > 4 && rng() % 3 == 0 {
            NetworkEvent::delete(alive[(rng() % alive.len() as u64) as usize])
        } else {
            let want = 1 + (rng() % 3) as usize;
            let mut neighbors: Vec<NodeId> = Vec::new();
            let mut at = (rng() % alive.len() as u64) as usize;
            while neighbors.len() < want.min(alive.len()) {
                let v = alive[at % alive.len()];
                if !neighbors.contains(&v) {
                    neighbors.push(v);
                }
                at += 1 + (rng() % 5) as usize;
            }
            NetworkEvent::insert(neighbors)
        };
        let _ = scratch.apply_event(&event).unwrap();
        out.push(event);
    }
    out
}

fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: None,
        sync_every: 1,
    }
}

#[test]
fn replica_bootstraps_streams_and_certifies_identically() {
    let events = script(24, 0x1001);
    let master_dir = temp_dir("master-basic");
    let replica_dir = temp_dir("replica-basic");
    let mut master = DurableHealer::create(seed_engine(), &master_dir, opts()).unwrap();
    for event in &events[..10] {
        let _ = master.apply_event(event).unwrap();
    }
    master.sync().unwrap();

    let listener = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();
    let (mut replica, report) =
        Replica::<ForgivingGraph>::bootstrap(listener.local_addr(), &replica_dir, opts()).unwrap();
    // Bootstrap fetched the master's base checkpoint (no WAL replayed).
    assert_eq!(report.replayed, 0);
    let applied = replica.sync_to_caught_up().unwrap();
    assert_eq!(applied, 10);
    assert_eq!(replica.epoch(), master.epoch());
    assert_eq!(replica.chain_digest(), master.chain_digest());
    assert_eq!(
        replica.healer().inner().snapshot_bytes(),
        master.inner().snapshot_bytes(),
        "replica state must be byte-identical to the master's"
    );

    // Master advances; the replica streams only the delta.
    for event in &events[10..] {
        let _ = master.apply_event(event).unwrap();
    }
    master.sync().unwrap();
    let progress = replica.sync_once().unwrap();
    assert_eq!(progress.applied, 14);
    assert!(!progress.caught_up);
    assert!(replica.sync_once().unwrap().caught_up);
    assert_eq!(replica.epoch(), master.epoch());
    assert_eq!(replica.chain_digest(), master.chain_digest());

    // The replica's own store directory is independently recoverable,
    // landing on the same certificate without the master in sight.
    let (epoch, chain) = (replica.epoch(), replica.chain_digest());
    drop(replica);
    let (reopened, report) = DurableHealer::<ForgivingGraph>::open(&replica_dir, opts()).unwrap();
    assert_eq!(report.epoch, epoch);
    assert_eq!(reopened.chain_digest(), chain);
    assert_eq!(
        reopened.inner().snapshot_bytes(),
        master.inner().snapshot_bytes()
    );

    drop(listener);
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}

#[test]
fn replica_resyncs_after_master_kill_and_restart() {
    let events = script(18, 0x1002);
    let master_dir = temp_dir("master-restart");
    let replica_dir = temp_dir("replica-restart");
    let mut master = DurableHealer::create(seed_engine(), &master_dir, opts()).unwrap();
    for event in &events[..6] {
        let _ = master.apply_event(event).unwrap();
    }
    master.sync().unwrap();

    let listener = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();
    let (mut replica, _) =
        Replica::<ForgivingGraph>::bootstrap(listener.local_addr(), &replica_dir, opts()).unwrap();
    replica.sync_to_caught_up().unwrap();

    // "kill -9" the master mid-stream: drop its listener and healer
    // without checkpointing, then recover the store and serve again.
    drop(listener);
    drop(master);
    let (mut master, report) = DurableHealer::<ForgivingGraph>::open(&master_dir, opts()).unwrap();
    assert_eq!(report.replayed, 6);
    for event in &events[6..] {
        let _ = master.apply_event(event).unwrap();
    }
    master.sync().unwrap();
    let listener = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();

    // The old connection is dead; reconnect against the restarted
    // master resumes from the replica's committed epoch.
    let mut replica = {
        let (replica, report) =
            Replica::<ForgivingGraph>::bootstrap(listener.local_addr(), &replica_dir, opts())
                .unwrap();
        assert_eq!(report.replayed, 6, "replica recovers its own WAL on reopen");
        replica
    };
    assert_eq!(replica.sync_to_caught_up().unwrap(), 12);
    assert_eq!(replica.epoch(), master.epoch());
    assert_eq!(replica.chain_digest(), master.chain_digest());
    assert_eq!(
        replica.healer().inner().snapshot_bytes(),
        master.inner().snapshot_bytes()
    );

    drop(listener);
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}

/// A `Fetch` cap smaller than one record still ships progress, and
/// never more than it must: each shipment runs to the first commit
/// boundary at or past the cap, so a 1-byte cap gets exactly one
/// commit group per round.
#[test]
fn fetch_cap_ships_one_commit_group_per_round() {
    let events = script(12, 0x1005);
    let master_dir = temp_dir("fetch-cap");
    let mut master = DurableHealer::create(seed_engine(), &master_dir, opts()).unwrap();
    let mut have_epoch = master.epoch();
    for group in events.chunks(3) {
        let _ = master.apply_batch(group).unwrap();
    }

    let listener = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();
    let mut stream = std::net::TcpStream::connect(listener.local_addr()).unwrap();
    let mut fetch = |have_epoch: u64| {
        let request = ReplRequest::Fetch {
            have_epoch,
            max_bytes: 1,
        };
        write_frame(&mut stream, &request.encode()).unwrap();
        ReplResponse::parse(&read_frame(&mut stream).unwrap()).unwrap()
    };
    for round in 0..4 {
        let ReplResponse::Records { count, raw } = fetch(have_epoch) else {
            panic!("round {round}: expected a record shipment");
        };
        let records = fg_store::decode_records(&raw).unwrap();
        assert_eq!((count, records.len()), (3, 3), "round {round}");
        let commits: Vec<bool> = records.iter().map(WalRecord::is_commit).collect();
        assert_eq!(commits, [false, false, true], "round {round}");
        assert_eq!(records[0].seq, have_epoch + 1, "round {round}");
        have_epoch = records[2].seq;
    }
    match fetch(have_epoch) {
        ReplResponse::CaughtUp { epoch } => assert_eq!(epoch, master.epoch()),
        other => panic!("expected CaughtUp after four groups, got {other:?}"),
    }

    drop(listener);
    fs::remove_dir_all(&master_dir).unwrap();
}

/// A fake master that answers the replica's first `Fetch` with one
/// attacker-controlled response frame, after first serving an honest
/// bootstrap from `dir`.
fn one_shot_master(
    dir: PathBuf,
    response: impl FnOnce(u64) -> ReplResponse + Send + 'static,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        loop {
            let payload = match read_frame(&mut stream) {
                Ok(payload) => payload,
                Err(_) => return, // replica hung up after the refusal
            };
            match ReplRequest::parse(&payload).unwrap() {
                ReplRequest::FetchSnapshot => {
                    let manifest = read_manifest(&dir).unwrap();
                    let bytes = fg_store::load_snapshot(&dir, manifest).unwrap();
                    let honest = ReplResponse::Snapshot {
                        seq: manifest.seq,
                        hash: manifest.hash,
                        chain: manifest.chain,
                        bytes,
                    };
                    write_frame(&mut stream, &honest.encode()).unwrap();
                }
                ReplRequest::Fetch { have_epoch, .. } => {
                    write_frame(&mut stream, &response(have_epoch).encode()).unwrap();
                    return;
                }
            }
        }
    });
    (addr, handle)
}

/// Sets up a base store for the fake-master tests and a valid next
/// record the attacker can mutate.
fn attack_fixture(name: &str) -> (PathBuf, PathBuf, WalRecord) {
    let master_dir = temp_dir(&format!("attack-master-{name}"));
    let replica_dir = temp_dir(&format!("attack-replica-{name}"));
    let durable = DurableHealer::create(seed_engine(), &master_dir, opts()).unwrap();
    let base_epoch = durable.epoch();
    drop(durable);
    let next = script(1, 0x1003).remove(0);
    let mut scratch = seed_engine();
    let outcome = scratch.apply_event(&next).unwrap();
    let record = WalRecord {
        seq: base_epoch + 1,
        flags: FLAG_COMMIT,
        digest: outcome.digest(),
        event: next,
    };
    (master_dir, replica_dir, record)
}

fn ship(records: &[WalRecord]) -> ReplResponse {
    let mut raw = Vec::new();
    for record in records {
        raw.extend_from_slice(&record.to_bytes());
    }
    ReplResponse::Records {
        count: records.len() as u32,
        raw,
    }
}

#[test]
fn lying_digest_shipment_is_refused() {
    let (master_dir, replica_dir, record) = attack_fixture("digest");
    let lying = WalRecord {
        digest: record.digest ^ 1,
        ..record
    };
    let (addr, handle) = one_shot_master(master_dir.clone(), move |_| ship(&[lying]));
    let (mut replica, _) =
        Replica::<ForgivingGraph>::bootstrap(addr, &replica_dir, opts()).unwrap();
    match replica.sync_once() {
        Err(ReplError::Store(StoreError::Recovery(RecoveryError::DigestMismatch {
            seq, ..
        }))) => assert_eq!(seq, record.seq),
        other => panic!("expected DigestMismatch refusal, got {other:?}"),
    }
    // The refusal poisons the in-memory replica (the event applied
    // before its digest could be checked — same order as recovery
    // replay), but nothing was staged: the durable store still holds
    // only certified history.
    drop(replica);
    let (reopened, _) = DurableHealer::<ForgivingGraph>::open(&replica_dir, opts()).unwrap();
    assert_eq!(reopened.epoch(), record.seq - 1);
    handle.join().unwrap();
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}

#[test]
fn sequence_gap_shipment_is_refused() {
    let (master_dir, replica_dir, record) = attack_fixture("gap");
    let skipping = WalRecord {
        seq: record.seq + 4,
        ..record
    };
    let (addr, handle) = one_shot_master(master_dir.clone(), move |_| ship(&[skipping]));
    let (mut replica, _) =
        Replica::<ForgivingGraph>::bootstrap(addr, &replica_dir, opts()).unwrap();
    match replica.sync_once() {
        Err(ReplError::Store(StoreError::Recovery(RecoveryError::SequenceGap {
            expected,
            found,
        }))) => {
            assert_eq!(expected, record.seq);
            assert_eq!(found, record.seq + 4);
        }
        other => panic!("expected SequenceGap refusal, got {other:?}"),
    }
    drop(replica);
    handle.join().unwrap();
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}

#[test]
fn truncated_and_boundary_violating_shipments_are_refused() {
    // Truncated raw record range: strict parser refuses.
    let (master_dir, replica_dir, record) = attack_fixture("trunc");
    let truncated = {
        let full = ship(std::slice::from_ref(&record));
        let ReplResponse::Records { count, mut raw } = full else {
            unreachable!()
        };
        raw.truncate(raw.len() - 3);
        ReplResponse::Records { count, raw }
    };
    let (addr, handle) = one_shot_master(master_dir.clone(), move |_| truncated);
    let (mut replica, _) =
        Replica::<ForgivingGraph>::bootstrap(addr, &replica_dir, opts()).unwrap();
    assert!(
        matches!(replica.sync_once(), Err(ReplError::Malformed(_))),
        "truncated shipment must be refused as malformed"
    );
    drop(replica);
    handle.join().unwrap();
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();

    // A shipment not ending on a commit boundary: refused before any
    // record is applied.
    let (master_dir, replica_dir, record) = attack_fixture("boundary");
    let uncommitted = WalRecord { flags: 0, ..record };
    let (addr, handle) = one_shot_master(master_dir.clone(), move |_| ship(&[uncommitted]));
    let (mut replica, _) =
        Replica::<ForgivingGraph>::bootstrap(addr, &replica_dir, opts()).unwrap();
    match replica.sync_once() {
        Err(ReplError::Malformed(detail)) => assert!(detail.contains("commit boundary")),
        other => panic!("expected commit-boundary refusal, got {other:?}"),
    }
    assert_eq!(replica.epoch(), record.seq - 1, "nothing may be applied");
    drop(replica);
    handle.join().unwrap();
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}

#[test]
fn count_mismatch_shipment_is_refused() {
    let (master_dir, replica_dir, record) = attack_fixture("count");
    let miscounted = {
        let ReplResponse::Records { raw, .. } = ship(&[record]) else {
            unreachable!()
        };
        ReplResponse::Records { count: 2, raw }
    };
    let (addr, handle) = one_shot_master(master_dir.clone(), move |_| miscounted);
    let (mut replica, _) =
        Replica::<ForgivingGraph>::bootstrap(addr, &replica_dir, opts()).unwrap();
    match replica.sync_once() {
        Err(ReplError::Malformed(detail)) => assert!(detail.contains("claims 2")),
        other => panic!("expected count-mismatch refusal, got {other:?}"),
    }
    drop(replica);
    handle.join().unwrap();
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}

#[test]
fn malformed_request_gets_a_typed_error_frame() {
    let master_dir = temp_dir("bad-request");
    drop(DurableHealer::create(seed_engine(), &master_dir, opts()).unwrap());
    let listener = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();
    let mut stream = std::net::TcpStream::connect(listener.local_addr()).unwrap();
    // Well-framed garbage: CRC passes, the request parser refuses.
    write_frame(&mut stream, b"NOPE\x01\x00").unwrap();
    let payload = read_frame(&mut stream).unwrap();
    match ReplResponse::parse(&payload).unwrap() {
        ReplResponse::Error { code, .. } => assert_eq!(code, REPL_ERR_BAD_REQUEST),
        other => panic!("expected a typed error frame, got {other:?}"),
    }
    drop(listener);
    fs::remove_dir_all(&master_dir).unwrap();
}

#[test]
fn wake_addr_rewrites_unspecified_addresses() {
    let v4: SocketAddr = "0.0.0.0:4321".parse().unwrap();
    assert_eq!(wake_addr(v4), "127.0.0.1:4321".parse().unwrap());
    let v6: SocketAddr = "[::]:4321".parse().unwrap();
    assert_eq!(wake_addr(v6), "[::1]:4321".parse().unwrap());
    let concrete: SocketAddr = "192.0.2.7:4321".parse().unwrap();
    assert_eq!(wake_addr(concrete), concrete, "concrete addrs untouched");
}

/// The dir-entry crash injection for the parent-fsync fix: simulate a
/// crash where the checkpoint's manifest rename was lost (the pre-fix
/// hazard window) by renaming the committed manifest away and restoring
/// the previous manifest bytes. Recovery must answer with a typed
/// refusal — never a panic, never a silently wrong state built from the
/// swept-away segments the old manifest references.
#[test]
fn lost_manifest_rename_after_checkpoint_refuses_typed() {
    let events = script(8, 0x1004);
    let dir = temp_dir("lost-rename");
    let mut durable = DurableHealer::create(seed_engine(), &dir, opts()).unwrap();
    let old_manifest = fs::read(manifest_path(&dir)).unwrap();
    for event in &events {
        let _ = durable.apply_event(event).unwrap();
    }
    durable.checkpoint().unwrap();
    drop(durable);

    // Crash injection: the rename's dir entry vanishes, the old bytes
    // come back — but the checkpoint already swept the old segment.
    fs::rename(manifest_path(&dir), dir.join("MANIFEST.lost")).unwrap();
    fs::write(manifest_path(&dir), &old_manifest).unwrap();
    match DurableHealer::<ForgivingGraph>::open(&dir, opts()) {
        Err(StoreError::Io(_) | StoreError::Recovery(_)) => {}
        Ok(_) => panic!("recovery from a swept manifest must not silently succeed"),
        Err(other) => panic!("expected a typed refusal, got {other:?}"),
    }

    // Restoring the committed manifest recovers cleanly — the data the
    // fsync fix makes durable is sufficient.
    fs::remove_file(manifest_path(&dir)).unwrap();
    fs::rename(dir.join("MANIFEST.lost"), manifest_path(&dir)).unwrap();
    let (recovered, report) = DurableHealer::<ForgivingGraph>::open(&dir, opts()).unwrap();
    assert_eq!(report.replayed, 0);
    assert_eq!(recovered.epoch(), seed_engine().epoch() + 8);
    fs::remove_dir_all(&dir).unwrap();
}
