//! repl_bench — loopback benchmark of the FGR1 WAL-shipping replication
//! path.
//!
//! Builds a durable master from a scenario trace, pre-loads part of the
//! history, then measures two phases against a live replica:
//!
//! 1. **catch-up** — the replica bootstraps from the master's shipped
//!    checkpoint and streams the pre-loaded WAL to the master's epoch;
//! 2. **tail-follow** — the master applies the rest of the trace batch
//!    by batch while the replica syncs after every batch.
//!
//! With `--kill-restart 1` the master is torn down mid-follow with no
//! checkpoint (listener and healer dropped), recovered from its store
//! directory, and re-served — the replica re-attaches and the follow
//! phase continues, which is the in-process twin of CI's `kill -9` flow.
//!
//! The run exits nonzero unless the replica ends bit-identical to the
//! master: equal epochs, equal certificate chain digests, and (as an
//! independent cross-backend check) a digest chain equal to an
//! in-memory replay of the same trace on the message-passing backend.
//!
//! Flags (all optional): `--workload churn`, `--n <initial>`,
//! `--events <count>`, `--batch <events per master commit>`,
//! `--preload <fraction pre-loaded before the replica attaches>`,
//! `--fetch-bytes <replica per-fetch cap>`, `--kill-restart 0|1`,
//! plus the shared `--seed` / `--json <path>`.

use fg_bench::json::Json;
use fg_bench::{scenario, write_artifact, BenchArgs};
use fg_core::{ForgivingGraph, PlacementPolicy, SelfHealer};
use fg_dist::DistHealer;
use fg_serve::Publisher;
use fg_store::{DurableHealer, DurableOptions, ReplListener, Replica};
use std::path::PathBuf;
use std::time::Instant;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fg-repl-bench-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: None,
        sync_every: 1,
    }
}

fn main() {
    let args = BenchArgs::parse(&[
        "workload",
        "n",
        "events",
        "batch",
        "preload",
        "fetch-bytes",
        "kill-restart",
    ]);
    let workload = args.raw("workload").unwrap_or("churn").to_string();
    let n = args.get("n", 256usize);
    let events = args.get("events", 5_000usize);
    let batch = args.get("batch", 32usize).max(1);
    let preload: f64 = args.get("preload", 0.5);
    let fetch_bytes = args.get("fetch-bytes", 1u32 << 20);
    let kill_restart = args.get("kill-restart", 0u8) != 0;
    let seed = args.seed(41);

    let sc = scenario(&workload, n, events, seed);
    let split = ((events as f64 * preload.clamp(0.0, 1.0)) as usize).min(sc.events.len());
    let (head, tail) = sc.events.split_at(split);

    let master_dir = temp_dir("master");
    let replica_dir = temp_dir("replica");
    let mut master = DurableHealer::create(
        ForgivingGraph::from_graph(&sc.initial).unwrap(),
        &master_dir,
        opts(),
    )
    .unwrap();

    // Phase 0: pre-load history the replica will have to catch up on.
    let preload_start = Instant::now();
    for chunk in head.chunks(batch) {
        let _ = master.apply_batch(chunk).expect("legal trace");
    }
    let preload_seconds = preload_start.elapsed().as_secs_f64();

    let mut listener = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();

    // Phase 1: bootstrap + catch-up.
    let catchup_start = Instant::now();
    let (mut replica, _) =
        Replica::<ForgivingGraph>::bootstrap(listener.local_addr(), &replica_dir, opts()).unwrap();
    replica.max_fetch_bytes = fetch_bytes;
    let caught_up = replica.sync_to_caught_up().expect("catch-up sync");
    let catchup_seconds = catchup_start.elapsed().as_secs_f64();
    assert_eq!(caught_up, head.len(), "catch-up must stream the preload");

    // Phase 2: tail-follow, one replica sync round per master batch.
    // With --kill-restart the master dies (no checkpoint) halfway
    // through and is recovered from its own store directory.
    let kill_at = if kill_restart {
        tail.len() / 2
    } else {
        usize::MAX
    };
    let mut followed = 0usize;
    let mut rounds = 0usize;
    let mut restarts = 0usize;
    let follow_start = Instant::now();
    let mut applied_since_head = 0usize;
    for chunk in tail.chunks(batch) {
        if applied_since_head >= kill_at && restarts == 0 {
            drop(listener);
            drop(master);
            let (recovered, report) =
                DurableHealer::<ForgivingGraph>::open(&master_dir, opts()).unwrap();
            assert!(
                report.epoch >= replica.epoch(),
                "recovery must not lose acknowledged history"
            );
            master = recovered;
            listener = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();
            // The replica's socket died with the old listener; it
            // recovers its own store and re-attaches to the new port.
            drop(replica);
            let (reattached, report) =
                Replica::<ForgivingGraph>::bootstrap(listener.local_addr(), &replica_dir, opts())
                    .unwrap();
            assert_eq!(report.epoch, master.epoch(), "replica store is current");
            replica = reattached;
            replica.max_fetch_bytes = fetch_bytes;
            restarts = 1;
        }
        let _ = master.apply_batch(chunk).expect("legal trace");
        applied_since_head += chunk.len();
        loop {
            let progress = replica.sync_once().expect("follow sync");
            followed += progress.applied;
            rounds += 1;
            if progress.caught_up {
                break;
            }
        }
    }
    let follow_seconds = follow_start.elapsed().as_secs_f64();
    assert_eq!(followed, tail.len(), "follow must stream the whole tail");

    // The certificate gate: epochs and chains bit-identical, and both
    // equal to an independent in-memory replay on the other backend.
    assert_eq!(replica.epoch(), master.epoch(), "epoch divergence");
    assert_eq!(
        replica.chain_digest(),
        master.chain_digest(),
        "certificate chain divergence"
    );
    let mut golden = Publisher::new(DistHealer::from_graph(
        &sc.initial,
        PlacementPolicy::Adjacent,
    ));
    for chunk in sc.events.chunks(batch) {
        let _ = golden.apply_and_publish(chunk).expect("legal trace");
    }
    assert_eq!(
        golden.digest(),
        replica.chain_digest(),
        "dist-backend replay must chain to the same certificate"
    );

    let catchup_rps = head.len() as f64 / catchup_seconds.max(1e-9);
    let follow_rps = tail.len() as f64 / follow_seconds.max(1e-9);
    println!("repl_bench: {workload} n={n} events={events} batch={batch} seed={seed}");
    println!(
        "  preload  {:>7} records in {preload_seconds:.3}s",
        head.len()
    );
    println!(
        "  catch-up {:>7} records in {catchup_seconds:.3}s ({catchup_rps:.0} rec/s)",
        head.len()
    );
    println!(
        "  follow   {:>7} records in {follow_seconds:.3}s ({follow_rps:.0} rec/s, {rounds} rounds, {restarts} restarts)",
        tail.len()
    );
    println!(
        "  certified epoch {} chain {:016x} (master == replica == dist replay)",
        replica.epoch(),
        replica.chain_digest()
    );

    if let Some(path) = args.json_path() {
        let doc = Json::obj()
            .field(
                "config",
                Json::obj()
                    .field("workload", Json::str(&workload))
                    .field("n", Json::Int(n as i64))
                    .field("events", Json::Int(events as i64))
                    .field("batch", Json::Int(batch as i64))
                    .field("seed", Json::Int(seed as i64))
                    .field("fetch_bytes", Json::Int(fetch_bytes as i64))
                    .field("kill_restart", Json::Bool(kill_restart)),
            )
            .field(
                "phases",
                Json::obj()
                    .field("preload_records", Json::Int(head.len() as i64))
                    .field("preload_seconds", Json::Float(preload_seconds))
                    .field("catchup_records", Json::Int(head.len() as i64))
                    .field("catchup_seconds", Json::Float(catchup_seconds))
                    .field("catchup_records_per_sec", Json::Float(catchup_rps))
                    .field("follow_records", Json::Int(tail.len() as i64))
                    .field("follow_seconds", Json::Float(follow_seconds))
                    .field("follow_records_per_sec", Json::Float(follow_rps))
                    .field("follow_rounds", Json::Int(rounds as i64))
                    .field("restarts", Json::Int(restarts as i64)),
            )
            .field(
                "certificate",
                Json::obj()
                    .field("epoch", Json::Int(master.epoch() as i64))
                    .field(
                        "chain",
                        Json::str(format!("{:016x}", master.chain_digest())),
                    )
                    .field("replica_equal", Json::Bool(true))
                    .field("dist_replay_equal", Json::Bool(true)),
            );
        write_artifact(path, &doc);
    }

    drop(listener);
    let _ = std::fs::remove_dir_all(&master_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}
