//! Crash-injection recovery benchmark: replays a dumped scenario trace
//! through a [`DurableHealer`], injures the WAL the way a crash would,
//! recovers, completes the trace, and **exits nonzero unless the
//! digest stream matches the golden record exactly** — the CI gate that
//! recovery reaches the same state a crash-free run would have.
//!
//! Usage: `recover_trace --trace <file> [flags]`
//!
//! Flags:
//! * `--trace <file>` — the scenario trace to replay (required; written
//!   by `throughput --trace-out`, or one of `tests/golden/*.trace`).
//! * `--store <dir>` — store directory (default: a fresh temp dir;
//!   always recreated).
//! * `--checkpoint-every <k>` — checkpoint cadence while building
//!   (default 0 = only the initial checkpoint).
//! * `--sync-every <k>` — group-commit width (default 64; the build
//!   phase ends with an explicit sync either way).
//! * `--inject none|truncate|bitflip` — the injury (default `none`):
//!   `truncate` cuts the live WAL segment at a byte offset, `bitflip`
//!   flips one bit in its torn tail region.
//! * `--inject-at <byte>` — offset for the injection (default: 2/3 of
//!   the segment for `truncate`, 3 bytes before the end for `bitflip`).
//! * `--expect-digest <path>` — the golden digest file. Events replayed
//!   from the WAL are digest-verified by recovery itself; the events the
//!   injury destroyed are re-applied and each outcome is compared
//!   against the golden stream.
//! * `--json <path>` — also write the recovery-time artifact to a file
//!   (the same JSON always prints to stdout as one line).
//!
//! Flags parse through [`BenchArgs`], so an unknown flag is an input
//! error (a misspelled gate must not pass vacuously). Exit status:
//! 0 = recovered and certified, 1 = recovery refused or store
//! construction failed, 2 = bad input (usage on stderr), 3 = digest
//! drift against the golden record.

use fg_bench::json::Json;
use fg_bench::replay::{first_digest_drift, parse_digest_file};
use fg_bench::{write_artifact, BenchArgs, Scenario};
use fg_core::{ForgivingGraph, SelfHealer};
use fg_store::{DurableHealer, DurableOptions};
use std::time::Instant;

/// Exit status for a digest stream that drifted from its reference.
const DRIFT: i32 = 3;

fn main() {
    let args = BenchArgs::parse(&[
        "trace",
        "store",
        "checkpoint-every",
        "sync-every",
        "inject",
        "inject-at",
        "expect-digest",
    ]);
    let path = args.required("trace");
    let store_dir = args.raw("store").map_or_else(
        || std::env::temp_dir().join(format!("fg-recover-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    let checkpoint_every: u64 = args.get("checkpoint-every", 0);
    let sync_every: usize = args.get("sync-every", 64);
    let inject = args.raw("inject").unwrap_or("none");
    if !["none", "truncate", "bitflip"].contains(&inject) {
        args.fail(&format!(
            "--inject {inject:?} is not one of none, truncate, bitflip"
        ));
    }
    let opts = DurableOptions {
        checkpoint_every: (checkpoint_every > 0).then_some(checkpoint_every),
        sync_every: sync_every.max(1),
    };

    let read = |file: &str| {
        std::fs::read_to_string(file)
            .unwrap_or_else(|e| args.fail(&format!("cannot read {file}: {e}")))
    };
    let sc = Scenario::read_trace(path, &read(path))
        .unwrap_or_else(|e| args.fail(&format!("{path} is not a trace: {e}")));
    let golden = args.raw("expect-digest").map(|p| {
        let digests = parse_digest_file(&read(p))
            .unwrap_or_else(|e| args.fail(&format!("{p} is not a digest file: {e}")));
        (p.to_string(), digests)
    });

    // Phase 1 — build: run the full trace through a durable engine, the
    // way a live service would have, then "crash" (drop the writer).
    let _ = std::fs::remove_dir_all(&store_dir);
    let engine = ForgivingGraph::from_graph(&sc.initial).expect("fresh G0");
    let base_epoch = engine.epoch();
    let start = Instant::now();
    let mut durable = match DurableHealer::create(engine, &store_dir, opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("store creation failed: {e}");
            std::process::exit(1);
        }
    };
    let mut build_digests = Vec::with_capacity(sc.events.len());
    for event in &sc.events {
        let outcome = durable.apply_event(event).expect("legal trace event");
        build_digests.push(outcome.digest());
    }
    durable.sync().expect("final sync");
    let snapshot_seq = durable.snapshot_seq();
    drop(durable);
    let build_seconds = start.elapsed().as_secs_f64();

    // The build itself must already match the golden stream — otherwise
    // a "successful" recovery would certify the wrong history. A golden
    // file of the wrong length drifts where the shorter stream ends.
    if let Some((name, digests)) = &golden {
        if let Some((i, want, got)) = first_digest_drift(digests, &build_digests) {
            eprintln!(
                "digest drift at event {i} during the build: recorded {want:016x}, \
                 engine produced {got:016x} ({name})"
            );
            std::process::exit(DRIFT);
        }
    }

    // Phase 2 — injure the live WAL segment like a crash would.
    let wal = fg_store::wal_path(&store_dir, snapshot_seq);
    let wal_bytes = std::fs::read(&wal).expect("live segment").len();
    let inject_at: usize = args.get(
        "inject-at",
        match inject {
            "truncate" => wal_bytes * 2 / 3,
            "bitflip" => wal_bytes.saturating_sub(3),
            _ => 0,
        },
    );
    match inject {
        "truncate" => {
            let mut bytes = std::fs::read(&wal).expect("live segment");
            bytes.truncate(inject_at.min(bytes.len()));
            std::fs::write(&wal, bytes).expect("injected truncation");
        }
        "bitflip" => {
            let mut bytes = std::fs::read(&wal).expect("live segment");
            if bytes.is_empty() {
                args.fail("--inject bitflip: no event follows the last checkpoint");
            }
            let at = inject_at.min(bytes.len() - 1);
            bytes[at] ^= 0x01;
            std::fs::write(&wal, bytes).expect("injected bit flip");
        }
        _ => {}
    }

    // Phase 3 — recover (the timed region CI tracks) and complete the
    // trace, certifying every re-applied event against the golden
    // stream.
    let start = Instant::now();
    let (mut recovered, report) = match DurableHealer::<ForgivingGraph>::open(&store_dir, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("recovery refused: {e}");
            std::process::exit(1);
        }
    };
    let recovery_seconds = start.elapsed().as_secs_f64();

    let survived = (report.epoch - base_epoch) as usize;
    let start = Instant::now();
    for (i, event) in sc.events.iter().enumerate().skip(survived) {
        let outcome = recovered.apply_event(event).expect("legal trace event");
        let digest = outcome.digest();
        if digest != build_digests[i] {
            eprintln!(
                "digest drift at event {i} after recovery: crash-free run produced \
                 {:016x}, recovered run produced {digest:016x}",
                build_digests[i]
            );
            std::process::exit(DRIFT);
        }
    }
    let completion_seconds = start.elapsed().as_secs_f64();
    recovered.sync().expect("final sync");

    let report_json = Json::obj()
        .field("bench", Json::str("recover_trace"))
        .field("trace", Json::str(path))
        .field("events", Json::Int(sc.events.len() as i64))
        .field("host_cpus", Json::Int(fg_bench::host_cpus() as i64))
        .field("checkpoint_every", Json::Int(checkpoint_every as i64))
        .field("sync_every", Json::Int(sync_every as i64))
        .field("wal_bytes", Json::Int(wal_bytes as i64))
        .field(
            "inject",
            Json::obj()
                .field("mode", Json::str(inject))
                .field("at", Json::Int(inject_at as i64)),
        )
        .field("build_wall_seconds", Json::Float(build_seconds))
        .field(
            "recovery",
            Json::obj()
                .field("wall_seconds", Json::Float(recovery_seconds))
                .field("snapshot_seq", Json::Int(report.snapshot_seq as i64))
                .field("replayed", Json::Int(report.replayed as i64))
                .field(
                    "dropped_uncommitted",
                    Json::Int(report.dropped_uncommitted as i64),
                )
                .field("truncated_bytes", Json::Int(report.truncated_bytes as i64))
                .field("torn_tail", Json::Bool(report.torn_tail))
                .field(
                    "events_replayed_per_sec",
                    Json::Float(fg_bench::rate(report.replayed as f64, recovery_seconds)),
                ),
        )
        .field(
            "completion",
            Json::obj()
                .field("events", Json::Int((sc.events.len() - survived) as i64))
                .field("wall_seconds", Json::Float(completion_seconds)),
        )
        .field(
            "golden_digests",
            match &golden {
                Some((name, d)) => Json::obj()
                    .field("file", Json::str(name))
                    .field("checked", Json::Int(d.len() as i64))
                    .field("matched", Json::Bool(true)),
                None => Json::Null,
            },
        );
    println!("{}", report_json.compact());
    if let Some(out) = args.json_path() {
        write_artifact(out, &report_json);
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}
