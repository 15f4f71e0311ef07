//! repl_node — a killable master / verifying replica process pair for
//! the CI replication gate.
//!
//! **Master** (`--role master`): opens (or creates) a durable store at
//! `--dir`, binds an FGQ1 write-master server and an FGR1 replication
//! listener on ephemeral loopback ports (written to `--ports`, one
//! address per line), then applies the deterministic scenario trace up
//! to `--to` through the writer thread — appending one
//! `"<applied> <epoch> <chain:016x>"` line per committed batch to
//! `--golden` (the golden digest stream). With `--linger 1` it then
//! parks serving until killed; CI `kill -9`s it here, restarts it with
//! a larger `--to`, and the recovered store resumes exactly where the
//! acknowledged stream left off (the golden file is append-only across
//! lives). On restart the already-applied prefix is detected from the
//! recovered epoch and skipped.
//!
//! **Replica** (`--role replica`): bootstraps a replica store at
//! `--dir` from the master's FGR1 port, syncs to caught-up, and then
//! **gates**: the replica's `(applied, epoch, chain)` must equal the
//! last line of the master's golden stream, every probe answer served
//! by the replica over FGQ1 must be bit-identical (body and stamp) to
//! the master's answer for the same request, and with `--check-dist 1`
//! an in-memory replay of the same trace prefix on the message-passing
//! backend must chain to the same certificate. Exits nonzero on any
//! divergence; `--json` records the verdict.
//!
//! Shared flags: `--workload churn --n 256 --events 4000 --seed 41
//! --batch 32` — both roles must agree so the trace is identical.
//! `--role`, `--dir`, `--ports` and `--golden` are required; a missing
//! or unknown one, an unregistered `--workload`, a master's `--ports` or
//! `--golden` in a directory that does not exist, or a replica's
//! `--ports` file that cannot be read or does not hold two socket
//! addresses, or a `--golden` file that cannot be opened, exits 2 with
//! usage before any work. A master whose `--ports` or `--golden` cannot
//! be written exits 1 before it creates or opens its store. The golden
//! stream grows while the master runs, so a replica judges its content
//! only after the sync: an empty or malformed tail, or one past the
//! trace's end, fails the gate (exit 1), naming the line.

use fg_bench::json::Json;
use fg_bench::{or_exit, probe_pairs, scenario, write_artifact, BenchArgs};
use fg_core::{ForgivingGraph, NetworkEvent, PlacementPolicy, SelfHealer};
use fg_dist::DistHealer;
use fg_serve::{
    spawn_writer, Client, Publisher, ReplicaNode, Request, Server, ServerConfig, WriteJob,
};
use fg_store::{DurableHealer, DurableOptions, ReplListener};
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc::channel;

fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: None,
        sync_every: 1,
    }
}

fn main() {
    let args = BenchArgs::parse(&[
        "role",
        "dir",
        "ports",
        "to",
        "golden",
        "linger",
        "probes",
        "check-dist",
        "workload",
        "n",
        "events",
        "batch",
    ]);
    match args.required("role") {
        "master" => master(&args),
        "replica" => replica(&args),
        other => args.fail(&format!("--role {other:?} is not master or replica")),
    }
}

fn trace(args: &BenchArgs) -> (fg_graph::Graph, Vec<NetworkEvent>) {
    let workload = args.raw("workload").unwrap_or("churn");
    args.check_workloads(&[workload]);
    let n = args.get("n", 256usize);
    let events = args.get("events", 4_000usize);
    let seed = args.seed(41);
    let sc = scenario(workload, n, events, seed);
    (sc.initial, sc.events)
}

fn master(args: &BenchArgs) {
    let dir = args.required("dir");
    let ports = args.required("ports");
    let golden = args.required("golden");
    args.check_outputs(&["ports", "golden"]);
    let (initial, events) = trace(args);
    let to = args.get("to", events.len()).min(events.len());
    let batch = args.get("batch", 32usize).max(1);
    let linger = args.get("linger", 0u8) != 0;

    // Both output files are created before the store is, so a path that
    // cannot be written leaves no store behind. The ports file starts
    // empty: CI waits for it to be non-empty.
    or_exit(
        std::fs::write(ports, ""),
        &format!("writing --ports {ports}"),
    );
    // fg-lint: allow(blessed-io): bench harness golden-file artifact; CI compares contents, crash-durability is not at stake
    let golden_file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(golden);
    let mut golden_file = or_exit(golden_file, &format!("opening --golden {golden}"));

    // First life creates the store; later lives recover it — every
    // acknowledged event replays, so the applied prefix is derivable
    // from the recovered epoch.
    let base_epoch = ForgivingGraph::from_graph(&initial).unwrap().epoch();
    let durable = if fg_store::read_manifest(Path::new(dir)).is_ok() {
        let (durable, report) = DurableHealer::<ForgivingGraph>::open(Path::new(dir), opts())
            .expect("recover master store");
        eprintln!(
            "repl_node master: recovered epoch {} ({} replayed)",
            report.epoch, report.replayed
        );
        durable
    } else {
        DurableHealer::create(
            ForgivingGraph::from_graph(&initial).unwrap(),
            Path::new(dir),
            opts(),
        )
        .expect("create master store")
    };
    let applied = (durable.epoch() - base_epoch) as usize;
    assert!(applied <= to, "store is ahead of --to; wrong trace flags?");

    let publisher = Publisher::from_durable(durable);
    let hub = publisher.hub();
    let (writer, writer_handle) = spawn_writer(publisher, 16);
    let server = Server::bind_master(
        ("127.0.0.1", 0),
        hub,
        writer.clone(),
        ServerConfig::default(),
    )
    .expect("bind FGQ1 master");
    let listener = ReplListener::bind("127.0.0.1:0", Path::new(dir)).expect("bind FGR1");
    or_exit(
        std::fs::write(
            ports,
            format!("{}\n{}\n", server.addr(), listener.local_addr()),
        ),
        &format!("writing --ports {ports}"),
    );
    eprintln!(
        "repl_node master: fgq {} fgr {} (applied {applied}/{to})",
        server.addr(),
        listener.local_addr()
    );

    let mut total = applied;
    for chunk in events[applied..to].chunks(batch) {
        let (reply_tx, reply_rx) = channel();
        writer
            .send(WriteJob {
                events: chunk.to_vec(),
                reply: reply_tx,
            })
            .expect("writer alive");
        let ack = reply_rx
            .recv()
            .expect("writer alive")
            .expect("legal trace applies");
        total += ack.applied;
        let line = writeln!(golden_file, "{total} {} {:016x}", ack.epoch, ack.digest)
            .and_then(|()| golden_file.flush());
        or_exit(line, "appending to --golden");
    }
    eprintln!("repl_node master: applied through {total}, golden stream flushed");

    if linger {
        // Serve until killed (CI kill -9 lands here).
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    server.shutdown();
    drop(writer);
    writer_handle.join().expect("writer joins");
    drop(listener);
}

fn replica(args: &BenchArgs) {
    let dir = args.required("dir");
    let ports = args.required("ports");
    let golden = args.required("golden");
    let (initial, events) = trace(args);
    let probes = args.get("probes", 64usize);
    let check_dist = args.get("check-dist", 1u8) != 0;
    let batch = args.get("batch", 32usize).max(1);

    // The master's two addresses, parsed before anything connects.
    let ports_text = std::fs::read_to_string(ports)
        .unwrap_or_else(|e| args.fail(&format!("cannot read --ports {ports}: {e}")));
    let mut lines = ports_text.lines();
    let mut addr = |line: usize, what: &str| -> SocketAddr {
        let text = lines.next().unwrap_or_default().trim();
        text.parse().unwrap_or_else(|_| {
            args.fail(&format!(
                "--ports {ports}: line {line}: {text:?} is not the master's {what} address"
            ))
        })
    };
    let fgq_addr = addr(1, "FGQ1");
    let fgr_addr = addr(2, "FGR1");
    if let Err(e) = std::fs::File::open(golden) {
        args.fail(&format!("cannot read --golden {golden}: {e}"));
    }

    let (mut node, report) =
        ReplicaNode::<ForgivingGraph>::bootstrap(fgr_addr, Path::new(dir), opts())
            .expect("bootstrap replica");
    eprintln!(
        "repl_node replica: local store at epoch {} ({} replayed)",
        report.epoch, report.replayed
    );
    let synced = node.sync_to_caught_up().expect("sync to caught up");
    eprintln!(
        "repl_node replica: streamed {synced} records to epoch {}",
        node.epoch()
    );

    // Gate 1: the replica's certificate equals the tail of the master's
    // golden digest stream.
    let tail = std::fs::read_to_string(golden)
        .map_err(|e| format!("cannot read --golden {golden}: {e}"))
        .and_then(|text| golden_tail(&text, events.len()));
    let (golden_applied, golden_epoch, golden_chain) = tail.unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(1)
    });
    let mut mismatches = 0usize;
    if (node.epoch(), node.chain_digest()) != (golden_epoch, golden_chain) {
        eprintln!(
            "FAIL: replica certificate ({}, {:016x}) != golden tail ({golden_epoch}, {golden_chain:016x})",
            node.epoch(),
            node.chain_digest()
        );
        mismatches += 1;
    }

    // Gate 2: every served replica answer is bit-identical (body and
    // stamp) to the master's, over all seven wire ops.
    let replica_server = Server::bind(("127.0.0.1", 0), node.hub(), ServerConfig::default())
        .expect("bind replica FGQ1");
    let mut replica_client = Client::connect(replica_server.addr()).expect("connect replica");
    let mut master_client = Client::connect(fgq_addr).expect("connect master");
    let universe = (initial.nodes_ever() + events.len()).max(2);
    let mut checked = 0usize;
    for (u, v) in probe_pairs(universe, 0, probes) {
        for request in [
            Request::Epoch,
            Request::Distance(u, v),
            Request::Path(u, v),
            Request::Stretch(u, v),
            Request::Degree(u),
            Request::Neighbors(u),
            Request::SameComponent(u, v),
        ] {
            let from_replica = replica_client.roundtrip(&request).expect("replica answers");
            let from_master = master_client.roundtrip(&request).expect("master answers");
            if from_replica != from_master {
                eprintln!("FAIL: divergent answer for {request:?}");
                mismatches += 1;
            }
            if (from_replica.epoch, from_replica.digest) != (golden_epoch, golden_chain) {
                eprintln!("FAIL: replica stamp off the golden stream for {request:?}");
                mismatches += 1;
            }
            checked += 1;
        }
    }

    // Gate 3: the other backend chains to the same certificate over the
    // same applied prefix.
    let mut dist_equal = true;
    if check_dist {
        let mut golden_replay =
            Publisher::new(DistHealer::from_graph(&initial, PlacementPolicy::Adjacent));
        for chunk in events[..golden_applied].chunks(batch) {
            let _ = golden_replay.apply_and_publish(chunk).expect("legal trace");
        }
        dist_equal = golden_replay.digest() == node.chain_digest()
            && golden_replay.hub().epoch() == node.epoch();
        if !dist_equal {
            eprintln!("FAIL: dist-backend replay certificate diverges");
            mismatches += 1;
        }
    }

    println!(
        "repl_node replica: {checked} probe answers checked, {mismatches} mismatches, \
         certificate ({}, {:016x})",
        node.epoch(),
        node.chain_digest()
    );
    if let Some(path) = args.json_path() {
        let doc = Json::obj()
            .field("synced_records", Json::Int(synced as i64))
            .field("epoch", Json::Int(node.epoch() as i64))
            .field("chain", Json::str(format!("{:016x}", node.chain_digest())))
            .field("golden_applied", Json::Int(golden_applied as i64))
            .field("probe_answers", Json::Int(checked as i64))
            .field("mismatches", Json::Int(mismatches as i64))
            .field("dist_replay_equal", Json::Bool(dist_equal));
        write_artifact(path, &doc);
    }
    replica_server.shutdown();
    if mismatches > 0 {
        std::process::exit(1);
    }
}

/// The `(applied, epoch, chain)` on the last line of a golden stream,
/// as the master writes it (`<applied> <epoch> <chain:016x>`), for a
/// trace of `trace_len` events.
///
/// # Errors
///
/// An empty stream, or a last line that is not three such fields or
/// counts more events than the trace holds, named by its number.
fn golden_tail(text: &str, trace_len: usize) -> Result<(usize, u64, u64), String> {
    let (k, line) = text
        .lines()
        .enumerate()
        .last()
        .ok_or("the golden stream is empty")?;
    let bad = |why: &str| format!("--golden line {}: {line:?} {why}", k + 1);
    let malformed = || bad("is not \"<applied> <epoch> <chain>\"");
    let [applied, epoch, chain] = line.split_whitespace().collect::<Vec<_>>()[..] else {
        return Err(malformed());
    };
    let applied: usize = applied.parse().map_err(|_| malformed())?;
    if applied > trace_len {
        return Err(bad(&format!(
            "counts more than the trace's {trace_len} events"
        )));
    }
    Ok((
        applied,
        epoch.parse().map_err(|_| malformed())?,
        u64::from_str_radix(chain, 16).map_err(|_| malformed())?,
    ))
}

#[cfg(test)]
mod tests {
    use super::golden_tail;

    #[test]
    fn golden_tail_reads_the_last_line_or_names_the_bad_one() {
        let good = "1 5 00000000000000aa\n3 9 00000000000000ff\n";
        assert_eq!(golden_tail(good, 3), Ok((3, 9, 0xff)));
        assert_eq!(golden_tail("", 3), Err("the golden stream is empty".into()));
        let refused = |text: &str| golden_tail(text, 3).unwrap_err();
        assert!(refused("1 5 aa\n3 9").starts_with("--golden line 2: \"3 9\" is not"));
        assert!(refused("1 5 aa 7").starts_with("--golden line 1: "));
        assert!(refused("1 5 0xzz").starts_with("--golden line 1: \"1 5 0xzz\" is not"));
        assert!(refused("x 5 aa").starts_with("--golden line 1: "));
        assert!(refused("4 9 ff").ends_with("counts more than the trace's 3 events"));
    }
}
