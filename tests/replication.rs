//! End-to-end replication differential: a write-master serving FGQ1
//! (reads + submit ops) while shipping its WAL over FGR1 to a replica
//! that serves the same reads — every replica answer must be
//! **bit-identical** to the master's at the same epoch, stamped with
//! the same `(epoch, digest)` certificate, and the whole digest stream
//! must match an independent in-memory replay on the message-passing
//! backend (the digest chain is backend- and batching-invariant).
//!
//! Also exercised: the master is "kill -9"-ed mid-stream (server,
//! writer, and replication listener dropped with no checkpoint), its
//! store recovered, and the replica reconnects and re-syncs — landing
//! on the identical certificate again.

use forgiving_graph::bench::{probe_pairs, scenario};
use forgiving_graph::core::{ForgivingGraph, NetworkEvent, PlacementPolicy};
use forgiving_graph::dist::DistHealer;
use forgiving_graph::graph::NodeId;
use forgiving_graph::serve::{
    spawn_writer, Client, Publisher, ReplicaNode, Request, ResponseBody, Server, ServerConfig,
};
use forgiving_graph::store::{DurableHealer, DurableOptions, ReplListener, MAX_REPL_HANDLERS};
use std::fs;
use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fg-e2e-repl-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: None,
        sync_every: 1,
    }
}

/// All seven wire ops for one probe pair.
fn ops(u: NodeId, v: NodeId) -> [Request; 7] {
    [
        Request::Epoch,
        Request::Distance(u, v),
        Request::Path(u, v),
        Request::Stretch(u, v),
        Request::Degree(u),
        Request::Neighbors(u),
        Request::SameComponent(u, v),
    ]
}

/// Probes every op for every pair against one server, asserting a
/// constant `(epoch, digest)` stamp; returns the stamp and the bodies.
fn probe(
    label: &str,
    client: &mut Client,
    pairs: &[(NodeId, NodeId)],
) -> (u64, u64, Vec<ResponseBody>) {
    let stamp = client.epoch().expect("epoch roundtrip");
    let mut answers = Vec::new();
    for &(u, v) in pairs {
        for request in ops(u, v) {
            let served = client.roundtrip(&request).expect("roundtrip");
            assert_eq!(served.epoch, stamp.epoch, "{label}: ({u},{v}) stamp epoch");
            assert_eq!(
                served.digest, stamp.digest,
                "{label}: ({u},{v}) stamp digest"
            );
            answers.push(served.value);
        }
    }
    (stamp.epoch, stamp.digest, answers)
}

/// Polls `cond` until it holds or `deadline` elapses (handler
/// bookkeeping is asynchronous to the accept loop).
fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A master store directory with `events` applied and committed, plus a
/// replication listener over it. The publisher must stay alive for the
/// WAL to remain the listener's source of truth.
fn master_with_history(
    dir: &std::path::Path,
    sc: &forgiving_graph::bench::Scenario,
) -> (Publisher<DurableHealer<ForgivingGraph>>, ReplListener) {
    let durable = DurableHealer::create(
        ForgivingGraph::from_graph(&sc.initial).unwrap(),
        dir,
        opts(),
    )
    .unwrap();
    let mut publisher = Publisher::from_durable(durable);
    let report = publisher.stage(&sc.events).expect("legal trace");
    publisher.commit_and_publish();
    assert_eq!(report.outcomes.len(), sc.events.len());
    let repl = ReplListener::bind("127.0.0.1:0", dir).unwrap();
    (publisher, repl)
}

#[test]
fn stalled_connection_does_not_block_other_replicas() {
    let sc = scenario("churn", 24, 96, 31);
    let master_dir = temp_dir("stall-master");
    let replica_dir = temp_dir("stall-replica");
    let (publisher, repl) = master_with_history(&master_dir, &sc);

    // A peer that connects and never sends a byte occupies one handler…
    let stalled = TcpStream::connect(repl.local_addr()).unwrap();
    wait_until(
        "the stalled handler to register",
        Duration::from_secs(10),
        || repl.active_handlers() == 1,
    );

    // …while a real replica bootstraps and fully catches up past it —
    // the accept loop fans out instead of serving one peer at a time.
    let (mut node, _) =
        ReplicaNode::<ForgivingGraph>::bootstrap(repl.local_addr(), &replica_dir, opts()).unwrap();
    assert_eq!(node.sync_to_caught_up().unwrap(), sc.events.len());
    assert!(repl.active_handlers() >= 1, "stalled handler still held");

    drop(stalled);
    drop(node);
    drop(repl);
    drop(publisher);
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}

#[test]
fn two_replicas_catch_up_concurrently() {
    let sc = scenario("churn", 32, 128, 37);
    let master_dir = temp_dir("conc-master");
    let (publisher, repl) = master_with_history(&master_dir, &sc);
    let addr = repl.local_addr();
    let expected = sc.events.len();

    // Both replicas sync through the same listener at the same time;
    // the barrier makes the overlap real rather than accidental.
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = [temp_dir("conc-replica-a"), temp_dir("conc-replica-b")]
        .into_iter()
        .map(|dir| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let (mut node, _) =
                    ReplicaNode::<ForgivingGraph>::bootstrap(addr, &dir, opts()).unwrap();
                let applied = node.sync_to_caught_up().unwrap();
                let epoch = node.hub().epoch();
                drop(node);
                (dir, applied, epoch)
            })
        })
        .collect();

    let mut epochs = Vec::new();
    for handle in handles {
        let (dir, applied, epoch) = handle.join().unwrap();
        assert_eq!(applied, expected, "each replica applies the whole history");
        epochs.push(epoch);
        fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(epochs[0], epochs[1], "both replicas land on the same epoch");

    drop(repl);
    drop(publisher);
    fs::remove_dir_all(&master_dir).unwrap();
}

#[test]
fn accept_loop_bounds_handler_fan_out() {
    let sc = scenario("churn", 16, 24, 41);
    let master_dir = temp_dir("cap-master");
    let replica_dir = temp_dir("cap-replica");
    let (publisher, repl) = master_with_history(&master_dir, &sc);
    let addr = repl.local_addr();

    // Fill every handler slot with idle connections.
    let conns: Vec<TcpStream> = (0..MAX_REPL_HANDLERS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    wait_until(
        "the fleet to fill every slot",
        Duration::from_secs(30),
        || repl.active_handlers() == MAX_REPL_HANDLERS,
    );

    // One past the cap is closed without service, not queued.
    let mut extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut byte = [0u8; 1];
    match extra.read(&mut byte) {
        Ok(0) | Err(_) => {} // EOF or reset: refused, as designed.
        Ok(_) => panic!("an over-cap connection must not be served"),
    }
    assert_eq!(repl.active_handlers(), MAX_REPL_HANDLERS);

    // Releasing the fleet frees the slots and service resumes.
    drop(conns);
    wait_until("handlers to drain", Duration::from_secs(30), || {
        repl.active_handlers() == 0
    });
    let (mut node, _) =
        ReplicaNode::<ForgivingGraph>::bootstrap(addr, &replica_dir, opts()).unwrap();
    assert_eq!(node.sync_to_caught_up().unwrap(), sc.events.len());

    drop(node);
    drop(repl);
    drop(publisher);
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}

#[test]
fn replica_serves_bit_identically_to_master_on_both_backends() {
    let sc = scenario("churn", 40, 240, 17);
    let master_dir = temp_dir("diff-master");
    let replica_dir = temp_dir("diff-replica");
    let pairs = probe_pairs(sc.initial.nodes_ever() + sc.events.len(), 0xfeed, 16);

    // The write master: durable store + writer thread + FGQ1 server +
    // FGR1 replication listener over the same store directory.
    let durable = DurableHealer::create(
        ForgivingGraph::from_graph(&sc.initial).unwrap(),
        &master_dir,
        opts(),
    )
    .unwrap();
    let publisher = Publisher::from_durable(durable);
    let hub = publisher.hub();
    let (writer, writer_handle) = spawn_writer(publisher, 16);
    let master = Server::bind_master(
        ("127.0.0.1", 0),
        hub,
        writer.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let repl = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();

    // An independent in-memory replay on the OTHER backend, advanced in
    // lockstep: the golden digest stream every ack must match.
    let mut golden = Publisher::new(DistHealer::from_graph(
        &sc.initial,
        PlacementPolicy::Adjacent,
    ));

    // Drive the whole trace through the wire as submit-batches.
    let mut client = Client::connect(master.addr()).unwrap();
    for chunk in sc.events.chunks(32) {
        let ack = client.submit_batch(chunk.to_vec()).expect("legal trace");
        assert_eq!(ack.value as usize, chunk.len());
        let _ = golden.apply_and_publish(chunk).expect("legal trace");
        assert_eq!(
            (ack.epoch, ack.digest),
            (golden.hub().epoch(), golden.digest()),
            "master ack stamp must match the in-memory golden digest stream"
        );
    }

    // The replica bootstraps from the master's checkpoint, streams the
    // WAL, and serves reads from its own published snapshots.
    let (mut node, _) =
        ReplicaNode::<ForgivingGraph>::bootstrap(repl.local_addr(), &replica_dir, opts()).unwrap();
    assert_eq!(node.sync_to_caught_up().unwrap(), sc.events.len());
    let replica = Server::bind(("127.0.0.1", 0), node.hub(), ServerConfig::default()).unwrap();

    // Differential: all seven ops, bit-identical answers, identical
    // certificates, across master / replica / in-memory golden server.
    let mut master_client = Client::connect(master.addr()).unwrap();
    let mut replica_client = Client::connect(replica.addr()).unwrap();
    let golden_server =
        Server::bind(("127.0.0.1", 0), golden.hub(), ServerConfig::default()).unwrap();
    let mut golden_client = Client::connect(golden_server.addr()).unwrap();

    let master_run = probe("master", &mut master_client, &pairs);
    let replica_run = probe("replica", &mut replica_client, &pairs);
    let golden_run = probe("golden", &mut golden_client, &pairs);
    assert_eq!(master_run, replica_run, "replica must be bit-identical");
    assert_eq!(master_run, golden_run, "backends must be bit-identical");

    // A write sent to the replica is refused typed; the master still
    // accepts on the same kind of connection.
    assert!(replica_client
        .submit_event(NetworkEvent::insert([NodeId::new(0)]))
        .is_err());

    drop(client);
    master.shutdown();
    replica.shutdown();
    golden_server.shutdown();
    drop(repl);
    drop(writer);
    writer_handle.join().unwrap();
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}

#[test]
fn replica_resyncs_after_master_kill_and_restart_mid_stream() {
    let sc = scenario("churn", 32, 160, 23);
    let (half, rest) = sc.events.split_at(sc.events.len() / 2);
    let master_dir = temp_dir("kill-master");
    let replica_dir = temp_dir("kill-replica");
    let pairs = probe_pairs(sc.initial.nodes_ever() + sc.events.len(), 0xbeef, 12);

    // First life: apply the first half through the write path, let the
    // replica catch up.
    let durable = DurableHealer::create(
        ForgivingGraph::from_graph(&sc.initial).unwrap(),
        &master_dir,
        opts(),
    )
    .unwrap();
    let publisher = Publisher::from_durable(durable);
    let hub = publisher.hub();
    let (writer, writer_handle) = spawn_writer(publisher, 16);
    let master = Server::bind_master(
        ("127.0.0.1", 0),
        hub,
        writer.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let repl = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();
    let mut client = Client::connect(master.addr()).unwrap();
    for chunk in half.chunks(16) {
        let _ = client.submit_batch(chunk.to_vec()).expect("legal trace");
    }
    let (mut node, _) =
        ReplicaNode::<ForgivingGraph>::bootstrap(repl.local_addr(), &replica_dir, opts()).unwrap();
    assert_eq!(node.sync_to_caught_up().unwrap(), half.len());

    // "kill -9": server, writer, and listener all die with no
    // checkpoint; only the fsynced store directory survives.
    drop(client);
    master.shutdown();
    drop(repl);
    drop(writer);
    let publisher = writer_handle.join().unwrap();
    drop(publisher);

    // Second life: recover the store (every acked event replays), serve
    // again on fresh ports, apply the rest.
    let (durable, report) = DurableHealer::<ForgivingGraph>::open(&master_dir, opts()).unwrap();
    assert_eq!(report.replayed, half.len());
    let publisher = Publisher::from_durable(durable);
    let hub = publisher.hub();
    let (writer, writer_handle) = spawn_writer(publisher, 16);
    let master = Server::bind_master(
        ("127.0.0.1", 0),
        hub,
        writer.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let repl = ReplListener::bind("127.0.0.1:0", &master_dir).unwrap();
    let mut client = Client::connect(master.addr()).unwrap();
    for chunk in rest.chunks(16) {
        let _ = client.submit_batch(chunk.to_vec()).expect("legal trace");
    }

    // The replica's old connection died with the first master; its
    // bootstrap recovered its own store, and a reconnect against the
    // new port re-syncs the remainder.
    let (mut node, report) =
        ReplicaNode::<ForgivingGraph>::bootstrap(repl.local_addr(), &replica_dir, opts()).unwrap();
    assert_eq!(report.replayed, half.len(), "replica recovers its own WAL");
    assert_eq!(node.sync_to_caught_up().unwrap(), rest.len());
    drop(node);

    let (node, _) =
        ReplicaNode::<ForgivingGraph>::bootstrap(repl.local_addr(), &replica_dir, opts()).unwrap();
    let replica = Server::bind(("127.0.0.1", 0), node.hub(), ServerConfig::default()).unwrap();
    let mut master_client = Client::connect(master.addr()).unwrap();
    let mut replica_client = Client::connect(replica.addr()).unwrap();
    let master_run = probe("master", &mut master_client, &pairs);
    let replica_run = probe("replica", &mut replica_client, &pairs);
    assert_eq!(
        master_run, replica_run,
        "post-restart replica must serve bit-identically with the master's certificate"
    );

    drop(client);
    master.shutdown();
    replica.shutdown();
    drop(repl);
    drop(writer);
    writer_handle.join().unwrap();
    fs::remove_dir_all(&master_dir).unwrap();
    fs::remove_dir_all(&replica_dir).unwrap();
}
