//! Server-liveness regressions and the write path: a panicking
//! connection must never take a worker (or the server) down, shutdown
//! must complete behind a wildcard (`0.0.0.0`) bind, FGQ1 write ops
//! must round-trip on a master / answer typed `NotMaster` refusals on a
//! read-only server — in both cases leaving the connection usable — and
//! writes queued behind the writer commit as one group yet are each
//! acknowledged at their own epoch.

use fg_core::{ForgivingGraph, NetworkEvent, SelfHealer};
use fg_graph::{generators, NodeId};
use fg_serve::{
    spawn_writer, Client, ErrorCode, Publisher, Request, ServeError, Server, ServerConfig,
    WriteAck, WriteJob,
};
use fg_store::{DurableHealer, DurableOptions};
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fg-serve-res-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: None,
        sync_every: 1,
    }
}

#[test]
fn a_panicking_connection_is_isolated_and_counted() {
    let engine = ForgivingGraph::from_graph(&generators::star(9)).unwrap();
    let publisher = Publisher::new(engine);
    let hub = publisher.hub();
    // One reader: if the panic killed the worker, nothing could ever be
    // served again — the strongest form of the isolation claim.
    let config = ServerConfig {
        readers: 1,
        panic_on_request_id: Some(0xdead),
    };
    let server = Server::bind(("127.0.0.1", 0), hub, config).unwrap();
    let addr = server.addr();

    // Trip the crash hook: the connection dies without a response.
    let mut victim = Client::connect(addr).unwrap();
    victim
        .stream()
        .write_all(&Request::Epoch.to_frame(0xdead))
        .unwrap();
    match victim.recv() {
        Err(ServeError::Disconnected) => {}
        other => panic!("panicked connection must just drop, got {other:?}"),
    }

    // The same lone worker keeps serving fresh connections.
    let mut client = Client::connect(addr).unwrap();
    let stamped = client.distance(NodeId::new(1), NodeId::new(2)).unwrap();
    assert_eq!(stamped.value, Some(2));
    assert_eq!(server.stats().connection_panics(), 1);
    server.shutdown();
}

#[test]
fn shutdown_completes_behind_a_wildcard_bind() {
    let engine = ForgivingGraph::from_graph(&generators::cycle(6)).unwrap();
    let publisher = Publisher::new(engine);
    // The regression: the shutdown wake used to connect to the bound
    // address verbatim, and connecting to 0.0.0.0 is non-portable — on
    // platforms where it fails outright the acceptor never wakes and
    // shutdown() hangs in join. The wake must rewrite to loopback.
    let server = Server::bind(("0.0.0.0", 0), publisher.hub(), ServerConfig::default()).unwrap();
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown wedged behind a 0.0.0.0 bind");
}

#[test]
fn read_only_server_refuses_writes_typed_and_stays_usable() {
    let engine = ForgivingGraph::from_graph(&generators::star(9)).unwrap();
    let publisher = Publisher::new(engine);
    let server = Server::bind(("127.0.0.1", 0), publisher.hub(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    match client.submit_event(NetworkEvent::insert([NodeId::new(1)])) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotMaster),
        other => panic!("expected a NotMaster frame, got {other:?}"),
    }
    match client.submit_batch(vec![NetworkEvent::delete(NodeId::new(3))]) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotMaster),
        other => panic!("expected a NotMaster frame, got {other:?}"),
    }
    // The refusal is op-level: the same connection still answers reads.
    let stamped = client.distance(NodeId::new(1), NodeId::new(2)).unwrap();
    assert_eq!(stamped.value, Some(2));
    server.shutdown();
}

#[test]
fn master_applies_writes_and_acks_with_post_apply_stamps() {
    let dir = temp_dir("master-writes");
    let engine = ForgivingGraph::from_graph(&generators::star(9)).unwrap();
    let durable = DurableHealer::create(engine, &dir, opts()).unwrap();
    let base_epoch = durable.epoch();
    let publisher = Publisher::from_durable(durable);
    let hub = publisher.hub();
    let (writer, writer_handle) = spawn_writer(publisher, 16);
    let server = Server::bind_master(
        ("127.0.0.1", 0),
        hub,
        writer.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // One event: the ack's stamp is the post-apply epoch.
    let ack = client
        .submit_event(NetworkEvent::insert([NodeId::new(1), NodeId::new(2)]))
        .unwrap();
    assert_eq!(ack.epoch, base_epoch + 1);

    // A batch: applied count and a further-advanced stamp.
    let batch = client
        .submit_batch(vec![
            NetworkEvent::insert([NodeId::new(0)]),
            NetworkEvent::delete(NodeId::new(3)),
        ])
        .unwrap();
    assert_eq!(batch.value, 2);
    assert_eq!(batch.epoch, base_epoch + 3);

    // Read-your-writes: the read stamp matches the last ack, and the
    // write is visible.
    let read = client.degree(NodeId::new(1)).unwrap();
    assert_eq!(read.epoch, batch.epoch);
    assert_eq!(read.digest, batch.digest);

    // An engine-refused write answers WriteFailed and keeps the
    // connection (deleting an already-dead node).
    match client.submit_event(NetworkEvent::delete(NodeId::new(3))) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::WriteFailed),
        other => panic!("expected a WriteFailed frame, got {other:?}"),
    }
    let still = client.epoch().unwrap();
    assert_eq!(still.epoch, batch.epoch);

    // Orderly teardown hands the durable store back via the writer.
    server.shutdown();
    drop(writer);
    let publisher = writer_handle.join().unwrap();
    let durable = publisher.into_healer();
    assert_eq!(durable.epoch(), base_epoch + 3);
    drop(durable);

    // Everything acked is on disk: recovery replays it.
    let (recovered, report) = DurableHealer::<ForgivingGraph>::open(&dir, opts()).unwrap();
    assert_eq!(report.epoch, base_epoch + 3);
    drop(recovered);
    fs::remove_dir_all(&dir).unwrap();
}

/// Jobs queued behind the writer share one WAL write, fsync and
/// publish, yet each is acknowledged with the stamp right after its own
/// last event: the stamps a one-event-at-a-time in-memory replay
/// reaches. A job failing midway answers an error with its applied
/// prefix durable, and the log is byte-for-byte the one committing the
/// jobs one at a time writes.
#[test]
fn queued_writes_commit_as_one_group_with_per_job_acks() {
    let base = ForgivingGraph::from_graph(&generators::cycle(400)).unwrap();
    let base_epoch = base.epoch();
    let n = NodeId::new;
    // The first job is long, so the others queue while the writer
    // applies it. The third fails at its second event: node 7 is dead.
    let jobs: Vec<Vec<NetworkEvent>> = vec![
        (0..300u32)
            .map(|i| match i % 3 {
                0 => NetworkEvent::delete(n(200 + i / 3)),
                _ => NetworkEvent::insert([n(i / 3), n(i / 3 + 1)]),
            })
            .collect(),
        vec![
            NetworkEvent::delete(n(7)),
            NetworkEvent::insert([n(8), n(9)]),
        ],
        vec![
            NetworkEvent::insert([n(10)]),
            NetworkEvent::delete(n(7)),
            NetworkEvent::insert([n(11)]),
        ],
        vec![NetworkEvent::delete(n(20))],
        vec![
            NetworkEvent::insert([n(21), n(30)]),
            NetworkEvent::delete(n(30)),
        ],
    ];
    let (failing, prefix) = (2, 1);

    // The reference: every applied event, the failing job's prefix
    // included, published one at a time by an in-memory publisher.
    let mut reference = Publisher::new(base.clone());
    let mut stamps = Vec::new();
    for (j, events) in jobs.iter().enumerate() {
        let applied = if j == failing { prefix } else { events.len() };
        for event in &events[..applied] {
            let _ = reference
                .apply_and_publish(std::slice::from_ref(event))
                .unwrap();
        }
        stamps.push((reference.hub().epoch(), reference.digest()));
    }
    let check = |j: usize, answer: Result<WriteAck, String>| match answer {
        Ok(ack) => {
            assert_ne!(j, failing);
            assert_eq!(ack.applied, jobs[j].len(), "job {j}");
            assert_eq!((ack.epoch, ack.digest), stamps[j], "job {j}");
        }
        Err(detail) => {
            assert_eq!(j, failing, "job {j}: {detail}");
            assert!(detail.starts_with("batch event #1"), "{detail}");
        }
    };

    // Through the writer: queue every job at once. A failed job's error
    // is what the server frames as `WriteFailed`.
    let dir = temp_dir("group-commit");
    let durable = DurableHealer::create(base.clone(), &dir, opts()).unwrap();
    let (writer, writer_handle) = spawn_writer(Publisher::from_durable(durable), 16);
    let replies: Vec<_> = jobs
        .iter()
        .map(|events| {
            let (reply, answer) = channel();
            let job = WriteJob {
                events: events.clone(),
                reply,
            };
            writer.send(job).unwrap();
            answer
        })
        .collect();
    for (j, answer) in replies.iter().enumerate() {
        check(j, answer.recv().unwrap());
    }
    drop(writer);
    let published = writer_handle.join().unwrap().hub().pin();
    assert_eq!((published.epoch, published.digest), stamps[4]);

    // The same jobs staged by hand into one commit: same stamps.
    let staged_dir = temp_dir("group-commit-staged");
    let durable = DurableHealer::create(base.clone(), &staged_dir, opts()).unwrap();
    let mut publisher = Publisher::from_durable(durable);
    let hub = publisher.hub();
    for (j, events) in jobs.iter().enumerate() {
        let answer = publisher.stage(events).map_err(|e| e.to_string());
        check(
            j,
            answer.map(|report| WriteAck {
                applied: report.outcomes.len(),
                epoch: publisher.healer().epoch(),
                digest: publisher.digest(),
            }),
        );
        assert_eq!(hub.epoch(), base_epoch, "visible before the commit");
    }
    publisher.commit_and_publish();
    assert_eq!((hub.pin().epoch, hub.pin().digest), stamps[4]);
    drop(publisher);

    // Committing the jobs one at a time writes the very same log.
    let one_by_one = temp_dir("group-commit-one-by-one");
    let mut durable = DurableHealer::create(base, &one_by_one, opts()).unwrap();
    for (j, events) in jobs.iter().enumerate() {
        assert_eq!(durable.apply_batch(events).is_err(), j == failing);
    }
    drop(durable);
    let wal = |dir: &PathBuf| fs::read(fg_store::wal_path(dir, base_epoch)).unwrap();
    assert_eq!(wal(&dir), wal(&one_by_one));
    assert_eq!(wal(&staged_dir), wal(&one_by_one));

    // Everything acked, the failed job's prefix included, recovers to
    // the same chain.
    for dir in [dir, staged_dir, one_by_one] {
        let (recovered, report) = DurableHealer::<ForgivingGraph>::open(&dir, opts()).unwrap();
        assert_eq!((report.epoch, recovered.chain_digest()), stamps[4]);
        drop(recovered);
        fs::remove_dir_all(&dir).unwrap();
    }
}
