//! Server-liveness regressions and the write path: a panicking
//! connection must never take a worker (or the server) down, shutdown
//! must complete behind a wildcard (`0.0.0.0`) bind, and FGQ1 write ops
//! must round-trip on a master / answer typed `NotMaster` refusals on a
//! read-only server — in both cases leaving the connection usable.

use fg_core::{ForgivingGraph, NetworkEvent, SelfHealer};
use fg_graph::{generators, NodeId};
use fg_serve::{
    spawn_writer, Client, ErrorCode, Publisher, Request, ServeError, Server, ServerConfig,
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
