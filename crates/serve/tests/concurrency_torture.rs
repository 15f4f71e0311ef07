//! Concurrency torture: many pipelining clients hammer the server
//! while a writer churns the healer and republishes snapshots as fast
//! as it can. The invariants under fire:
//!
//! * every response's epoch is an epoch the writer actually published
//!   (never a torn, skipped, or invented one), and its digest is the
//!   certificate recorded for that epoch;
//! * every served answer is bit-identical to what the retained snapshot
//!   for its epoch computes fresh — a reader is never served a mix of
//!   two epochs;
//! * superseded snapshots are freed once the last pin drops (epoch
//!   retirement), while the currently published one stays alive.

use fg_core::{ForgivingGraph, NetworkEvent, SelfHealer};
use fg_graph::NodeId;
use fg_serve::{
    Client, Publisher, Request, ResponseBody, ServeSnapshot, Server, ServerConfig, SnapshotHub,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// A deterministic, always-legal churn trace over `star(n)`: every round
/// inserts a leaf under one of the star's own leaves, every other round
/// deletes the leaf the round before inserted, and the middle round
/// deletes the hub. Ids are dense: the star takes `0..n`, and the k-th
/// insert gets `n + k`.
fn churn_events(n: usize, rounds: usize) -> Vec<NetworkEvent> {
    let mut events = Vec::with_capacity(rounds * 2);
    for i in 0..rounds {
        events.push(NetworkEvent::insert([NodeId::new(
            (1 + i % (n - 1)) as u32,
        )]));
        if i % 2 == 1 {
            events.push(NetworkEvent::delete(NodeId::new((n + i - 1) as u32)));
        }
        if i == rounds / 2 {
            events.push(NetworkEvent::delete(NodeId::new(0)));
        }
    }
    events
}

/// One client observation: the stamp plus the request and served body.
struct Observation {
    epoch: u64,
    digest: u64,
    request: Request,
    body: ResponseBody,
}

#[test]
fn readers_never_observe_unpublished_or_torn_epochs() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 60;

    let engine = ForgivingGraph::from_graph(&fg_graph::generators::star(9)).expect("fresh G0");
    let mut publisher = Publisher::new(engine);
    let hub: Arc<SnapshotHub> = publisher.hub();

    // Epoch → retained snapshot, recorded by the single writer. The
    // initial publish is in before any client connects.
    let retained: Arc<Mutex<HashMap<u64, Arc<ServeSnapshot>>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let first = hub.pin();
    let early_weak: Weak<ServeSnapshot> = Arc::downgrade(&first);
    retained.lock().unwrap().insert(first.epoch, first);

    let server = Server::bind(
        ("127.0.0.1", 0),
        hub.clone(),
        // One reader per client: every connection is served concurrently,
        // so the pre-churn barrier below cannot starve (a worker serves
        // one connection for its whole lifetime).
        ServerConfig {
            readers: CLIENTS,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // The schedule is made deterministic at its endpoints so the race
    // assertions below cannot flake under load: every client observes
    // the initial epoch *before* the writer starts (barrier), and
    // chases the final epoch after its rounds — the racing middle stays
    // fully unsynchronized.
    let events = churn_events(9, 120);
    let final_epoch = hub.epoch() + events.len() as u64;
    let start_gate = Arc::new(std::sync::Barrier::new(CLIENTS + 1));

    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let retained = Arc::clone(&retained);
        let hub = Arc::clone(&hub);
        let done = Arc::clone(&writer_done);
        let gate = Arc::clone(&start_gate);
        std::thread::spawn(move || {
            gate.wait();
            for chunk in events.chunks(3) {
                let _ = publisher.apply_and_publish(chunk).expect("legal churn");
                // Single writer: the pin taken right after publish IS the
                // snapshot just published, so the map holds every epoch
                // any client can ever be served.
                let pin = hub.pin();
                retained.lock().unwrap().insert(pin.epoch, pin);
            }
            done.store(true, Ordering::Release);
            publisher
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let gate = Arc::clone(&start_gate);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut log: Vec<Observation> = Vec::with_capacity(ROUNDS * 5 + 2);
                // Pre-churn observation: the writer is still parked on
                // the barrier, so this records the initial epoch.
                let stamped = client.roundtrip(&Request::Epoch).expect("roundtrip");
                log.push(Observation {
                    epoch: stamped.epoch,
                    digest: stamped.digest,
                    request: Request::Epoch,
                    body: stamped.value,
                });
                gate.wait();
                for round in 0..ROUNDS {
                    let u = NodeId::new(((c * 7 + round) % 24) as u32);
                    let v = NodeId::new(((c * 13 + round * 5) % 24) as u32);
                    let requests = [
                        Request::Distance(u, v),
                        Request::Path(u, v),
                        Request::Degree(u),
                        Request::Neighbors(u),
                        Request::SameComponent(u, v),
                    ];
                    // Pipelined: the round's five requests are all in
                    // flight before the first answer is read.
                    let ids: Vec<u64> = requests
                        .iter()
                        .map(|request| client.send(request).expect("send"))
                        .collect();
                    for (request, id) in requests.into_iter().zip(ids) {
                        let response = client.recv().expect("recv");
                        assert_eq!(response.request_id, id, "answers arrive in request order");
                        log.push(Observation {
                            epoch: response.epoch,
                            digest: response.digest,
                            request,
                            body: response.body.expect("torture traffic is well formed"),
                        });
                    }
                }
                // Chase the writer home: keep polling until the final
                // epoch is served, so every client provably crosses at
                // least one publish.
                loop {
                    let stamped = client.roundtrip(&Request::Epoch).expect("roundtrip");
                    let epoch = stamped.epoch;
                    log.push(Observation {
                        epoch,
                        digest: stamped.digest,
                        request: Request::Epoch,
                        body: stamped.value,
                    });
                    if epoch == final_epoch {
                        return log;
                    }
                }
            })
        })
        .collect();

    let logs: Vec<Vec<Observation>> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let publisher = writer.join().expect("writer thread");
    assert!(writer_done.load(Ordering::Acquire));

    // Re-verify every observation against the retained snapshot of its
    // claimed epoch: the stamp must name a published epoch, carry that
    // epoch's digest, and the body must equal a fresh computation on
    // that very snapshot — the epoch-consistency contract.
    let retained = Arc::try_unwrap(retained)
        .map_err(|_| "writer kept the map")
        .unwrap()
        .into_inner()
        .unwrap();
    let mut checked = 0usize;
    let mut epochs_seen: Vec<u64> = Vec::new();
    for obs in logs.iter().flatten() {
        let snapshot = retained
            .get(&obs.epoch)
            .unwrap_or_else(|| panic!("epoch {} was never published", obs.epoch));
        assert_eq!(
            obs.digest, snapshot.digest,
            "digest mismatch at {}",
            obs.epoch
        );
        assert_eq!(
            obs.body,
            snapshot
                .answer(&obs.request)
                .expect("torture traffic is read-only"),
            "answer diverged from retained epoch {} for {:?}",
            obs.epoch,
            obs.request
        );
        epochs_seen.push(obs.epoch);
        checked += 1;
    }
    assert!(checked >= CLIENTS * (ROUNDS * 5 + 2));
    // The run provably raced across publishes: every client saw the
    // pre-churn epoch and chased down the final one.
    epochs_seen.sort_unstable();
    epochs_seen.dedup();
    assert!(
        epochs_seen.len() >= 2,
        "torture run never raced a publish — got only epochs {epochs_seen:?}"
    );
    assert!(epochs_seen.contains(&final_epoch));
    // Final certificate agreement: the hub's last epoch is the
    // publisher's, and it is retained.
    assert_eq!(hub.epoch(), publisher.healer().epoch());
    assert!(retained.contains_key(&hub.epoch()));

    let stats = server.stats();
    assert_eq!(stats.protocol_errors(), 0, "well-formed traffic only");
    // A worker counts an answer after its write returns, so a client can
    // hold its last answer a moment before the server has counted it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while (stats.served() as usize) < checked && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        stats.served() as usize >= checked,
        "served {} answers, clients checked {checked}",
        stats.served()
    );
    server.shutdown();

    // Retirement: dropping the retained map releases the last pins on
    // superseded epochs; only the hub's current snapshot stays alive.
    let last_epoch = hub.epoch();
    drop(retained);
    assert!(
        early_weak.upgrade().is_none() || first_epoch_is_current(&hub, &early_weak),
        "superseded snapshot leaked after all pins dropped"
    );
    assert_eq!(hub.pin().epoch, last_epoch, "current snapshot must survive");
}

/// The one legitimate way the earliest snapshot can still be alive: no
/// publish ever superseded it (it is still the hub's current epoch).
fn first_epoch_is_current(hub: &SnapshotHub, weak: &Weak<ServeSnapshot>) -> bool {
    weak.upgrade().is_some_and(|s| s.epoch == hub.epoch())
}

#[test]
fn slow_reader_keeps_its_pinned_epoch_alive_until_drop() {
    // A reader holding a pin across many publishes keeps exactly its
    // epoch alive; releasing it frees the snapshot even though the hub
    // has long moved on.
    let engine = ForgivingGraph::from_graph(&fg_graph::generators::star(6)).expect("fresh G0");
    let mut publisher = Publisher::new(engine);
    let hub = publisher.hub();

    let pinned = hub.pin();
    let pinned_epoch = pinned.epoch;
    let weak = Arc::downgrade(&pinned);

    for chunk in churn_events(6, 30).chunks(2) {
        let _ = publisher.apply_and_publish(chunk).expect("legal churn");
    }
    assert!(hub.epoch() > pinned_epoch, "publishes advanced the epoch");
    // Still alive while pinned, and still answering from its own epoch.
    assert_eq!(pinned.epoch, pinned_epoch);
    assert!(weak.upgrade().is_some(), "pin must keep the epoch alive");

    drop(pinned);
    assert!(
        weak.upgrade().is_none(),
        "dropping the last pin must free the superseded snapshot"
    );
}
